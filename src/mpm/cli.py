"""Command-line interface: ``mpm <subcommand> ...``.

Exit codes: 0 success, 1 usage error, 2 data error, 3 computation
failure (e.g. the subdivision depth guard).  The four commands that
print distances (``wasserstein``, ``labeldist``, ``matchdist`` and
``bounds``) print decimals with ``--digits`` significant digits (default
12), rationals exactly under ``--exact``, and JSON under ``--json``;
``hilbert`` takes ``--json`` only.  The other commands print no number
and take none of these flags.  Every flag value is checked as it is
parsed, before any file is read; a bad one is a usage error that names
the flag.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .barcode import parse_barcode, serialize_barcode
from .cellular import (homology_presentation, lift_presentations,
                       parse_complex, serialize_complex)
from .errors import ComputationError, DataError, SubdivisionLimitError
from .field import PrimeField, is_prime
from .fixtures import (random_barcode, random_monotone_complex,
                       random_paired_presentations, random_presentation)
from .fpm import parse_presentation, serialize_presentation
from .grades import format_pexp, format_rat, is_inf, parse_pexp, rat
from .lines import (LimitLine, barcode_along_line, parse_line,
                    restrict_presentation)
from .matchdist import approx_matching_distance
from .onepar import barcode_of
from .presentation import hilbert_dim
from .presdist import PairedPresentations, bounds, label_distance
from .wasserstein import wasserstein


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _number(value, args):
    """How a distance prints: "inf", an exact rational under --exact,
    else a float for JSON or a --digits decimal for text."""
    if is_inf(value):
        return "inf"
    if args.exact and isinstance(value, Fraction):
        return format_rat(value)
    if args.json:
        return float(value)
    return format(float(value), f".{args.digits}g")


def _print_distance(value, args):
    print(json.dumps({"p": format_pexp(args.p), "distance": _number(value, args)}) if args.json
          else _number(value, args))


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _line_json(line):
    if isinstance(line, LimitLine):
        v = ["inf", "inf"]
        v[line.axis] = 1.0
    else:
        v = [float(c) for c in line.v]
    return {"v": v, "w": [float(c) for c in line.w]}


def _arg(convert, expected: str, ok=lambda value: True):
    """The argparse type of a value flag: convert(text), rejected with a
    message naming the text when convert raises or ok(value) fails."""
    def parse(text: str):
        try:
            value = convert(text)
            good = ok(value)
        except (ValueError, ZeroDivisionError, DataError):
            good = False
        if not good:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _grade_spec(spec: str):
    """--at: the grade "x,y" as typed and as exact coordinates."""
    return spec, tuple(rat(tok.strip()) for tok in spec.split(","))


_pexp = _arg(parse_pexp, "an exponent p >= 1 or inf")
_eps = _arg(rat, "a positive number", lambda eps: eps > 0)
_line = _arg(parse_line, 'a line "v1,v2;w1,w2" with v1, v2 > 0')
_count = _arg(int, "an integer of at least 0", lambda n: n >= 0)


def _add_number_output(sub):
    sub.add_argument("--digits", default=12,
                     type=_arg(int, "an integer from 1 to 50", lambda d: 1 <= d <= 50),
                     help="significant digits for decimal output, 1 to 50 (default 12)")
    sub.add_argument("--exact", action="store_true",
                     help="print rational results exactly")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> _Parser:
    parser = _Parser(prog="mpm", description="lp-distances on persistence modules")
    subs = parser.add_subparsers(dest="command", required=True)

    w = subs.add_parser("wasserstein", help="p-Wasserstein distance of two .bc files")
    w.add_argument("--p", type=_pexp, required=True)
    w.add_argument("barcode_a")
    w.add_argument("barcode_b")
    _add_number_output(w)

    b = subs.add_parser("barcode", help="barcode of a module (along a line if 2-parameter)")
    b.add_argument("--line", type=_line, help='admissible line "v1,v2;w1,w2"')
    b.add_argument("module")
    b.add_argument("-o", "--output")

    r = subs.add_parser("restrict", help="restrict a 2-parameter module to a line")
    r.add_argument("--line", type=_line, required=True)
    r.add_argument("module")
    r.add_argument("-o", "--output")

    m = subs.add_parser("matchdist", help="certified p-matching distance approximation")
    m.add_argument("--p", type=_pexp, required=True)
    m.add_argument("--eps", type=_eps, required=True)
    m.add_argument("--max-depth", type=_count, default=60,
                   help="subdivision depth limit (default 60)")
    m.add_argument("module_a")
    m.add_argument("module_b")
    _add_number_output(m)

    l = subs.add_parser("labeldist", help="label lp-distance of same-matrix presentations")
    l.add_argument("--p", type=_pexp, required=True)
    l.add_argument("module_a")
    l.add_argument("module_b")
    _add_number_output(l)

    bo = subs.add_parser("bounds", help="lower/upper bounds for the presentation distance")
    bo.add_argument("--p", type=_pexp, required=True)
    bo.add_argument("--eps", type=_eps, required=True)
    bo.add_argument("module_a")
    bo.add_argument("module_b")
    _add_number_output(bo)

    h = subs.add_parser("homology", help="presentation of the degree-j homology of a .cwf")
    h.add_argument("--deg", type=_count, required=True)
    h.add_argument("complex")
    h.add_argument("-o", "--output")

    lf = subs.add_parser("lift", help="realize a presentation pair as homology of one complex")
    lf.add_argument("module_a")
    lf.add_argument("module_b")
    lf.add_argument("-o", "--output-prefix", required=True)

    hi = subs.add_parser("hilbert", help="Hilbert function values of a module")
    hi.add_argument("--at", type=_arg(_grade_spec, "a grade of comma-separated numbers"),
                    action="append", required=True,
                    help='grade "x,y" (repeatable)')
    hi.add_argument("module")
    hi.add_argument("--json", action="store_true", help="machine-readable output")

    g = subs.add_parser("gen", help="generate random test fixtures")
    g.add_argument("kind", choices=["presentation", "pair", "complex", "barcode"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--params", type=int, choices=(1, 2), default=2)
    g.add_argument("--field", type=_arg(int, "a prime", is_prime), default=2)
    g.add_argument("--rows", type=_arg(int, "an integer of at least 1", lambda n: n >= 1),
                   default=4)
    g.add_argument("--cols", type=_count, default=4)
    g.add_argument("--vertices", type=_count, default=8)
    g.add_argument("--bars", type=_count, default=6)
    g.add_argument("-o", "--output-prefix")
    return parser


def _read_pair(args):
    """The presentations in the files module_a and module_b."""
    return (parse_presentation(_read(args.module_a)),
            parse_presentation(_read(args.module_b)))


def _cmd_wasserstein(args) -> int:
    B = parse_barcode(_read(args.barcode_a))
    C = parse_barcode(_read(args.barcode_b))
    _print_distance(wasserstein(B, C, args.p), args)
    return 0


def _cmd_barcode(args) -> int:
    P = parse_presentation(_read(args.module))
    if P.n_params == 2:
        if not args.line:
            raise DataError("a 2-parameter module needs --line")
        bc = barcode_along_line(P, args.line)
    else:
        if args.line:
            raise DataError("--line applies only to 2-parameter modules")
        bc = barcode_of(P)
    _write_out(serialize_barcode(bc), args.output)
    return 0


def _cmd_restrict(args) -> int:
    P = parse_presentation(_read(args.module))
    out = restrict_presentation(P, args.line)
    _write_out(serialize_presentation(out), args.output)
    return 0


def _cmd_matchdist(args) -> int:
    A, B = _read_pair(args)
    failure = None
    try:
        report = approx_matching_distance(A, B, args.p, args.eps, max_depth=args.max_depth)
    except SubdivisionLimitError as exc:
        report, failure = exc.report, exc
    lower, upper = _number(report.lower, args), _number(report.upper, args)
    if args.json:
        payload = {"p": format_pexp(report.p), "epsilon": report.epsilon,
                   "lower": lower, "upper": upper,
                   "lines_evaluated": report.lines_evaluated,
                   "argmax_line": _line_json(report.argmax_admissible())}
        if failure:
            payload["converged"] = False
        print(json.dumps(payload))
    elif failure:
        print(f"FAILED ({failure}); lower {lower} upper {upper}")
    else:
        print(f"lower {lower} upper {upper} lines {report.lines_evaluated}")
    return 3 if failure else 0


def _cmd_labeldist(args) -> int:
    A, B = _read_pair(args)
    _print_distance(label_distance(PairedPresentations(A, B), args.p), args)
    return 0


def _cmd_bounds(args) -> int:
    A, B = _read_pair(args)
    rep = bounds(A, B, args.p, args.eps)
    lower, upper = _number(rep.lower, args), _number(rep.upper, args)
    if args.json:
        print(json.dumps({"p": format_pexp(args.p), "epsilon": float(args.eps),
                          "lower": lower, "upper": upper,
                          "provenance": list(rep.provenance)}))
    else:
        print(f"lower {lower} upper {upper}")
    return 0


def _cmd_homology(args) -> int:
    X = parse_complex(_read(args.complex))
    P = homology_presentation(X, args.deg)
    _write_out(serialize_presentation(P), args.output)
    return 0


def _cmd_lift(args) -> int:
    X, f, g = lift_presentations(*_read_pair(args))
    _write_out(serialize_complex(X), f"{args.output_prefix}.f.cwf")
    _write_out(serialize_complex(X.with_grades(g)), f"{args.output_prefix}.g.cwf")
    print(f"wrote {args.output_prefix}.f.cwf and {args.output_prefix}.g.cwf")
    return 0


def _cmd_hilbert(args) -> int:
    P = parse_presentation(_read(args.module))
    rows = []
    for spec, coords in args.at:
        if len(coords) != P.n_params:
            raise DataError(f"grade {spec!r} does not have {P.n_params} coordinates")
        rows.append((spec, hilbert_dim(P, coords)))
    if args.json:
        print(json.dumps({spec: dim for spec, dim in rows}))
    else:
        for spec, dim in rows:
            print(f"{spec}\t{dim}")
    return 0


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    field = PrimeField(args.field)
    if args.kind == "presentation":
        P = random_presentation(rng, n_params=args.params, max_rows=args.rows,
                                max_cols=args.cols, field=field)
        _write_out(serialize_presentation(P), args.output_prefix)
    elif args.kind == "pair":
        A, B = random_paired_presentations(rng, n_params=args.params,
                                           max_rows=args.rows, max_cols=args.cols,
                                           field=field)
        if args.output_prefix:
            _write_out(serialize_presentation(A), f"{args.output_prefix}.a.fpm")
            _write_out(serialize_presentation(B), f"{args.output_prefix}.b.fpm")
        else:
            sys.stdout.write(serialize_presentation(A))
            sys.stdout.write(serialize_presentation(B))
    elif args.kind == "complex":
        X = random_monotone_complex(rng, n_vertices=args.vertices,
                                    n_params=args.params, field=field)
        _write_out(serialize_complex(X), args.output_prefix)
    else:
        bc = random_barcode(rng, max_bars=args.bars)
        _write_out(serialize_barcode(bc), args.output_prefix)
    return 0


_COMMANDS = {
    "wasserstein": _cmd_wasserstein,
    "barcode": _cmd_barcode,
    "restrict": _cmd_restrict,
    "matchdist": _cmd_matchdist,
    "labeldist": _cmd_labeldist,
    "bounds": _cmd_bounds,
    "homology": _cmd_homology,
    "lift": _cmd_lift,
    "hilbert": _cmd_hilbert,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
