import ast
import importlib
import json
import math
import random
import subprocess
import sys
import textwrap
from decimal import Decimal, localcontext
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpm
from mpm import (Barcode, DataError, ParseError, PrimeField, Presentation,
                 free_presentation, grade_join, grade_leq, hilbert_dim,
                 labels, parse_presentation, rank_invariant, rat,
                 serialize_presentation, vec_pnorm, vec_pnorm_power,
                 wasserstein)
from mpm.field import ColumnEchelon, column_rank, is_prime
from mpm.fixtures import random_presentation
from mpm.grades import format_rat, pth_root

from oracles import dense_hilbert, dense_rank

FPM_F = """\
fpm 1
field 2
params 2
rows 2
0 0
0 0
cols 3
1 4 : 1 1
3 3 : 1 1
4 1 : 1 1
"""


def test_prime_field_validation():
    PrimeField(2)
    PrimeField(97)
    with pytest.raises(DataError):
        PrimeField(4)
    with pytest.raises(DataError):
        PrimeField(1)
    assert is_prime(2) and is_prime(3571) and not is_prime(3569)


def test_rat_exact_decimal_parsing():
    assert rat("1.25") == F(5, 4)
    assert rat("3/4") == F(3, 4)
    assert rat("-0.1") == F(-1, 10)
    assert format_rat(F(5, 4)) == "1.25"
    assert format_rat(F(1, 3)) == "1/3"
    assert format_rat(F(-7, 2)) == "-3.5"


def test_pth_root_accuracy():
    assert pth_root(F(4), 2) == 2.0
    assert abs(pth_root(F(2), 2) - math.sqrt(2)) < 1e-15
    assert abs(pth_root(F(1, 64), 6) - 0.5) < 1e-15


def test_pth_root_within_one_ulp_at_every_magnitude():
    # neither small roots (which a fixed 64-bit scaling rounds away) nor
    # large ones (whose scaled root overflows a float) lose accuracy
    def within_one_ulp(got, want):
        return abs(Decimal(got) - want) <= Decimal(math.ulp(got))

    with localcontext() as ctx:
        ctx.prec = 60
        for k in (2, 3, 7):
            for e in range(-300, 301):
                want = (Decimal(10) ** e) ** (Decimal(1) / k)
                assert within_one_ulp(pth_root(F(10) ** e, F(k)), want), (k, e)
        assert within_one_ulp(vec_pnorm([10**300, 10**300], 2),
                              Decimal(2).sqrt() * Decimal(10) ** 300)
    assert wasserstein(Barcode([(0, 1)]), Barcode([(F(1, 10**20), 1)]), 2) == 1e-20


def test_non_integral_pnorm_keeps_tiny_and_large_values():
    # float powers of the raw values would give 0.0 for 1e-250 and
    # overflow for 1e250; the scaled powers keep a few ulps at every scale
    assert vec_pnorm([F(1, 10**250)], F(3, 2)) == 1e-250
    assert vec_pnorm([F(10**250)], F(3, 2)) == 1e250
    with localcontext() as ctx:
        ctx.prec = 60
        for e in range(-300, 301, 25):
            vals = [F(10) ** e, -3 * F(10) ** e / 7]
            want = sum(abs(Decimal(v.numerator) / v.denominator) ** Decimal(2.5)
                       for v in vals) ** (1 / Decimal(2.5))
            got = vec_pnorm(vals, F(5, 2))
            assert abs(Decimal(got) - want) <= 4 * Decimal(math.ulp(got)), e
    assert vec_pnorm([F(0), F(0)], F(3, 2)) == 0.0
    assert vec_pnorm([F(1), math.inf], F(3, 2)) == math.inf
    # only a norm beyond the double range overflows
    with pytest.raises(OverflowError):
        vec_pnorm([F(10**308)] * 4, F(3, 2))


def test_pnorms():
    vals = [F(1), F(-1)]
    assert vec_pnorm(vals, F(1)) == 2
    assert vec_pnorm(vals, math.inf) == 1
    assert vec_pnorm_power(vals, F(2)) == 2
    assert abs(vec_pnorm(vals, F(2)) - math.sqrt(2)) < 1e-14


def test_grade_order_is_product_order():
    assert grade_leq((F(1), F(2)), (F(1), F(3)))
    assert not grade_leq((F(2), F(0)), (F(1), F(4)))
    assert not grade_leq((F(1), F(4)), (F(2), F(0)))
    assert grade_join((F(1), F(4)), (F(3), F(3))) == (F(3), F(4))


def test_presentation_label_order_enforced():
    with pytest.raises(DataError, match="label order"):
        Presentation(PrimeField(2), 2, ((5, 0),), ((1, 4),), (((0, 1),),))


def test_parse_fpm_fixture(pres_f):
    P = parse_presentation(FPM_F)
    assert P == pres_f
    assert labels(P) == ((F(0), F(0)), (F(0), F(0)),
                         (F(1), F(4)), (F(3), F(3)), (F(4), F(1)))


def test_parse_free_module():
    P = parse_presentation("fpm 1\nfield 2\nparams 2\nrows 1\n0 0\ncols 0\n")
    assert P.n_rows == 1 and P.n_cols == 0


def test_parse_errors_carry_line_numbers():
    bad = "fpm 1\nfield 2\nparams 2\nrows 1\n5 0\ncols 1\n1 4 : 0 1\n"
    with pytest.raises(ParseError, match="label order"):
        parse_presentation(bad)
    with pytest.raises(ParseError, match="line 5"):
        parse_presentation("fpm 1\nfield 2\nparams 2\nrows 1\nx y\ncols 0\n")
    with pytest.raises(ParseError, match="outside the field"):
        parse_presentation("fpm 1\nfield 2\nparams 2\nrows 1\n0 0\ncols 1\n1 1 : 0 2\n")
    with pytest.raises(ParseError, match="line 2: field order 4 is not prime"):
        parse_presentation("fpm 1\nfield 4\nparams 2\nrows 0\ncols 0\n")
    with pytest.raises(ParseError, match="line 3: params must be 1 or 2"):
        parse_presentation("fpm 1\nfield 2\nparams 3\nrows 0\ncols 0\n")
    with pytest.raises(ParseError, match="line 4: rows must be >= 0, got -2"):
        parse_presentation("fpm 1\nfield 2\nparams 2\nrows -2\ncols 0\n")
    with pytest.raises(ParseError, match="line 6: cols must be >= 0, got -1"):
        parse_presentation("fpm 1\nfield 2\nparams 2\nrows 1\n0 0\ncols -1\n")


def test_roundtrip_identity():
    rng = random.Random(7)
    for _ in range(25):
        P = random_presentation(rng, n_params=rng.choice([1, 2]),
                                field=PrimeField(rng.choice([2, 5])))
        assert parse_presentation(serialize_presentation(P)) == P


def test_hilbert_examples(pres_f):
    assert hilbert_dim(pres_f, (F(2), F(2))) == 2
    assert hilbert_dim(pres_f, (F(5), F(5))) == 1
    Q = free_presentation([(0, 0)], PrimeField(2))
    assert hilbert_dim(Q, (F(-1), F(-1))) == 0


def test_rank_invariant_examples(pres_f):
    assert rank_invariant(pres_f, (F(0), F(0)), (F(2), F(2))) == 2
    assert rank_invariant(pres_f, (F(0), F(0)), (F(5), F(5))) == 1
    with pytest.raises(DataError):
        rank_invariant(pres_f, (F(1), F(0)), (F(0), F(1)))


def test_rank_invariant_zero_when_no_generator():
    Q = free_presentation([(3, 3)], PrimeField(2))
    assert rank_invariant(Q, (F(0), F(0)), (F(0), F(0))) == 0


def test_hilbert_matches_dense_oracle_randomized():
    rng = random.Random(11)
    for _ in range(40):
        P = random_presentation(rng, max_rows=5, max_cols=6,
                                field=PrimeField(rng.choice([2, 5])))
        for _ in range(6):
            g = (F(rng.randrange(-1, 9)), F(rng.randrange(-1, 9)))
            assert hilbert_dim(P, g) == dense_hilbert(P, g)


def test_rank_invariant_bounded_by_hilbert():
    rng = random.Random(13)
    for _ in range(30):
        P = random_presentation(rng, max_rows=5, max_cols=6)
        s = (F(rng.randrange(0, 6)), F(rng.randrange(0, 6)))
        t = (s[0] + rng.randrange(0, 4), s[1] + rng.randrange(0, 4))
        r = rank_invariant(P, s, t)
        assert r <= min(hilbert_dim(P, s), hilbert_dim(P, t))


def test_column_echelon_rank_matches_dense():
    rng = random.Random(3)
    for q in (2, 5):
        for _ in range(20):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            cols = []
            for _ in range(m):
                cols.append({r: rng.randrange(1, q) for r in range(n)
                             if rng.random() < 0.5})
            dense = [[cols[j].get(r, 0) for j in range(m)] for r in range(n)]
            assert column_rank(cols, PrimeField(q)) == dense_rank(dense, q)


def test_column_echelon_solve_roundtrip():
    fld = PrimeField(5)
    ech = ColumnEchelon(fld, track=True)
    cols = [{0: 1, 1: 2}, {1: 3}, {0: 4, 2: 1}]
    for i, c in enumerate(cols):
        ech.insert(dict(c), tag=i)
    target = {0: (1 + 4 * 2) % 5, 1: 2, 2: 2}  # cols[0] + 2*cols[2]
    combo = ech.solve(dict(target))
    rebuilt = {}
    for tag, coeff in combo.items():
        for r, v in cols[tag].items():
            rebuilt[r] = (rebuilt.get(r, 0) + coeff * v) % 5
    assert {r: v for r, v in rebuilt.items() if v} == target
    with pytest.raises(DataError):
        ech.solve({3: 1})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.fractions(min_value=-10, max_value=10), min_size=0, max_size=6),
       st.sampled_from([1, 2, 3]))
def test_pnorm_power_consistency(vals, p):
    power = vec_pnorm_power(vals, F(p))
    assert power == sum(abs(v) ** p for v in vals)
    norm = vec_pnorm(vals, F(p))
    if p == 1:
        assert norm == power
    else:
        assert abs(float(norm) ** p - float(power)) <= 1e-9 * (1 + float(power))


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statements():
    # python -O strips asserts, and an AssertionError escapes the CLI's
    # error handling; invariants must raise the package's own errors
    src = Path(mpm.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)
             or (isinstance(node, ast.Raise) and _raises_assertion_error(node))]
    assert found == []


def test_oracles_import_no_private_package_names():
    # the oracles check the package, so they must not reuse its internals
    path = Path(__file__).with_name("oracles.py")
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "mpm"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_bench_layers_name_existing_functions():
    # the bench tracer wraps these functions by name; one that is renamed
    # or deleted silently drops its layer's metrics
    path = Path(__file__).parents[1] / "bench" / "spans.py"
    tree = ast.parse(path.read_text(), str(path))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"])
    missing = [f"{module}.{name}"
               for entries in layers.values() for module, names in entries
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert layers
    assert missing == []


def test_reimport_frees_the_previous_library():
    # a fresh import of mpm (the bench makes one before every pass) must
    # leave the previous one collectable; a module-level typing.Union of
    # mpm classes pinned each old import in typing's cache.  A subprocess
    # keeps this session's imports out of it
    code = textwrap.dedent("""
        import collections, gc, importlib, json, sys
        for _ in range(5):
            for name in [n for n in sys.modules if n == "mpm" or n.startswith("mpm.")]:
                del sys.modules[name]
            importlib.import_module("mpm")
            gc.collect()
        alive = collections.Counter(
            f"{obj.__module__}.{obj.__qualname__}" for obj in gc.get_objects()
            if isinstance(obj, type) and obj.__module__.split(".")[0] == "mpm")
        print(json.dumps([sorted(name for name, k in alive.items() if k > 1), len(alive)]))
    """)
    src = str(Path(__file__).parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, cwd=src).stdout
    stale, n_classes = json.loads(out)
    assert n_classes > 10 and stale == []
