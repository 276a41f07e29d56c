import ast
import importlib
import itertools
import json
import math
import random
import re
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
from mpm import (AdmissibleLine, Barcode, DataError, FilteredComplex, LimitLine,
                 Matching, PairedPresentations, ParseError, PrimeField, Presentation,
                 barcode_along_line, barcode_of, free_presentation, grade_join,
                 grade_leq, hilbert_dim, homology_presentation, label_distance,
                 label_distance_power, labels, parse_barcode, parse_complex,
                 parse_presentation, rat, serialize_complex, serialize_presentation,
                 vec_pnorm, vec_pnorm_power, wasserstein, wasserstein_full)
from mpm.field import ColumnEchelon, col_axpy, column_rank, is_prime
from mpm.fixtures import (random_barcode, random_monotone_complex,
                          random_paired_presentations, random_presentation)
from mpm.grades import format_rat, is_inf, lp_root, pth_root
from mpm.presentation import _minimal
from mpm.wasserstein import bar_distance

from oracles import (ReferenceEchelon, dense_hilbert, dense_rank, matching_cost,
                     matching_cost_power, rank_invariant)

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


# format_rat's text for ints, Fractions, floats (which print their exact
# binary value), negative values and inf
FORMAT_RAT_TABLE = (
    (0, "0"), (7, "7"), (-12, "-12"), (10**20, "100000000000000000000"),
    (F(0), "0"), (F(5, 4), "1.25"), (F(1, 3), "1/3"), (F(-7, 2), "-3.5"),
    (F(-1, 3), "-1/3"), (F(3, 8), "0.375"), (F(1, 10**12), "0.000000000001"),
    (F(-22, 7), "-22/7"), (F(10**12 + 39, 10**12), "1.000000000039"),
    (F(1, 128000), "0.0000078125"),
    (0.1, "0.1000000000000000055511151231257827021181583404541015625"),
    (1e-5, "0.000010000000000000000818030539140313095458623138256371021270751953125"),
    (0.5, "0.5"), (-2.25, "-2.25"), (1.0, "1"), (-0.0, "0"),
    (3e20, "300000000000000000000"), (math.inf, "inf"),
)


def test_format_rat_table():
    for x, text in FORMAT_RAT_TABLE:
        assert format_rat(x) == text, x


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


def test_lp_root():
    # the aggregate is the distance at p = 1, at p = inf and when infinite
    for agg in (F(7, 3), 5, 2.5):
        for p in (F(1), 1, math.inf):
            got = lp_root(agg, p)
            assert (type(got), got) == (type(agg), agg)
    for p in (F(1), F(2), F(3, 2), math.inf):
        assert lp_root(math.inf, p) == math.inf
    # a float power is rooted by **, an exact one by pth_root
    for power in (2.0, 1e-300, 3.7e250):
        for p in (F(2), F(3), F(3, 2), F(7, 3)):
            assert lp_root(power, p).hex() == (power ** (1 / float(p))).hex()
    for power in (F(2), F(1, 10**40), 10**400):
        for p in (F(2), F(3), 7):
            assert lp_root(power, p) == pth_root(power, p)
    zero = lp_root(F(0), F(3, 2))
    assert (type(zero), zero) == (float, 0.0)
    with pytest.raises(ValueError):
        pth_root(F(2), F(3, 2))
    # bar_distance's aggregate, rooted once, is the Wasserstein distance
    rng = random.Random(13)
    for _ in range(40):
        B, C = random_barcode(rng), random_barcode(rng)
        lists = []
        for X in (B, C):
            lists.append([bar for bar in X.bars if not is_inf(bar[1])])
            lists.append(sorted(b for b, d in X.bars if is_inf(d)))
        for p in (F(1), F(2), F(3, 2), math.inf):
            agg, _ = bar_distance(*lists, p, F(0))
            assert lp_root(agg, p) == wasserstein(B, C, p), (B, C, p)


def test_is_inf_is_true_only_for_float_plus_infinity():
    class Big(float):
        pass

    for x in (math.inf, float("inf"), Big("inf")):
        assert is_inf(x), x
    for x in (-math.inf, math.nan, 1e308, 0, 10**400, F(0), F(10**400, 3)):
        assert not is_inf(x), x


def test_grade_order_is_product_order():
    assert grade_leq((F(1), F(2)), (F(1), F(3)))
    assert not grade_leq((F(2), F(0)), (F(1), F(4)))
    assert not grade_leq((F(1), F(4)), (F(2), F(0)))
    assert grade_leq((F(-1, 3),), (F(0),)) and grade_leq((F(2),), (F(2),))
    assert not grade_leq((F(1),), (F(1, 2),))
    for a, b in (((F(0),), (F(1), F(1))), ((F(0), F(0)), (F(1),)),
                 ((F(2), F(0)), (F(1),)), ((), (F(1),))):
        with pytest.raises(ValueError):
            grade_leq(a, b)
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


FPM_HEAD = "fpm 1\nfield 3\nparams 2\nrows 2\n0 0\n1 1\ncols 1\n"
CWF_HEAD = "cwf 1\nfield 3\nparams 2\nv 0 0 0 :\nw 0 1 0 :\n"
PARSE_ERRORS = [  # (parser, text, message pattern, line)
    (parse_presentation, FPM_HEAD + "1 x : 0 1\n", r".*'x'", 8),
    (parse_presentation, FPM_HEAD + "1 1 : 0 1 1\n",
     r"column entries must be '<row-index> <coeff>' pairs", 8),
    (parse_presentation, FPM_HEAD + "1 1 : 0 a\n", r"bad entry pair '0' 'a'", 8),
    (parse_presentation, FPM_HEAD + "1 1 : 2 1\n", r"row index 2 out of range", 8),
    (parse_presentation, FPM_HEAD + "1 1 : 0 1 0 2\n", r"duplicate row index 0", 8),
    (parse_presentation, FPM_HEAD + "1 1 : 0 1\n\nextra\n", r"trailing content 'extra'", 10),
    (parse_presentation, FPM_HEAD + "0 1 : 1 1\n",
     r"label order violated: entry \(1, 0\) has row label \(1, 1\) ≰ column label \(0, 1\)",
     None),
    (parse_presentation, "fpm 2\nfield 3\nparams 2\nrows 0\ncols 0\n",
     r"expected 'fpm 1' header, got 'fpm 2'", 1),
    (parse_barcode, "0 1\n1 2 3\n", r"expected '<birth> <death\|inf>', got '1 2 3'", 2),
    (parse_barcode, "0 1\n\n1 two\n", r".*'two'", 3),
    (parse_complex, CWF_HEAD + "e 1 1 : v 1 w 2\n",
     r"expected '<id> <dim> <grade\.\.\.> : \.\.\.'", 6),
    (parse_complex, CWF_HEAD + "e 1 1 0 : v 1 w\n",
     r"boundary must be '<face-id> <coeff>' pairs", 6),
    (parse_complex, CWF_HEAD + "e 1 1 0 : v 1 w two\n", r"bad coefficient 'two'", 6),
    (parse_complex, CWF_HEAD + "e 1 1 0 : v 1 w 3\n", r"coefficient 3 outside the field F_3", 6),
    (parse_complex, CWF_HEAD + "e 1 0 0 : v 1 w 2\n",
     r"grades not monotone: face w at \(1, 0\) ≰ cell e at \(0, 0\)", None),
]


def test_parse_errors_name_their_line():
    # every ParseError of the three parsers, by message and .line; the
    # two errors raised by the Presentation and FilteredComplex
    # constructors belong to no one line and carry line None
    for parse, text, message, line in PARSE_ERRORS:
        with pytest.raises(ParseError) as info:
            parse(text)
        prefix = "" if line is None else f"line {line}: "
        assert re.fullmatch(prefix + message, str(info.value)), (text, str(info.value))
        assert info.value.line == line, text


CWF_TOKENS = """\
cwf 1
field 2
params 2
a 0 0 1/2 :
b 0 0.5 0 :
e 1 0.5 1/2 : a 1 b 1
"""


def test_parsers_make_each_distinct_token_once(monkeypatch):
    made = []
    original = F.__new__

    def spy(cls, *args, **kwargs):
        if args and isinstance(args[0], str):
            made.append(args[0])
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(spy))
    assert parse_presentation(FPM_F).col_labels[1] == (F(3), F(3))
    assert sorted(made) == ["0", "1", "3", "4"]
    made.clear()
    X = parse_complex(CWF_TOKENS)
    assert sorted(made) == ["0", "0.5", "1/2"]
    # equal-valued spellings give equal grades
    assert X.grade_map() == {"a": (0, F(1, 2)), "b": (F(1, 2), 0),
                             "e": (F(1, 2), F(1, 2))}


def test_parsers_report_a_later_bad_token_at_its_line():
    head = "fpm 1\nfield 2\nparams 2\nrows 3\n"
    assert (parse_presentation(head + "1 0.5\n1/2 1\n1 1\ncols 0\n").row_labels
            == ((1, F(1, 2)), (F(1, 2), 1), (1, 1)))
    with pytest.raises(ParseError, match=r"^line 7: .*'x'") as info:
        parse_presentation(head + "1 1\n1 1\n1 x\ncols 0\n")
    assert info.value.line == 7
    with pytest.raises(ParseError, match=r"^line 6: Fraction\(1, 0\)"):
        parse_presentation(head + "1 1/2\n1/2 1/0\n1/0 1\ncols 0\n")
    cells = "cwf 1\nfield 2\nparams 2\nv 0 1/3 2 :\nw 0 1/3 2 :\n"
    with pytest.raises(ParseError, match=r"^line 6: .*'2\.x'"):
        parse_complex(cells + "e 1 1/3 2.x : v 1 w 1\n")
    with pytest.raises(ParseError, match=r"^line 6: Fraction\(2, 0\)"):
        parse_complex(cells + "e 1 1/3 2/0 : v 1 w 1\n")


def test_serializers_format_each_distinct_coordinate_once(monkeypatch):
    P = parse_presentation(FPM_F)
    X = parse_complex(CWF_TOKENS)
    texts = (serialize_presentation(P), serialize_complex(X))
    made = []

    def spy(x):
        made.append(x)
        return format_rat(x)

    monkeypatch.setattr(mpm.grades, "format_rat", spy)
    assert serialize_presentation(P) == texts[0] == FPM_F
    assert sorted(made) == [0, 1, 3, 4]
    made.clear()
    assert serialize_complex(X) == texts[1]
    assert sorted(made) == [0, F(1, 2)]


def test_labels_are_normalized_and_checked():
    # int and str coordinates become Fractions; a tuple of Fractions is
    # kept as it is; floats are refused, as rat refuses them
    half = (F(1, 2), F(3))
    P = Presentation(PrimeField(2), 2, ((0, "1/2"), half), ([1, "3.5"],), (((1, 1),),))
    assert P.row_labels == ((F(0), F(1, 2)), half) and P.row_labels[1] is half
    assert P.col_labels == ((F(1), F(7, 2)),)
    assert all(type(c) is F for g in labels(P) for c in g)
    assert free_presentation([half, (2, "0.25")]).row_labels == (half, (F(2), F(1, 4)))
    X = FilteredComplex(PrimeField(2), 2, [("v", 0, ("1/4", 0)), ("w", 0, half)], {})
    assert X.grade_map() == {"v": (F(1, 4), F(0)), "w": half}
    assert X.grade_map()["w"] is half
    with pytest.raises(TypeError):
        Presentation(PrimeField(2), 2, ((0.5, 0),), (), ())
    with pytest.raises(TypeError):
        FilteredComplex(PrimeField(2), 2, [("v", 0, (0.5, 0))], {})
    for bad in ((F(1),), (F(1), F(2), F(3)), (1,), ()):
        with pytest.raises(DataError, match="coordinates"):
            Presentation(PrimeField(2), 2, (bad,), (), ())
        with pytest.raises(DataError, match="2-dimensional"):
            FilteredComplex(PrimeField(2), 2, [("v", 0, bad)], {})
    with pytest.raises(DataError, match="label order"):
        Presentation(PrimeField(2), 2, (half,), ((F(0), F(0)),), (((0, 1),),))
    with pytest.raises(DataError, match="not monotone"):
        FilteredComplex(PrimeField(2), 2, [("v", 0, half), ("e", 1, (F(0), F(0)))],
                        {"e": [("v", 1)]})


def test_roundtrip_identity():
    rng = random.Random(7)
    for _ in range(25):
        P = random_presentation(rng, n_params=rng.choice([1, 2]),
                                field=PrimeField(rng.choice([2, 5])))
        assert parse_presentation(serialize_presentation(P)) == P


def _with_cancellable_parts(rng, P):
    """P with parts for the minimizer to remove appended: a redundant
    relation (the sum of two columns at their join), when P has two
    columns, and a generator g with a relation of its own grade, which
    other columns of grade >= g may use as well."""
    rows, cols, columns = list(P.row_labels), list(P.col_labels), list(P.columns)
    if len(columns) >= 2:
        a, b = rng.sample(range(len(columns)), 2)
        summed = dict(columns[a])
        col_axpy(summed, -1, dict(columns[b]), P.field.q)
        cols.append(grade_join(cols[a], cols[b]))
        columns.append(tuple(sorted(summed.items())))
    g = rows[rng.randrange(len(rows))] if rows else (F(0),) * P.n_params
    rows.append(g)
    columns = [col + ((len(rows) - 1, 1),) if grade_leq(g, lbl) and rng.random() < 0.3
               else col for col, lbl in zip(columns, cols)]
    cols.append(g)
    columns.append(((len(rows) - 1, 1),) + tuple(
        (r, rng.randrange(1, P.field.q)) for r in range(len(rows) - 1)
        if rows[r] == g and rng.random() < 0.5))
    return Presentation(P.field, P.n_params, tuple(rows), tuple(cols), tuple(columns))


def _minimality_cases():
    rng = random.Random(23)
    for i in range(120):
        P = random_presentation(rng, n_params=2 if i % 4 else 1, max_rows=5,
                                max_cols=6, field=PrimeField((2, 3)[i % 2]),
                                span=3, denom=1)
        yield P
        yield _with_cancellable_parts(rng, P)
    for seed in range(6):
        X = random_monotone_complex(random.Random(seed), n_vertices=7,
                                    field=PrimeField((2, 3)[seed % 2]), span=3,
                                    denom=1, max_cells=30)
        for j in (0, 1):
            yield homology_presentation(X, j)


def test_minimal_presents_the_same_module_minimally():
    lines = [AdmissibleLine((1, 1), (0, 0)), AdmissibleLine((1, F(5, 2)), (F(1, 2), 0)),
             AdmissibleLine((3, 1), (0, F(3, 2))), LimitLine(0, (0, 1)), LimitLine(1, (2, 0))]
    shrunk = 0
    for P in _minimality_cases():
        rows, cols, columns = found = _minimal(P)
        M = Presentation(P.field, P.n_params, rows, cols, columns)
        assert _minimal(M) == found
        shrunk += M.n_rows + M.n_cols < P.n_rows + P.n_cols
        # the Hilbert function is constant on the cells of the grid of
        # label coordinates, so the grid decides it exactly
        axes = [sorted({g[k] for g in labels(P)} | {F(-1)}) for k in range(P.n_params)]
        for g in itertools.product(*axes):
            assert hilbert_dim(M, g) == hilbert_dim(P, g)
        if P.n_params == 1:
            assert barcode_of(M) == barcode_of(P)
        else:
            for line in lines:
                assert barcode_along_line(M, line) == barcode_along_line(P, line)
        for j, col in enumerate(columns):
            assert all(rows[r] != cols[j] for r, _ in col)
            echelon = ColumnEchelon(P.field)
            for k, other in enumerate(columns):
                if k != j and grade_leq(cols[k], cols[j]):
                    echelon.add(other)
            assert echelon.add(col) is not None
    assert shrunk > 100


def test_minimal_puts_survivors_in_label_order():
    # rows (0,0), (1,0), (0,0) over F_3, relations listed out of label
    # order: relation 2 is twice relation 3 at a later grade and goes;
    # relation 1 cancels with row 0, its first row of equal grade, which
    # turns relation 3's row 0 into row 2.  Columns come in lex order of
    # grade, (1,1) before (3,1), and rows sorted by grade, row 2 at (0,0)
    # before row 1 at (1,0)
    P = Presentation(PrimeField(3), 2, ((0, 0), (1, 0), (0, 0)),
                     ((3, 1), (0, 0), (2, 2), (1, 1)),
                     (((1, 1),), ((0, 1), (2, 2)), ((0, 2), (1, 2)), ((0, 1), (1, 1))))
    assert _minimal(P) == (((F(0), F(0)), (F(1), F(0))), ((F(1), F(1)), (F(3), F(1))),
                           (((0, 1), (1, 1)), ((1, 1),)))


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


def test_column_echelon_reduce_roundtrip():
    # over F_5, add_tagged returns for a column in the span of the tagged
    # ones the kernel vector {tag: 1} - combo, which sums the columns to
    # zero, and keeps a column outside the span; add reports the same
    # split by pivot alone.  No column is modified
    fld = PrimeField(5)
    cols = [{0: 1, 1: 2}, {1: 3}, {0: 4, 2: 1}]
    target = {0: (1 + 4 * 2) % 5, 1: 2, 2: 2}  # cols[0] + 2*cols[2]
    outside = {0: 2, 3: 1}
    tagged, plain = ColumnEchelon(fld), ColumnEchelon(fld)
    for i, c in enumerate(cols):
        assert tagged.add_tagged(c, i) is None
        assert plain.add(c) is not None
    assert cols == [{0: 1, 1: 2}, {1: 3}, {0: 4, 2: 1}]

    vec = tagged.add_tagged(target, 3)
    assert vec == {3: 1, 0: 4, 2: 3}
    total = {}
    for t, v in vec.items():
        for r, w in (cols + [target])[t].items():
            total[r] = (total.get(r, 0) + v * w) % 5
    assert not any(total.values())
    assert tagged.rank == 3
    assert tagged.add_tagged(outside, 4) is None and tagged.rank == 4
    assert plain.add(target) is None and plain.rank == 3
    assert plain.add(outside) == (3, 1) and plain.rank == 4
    assert target == {0: 4, 1: 2, 2: 2} and outside == {0: 2, 3: 1}


def test_column_echelon_matches_the_dict_reference():
    # over F_2 the echelon runs on int bitsets, over F_3 and F_5 on dicts;
    # with or without a row order, both must keep the reference's
    # residuals at every add, add_tagged and truncate, with columns as
    # dicts or as pairs.  The reference sees each row renamed to its rank
    def check(q, cols, tagged, row_rank=None, truncations=()):
        ech, ref = ColumnEchelon(PrimeField(q), row_rank), ReferenceEchelon(q)
        for j, col in enumerate(cols):
            if j in truncations:
                ech.truncate(truncations[j])
                ref.truncate(truncations[j])
            renamed = {row_rank[r] if row_rank else r: v for r, v in dict(col).items()}
            res, combo = ref.insert(renamed, j if tagged else None)
            if not tagged:
                assert ech.add(col) == ((max(res), res[max(res)]) if res else None), j
            elif res:
                assert ech.add_tagged(col, j) is None, j
            else:
                vec = ech.add_tagged(col, j)
                want = {j: 1}
                for t, v in combo.items():
                    want[t] = (want.get(t, 0) - v) % q
                assert vec == {t: v for t, v in want.items() if v}, j
                total = {}
                for t, v in vec.items():
                    for r, w in dict(cols[t]).items():
                        total[r] = (total.get(r, 0) + v * w) % q
                assert not any(total.values()), j
            assert ech.rank == ref.rank
        return ech

    rng = random.Random(29)
    for trial in range(160):
        q = (2, 2, 3, 5)[trial % 4]
        n_rows, n_cols = rng.randint(1, 30), rng.randint(1, 60)
        density = rng.choice((0.05, 0.15, 0.4))

        def column():
            col = {r: rng.randrange(1, q) for r in range(n_rows) if rng.random() < density}
            if rng.random() < 0.5:
                return col
            pairs = list(col.items())
            rng.shuffle(pairs)
            return pairs

        cols = [column() for _ in range(n_cols)]
        # truncate(n) with n at least the rank keeps everything, on both sides
        truncations = {j: rng.randint(0, n_cols) for j in range(n_cols) if rng.random() < 0.1}
        row_rank = None
        if trial // 4 % 2:
            order = list(range(n_rows))
            rng.shuffle(order)
            row_rank = {r: rank for rank, r in enumerate(order)}
        check(q, cols, trial % 3 != 0, row_rank, truncations)
        plain = ReferenceEchelon(q)
        for col in cols:
            plain.insert(col)
        assert column_rank(cols, PrimeField(q)) == plain.rank


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


def test_every_power_is_what_lp_root_roots():
    # each *_power function returns the aggregate at every p, p = inf
    # included, and lp_root turns it into the distance, type and all
    rng = random.Random(16)
    for _ in range(40):
        vals = [F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(rng.randint(0, 6))]
        vals += [math.inf] * (rng.random() < 0.2)
        B, C = random_barcode(rng), random_barcode(rng)
        left, right = list(range(len(B))), list(range(len(C)))
        rng.shuffle(left)
        rng.shuffle(right)
        sigma = Matching(frozenset(zip(left, right[:rng.randint(0, len(right))])))
        pp = PairedPresentations(*random_paired_presentations(rng))
        for p in (F(1), F(2), F(3), math.inf):
            for power, dist in ((vec_pnorm_power(vals, p), vec_pnorm(vals, p)),
                                (matching_cost_power(B, C, sigma, p),
                                 matching_cost(B, C, sigma, p)),
                                (label_distance_power(pp, p), label_distance(pp, p)),
                                (wasserstein_full(B, C, p).power, wasserstein(B, C, p))):
                got = lp_root(power, p)
                assert (type(got), got) == (type(dist), dist)


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


def test_package_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    src = Path(mpm.__file__).parent
    for path in sorted(src.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_readme_example_runs():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    [block] = re.findall(r"```python\n(.*?)```", text, re.S)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    report = scope["report"]
    assert report.converged and report.upper - report.lower <= 0.1


def test_oracles_import_no_private_package_names():
    # the oracles check the package, so they must not reuse its internals
    path = Path(__file__).with_name("oracles.py")
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "mpm"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_public_names_are_pinned():
    # every export is deliberate: adding or dropping one edits this list
    public = sorted(name for name, value in vars(mpm).items()
                    if not name.startswith("_") and not isinstance(value, type(mpm)))
    assert public == [
        "AdmissibleLine", "Bar", "Barcode", "BoundsReport", "ChainError",
        "ColumnEchelon", "ComputationError", "DataError", "DistanceReport",
        "Extended", "F2", "FilteredComplex", "Grade", "INF", "KernelBasis",
        "LimitLine", "LineParam", "Matching", "PExp", "PairedPresentations",
        "PairingError", "ParamBox", "ParseError", "Presentation", "PrimeField",
        "SubdivisionLimitError", "WassersteinResult", "approx_matching_distance",
        "as_pexp", "barcode_along_line", "barcode_of", "boundary_morphism",
        "bounds", "chain_upper_bound", "column_rank", "format_rat",
        "free_presentation", "grade_injections", "grade_join", "grade_leq",
        "hilbert_dim", "homology_presentation", "is_prime", "kernel_basis",
        "label_deviation", "label_distance", "label_distance_power", "labels",
        "lift_presentations", "line_of_param", "local_bound", "pad_and_pair",
        "parse_barcode", "parse_complex", "parse_line", "parse_pexp",
        "parse_presentation", "push", "rat", "restrict_presentation",
        "sampled_lower_bound", "serialize_barcode", "serialize_complex",
        "serialize_presentation", "vec_pnorm", "vec_pnorm_power", "wasserstein",
        "wasserstein_full"]


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


def test_only_field_knows_the_f2_column_form():
    # F_2 columns are bitsets inside field.ColumnEchelon only: no other
    # module imports a private name of field, reaches a private member
    # of an echelon, or branches on the field being F_2
    src = Path(mpm.__file__).parent
    ech = ColumnEchelon(PrimeField(2))
    private = {n for n in [*vars(ColumnEchelon), *vars(ech)]
               if n.startswith("_") and not n.startswith("__")}
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("field", "mpm.field")):
                found += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr in private:
                found.append((path.name, node.attr))
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if (any(isinstance(n, ast.Attribute) and n.attr == "q" for n in sides)
                        and any(isinstance(n, ast.Constant) and n.value == 2 for n in sides)):
                    found.append((path.name, ast.unparse(node)))
    assert private
    assert found == []


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
