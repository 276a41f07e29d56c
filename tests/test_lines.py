import math
import random
from fractions import Fraction as F

import pytest

import mpm.lines
import mpm.matchdist
from mpm import (AdmissibleLine, Barcode, DataError, INF, LimitLine,
                 Presentation, approx_matching_distance, barcode_along_line,
                 barcode_of, free_presentation, hilbert_dim, labels, parse_line,
                 push, restrict_presentation, sampled_lower_bound, wasserstein)
from mpm.field import PrimeField
from mpm.fixtures import random_paired_presentations, random_presentation
from mpm.grades import vec_pnorm

F2 = PrimeField(2)


def test_admissible_line_validation():
    with pytest.raises(DataError):
        AdmissibleLine((2, 3), (0, 0))  # min(v) != 1
    line = AdmissibleLine((1, 2), (0, 0))
    assert line(F(3)) == (F(3), F(6))


def test_push_examples():
    assert push(AdmissibleLine((1, 2), (0, 0)), (3, 1)) == 3
    assert push(AdmissibleLine((1, 1), (2, 0)), (3, 4)) == 4
    assert push(AdmissibleLine((1, 1), (0, 0)), (F(7, 2), F(7, 2))) == F(7, 2)


def test_limit_line_push():
    assert push(LimitLine(0, (2, 0)), (5, 100)) == 3
    assert push(LimitLine(0, (2, 0)), (1, 100)) == 0
    assert push(LimitLine(1, (0, 3)), (100, 5)) == 2
    for axis, w in ((2, (0, 0)), (1, (3,))):
        with pytest.raises(DataError):
            LimitLine(axis, w)


def test_restrict_examples(pres_f):
    diag = AdmissibleLine((1, 1), (0, 0))
    R = restrict_presentation(pres_f, diag)
    assert R.row_labels == ((F(0),), (F(0),))
    assert R.col_labels == ((F(4),), (F(3),), (F(4),))
    assert R.columns == pres_f.columns


def test_restrict_free_module():
    P = free_presentation([(3, 4), (4, 3)], F2)
    R = restrict_presentation(P, AdmissibleLine((1, 1), (2, 0)))
    assert R.row_labels == ((F(4),), (F(3),))


def test_restrict_labels_on_line():
    line = AdmissibleLine((1, 2), (1, 0))
    pts = [line(t) for t in (F(0), F(1), F(2))]
    P = free_presentation(pts, F2)
    R = restrict_presentation(P, line)
    assert R.row_labels == ((F(0),), (F(1),), (F(2),))


def test_barcodes_along_diagonal(pres_f, pres_g):
    diag = AdmissibleLine((1, 1), (0, 0))
    assert barcode_along_line(pres_f, diag) == Barcode([(0, INF), (0, 3)])
    assert barcode_along_line(pres_g, diag) == Barcode([(0, INF), (0, 2)])


def test_barcode_along_shifted_line(h1_f):
    line = AdmissibleLine((1, 1), (2, 0))
    assert barcode_along_line(h1_f, line) == Barcode([(3, INF), (4, INF)])


def _random_grade(rng):
    return (F(rng.randrange(-24, 25), 4), F(rng.randrange(-24, 25), 4))


def _random_line(rng):
    if rng.random() < 0.5:
        v = (F(1), F(rng.randrange(4, 25), 4))
    else:
        v = (F(rng.randrange(4, 25), 4), F(1))
    w = (F(rng.randrange(-12, 13), 2), F(rng.randrange(-12, 13), 2))
    return AdmissibleLine(v, w)


def test_push_stability_exact():
    rng = random.Random(61)
    for _ in range(300):
        a, b = _random_grade(rng), _random_grade(rng)
        line = _random_line(rng)
        gap = abs(push(line, a) - push(line, b))
        linf = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
        assert gap <= linf
        for p in (F(1), F(2)):
            assert linf <= vec_pnorm([a[0] - b[0], a[1] - b[1]], p) + F(1, 10**12)


def test_push_monotone():
    rng = random.Random(67)
    for _ in range(200):
        a = _random_grade(rng)
        b = (a[0] + F(rng.randrange(0, 9), 2), a[1] + F(rng.randrange(0, 9), 2))
        line = _random_line(rng)
        assert push(line, a) <= push(line, b)


def _relabel(rng, P):
    """P with every label coordinate moved by a strictly increasing map of
    its axis: same matrix and label order (ties kept), but negative
    coordinates with denominators 3, 7 and 10**12."""
    steps = (F(1, 3), F(2, 7), F(1, 10**12), F(5, 3), F(3, 7))
    maps = []
    for axis in (0, 1):
        value = F(-rng.randrange(1, 40), 7)
        new = {}
        for x in sorted({a[axis] for a in labels(P)}):
            new[x] = value
            value += rng.choice(steps)
        maps.append(new)
    moved = [(maps[0][a[0]], maps[1][a[1]]) for a in labels(P)]
    return Presentation(P.field, 2, tuple(moved[:P.n_rows]),
                        tuple(moved[P.n_rows:]), P.columns)


def test_restriction_consistent_with_hilbert():
    # the restricted presentation agrees with P's Hilbert function on the
    # line, and barcode_along_line, which builds no restriction, reads off
    # the same Fraction bars in the same order, on the line and on both
    # limit lines through its base point; also with labels moved to
    # negative coordinates with denominators 3, 7 and 10**12 and a base
    # point with denominator 10**12 + 39
    rng = random.Random(71)
    big = 10**12 + 39
    for _ in range(25):
        P = random_presentation(rng, n_params=2, max_rows=4, max_cols=4)
        line = _random_line(rng)
        R = restrict_presentation(P, line)
        for _ in range(4):
            t = F(rng.randrange(-8, 33), 4)
            assert hilbert_dim(R, (t,)) == hilbert_dim(P, line(t))
        w = (F(rng.randrange(-3 * big, 3 * big), big), F(rng.randrange(-21, 22), 7))
        for Q, base in ((P, line.w), (_relabel(rng, P), w)):
            for ln in (AdmissibleLine(line.v, base), LimitLine(0, base), LimitLine(1, base)):
                got = barcode_along_line(Q, ln).bars
                assert got == barcode_of(restrict_presentation(Q, ln)).bars
                assert all(type(b) is F and (type(d) is F or d == INF) for b, d in got)


def test_barcode_along_line_pairs_int_pushes(monkeypatch, pres_f, h1_f):
    seen = []
    original = mpm.lines.barcode_pairs

    def spy(row_values, col_values, columns, field, memo=None):
        seen.append(list(row_values) + list(col_values))
        return original(row_values, col_values, columns, field, memo)

    monkeypatch.setattr(mpm.lines, "barcode_pairs", spy)
    P = _relabel(random.Random(83), h1_f)
    for line in (AdmissibleLine((1, F(7, 3)), (F(1, 10**12 + 39), F(-2, 7))),
                 LimitLine(0, (F(-1, 3), F(2, 7))), LimitLine(1, (0, 0))):
        for Q in (pres_f, P):
            barcode_along_line(Q, line)
    assert len(seen) == 6
    assert all(type(x) is int for values in seen for x in values)


def test_barcode_along_line_bars_skip_the_public_checks(monkeypatch, pres_f, h1_f):
    # barcode_pairs returns birth < death, so the bars are not re-checked;
    # they are the ones the checked constructor builds, of the same types
    checked = []
    original = Barcode.__init__

    def spy(self, bars=()):
        checked.append(bars)
        original(self, bars)

    P = _relabel(random.Random(5), h1_f)
    lines = (AdmissibleLine((1, F(7, 3)), (F(1, 3), F(-2, 7))),
             LimitLine(0, (F(-1, 3), F(2, 7))), AdmissibleLine((1, 1), (0, 0)))
    want = [Barcode(barcode_along_line(Q, line).bars) for Q in (pres_f, P) for line in lines]
    monkeypatch.setattr(Barcode, "__init__", spy)
    got = [barcode_along_line(Q, line) for Q in (pres_f, P) for line in lines]
    assert checked == []
    assert [bc.bars for bc in got] == [bc.bars for bc in want]
    for bc in got:
        for b, d in bc:
            assert type(b) is F and (d is INF or type(d) is F) and b < d
    with pytest.raises(DataError):
        Barcode([(1, 1)])


def test_barcode_along_line_builds_no_presentation(monkeypatch, pres_f, pres_g):
    built = []
    original = Presentation.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Presentation, "__post_init__", counting)
    lines = [AdmissibleLine((1, 1), (0, 0)), AdmissibleLine((1, 2), (1, 0)),
             LimitLine(0, (2, 0)), LimitLine(1, (0, 1))]
    for line in lines:
        barcode_along_line(pres_f, line)
    assert sampled_lower_bound(pres_f, pres_g, 1, lines) == 1
    # make_report re-evaluates the best line exactly
    assert approx_matching_distance(pres_f, pres_g, 1, F(1, 4)).lower == 1
    assert built == []


def _barcode_route(P_M, P_N, p, lines):
    """sampled_lower_bound through Barcodes and wasserstein: the max over
    the lines, starting from F(0), of the per-line distances."""
    return max([F(0)] + [wasserstein(barcode_along_line(P_M, line),
                                     barcode_along_line(P_N, line), p)
                         for line in lines])


def test_sampled_lower_bound_equals_the_barcode_route(h1_f):
    # one int scale for both modules gives the value and type of the
    # Barcode route at every p, on labels with denominators 3, 7 and
    # 10**12 and negative coordinates, base points with denominators up
    # to 10**12 + 39, both limit lines, empty presentations and a pair
    # whose essential counts differ
    rng = random.Random(97)
    big = 10**12 + 39
    empty = Presentation(F2, 2, (), (), ())
    one_free = free_presentation([(F(1, 3), F(-2, 7))], F2)
    cases = [(empty, empty), (empty, h1_f), (h1_f, one_free), (one_free, empty)]
    for _ in range(12):
        A, B = random_paired_presentations(rng, 2, 4, 4)
        C = random_presentation(rng, n_params=2, max_rows=4, max_cols=4)
        cases += [(_relabel(rng, A), _relabel(rng, B)), (A, C)]
    for P_M, P_N in cases:
        line = _random_line(rng)
        w = (F(rng.randrange(-3 * big, 3 * big), big), F(rng.randrange(-21, 22), 7))
        lines = [line, AdmissibleLine(line.v, w), LimitLine(0, w), LimitLine(1, line.w)]
        for p in (F(1), F(2), F(3), F(3, 2), math.inf):
            for batch in [lines] + [[ln] for ln in lines]:
                got = sampled_lower_bound(P_M, P_N, p, batch)
                want = _barcode_route(P_M, P_N, p, batch)
                assert got == want and type(got) is type(want), (P_M, P_N, p, batch)
    assert sampled_lower_bound(h1_f, one_free, 1, lines) == INF
    assert sampled_lower_bound(empty, empty, 2, lines) == 0


def test_sampled_lower_bound_pairs_int_bars(monkeypatch, pres_f, pres_g, h1_f):
    # at integral p and p = inf the bars stay on the int scale of the
    # pushes: barcode_pairs sees ints only, once per module and line
    seen = []
    original = mpm.matchdist.barcode_pairs

    def spy(row_values, col_values, columns, field, memo=None):
        seen.append(list(row_values) + list(col_values))
        return original(row_values, col_values, columns, field, memo)

    monkeypatch.setattr(mpm.matchdist, "barcode_pairs", spy)
    P = _relabel(random.Random(89), pres_g)
    lines = [AdmissibleLine((1, F(7, 3)), (F(1, 10**12 + 39), F(-2, 7))),
             LimitLine(0, (F(-1, 3), F(2, 7))), LimitLine(1, (0, 0))]
    for p in (1, 2, math.inf):
        for P_M, P_N in ((pres_f, P), (P, h1_f)):
            sampled_lower_bound(P_M, P_N, p, lines)
    assert len(seen) == 3 * 2 * 2 * len(lines)
    assert all(type(x) is int for values in seen for x in values)


def test_canonicalization_preserves_wasserstein():
    rng = random.Random(73)
    for _ in range(25):
        A = random_presentation(rng, n_params=2, max_rows=3, max_cols=3)
        B = random_presentation(rng, n_params=2, max_rows=3, max_cols=3)
        v = (F(1), F(rng.randrange(4, 13), 4))
        w = (F(rng.randrange(1, 9)), F(rng.randrange(1, 9)))
        raw = AdmissibleLine(v, w)
        # slide the base point along the line to min(w) = 0
        t0 = min(w[0] / v[0], w[1] / v[1])
        canon = AdmissibleLine(v, (w[0] - t0 * v[0], w[1] - t0 * v[1]))
        assert min(canon.w) == 0
        for p in (F(1), math.inf):
            d_raw = wasserstein(barcode_along_line(A, raw),
                                barcode_along_line(B, raw), p)
            d_canon = wasserstein(barcode_along_line(A, canon),
                                  barcode_along_line(B, canon), p)
            assert d_raw == d_canon


def test_parse_line_literal():
    line = parse_line("2,4;1,0.5")
    assert line.v == (F(1), F(2)) and line.w == (F(1), F(1, 2))
    with pytest.raises(DataError):
        parse_line("0,1;0,0")
    with pytest.raises(DataError):
        parse_line("nonsense")


def test_restrict_requires_two_parameters():
    P = free_presentation([(0,)], F2, n_params=1)
    with pytest.raises(DataError):
        restrict_presentation(P, AdmissibleLine((1, 1), (0, 0)))
