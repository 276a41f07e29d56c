import importlib
import json
import math
import random
import sys
import traceback
from fractions import Fraction as F
from pathlib import Path

import pytest

from mpm import (Barcode, DataError, INF, Matching, matching_cost, wasserstein,
                 wasserstein_full, wasserstein_power)
from mpm.fixtures import random_barcode
from mpm.grades import lp_root
from mpm.wasserstein import bottleneck_assignment

from oracles import brute_force_full, brute_force_wasserstein

W = importlib.import_module("mpm.wasserstein")  # mpm.wasserstein is also a function


def bc(*bars):
    return Barcode(bars)


def test_matching_cost_examples():
    # single forced unmatched bar
    assert matching_cost(bc((0, 2)), Barcode(), Matching(frozenset()), 1) == 2
    # the inf - inf = 0 convention for matched essential bars
    sigma = Matching(frozenset({(0, 0)}))
    assert matching_cost(bc((0, INF)), bc((1, INF)), sigma, math.inf) == 1
    # |0-1| + |2-3|
    assert matching_cost(bc((0, 2)), bc((1, 3)), sigma, 1) == 2


def test_matching_cost_validates_indices():
    with pytest.raises(DataError):
        matching_cost(bc((0, 2)), bc((1, 3)), Matching(frozenset({(0, 5)})), 1)
    with pytest.raises(DataError):
        Matching(frozenset({(0, 0), (0, 1)}))


def test_matching_cost_essential_to_finite_is_infinite():
    sigma = Matching(frozenset({(0, 0)}))
    assert matching_cost(bc((0, INF)), bc((0, 5)), sigma, 1) == INF


def test_wasserstein_examples():
    assert wasserstein(bc((0, 2)), bc((1, 3)), 1) == 2
    assert wasserstein(bc((0, 2)), bc((1, 3)), math.inf) == 1
    B = bc((0, 2), (1, 5), (3, INF))
    assert wasserstein(B, B, 2) == 0
    assert wasserstein(B, B, math.inf) == 0


def test_wasserstein_prefers_matching_over_diagonals():
    # matching cost 2 beats the double-unmatch cost 4
    res = wasserstein_full(bc((0, 2)), bc((1, 3)), 1)
    assert res.value == 2
    assert res.matching.pairs == frozenset({(0, 0)})


def test_brute_force_examples():
    assert brute_force_wasserstein(Barcode(), Barcode(), 1) == 0
    assert brute_force_wasserstein(bc((0, 1), (0, 3)), bc((0, 3)), math.inf) == F(1, 2)
    assert brute_force_wasserstein(bc((0, INF)), Barcode(), 1) == INF


def test_brute_force_size_guard():
    big = Barcode([(i, i + 1) for i in range(7)])
    with pytest.raises(DataError):
        brute_force_wasserstein(big, big, 1)


def test_infinite_when_essential_counts_differ():
    assert wasserstein(bc((0, INF)), Barcode(), 1) == INF
    assert wasserstein(bc((0, INF), (1, INF)), bc((0, INF)), math.inf) == INF


def test_oracle_equivalence_randomized():
    rng = random.Random(23)
    for _ in range(120):
        B = random_barcode(rng, max_bars=4)
        C = random_barcode(rng, max_bars=4)
        for p in (F(1), F(2), math.inf):
            assert wasserstein_power(B, C, p) == brute_force_full(B, C, p).power


def _quarter_bars(rng, k, span):
    """k finite bars on the quarter grid, so float costs are exact too."""
    return [(b, b + F(rng.randrange(1, 4 * span), 4))
            for b in (F(rng.randrange(4 * span), 4) for _ in range(k))]


def _bottleneck_inputs(B, C):
    """pair_cost, diag_left and diag_right as bar_distance builds them."""
    pair_cost = [[max(abs(b[0] - c[0]), abs(b[1] - c[1])) for c in C] for b in B]
    return pair_cost, [(b[1] - b[0]) / 2 for b in B], [(c[1] - c[0]) / 2 for c in C]


def _exact_and_float_inputs(B, C):
    """(inputs, value type) for the Fraction bars B, C and for their floats."""
    def floats(bars):
        return [(float(b), float(d)) for b, d in bars]
    return [(_bottleneck_inputs(B, C), F),
            (_bottleneck_inputs(floats(B), floats(C)), float)]


def _realized(pair_cost, diag_l, diag_r, pairs):
    """The largest cost term of the matching given by pairs."""
    left, right = {i for i, _ in pairs}, {j for _, j in pairs}
    return max([pair_cost[i][j] for i, j in pairs]
               + [d for i, d in enumerate(diag_l) if i not in left]
               + [d for j, d in enumerate(diag_r) if j not in right])


def test_bottleneck_pairs_realize_the_value():
    # small integer bars give many tied costs; empty sides included.  The
    # threshold search must return pairs whose cost is its value, and the
    # value must be the optimum, in the number type of the inputs
    value, pairs = bottleneck_assignment([], [], [])
    assert (value, pairs) == (0, []) and type(value) is int
    rng = random.Random(151)
    for trial in range(300):
        nb, nc = rng.randint(0, 4), rng.randint(0, 4)
        if trial % 5 == 0:
            nc = 0
        elif trial % 5 == 1:
            nb = 0
        if nb + nc == 0:
            continue
        B, C = ([(F(b), F(b + rng.randint(1, 3))) for b in
                 (rng.randrange(3) for _ in range(k))] for k in (nb, nc))
        optimum = brute_force_wasserstein(Barcode(B), Barcode(C), math.inf)
        for inputs, kind in _exact_and_float_inputs(B, C):
            value, pairs = bottleneck_assignment(*inputs)
            assert type(value) is kind
            assert _realized(*inputs, pairs) == value == optimum


def test_bottleneck_search_does_not_recurse():
    # 160 bars per side under a recursion limit a few dozen frames above
    # this test's depth: an augmenting search that recursed along its
    # paths would raise RecursionError here
    rng = random.Random(163)
    B, C = _quarter_bars(rng, 160, 24), _quarter_bars(rng, 160, 24)
    depth = sum(1 for _ in traceback.walk_stack(None))
    for inputs, kind in _exact_and_float_inputs(B, C):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            value, pairs = bottleneck_assignment(*inputs)
        finally:
            sys.setrecursionlimit(limit)
        assert type(value) is kind and value == BOTTLENECK_160
        assert _realized(*inputs, pairs) == value


# Bottleneck values of the seeded instances below, recorded with the
# Hopcroft-Karp matcher that the augmenting rounds replaced; these sizes
# are beyond the brute-force oracle
BOTTLENECK_160 = F(11, 4)
BOTTLENECK_PINNED = ["27/4", "9/4", "1/2", "3/4", "3", "7/4", "25/2", "111/8",
                     "2", "19/8", "2", "27/8", "5/8", "6", "11/4", "1/2",
                     "21/2", "47/4", "47/4", "3/4", "43/4", "1/2", "11/4",
                     "3/2", "1/2", "85/8", "33/4", "1/4", "63/8", "13/2"]


def test_bottleneck_values_pinned():
    rng = random.Random(409)
    for want in BOTTLENECK_PINNED:
        m, n = rng.randint(20, 80), rng.randint(20, 80)
        span = rng.choice((2, 8, 32))
        B, C = _quarter_bars(rng, m, span), _quarter_bars(rng, n, span)
        for inputs, kind in _exact_and_float_inputs(B, C):
            value, pairs = bottleneck_assignment(*inputs)
            assert type(value) is kind and value == F(want)
            assert _realized(*inputs, pairs) == value


def test_symmetry_exact():
    rng = random.Random(5)
    for _ in range(40):
        B = random_barcode(rng, max_bars=5)
        C = random_barcode(rng, max_bars=5)
        for p in (F(1), F(2), math.inf):
            assert wasserstein_full(B, C, p).power == wasserstein_full(C, B, p).power


def test_triangle_inequality_on_random_triples():
    rng = random.Random(17)
    for _ in range(40):
        A = random_barcode(rng, max_bars=4, essential_rate=0)
        B = random_barcode(rng, max_bars=4, essential_rate=0)
        C = random_barcode(rng, max_bars=4, essential_rate=0)
        for p in (F(1), F(2), math.inf):
            ab = float(wasserstein(A, B, p))
            bc_ = float(wasserstein(B, C, p))
            ac = float(wasserstein(A, C, p))
            assert ac <= ab + bc_ + 1e-9


def test_monotone_in_p():
    rng = random.Random(29)
    for _ in range(40):
        B = random_barcode(rng, max_bars=5)
        C = random_barcode(rng, max_bars=5)
        values = [float(wasserstein(B, C, p)) for p in (F(1), F(2), F(4), math.inf)]
        for lo, hi in zip(values, values[1:]):
            assert lo >= hi - 1e-9 or (math.isinf(lo) and math.isinf(hi))


def test_large_p_approaches_bottleneck():
    # d_inf <= d_64 <= (#cost terms)^(1/64) * d_inf, terms <= 2 * #bars
    rng = random.Random(31)
    for _ in range(10):
        B = random_barcode(rng, max_bars=4, essential_rate=0)
        C = random_barcode(rng, max_bars=4, essential_rate=0)
        v64 = float(wasserstein(B, C, F(64)))
        vinf = float(wasserstein(B, C, math.inf))
        n_terms = max(1, len(B) + len(C))
        assert vinf <= v64 + 1e-9
        assert v64 <= (2 * n_terms) ** (1 / 64) * vinf + 1e-9


def test_non_integral_p_float_path():
    v = wasserstein(bc((0, 2)), bc((1, 3)), F(3, 2))
    assert isinstance(v, float)
    assert abs(v - 2 ** (2 / 3)) < 1e-9


def test_optimal_matching_dominates_explicit_matchings():
    # cost of the returned matching equals the distance, and no random
    # matching beats it
    rng = random.Random(37)
    for _ in range(30):
        B = random_barcode(rng, max_bars=4)
        C = random_barcode(rng, max_bars=4)
        for p in (F(1), F(2), math.inf):
            res = wasserstein_full(B, C, p)
            realized = matching_cost(B, C, res.matching, p)
            assert float(realized) <= float(res.value) + 1e-9
            fin_b = [i for i, bar in enumerate(B) if bar[1] != INF]
            fin_c = [j for j, bar in enumerate(C) if bar[1] != INF]
            for _ in range(10):
                k = rng.randint(0, min(len(fin_b), len(fin_c)))
                pairs = frozenset(zip(rng.sample(fin_b, k), rng.sample(fin_c, k)))
                cost = matching_cost(B, C, Matching(pairs), p)
                assert float(res.value) <= float(cost) + 1e-9


# Denominator draws for the golden set: integer endpoints, small mixed
# denominators, and a few denominators near 10**12
GOLDEN_DENOMS = (
    lambda rng: 1,
    lambda rng: rng.choice((1, 2, 3, 4, 5, 6, 8, 12)),
    lambda rng: rng.choice((10**12 - 11, 10**12 + 39, 999_999_999_989, 10**12)),
)
GOLDEN_PS = (F(1), F(2), F(3), F(3, 2), INF)


def _golden_barcode(rng, denom, n_fin, n_ess):
    def coord(span):
        d = denom(rng)
        return F(rng.randrange(-span * d, span * d), d)
    bars = [(coord(8), INF) for _ in range(n_ess)]
    for _ in range(n_fin):
        birth = coord(8)
        bars.append((birth, birth + abs(coord(6)) + F(1, denom(rng))))
    rng.shuffle(bars)
    return Barcode(bars)


def _golden_cases():
    """(B, C, p) for the pinned records: 20 pairs per denominator draw,
    each at every p in GOLDEN_PS.  Of every five pairs one has B empty of
    finite bars and one C; every seventh draws its essential counts per
    side, so they may differ."""
    rng = random.Random(683)
    for denom in GOLDEN_DENOMS:
        for t in range(20):
            n_ess = rng.randint(0, 2)
            B, C = (_golden_barcode(rng, denom, 0 if t % 5 == side else rng.randint(0, 6),
                                    n_ess if t % 7 else rng.randint(0, 2))
                    for side in (0, 1))
            for p in GOLDEN_PS:
                yield B, C, p


def _golden_record(res):
    return (f"{type(res.value).__name__} {res.value!r}; "
            f"{type(res.power).__name__} {res.power!r}; "
            f"{sorted(res.matching.pairs)}")


def test_wasserstein_full_golden():
    # value, power and matching of each case, by type and repr, recorded
    # with the Fraction-arithmetic solver that the scaled integers replaced
    want = json.loads((Path(__file__).parent / "wasserstein_golden.json").read_text())
    got = [_golden_record(wasserstein_full(B, C, p)) for B, C, p in _golden_cases()]
    assert len(got) == len(want) == 300
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"record {k}"


def test_golden_power_roots_to_value():
    # the power is the aggregate at every p, so rooting it gives the
    # value with its type and repr
    for B, C, p in _golden_cases():
        res = wasserstein_full(B, C, p)
        got = lp_root(res.power, p)
        assert (type(got), repr(got)) == (type(res.value), repr(res.value)), (B, C, p)


def test_exact_path_costs_are_ints(monkeypatch):
    # at integral p and at p = inf the solvers see only ints; a
    # non-integral p keeps its float costs
    seen = []
    assign, bottleneck = W.min_cost_assignment, W.bottleneck_assignment

    def spy_assign(cost):
        seen.extend(c for row in cost for c in row)
        return assign(cost)

    def spy_bottleneck(pair_cost, diag_left, diag_right):
        seen.extend([*diag_left, *diag_right, *(c for row in pair_cost for c in row)])
        return bottleneck(pair_cost, diag_left, diag_right)

    monkeypatch.setattr(W, "min_cost_assignment", spy_assign)
    monkeypatch.setattr(W, "bottleneck_assignment", spy_bottleneck)
    rng = random.Random(691)
    for p, kind in ((F(1), int), (F(2), int), (INF, int), (F(3, 2), float)):
        seen.clear()
        for _ in range(20):
            B, C = (random_barcode(rng, max_bars=6, denom=rng.choice((1, 3, 4)),
                                   essential_rate=0) for _ in range(2))
            wasserstein_full(B, C, p)
        assert seen and {type(c) for c in seen} == {kind}
