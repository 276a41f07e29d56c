import importlib
import json
import math
import random
import sys
import traceback
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from mpm import (Barcode, DataError, INF, Matching, matching_cost, matching_cost_power,
                 wasserstein, wasserstein_full, wasserstein_power)
from mpm.fixtures import random_barcode
from mpm.grades import is_inf, lp_root
from mpm.wasserstein import bar_distance, bottleneck_assignment

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


def _probe_spy(monkeypatch):
    """The thresholds bottleneck_assignment probes, in order."""
    probes, probe = [], W._matching_at

    def spy(pair_cost, diag_left, diag_right, thr):
        probes.append(thr)
        return probe(pair_cost, diag_left, diag_right, thr)

    monkeypatch.setattr(W, "_matching_at", spy)
    return probes


def test_bottleneck_probes_the_floor_first(monkeypatch):
    # a line with bars on one side only needs no probe: every bar goes to
    # the diagonal.  Nor does a floor (the max over bars of each bar's
    # cheapest option) that covers every diagonal cost: it is the answer.
    # Otherwise the first probe is the floor, and when the floor is the
    # answer it is the only probe
    probes = _probe_spy(monkeypatch)
    for *inputs, want in (([], [], [], (0, [])),
                          ([[], []], [1, 3], [], (3, [])),
                          ([], [], [0.5, 1.5], (1.5, [])),
                          ([[4, 3]], [3], [1, 2], (3, [(0, 1)]))):
        probes.clear()
        assert bottleneck_assignment(*inputs) == want and probes == []
    rng = random.Random(887)
    kinds = Counter()
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        B, C = ([(b, b + rng.randint(1, 3)) for b in
                 (rng.randrange(3) for _ in range(k))] for k in (m, n))
        pair_cost, diag_l, diag_r = _bottleneck_inputs(B, C)
        floor = _floor(pair_cost, diag_l, diag_r)
        probes.clear()
        value, pairs = bottleneck_assignment(pair_cost, diag_l, diag_r)
        assert _realized(pair_cost, diag_l, diag_r, pairs) == value
        if floor == max(diag_l + diag_r):
            assert value == floor and probes == []
            kinds["no graph"] += 1
        else:
            assert probes[0] == floor
            assert (value == floor) == (probes == [floor])
            kinds["floor only" if value == floor else "bisected"] += 1
    assert min(kinds.values()) > 20 and len(kinds) == 3, kinds


def _floor(pair_cost, diag_l, diag_r):
    """The max over bars of each bar's least cost."""
    return max([min([d, *row]) for row, d in zip(pair_cost, diag_l)]
               + [min([d, *(row[j] for row in pair_cost)])
                  for j, d in enumerate(diag_r)])


def test_bottleneck_shortcut_pairs_are_the_floor_probes(monkeypatch):
    # when the floor covers every diagonal cost the search builds no
    # graph; its value and pairs must be those the floor probe
    # (_matching_at) gives, on ints and on floats with many ties
    probes = _probe_spy(monkeypatch)
    rng = random.Random(3301)
    hits = 0
    for trial in range(4000):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        cost = (lambda: rng.randrange(7)) if trial % 2 else (lambda: rng.randrange(7) / 4)
        pair_cost = [[cost() for _ in range(n)] for _ in range(m)]
        diag_l, diag_r = [cost() for _ in range(m)], [cost() for _ in range(n)]
        # make one bar's least cost the largest diagonal cost
        top = max(diag_l + diag_r)
        if rng.random() < 0.5:
            i = rng.randrange(m)
            diag_l[i] = top
            pair_cost[i] = [max(c, top) for c in pair_cost[i]]
        else:
            j = rng.randrange(n)
            diag_r[j] = top
            for row in pair_cost:
                row[j] = max(row[j], top)
        floor = _floor(pair_cost, diag_l, diag_r)
        assert floor == top
        probes.clear()
        value, pairs = bottleneck_assignment(pair_cost, diag_l, diag_r)
        assert probes == []
        ml = W._matching_at(pair_cost, diag_l, diag_r, floor)
        assert value == floor and type(value) is type(floor)
        assert pairs == [(i, ml[i]) for i in range(m) if ml[i] < n]
        hits += bool(pairs)
    assert hits > 1000


def test_bottleneck_floor_infeasible_falls_back(monkeypatch):
    # the floor is 0, but two B-bars cannot both take C-bar 0: the search
    # bisects above the floor and finds 5, in ints and in floats
    probes = _probe_spy(monkeypatch)
    for zero in (0, 0.0):
        probes.clear()
        inputs = [[zero], [zero]], [zero + 5, zero + 5], [zero + 5]
        value, pairs = bottleneck_assignment(*inputs)
        assert (value, pairs) == (5, [(0, 0)]) and type(value) is type(zero)
        assert _realized(*inputs, pairs) == value
        assert probes == [0, 5]


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
    # with the Fraction-arithmetic solver that the scaled integers replaced;
    # records 45-48, 65, 68, 113, 185 and 288 hold the ghost-free reduced
    # assignment's tie-broken matching or p = 3/2 last ulp
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


def test_reduced_assignment_is_exact_on_ties_and_ragged_shapes(monkeypatch):
    # integer endpoints tie many costs; one side may be empty and the
    # sides differ in size up to 6 x 2 and 2 x 6.  The returned matching
    # realizes the power, which is the brute-force optimum, and the
    # solver sees the smaller side's bars on its rows
    shapes = []
    assign = W.min_cost_assignment

    def spy(cost):
        shapes.append((len(cost), len(cost[0])))
        return assign(cost)

    monkeypatch.setattr(W, "min_cost_assignment", spy)
    rng = random.Random(1009)
    sizes = [(m, n) for m in range(7) for n in range(7) if m + n <= 8]
    for m, n in sizes * 3:
        B, C = (Barcode([(b, b + rng.randint(1, 3)) for b in
                         (rng.randrange(4) for _ in range(k))]) for k in (m, n))
        for p in (F(1), F(2), F(3), INF):
            shapes.clear()
            res = wasserstein_full(B, C, p)
            assert (matching_cost_power(B, C, res.matching, p) == res.power
                    == brute_force_full(B, C, p).power), (B, C, p)
            want = [(min(m, n), max(m, n))] if m and n and not is_inf(p) else []
            assert shapes == want, (m, n, p)


def test_float_aggregate_equals_the_int_one():
    # on the quarter grid every float cost, reduced cost and sum below is
    # exact, so bar_distance on the floats makes the int path's choices:
    # the same pairs, and its aggregate is the int one divided back by
    # the scale 8 to the p
    rng = random.Random(1013)
    for _ in range(60):
        n_ess = rng.randint(0, 2)
        sides = [(_quarter_bars(rng, rng.randint(0, 7), 6),
                  sorted(F(rng.randrange(24), 4) for _ in range(n_ess)))
                 for _ in range(2)]

        def lists(kind):
            return [part for bars, births in sides
                    for part in ([(kind(b), kind(d)) for b, d in bars], [kind(t) for t in births])]
        for p in (F(1), F(2)):
            agg_f, pairs_f = bar_distance(*lists(float), p, 0.0)
            agg_i, pairs_i = bar_distance(*lists(lambda x: int(8 * x)), p, 0)
            assert type(agg_f) is float and type(agg_i) is int
            assert pairs_f == pairs_i and F(agg_f) == F(agg_i, 8 ** int(p))
