import math
import random
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from mpm import (AdmissibleLine, INF, ComputationError, DataError, LimitLine,
                 LineParam, ParamBox, SubdivisionLimitError, approx_matching_distance,
                 barcode_along_line, free_presentation,
                 line_of_param, local_bound, push, sampled_lower_bound,
                 wasserstein)
from mpm import matchdist
from mpm.field import PrimeField
from mpm.grades import grade_join
from mpm.lines import _pushes
from mpm.matchdist import (_ModuleData, _box_bounds, _chart, _deviations,
                           _line_value, _lp, _push_at, _split_bounds,
                           label_deviation)
from mpm.presentation import Presentation, labels

from conftest import shuffled_label_distinct_pairs
from oracles import box_sample_max_power

F2 = PrimeField(2)


def module_data(P, ux, uy):
    """The search's float data of P's own labels and columns, as given."""
    return _ModuleData((P.row_labels, P.col_labels, P.columns), P.field, ux, uy)


def float_line_value(M, N, s, mu, p):
    """The branch-and-bound's per-line distance: the shared code on floats."""
    return _line_value(M, N, _pushes(M.labels + N.labels, _chart(s, mu, 0.0, 1.0)), p)


def test_line_of_param_examples():
    l0 = line_of_param(LineParam(0, 0))
    assert l0.v == (F(1), F(1)) and l0.w == (F(0), F(0))
    l1 = line_of_param(LineParam(2, F(1, 2)))
    assert l1.v == (F(1), F(2)) and l1.w == (F(2), F(0))
    l2 = line_of_param(LineParam(-1, F(-1, 2)))
    assert l2.v == (F(2), F(1)) and l2.w == (F(0), F(1))


def test_line_of_param_boundary():
    top = line_of_param(LineParam(3, 1))
    assert isinstance(top, LimitLine) and top.axis == 0 and top.w == (F(3), F(0))
    bot = line_of_param(LineParam(-2, -1))
    assert isinstance(bot, LimitLine) and bot.axis == 1 and bot.w == (F(0), F(2))


def test_local_bound_point_box_is_zero():
    box = ParamBox(F(1, 2), F(1, 2), F(1, 4), F(1, 4))
    assert local_bound([(F(1), F(1)), (F(3), F(2))], box, math.inf) == 0


def test_local_bound_flat_instance():
    # push = max(1 - s, (1-mu)*1) = 1 on all of s = 0, mu in [0, 1/2]
    box = ParamBox(0, 0, 0, F(1, 2))
    a = (F(1), F(1))
    assert local_bound([a], box, math.inf) == 0
    assert box_sample_max_power([a], box, math.inf, 25) == 0


def test_local_bound_nondegenerate_instance():
    # push((0,1)) = (1-mu): center 3/4, range [1/2, 1] over mu in [0, 1/2]
    box = ParamBox(0, 0, 0, F(1, 2))
    a = (F(0), F(1))
    assert local_bound([a], box, math.inf) == F(1, 4)
    assert box_sample_max_power([a], box, math.inf, 101) == F(1, 4)


def test_local_bound_norm_comparison():
    rng = random.Random(83)
    for _ in range(40):
        z = rng.randint(1, 5)
        labs = [(F(rng.randrange(0, 17), 4), F(rng.randrange(0, 17), 4))
                for _ in range(z)]
        lo_s = F(rng.randrange(-8, 8), 2)
        lo_m = F(rng.randrange(-4, 3), 4)
        box = ParamBox(lo_s, lo_s + F(rng.randrange(1, 5), 2),
                       lo_m, lo_m + F(rng.randrange(1, 3), 4))
        v1 = local_bound(labs, box, 1)
        vinf = local_bound(labs, box, math.inf)
        assert vinf <= v1 <= z * vinf
        # v_p <= z^(1/p) * v_inf, checked exactly at p = 2 via squares
        from mpm.grades import vec_pnorm_power
        v2_sq = vec_pnorm_power([label_deviation(a, box) for a in labs], F(2))
        assert v2_sq <= z * vinf ** 2


def test_label_deviation_dominates_dense_sampling():
    # the per-chart corner rule must never undercut sampled lines
    rng = random.Random(89)
    for _ in range(40):
        z = rng.randint(1, 4)
        labs = [(F(rng.randrange(0, 17), 4), F(rng.randrange(0, 17), 4))
                for _ in range(z)]
        lo_s = F(rng.randrange(-8, 8), 2)
        lo_m = F(rng.randrange(-4, 3), 4)
        box = ParamBox(lo_s, lo_s + F(rng.randrange(1, 5), 2),
                       lo_m, lo_m + F(rng.randrange(1, 3), 4))
        for p in (F(1), F(2), math.inf):
            bound = local_bound(labs, box, p)
            sampled = box_sample_max_power(labs, box, p, 21)
            if p == math.inf:
                assert bound >= sampled
            elif p == 1:
                assert bound >= sampled  # power = value for p = 1... both sums
            else:
                assert F(bound) ** 2 >= sampled if isinstance(bound, F) \
                    else bound ** 2 >= float(sampled) - 1e-9


def test_float_box_bound_equals_exact_bound_on_dyadic_inputs():
    # dyadic labels and box corners keep every float operation exact, so
    # the branch-and-bound's box bound must equal the exact local bound;
    # a box and its split children go through one batch, sharing corners,
    # and the children of an off-seam box also through _split_bounds
    rng = random.Random(137)
    for _ in range(200):
        labs_m, labs_n = ([(F(rng.randrange(0, 25), 4), F(rng.randrange(0, 25), 4))
                           for _ in range(rng.randint(1, 5))] for _ in range(2))
        M = module_data(free_presentation(labs_m, F2), F(0), F(0))
        N = module_data(free_presentation(labs_n, F2), F(0), F(0))
        sl = F(rng.randrange(-8, 8), 2)
        sh = sl + F(rng.randrange(0, 5), 2)
        ml = F(rng.randrange(-8, 8), 8)
        mh = min(F(1), ml + F(rng.randrange(0, 9), 8))
        sm, mm = (sl + sh) / 2, (ml + mh) / 2
        boxes = [(sl, sh, ml, mh), (sl, sm, ml, mh), (sm, sh, ml, mh),
                 (sl, sh, ml, mm), (sl, sh, mm, mh)]
        for p, pf in ((F(1), 1.0), (math.inf, None)):
            fast = _box_bounds(M, N, [tuple(map(float, b)) for b in boxes], pf)
            checked = list(zip(boxes, fast))
            if sl < sm < sh and ml < mm < mh and not (sl < 0 < sh or ml < 0 < mh):
                kernel = _split_bounds(M, N, tuple(map(float, boxes[0])), pf)
                checked += zip(boxes[1:], kernel)
            for b, (_, bound) in checked:
                box = ParamBox(*b)
                assert bound == float(local_bound(labs_m, box, p) + local_bound(labs_n, box, p))


def test_label_deviation_needs_no_s_zero_cut():
    # for fixed mu the push is monotone on each side of s = 0, so on boxes
    # straddling s = 0 the grid without the s = 0 cut already holds the
    # extremes, for labels of either sign
    rng = random.Random(181)
    for _ in range(400):
        a = (F(rng.randrange(-12, 13), 4), F(rng.randrange(-12, 13), 4))
        sl = -F(rng.randrange(1, 17), 4)
        sh = F(rng.randrange(1, 17), 4)
        ml = F(rng.randrange(-8, 8), 8)
        mh = min(F(1), ml + F(rng.randrange(1, 9), 8))
        box = ParamBox(sl, sh, ml, mh)
        c = push(line_of_param(box.center), a)
        mu_cuts = (ml, F(0), mh) if ml < 0 < mh else (ml, mh)
        full = max(abs(push(line_of_param(LineParam(s, mu)), a) - c)
                   for s in (sl, F(0), sh) for mu in mu_cuts)
        assert label_deviation(a, box) == full


def _interval(rng, kind, n):
    """Integers lo <= hi in [-n, n] of one kind: off 0 on either side,
    touching 0 from either side, straddling 0, or a single point."""
    a, b = sorted(rng.randint(1, n) for _ in range(2))
    if kind == "point":
        c = rng.randint(-n, n)
        return c, c
    return {"pos": (a, b), "neg": (-b, -a), "touch+": (0, b), "touch-": (-b, 0),
            "straddle": (-a, b)}[kind]


def _full_grid_deviation(a, box):
    """Exact sup over the box of |push - push at the center|, on the grid
    of the box's corners and both seams, by the public push."""
    def cuts(lo, hi):
        return (lo, F(0), hi) if lo < 0 < hi else (lo, hi)
    c = push(line_of_param(box.center), a)
    return max(abs(push(line_of_param(LineParam(s, mu)), a) - c)
               for s in cuts(box.s_lo, box.s_hi) for mu in cuts(box.mu_lo, box.mu_hi))


def _full_grid_scan(label_vec, box):
    """Float center pushes and per-label max |push - center push| over
    the grid of the box's corners and both seams."""
    sl, sh, ml, mh = box

    def cuts(lo, hi):
        return (lo, 0.0, hi) if lo < 0 < hi else (lo, hi)
    center = _pushes(label_vec, _chart((sl + sh) / 2, (ml + mh) / 2, 0.0, 1.0))
    grid = [_pushes(label_vec, _chart(s, mu, 0.0, 1.0))
            for s in cuts(sl, sh) for mu in cuts(ml, mh)]
    return center, [max(abs(g[i] - c) for g in grid) for i, c in enumerate(center)]


def test_push_at_equals_chart_push_bit_for_bit():
    # _push_at folds the chart's 1s and 0s into the push: it must equal
    # lines._pushes on _chart hex for hex on floats (labels of either
    # sign and zero, s and mu at +-0.0, |mu| = 1, every quadrant, dyadic
    # points down to 40 splits deep) and exactly on Fractions
    rng = random.Random(2027)
    C = 7.5
    hexed = lambda xs: [x.hex() for x in xs]
    coord = lambda: rng.choice((1.0, -1.0)) * rng.choice(
        (0.0, float(rng.randrange(9)) / 2, rng.random() * C))
    label_vec = [(coord(), coord()) for _ in range(60)]
    label_vec += [(x, y) for x in (0.0, -0.0, 1.0) for y in (0.0, -0.0, -1.0)]
    points = [(s, mu) for s in (0.0, -0.0, C, -C, 1.25, -1.25)
              for mu in (0.0, -0.0, 1.0, -1.0, 0.375, -0.375)]
    for _ in range(600):
        depth = rng.randint(1, 40)
        points.append((rng.randint(-2 ** depth, 2 ** depth) * C / 2 ** depth,
                       rng.randint(-2 ** depth, 2 ** depth) / 2 ** depth))
    assert {(s >= 0, mu >= 0) for s, mu in points} == {(a, b) for a in (0, 1) for b in (0, 1)}
    for s, mu in points:
        want = _pushes(label_vec, _chart(s, mu, 0.0, 1.0))
        assert hexed(_push_at(label_vec, s, mu)) == hexed(want), (s, mu)
    frac = lambda: F(rng.randint(-40, 40), rng.randint(1, 12))
    exact_vec = [(frac(), frac()) for _ in range(30)]
    for s, mu in [(F(0), F(0)), (F(3), F(1)), (F(-3), F(-1))] + [
            (frac(), F(rng.randint(-16, 16), 16)) for _ in range(200)]:
        got = _push_at(exact_vec, s, mu)
        assert got == _pushes(exact_vec, _chart(s, mu, F(0), F(1)))
        assert all(type(x) is F for x in got)


def test_box_deviations_match_full_grid():
    # the box deviation scans the grid {s_lo, s_hi} x mu-cuts with the
    # center on every box, with no cut at s = 0; it must give the
    # full-grid sup, exactly on Fractions and bit for bit on floats, on
    # boxes of every kind (s = 0 touched as 0.0 or -0.0, mu ranges
    # reaching the limit lines) and labels of any sign
    rng = random.Random(211)
    kinds = ("pos", "neg", "touch+", "touch-", "straddle", "point")
    hexed = lambda xs: [x.hex() for x in xs]

    def cases():
        # the push of (0, -1) on s = 1 is least at mu = 0, inside the mu range
        yield [(F(0), F(-1))], [(F(1), F(1))], ParamBox(0, 1, -1, F(1, 4))
        for _ in range(300):
            labs_m, labs_n = ([(F(rng.randrange(-30, 31), rng.randint(1, 6)),
                                F(rng.randrange(-30, 31), rng.randint(1, 6)))
                               for _ in range(rng.randint(1, 4))] for _ in range(2))
            s_lo, s_hi = _interval(rng, rng.choice(kinds), 16)
            mu_lo, mu_hi = _interval(rng, rng.choice(kinds), 8)
            yield labs_m, labs_n, ParamBox(F(s_lo, 4), F(s_hi, 4), F(mu_lo, 8), F(mu_hi, 8))

    def as_float(x):
        return -0.0 if x == 0 and rng.random() < 0.5 else float(x)

    for labs_m, labs_n, box in cases():
        full = [_full_grid_deviation(a, box) for a in labs_m]
        assert [label_deviation(a, box) for a in labs_m] == full
        assert local_bound(labs_m, box, math.inf) == max(full)
        assert local_bound(labs_m, box, 1) == sum(full)
        fbox = tuple(map(as_float, (box.s_lo, box.s_hi, box.mu_lo, box.mu_hi)))
        M = module_data(free_presentation(labs_m, F2), F(0), F(0))
        N = module_data(free_presentation(labs_n, F2), F(0), F(0))
        label_vec = M.labels + N.labels
        center, devs = _full_grid_scan(label_vec, fbox)
        [(got_center, got_devs)] = _deviations(label_vec, [fbox])
        assert (hexed(got_center), hexed(got_devs)) == (hexed(center), hexed(devs))
        k = len(M.labels)
        for pf in (None, 1.0, 2.0):
            [(_, bound)] = _box_bounds(M, N, [fbox], pf)
            assert bound.hex() == (_lp(devs[:k], pf) + _lp(devs[k:], pf)).hex()


def _off_seam_box(rng, C):
    """A float box off both seams with both cuts: a random quadrant, an
    edge touching s = 0 or mu = 0 as 0.0 or -0.0, or reaching |mu| = 1,
    or a dyadic cell some 40 random splits below the root."""
    if rng.random() < 0.25:
        box = (-C, C, -1.0, 1.0)
        for _ in range(rng.randint(36, 44)):
            sl, sh, ml, mh = box
            cs, cm = (sl + sh) / 2, (ml + mh) / 2
            box = rng.choice([(sl, cs, ml, mh), (cs, sh, ml, mh),
                              (sl, sh, ml, cm), (sl, sh, cm, mh)])
        return box
    def side(hi, r):
        lo, up = sorted(rng.uniform(0, hi) for _ in range(2))
        if r < 0.2:
            lo = rng.choice((0.0, -0.0))
        elif r < 0.3 and hi == 1.0:
            up = 1.0
        return (lo, up) if rng.random() < 0.5 else (-up, -lo)
    sl, sh = side(C, rng.random())
    ml, mh = side(1.0, rng.random())
    return sl, sh, ml, mh


def test_split_bounds_equal_box_bounds_bit_for_bit():
    # the kernel reads each label's extremes off one near and one far
    # corner of each child; on labels >= 0 (0.0 included) its centers and
    # bounds must equal _box_bounds' on the same four children, in every
    # quadrant, on edges touching a seam as 0.0 or -0.0, on mu ranges
    # reaching the limit lines and on tiny dyadic boxes
    rng = random.Random(227)
    hexed = lambda xs: [x.hex() for x in xs]
    for _ in range(600):
        C = rng.choice((1.0, 3.5, rng.uniform(0.5, 40.0)))
        M, N = (SimpleNamespace(labels=[
            tuple(rng.choice((0.0, C, rng.uniform(0, C), rng.uniform(0, C)))
                  for _ in range(2)) for _ in range(rng.randint(1, 6))])
            for _ in range(2))
        box = _off_seam_box(rng, C)
        sl, sh, ml, mh = box
        cs, cm = (sl + sh) / 2, (ml + mh) / 2
        assert sl < cs < sh and ml < cm < mh, box
        children = [(sl, cs, ml, mh), (cs, sh, ml, mh), (sl, sh, ml, cm), (sl, sh, cm, mh)]
        for pf in (None, 1.0, 2.0):
            got = _split_bounds(M, N, box, pf)
            want = _box_bounds(M, N, children, pf)
            assert [(hexed(c), b.hex()) for c, b in got] == \
                [(hexed(c), b.hex()) for c, b in want], (box, pf)


def test_two_corner_rule_needs_nonnegative_labels():
    # with a label below 0 the push can grow with |mu|: (0, -1) on
    # s in [1, 2], mu in [0, 1/2] pushes to max(-s, mu - 1), least at the
    # corner nearest (0, 0); the two corners undercut the grid there,
    # which is why _deviations scans the grid for any-sign labels
    a = (F(0), F(-1))
    box = ParamBox(1, 2, 0, F(1, 2))
    at = lambda s, mu: push(line_of_param(LineParam(s, mu)), a)
    c = at(box.center.s, box.center.mu)
    two_corner = max(at(1, 0) - c, c - at(2, F(1, 2)))
    assert two_corner == F(-1, 4) < label_deviation(a, box) == F(1, 4)
    M, N = SimpleNamespace(labels=[(0.0, -1.0)]), SimpleNamespace(labels=[])
    children = [(1.0, 1.5, 0.0, 0.5), (1.5, 2.0, 0.0, 0.5),
                (1.0, 2.0, 0.0, 0.25), (1.0, 2.0, 0.25, 0.5)]
    got = [b for _, b in _split_bounds(M, N, (1.0, 2.0, 0.0, 0.5), None)]
    want = [b for _, b in _box_bounds(M, N, children, None)]
    assert all(g < w for g, w in zip(got, want))


def test_off_seam_splits_push_ten_chart_points(monkeypatch):
    # a split of a box off both seams pushes its 4 child centers and 6
    # extreme corners, not the 12 points of four corners per child, and
    # its labels are translated into [0, C]^2, as the two-corner rule
    # needs; the few seam splits keep the grid of _deviations
    count = [0]
    marks, seam_batches = [], []

    def push_at_spy(label_vec, s, mu):
        count[0] += 1
        return _push_at(label_vec, s, mu)

    def line_value_spy(M, N, pushes, p):
        marks.append(count[0])
        return _line_value(M, N, pushes, p)

    def deviations_spy(label_vec, boxes):
        seam_batches.append(boxes)
        return _deviations(label_vec, boxes)

    def kernel_spy(M, N, box, pf):
        assert all(x >= 0 and math.copysign(1.0, x) == 1.0
                   for a in M.labels + N.labels for x in a)
        return _split_bounds(M, N, box, pf)

    monkeypatch.setattr(matchdist, "_push_at", push_at_spy)
    monkeypatch.setattr(matchdist, "_line_value", line_value_spy)
    monkeypatch.setattr(matchdist, "_deviations", deviations_spy)
    monkeypatch.setattr(matchdist, "_split_bounds", kernel_spy)
    for seed, p in (("plateau3", INF), (0, 1), (21, 2)):
        P, Q, eps = golden_inputs(seed)
        count[0] = 0
        marks.clear()
        seam_batches.clear()
        rep = approx_matching_distance(P, Q, p, eps)
        # the root line, then each split's two child lines, both bounded
        # before the first is evaluated
        assert len(marks) == rep.lines_evaluated
        assert marks[2::2] == marks[1::2]
        per_split = Counter(marks[i] - marks[i - 1] for i in range(1, len(marks), 2))
        seam_splits = len(seam_batches) - 1
        off_seam = sum(per_split.values()) - seam_splits
        assert per_split[10] == off_seam > 0.9 * sum(per_split.values()), (seed, per_split)


# (seed, p, lower, upper, lines_evaluated, max_depth_seen, argmax_line) of
# approx_matching_distance(P, Q, p, 1/4) on
# random_paired_presentations(Random(seed), 2, 4, 4): every decision of the
# branch-and-bound shows in these, so a change that alters one fails here.
# The search runs on minimal presentations; the pairs of seeds 1 and 21 are
# not minimal
GOLDEN_APPROX = [
    (0, 1, F(7, 1), 7.238281251000613, 673, 16, (F(39, 8), F(-1, 2))),
    (0, 2, 3.984344362627307, 4.22658663878055, 281, 12, (F(39, 8), F(-1, 2))),
    (0, INF, F(3, 1), 3.240234376000245, 207, 11, (F(13, 4), F(-1, 2))),
    (1, 1, F(125, 64), 2.184570313500419, 223, 12, (F(369, 256), F(-1, 32))),
    (1, 2, 1.0830954266014607, 1.3084423823181854, 149, 11, (F(99, 64), F(1, 32))),
    (1, INF, F(717, 1024), 0.9462890635004395, 103, 10, (F(45, 32), F(-1, 16))),
    (5, 1, F(831, 128), 6.741699219750371, 1191, 15, (F(99, 64), F(-1, 64))),
    (5, 2, 4.626825797058859, 4.876772831686795, 429, 13, (F(159, 64), F(-1, 32))),
    (5, INF, F(9, 2), 4.747070313500248, 277, 12, (F(3, 1), F(0, 1))),
    (8, 1, F(4083, 512), 8.210937501000261, 269, 15, (F(195, 64), F(1, 256))),
    (8, 2, 3.517811819867572, 3.758764324474325, 275, 11, (F(-3, 1), F(1, 2))),
    (8, INF, F(9, 4), 2.484375001000984, 201, 10, (F(-3, 1), F(0, 1))),
    (15, 1, F(4, 1), 4.2187500010006715, 93, 10, (F(-3, 1), F(1, 2))),
    (15, 2, 2.9034870098566397, 3.152942313522325, 149, 11, (F(-21, 8), F(9, 16))),
    (15, INF, F(5, 2), 2.746093751000246, 325, 12, (F(-9, 2), F(0, 1))),
    (21, 1, F(5, 2), 2.749633790062773, 335, 14, (F(13, 4), F(-1, 2))),
    (21, 2, 1.1726039399558574, 1.418624177101402, 311, 13, (F(13, 4), F(-1, 2))),
    (21, INF, F(3, 4), 0.9941406260002441, 225, 12, (F(13, 4), F(-1, 2))),
    # "plateau<n>": random_paired_presentations(Random(n), 2, 3, 3) at
    # eps 1/10, from the matchdist-plateau pool, whose trees are deep
    ("plateau3", INF, F(3, 4), 0.8491210947500991, 1731, 12, (F(0, 1), F(0, 1))),
    ("plateau25", INF, F(3, 1), 3.0996093760000996, 1861, 14, (F(-3, 1), F(1, 2))),
]


def golden_inputs(seed):
    """The presentation pair and epsilon of a GOLDEN_APPROX seed."""
    from mpm.fixtures import random_paired_presentations
    if isinstance(seed, str):
        size, eps = 3, F(1, 10)
        rng = random.Random(int(seed.removeprefix("plateau")))
    else:
        size, eps = 4, F(1, 4)
        rng = random.Random(seed)
    P, Q = random_paired_presentations(rng, 2, size, size)
    return P, Q, eps


@pytest.mark.parametrize("seed", dict.fromkeys(row[0] for row in GOLDEN_APPROX))
def test_approx_decisions_are_pinned(seed):
    P, Q, eps = golden_inputs(seed)
    for s, p, lower, upper, lines, depth, argmax in GOLDEN_APPROX:
        if s != seed:
            continue
        rep = approx_matching_distance(P, Q, p, eps)
        assert (type(rep.lower), rep.lower) == (type(lower), lower)
        assert (rep.upper, rep.lines_evaluated, rep.max_depth_seen) == (upper, lines, depth)
        assert rep.argmax_line == LineParam(*argmax)


def test_approx_runs_on_minimal_presentations():
    # a redundant relation (the sum of two columns at their join) and a
    # generator-relation pair at a grade beyond every label present the
    # same module, so the search, which runs on minimal presentations,
    # makes the same decisions and reports the same translation
    P, Q, eps = golden_inputs(0)

    def padded(R):
        top = (max(g[0] for g in labels(R)) + 2, max(g[1] for g in labels(R)) + 3)
        a, b = R.columns[0], R.columns[1]
        summed = tuple(sorted((set(a) | set(b)) - (set(a) & set(b))))
        return Presentation(
            R.field, 2, R.row_labels + (top,),
            R.col_labels + (grade_join(R.col_labels[0], R.col_labels[1]), top),
            R.columns + (summed, ((R.n_rows, 1),)))

    assert P.field.q == 2 and min(P.n_cols, Q.n_cols) >= 2
    for p in (1, INF):
        rep = approx_matching_distance(P, Q, p, eps)
        assert approx_matching_distance(padded(P), padded(Q), p, eps) == rep
        assert approx_matching_distance(P, padded(Q), p, eps) == rep


def test_only_full_range_boxes_straddle_a_seam(monkeypatch):
    # every box is a dyadic cell of the root, so a box straddles s = 0
    # (mu = 0) only while it spans the root's s-range (mu-range), and
    # then its midpoint is the seam: no separate seam cut is needed
    seen = []

    def spy(label_vec, boxes):
        seen.extend(boxes)
        return _deviations(label_vec, boxes)

    def kernel_spy(M, N, box, pf):
        seen.append(box)
        return _split_bounds(M, N, box, pf)

    monkeypatch.setattr(matchdist, "_deviations", spy)
    monkeypatch.setattr(matchdist, "_split_bounds", kernel_spy)
    for seed, p, *_ in GOLDEN_APPROX:
        P, Q, eps = golden_inputs(seed)
        seen.clear()
        approx_matching_distance(P, Q, p, eps)
        s_lo, s_hi, mu_lo, mu_hi = seen[0]
        assert len(seen) > 1 and (mu_lo, mu_hi) == (-1.0, 1.0) and s_lo == -s_hi
        for sl, sh, ml, mh in seen:
            assert not sl < 0 < sh or (sl, sh) == (s_lo, s_hi), (seed, p)
            assert not ml < 0 < mh or (ml, mh) == (mu_lo, mu_hi), (seed, p)


def test_sampled_lower_bound_basics(h1_f, h1_g):
    assert sampled_lower_bound(h1_f, h1_g, 1, []) == 0
    # 1-parameter inputs are refused before any line, so also with none
    one = Presentation(F2, 1, ((0,),), (), ())
    for pair in ((one, one), (one, h1_f), (h1_f, one)):
        with pytest.raises(DataError, match="2-parameter"):
            sampled_lower_bound(*pair, 1, [])
    assert sampled_lower_bound(h1_f, h1_f, 1,
                               [AdmissibleLine((1, 1), (0, 0))]) == 0
    line = AdmissibleLine((1, 1), (2, 0))
    assert sampled_lower_bound(h1_f, h1_g, 1, [line]) == 1


def test_approx_identical_inputs(pres_f):
    rep = approx_matching_distance(pres_f, pres_f, 1, F(1, 100))
    assert rep.lower == 0 and rep.upper == 0


def test_approx_certificate_and_soundness(pres_f, pres_g):
    for p in (F(1), math.inf):
        rep = approx_matching_distance(pres_f, pres_g, p, 0.1)
        assert float(rep.upper) - float(rep.lower) <= 0.1
        assert float(rep.lower) <= float(rep.upper)
        assert rep.converged
        # the distance itself is sandwiched by paper values: >= 1, <= 2^(1/p)
        assert float(rep.lower) >= 1 - 0.1
        assert float(rep.upper) <= 2 ** (0 if p == math.inf else 1 / float(p)) + 0.1


def test_approx_essential_mismatch_is_infinite():
    # the root line already shows an unmatched essential bar: the first
    # convergence test returns at once, at every p
    A = free_presentation([(0, 0)], F2)
    B = free_presentation([(0, 0), (0, 0)], F2)
    for p in (1, F(3, 2), math.inf):
        rep = approx_matching_distance(A, B, p, F(1, 10))
        assert rep.lower == INF and rep.upper == INF, p
        assert (rep.lines_evaluated, rep.converged, rep.max_depth_seen) == (1, True, 0), p


def test_approx_decides_a_shuffled_copy_at_the_root():
    # minimal forms come in label order, so a presentation with distinct
    # labels and a row- and column-shuffled copy of it have equal forms
    for P, Q in shuffled_label_distinct_pairs(5, 3):
        assert P != Q
        for p in (1, math.inf):
            rep = approx_matching_distance(P, Q, p, F(1, 10))
            assert (rep.lower, rep.upper, rep.lines_evaluated) == (0, 0, 1), (P, p)


def test_approx_empty_presentations():
    A = Presentation(F2, 2, (), (), ())
    rep = approx_matching_distance(A, A, math.inf, F(1, 10))
    assert rep.lower == 0 and rep.upper == 0


def test_approx_rejects_negative_max_depth(pres_f, pres_g):
    # a negative depth limit is bad input, not a failed computation;
    # max_depth = 0 (the root line only) stays valid
    with pytest.raises(DataError, match="max_depth"):
        approx_matching_distance(pres_f, pres_g, math.inf, F(1, 10), max_depth=-1)
    with pytest.raises(SubdivisionLimitError) as info:
        approx_matching_distance(pres_f, pres_g, math.inf, F(1, 10), max_depth=0)
    assert info.value.report.lines_evaluated == 1


def test_approx_depth_guard(pres_f, pres_g):
    with pytest.raises(SubdivisionLimitError) as info:
        approx_matching_distance(pres_f, pres_g, 1, F(1, 10**6), max_depth=4)
    rep = info.value.report
    assert not rep.converged
    assert float(rep.lower) <= float(rep.upper)


def test_approx_agrees_with_dense_grid(pres_f, pres_g):
    eps = 0.1
    rep = approx_matching_distance(pres_f, pres_g, math.inf, eps)
    all_labels = labels(pres_f) + labels(pres_g)
    ux = min(g[0] for g in all_labels)
    uy = min(g[1] for g in all_labels)
    C = float(max(max(g[0] - ux for g in all_labels),
                  max(g[1] - uy for g in all_labels)))
    M = module_data(pres_f, ux, uy)
    N = module_data(pres_g, ux, uy)
    n_side = 200
    grid_max = 0.0
    modulus = 0.0
    for i in range(n_side):
        s = -C + (2 * C) * i / (n_side - 1)
        for j in range(n_side):
            mu = -1 + 2 * j / (n_side - 1)
            grid_max = max(grid_max, float_line_value(M, N, s, mu, math.inf))
    # cell modulus: one local bound per coarse cell (cells are congruent up
    # to the sign cuts, so sample a sweep of cells along both axes)
    ds = 2 * C / (n_side - 1)
    dmu = 2 / (n_side - 1)
    for i in range(0, n_side - 1, 7):
        s = -C + ds * i
        for j in range(0, n_side - 1, 7):
            mu = -1 + dmu * j
            [(_, bound)] = _box_bounds(M, N, [(s, s + ds, mu, mu + dmu)], None)
            modulus = max(modulus, bound)
    assert abs(float(rep.lower) - grid_max) <= eps + modulus + 1e-6


def test_one_parameter_degeneration():
    # diagonal embeddings: d_M^p equals the 1-parameter Wasserstein distance
    rng = random.Random(97)
    from mpm import barcode_of
    from mpm.fixtures import random_paired_presentations
    eps = F(1, 20)
    for _ in range(5):
        P1, Q1 = random_paired_presentations(rng, n_params=1, max_rows=3,
                                             max_cols=3, span=3)
        embed = lambda P: P.with_labels(
            tuple((g[0], g[0]) for g in P.row_labels),
            tuple((g[0], g[0]) for g in P.col_labels))
        P2, Q2 = embed(P1), embed(Q1)
        for p in (F(1), math.inf):
            exact = wasserstein(barcode_of(P1), barcode_of(Q1), p)
            rep = approx_matching_distance(P2, Q2, p, eps)
            assert abs(float(rep.lower) - float(exact)) <= float(eps) + 1e-9
            assert float(exact) <= float(rep.upper) + 1e-9


def test_float_fast_path_matches_exact_line_values():
    # the branch-and-bound evaluator must agree with the exact pipeline
    rng = random.Random(42)
    from mpm.fixtures import random_paired_presentations
    from mpm.presentation import labels
    for _ in range(40):
        P, Q = random_paired_presentations(rng, max_rows=4, max_cols=4)
        all_labels = labels(P) + labels(Q)
        ux = min(g[0] for g in all_labels)
        uy = min(g[1] for g in all_labels)
        M, N = module_data(P, ux, uy), module_data(Q, ux, uy)
        for _ in range(4):
            s = F(rng.randrange(-24, 25), 4)
            mu = F(rng.randrange(-4, 5), 4)
            for p in (F(1), F(2), F(3, 2), math.inf):
                fast = float_line_value(M, N, float(s), float(mu), p)
                line = line_of_param(LineParam(s, mu))
                moved = (line.w[0] + ux, line.w[1] + uy)
                line = LimitLine(line.axis, moved) if isinstance(line, LimitLine) \
                    else AdmissibleLine(line.v, moved)
                exact = wasserstein(barcode_along_line(P, line),
                                    barcode_along_line(Q, line), p)
                assert abs(fast - float(exact)) < 1e-9


def test_approx_on_random_paired_inputs():
    # random same-matrix pairs: certificate holds and no sampled line beats it
    rng = random.Random(131)
    from mpm.fixtures import random_paired_presentations
    from mpm.presentation import labels
    for _ in range(5):
        P, Q = random_paired_presentations(rng, max_rows=3, max_cols=3, span=4)
        rep = approx_matching_distance(P, Q, 1, 0.1)
        assert float(rep.upper) - float(rep.lower) <= 0.1
        all_labels = labels(P) + labels(Q)
        ux = min(g[0] for g in all_labels)
        uy = min(g[1] for g in all_labels)
        C = float(max(max(g[0] - ux for g in all_labels),
                      max(g[1] - uy for g in all_labels))) or 1.0
        M, N = module_data(P, ux, uy), module_data(Q, ux, uy)
        for i in range(40):
            for j in range(40):
                s = -C + 2 * C * i / 39
                mu = -1 + 2 * j / 39
                assert float_line_value(M, N, s, mu, F(1)) <= float(rep.upper) + 1e-6


def test_report_argmax_line_is_usable(pres_f, pres_g):
    rep = approx_matching_distance(pres_f, pres_g, 1, 0.1)
    line = rep.argmax_admissible()
    value = wasserstein(barcode_along_line(pres_f, line),
                        barcode_along_line(pres_g, line), 1)
    assert value == rep.lower


def test_exact_lower_above_float_upper_raises(pres_f, pres_g, monkeypatch):
    # the exact re-evaluation of the lower bound is checked against the
    # float upper bound before the report takes their max
    report = approx_matching_distance(pres_f, pres_g, 1, F(1, 4))
    monkeypatch.setattr(matchdist, "sampled_lower_bound",
                        lambda P_M, P_N, p, lines: report.upper + 1)
    with pytest.raises(ComputationError):
        approx_matching_distance(pres_f, pres_g, 1, F(1, 4))
