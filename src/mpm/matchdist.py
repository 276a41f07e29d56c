"""Certified approximation of the p-matching distance on bipersistence modules.

Lines are drawn from a compact parameter square: s in [-C, C] encodes
the base point (s >= 0 -> w = (s, 0), s < 0 -> w = (0, -s)) and mu in
[-1, 1] the direction (mu >= 0 -> v = (1, 1/(1-mu)), mu < 0 ->
v = (1/(1+mu), 1)); |mu| = 1 are the axis-parallel limit lines.  After
jointly translating both modules into [0, C]^2, pushed labels are
constant in s beyond |s| = C, so the square captures the supremum over
all admissible lines.

The push of a fixed grade does not decrease in s on s <= 0 and does not
increase on s >= 0, and is monotone in mu on each side of mu = 0.  So
each label's extremes over a box of any sign lie on the grid
{s_lo, s_hi} x {mu_lo, (0,) mu_hi}, with the cut at mu = 0 only on a
box that straddles it; _deviations scans that grid (proof there).  For
labels >= 0, as in the search, which translates them into [0, C]^2,
the push does not increase as |mu| grows either, so the max is at the
one corner nearest (s, mu) = (0, 0) and the min at the farthest one
(proof at _split_bounds).

The push (lines._pushes), the box deviation (_deviations), the bars
along a line (onepar.barcode_pairs) and the per-line Wasserstein
distance are each written once, generic in the number type: exact on
Fractions (label_deviation, local_bound) and on ints scaled by common
denominators, while the branch-and-bound loop runs the same code on
floats with a small inflation (~1e-9) on every upper-bound term.  The
search has two float twins, kept for their measured speed: _push_at,
_pushes with the chart's (_chart) 1s and 0s folded in, and
_split_bounds, _deviations (through _box_bounds) on the children of an
off-seam box; tests keep each equal to its original bit for bit.  The
exact per-line route is sampled_lower_bound: per line it pushes the
labels of both modules on one int scale (lines._int_pushes), reads the
int bars off barcode_pairs, and hands them to
wasserstein.scaled_bar_distance, which divides the aggregate back once
at integral p and p = inf; no Barcode or Fraction bar is built.  The
final lower bound is re-evaluated by sampled_lower_bound on the
report's argmax_admissible line (integral p and p = inf); a value above
the inflated float upper bound is an error.

The search runs on minimal presentations of both modules
(presentation._minimal): d_M^p depends only on the modules, and the box
bound adds the lp-norm of every label's deviation, so a redundant
relation or a cancellable generator-relation pair only loosens it and
adds lines.  The minimal labels are a subset of the given ones.  The
translation into [0, C]^2, C and so DistanceReport.translation come from
the minimal labels; the exact lower bound is re-evaluated on the given
presentations (see approx_matching_distance).  The minimal forms come
in label order, so a presentation whose rows have distinct labels, as
have its columns, gives the same search in any row and column order,
and equal forms give 0 at the root.

Each reduction is computed once.  When a box is split, the children of
both candidate splits are bounded in one batch over the labels of both
modules.  Off the seams (_split_bounds) that takes 10 pushes: the 4
child centers, the parent's two extreme corners, which were pushed
before when the parent itself was bounded, and two points on each cut.
The root and the few seam boxes go through _deviations.  The pushes at
the chosen children's centers then give their per-line values without
pushing again.  The pivot pairing of each module is memoized by (row
order, column order) for the duration of one call (barcode_pairs).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ComputationError, DataError, SubdivisionLimitError
from .field import PrimeField
from .grades import (Extended, Grade, PExp, as_pexp, is_inf, lp_root,
                     pexp_integral, rat, vec_pnorm)
from .lines import (AdmissibleLine, Line, LimitLine, _int_pushes,
                    _label_denominator)
from .onepar import barcode_pairs
from .presentation import Presentation, _minimal, labels
from .wasserstein import bar_distance, scaled_bar_distance


# ---------------------------------------------------------------------------
# the line chart

@dataclass(frozen=True)
class LineParam:
    """Chart coordinates of a (possibly degenerate) admissible line."""

    s: Fraction
    mu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "s", rat(self.s))
        object.__setattr__(self, "mu", rat(self.mu))
        if not -1 <= self.mu <= 1:
            raise DataError(f"mu = {self.mu} outside [-1, 1]")


def _chart(s, mu, zero, one):
    """The chart (kx, ky, wx, wy) of the line (s, mu), as lines._pushes
    reads it.

    The line has base point w = (wx, wy) and direction (1/kx, 1/ky); kx
    or ky is 0 on the limit lines |mu| = 1.  zero and one carry the
    number type.  line_of_param builds its line from this chart; the
    search pushes at chart points by _push_at, which folds the chart's
    1s and 0s into the push.
    """
    if s >= 0:
        wx, wy = s, zero
    else:
        wx, wy = zero, -s
    if mu >= 0:
        return one, one - mu, wx, wy
    return one + mu, one, wx, wy


def _push_at(label_vec, s, mu) -> list:
    """_pushes(label_vec, _chart(s, mu, zero, one)), bit for bit.

    On each side of the seams one of kx and ky is 1 and one of wx and
    wy is 0, so with k = 1 - mu (mu >= 0) or 1 + mu (mu < 0) the push
    max(kx (ax - wx), ky (ay - wy)) is, with T2 compared first as in
    _pushes:
    - s >= 0, mu >= 0: max(k ay, ax - s);
    - s >= 0, mu < 0: max(ay, k (ax - s));
    - s < 0, mu >= 0: max(k (ay + s), ax);
    - s < 0, mu < 0: max(ay + s, k ax).
    Each form is the chart's term for term, for floats and Fractions
    alike: 1 x == x (one * x, -0.0 included), x - 0 == x (x - zero, for
    either zero, as zero is 0 or +0.0 and -0.0 - 0.0 is -0.0) and
    ay - (-s) == ay + s (IEEE subtraction adds the negation, and
    -(-s) is s).  The int literal in 1 - mu and 1 + mu gives the value
    of one - mu and one + mu in mu's type, exactly, so Fractions stay
    exact and floats meet no int inside the per-label loop.  The sides
    are picked by s >= 0 and mu >= 0, as _chart picks them, so -0.0
    takes the side of +0.0.
    """
    # max(x, y) written out, T2 first, as in _pushes
    if s >= 0:
        if mu >= 0:
            k = 1 - mu
            return [y if (y := k * ay) > (x := ax - s) else x for ax, ay in label_vec]
        k = 1 + mu
        return [ay if ay > (x := k * (ax - s)) else x for ax, ay in label_vec]
    if mu >= 0:
        k = 1 - mu
        return [y if (y := k * (ay + s)) > ax else ax for ax, ay in label_vec]
    k = 1 + mu
    return [y if (y := ay + s) > (x := k * ax) else x for ax, ay in label_vec]


def line_of_param(q: LineParam) -> Line:
    """The admissible line of a chart point; |mu| = 1 gives the limit line."""
    kx, ky, wx, wy = _chart(q.s, q.mu, Fraction(0), Fraction(1))
    if ky == 0:
        return LimitLine(0, (wx, wy))
    if kx == 0:
        return LimitLine(1, (wx, wy))
    return AdmissibleLine((1 / kx, 1 / ky), (wx, wy))


@dataclass(frozen=True)
class ParamBox:
    """A rectangle in the (s, mu) chart."""

    s_lo: Fraction
    s_hi: Fraction
    mu_lo: Fraction
    mu_hi: Fraction

    def __post_init__(self):
        for name in ("s_lo", "s_hi", "mu_lo", "mu_hi"):
            object.__setattr__(self, name, rat(getattr(self, name)))
        if self.s_lo > self.s_hi or self.mu_lo > self.mu_hi:
            raise DataError("empty parameter box")
        if not (-1 <= self.mu_lo and self.mu_hi <= 1):
            raise DataError("box leaves the parameter square")

    @property
    def center(self) -> LineParam:
        return LineParam((self.s_lo + self.s_hi) / 2, (self.mu_lo + self.mu_hi) / 2)


def _deviations(label_vec, boxes) -> list:
    """Per box (sl, sh, ml, mh): the pushes of the labels at the box
    center, and per label the sup over the box of |push - push at the
    center|.

    Where the extremes sit: write the push as max(T1, T2) with
    T1 = kx (ax - wx) and T2 = ky (ay - wy), where kx, ky >= 0.  For
    fixed mu, (wx, wy) is (0, -s) for s < 0 and (s, 0) for s >= 0, so T1
    is constant for s < 0 and non-increasing for s >= 0, and T2 is
    non-decreasing for s < 0 and constant for s >= 0: the push does not
    decrease in s on s <= 0 and does not increase on s >= 0.  Only the
    signs of kx and ky are used, so this holds for labels of any sign,
    and rounding is monotone, so it holds for float pushes too.  For
    fixed s, the push is the max of a constant and a function affine in
    mu on each side of mu = 0 (kx = 1 + mu below, ky = 1 - mu above),
    hence monotone on each side, for floats as well.

    So at every mu the push's extremes over [sl, sh] are at sl and sh.
    Off the s-seam (sl >= 0 or sh <= 0) the push is monotone in s.
    When sl < 0 < sh, each term takes its max over [sl, sh] at an
    endpoint, so the sup is the larger endpoint push, and the push at
    s = 0 is max(T1(sl), T2(sh)), which is at least both endpoint
    pushes, so the inf is at an endpoint as well: no cut at s = 0 is
    needed.  Along each s-edge the push is monotone in mu on each side
    of mu = 0, so its extremes there are at ml, mh or, when
    ml < 0 < mh, mu = 0.  The grid {sl, sh} x mu-cuts so holds each
    label's max and min over the box, for labels of any sign.  It is
    scanned with the center, which lies in the box and so changes
    neither extreme in value; max and min return the center itself on
    a tie, so hi - c and c - lo are never -0.0.
    """
    zero = type(boxes[0][0])(0)
    out = []
    for sl, sh, ml, mh in boxes:
        center = _push_at(label_vec, (sl + sh) / 2, (ml + mh) / 2)
        mu_cuts = (ml, zero, mh) if ml < zero < mh else (ml, mh)
        grid = [_push_at(label_vec, s, mu) for s in (sl, sh) for mu in mu_cuts]
        # max(hi - c, c - lo) written out, as in _pushes
        devs = [y if (y := c - lo) > (x := hi - c) else x
                for c, hi, lo in zip(center, map(max, center, *grid),
                                     map(min, center, *grid))]
        out.append((center, devs))
    return out


def label_deviation(a: Grade, box: ParamBox) -> Fraction:
    """Exact sup over the box of |push - push at the box center|."""
    a = (rat(a[0]), rat(a[1]))
    return _deviations([a], [(box.s_lo, box.s_hi, box.mu_lo, box.mu_hi)])[0][1][0]


def local_bound(label_vec: Sequence[Grade], box: ParamBox, p: PExp) -> Extended:
    """lp-norm of the per-label push deviations over the box.

    This bounds how far the pushed label vector can move from its value
    at the box center, hence (through the 1-parameter inequality
    d_W <= label distance) the change of the per-line Wasserstein
    distance across the box.
    """
    p = as_pexp(p)
    label_vec = [(rat(a[0]), rat(a[1])) for a in label_vec]
    [(_, devs)] = _deviations(label_vec, [(box.s_lo, box.s_hi, box.mu_lo, box.mu_hi)])
    return vec_pnorm(devs, p)


def sampled_lower_bound(P_M: Presentation, P_N: Presentation, p: PExp,
                        lines: Sequence[Line]) -> Extended:
    """Max of the exact per-line Wasserstein distances (a valid lower bound).

    The value at a line is that of wasserstein(barcode_along_line(P_M,
    line), barcode_along_line(P_N, line), p), and the max starts from
    Fraction(0) and moves only to a larger value.  No Barcode and no
    Fraction bar is built: both modules are evaluated on one int scale
    per line.  One common denominator of the labels of both
    presentations is found per call, and lines._int_pushes pushes all
    the labels along the line as even ints, s > 0 times the Fraction
    pushes.  barcode_pairs only compares them, with the outcomes of the
    Fraction comparisons, so it returns the bars of barcode_along_line
    in the same order with every endpoint times s (proof at
    barcode_along_line).  wasserstein_full's proof uses of its scale
    only that it is positive and makes every bar an int pair of even
    length, so it holds for s: scaled_bar_distance, which
    wasserstein_full calls too, gives from these int bars the aggregate
    of the Fraction bars, dividing once by s^p (by s at p = inf), and
    at a non-integral p runs bar_distance on the Fraction bars divided
    back.  lp_root then gives the per-line value, equal in value and
    type.
    """
    p = as_pexp(p)
    if P_M.n_params != 2 or P_N.n_params != 2:
        raise DataError("restriction applies to 2-parameter presentations")
    k = P_M.n_rows + P_M.n_cols
    label_vec = labels(P_M) + labels(P_N)
    den = _label_denominator(label_vec)
    cols_m, cols_n = P_M.column_dicts(), P_N.column_dicts()
    best: Extended = Fraction(0)
    for line in lines:
        pushed, s = _int_pushes(label_vec, line, den)
        pm, pn = pushed[:k], pushed[k:]
        agg, _ = scaled_bar_distance(
            *barcode_pairs(pm[:P_M.n_rows], pm[P_M.n_rows:], cols_m, P_M.field),
            *barcode_pairs(pn[:P_N.n_rows], pn[P_N.n_rows:], cols_n, P_N.field),
            p, s)
        v = lp_root(agg, p)
        if v > best:
            best = v
    return best


# ---------------------------------------------------------------------------
# float label data for the branch-and-bound loop

_INFLATE = 1e-9


class _ModuleData:
    """Float label data of one presentation, translated to [0, C]^2.

    memo holds the pivot pairings of barcode_pairs for this matrix; the
    object lives for one approx_matching_distance call.
    """

    def __init__(self, minimal: tuple, field: PrimeField, ux: Fraction,
                 uy: Fraction):
        row_labels, col_labels, columns = minimal
        self.n_rows = len(row_labels)
        self.labels = [(float(g[0] - ux), float(g[1] - uy))
                       for g in row_labels + col_labels]
        self.columns = [dict(col) for col in columns]
        self.field = field
        self.memo: dict = {}

    def bars(self, pushes: list):
        """Finite bars and ascending essential births (barcode_pairs),
        from the pushes of self.labels along one line."""
        n = self.n_rows
        return barcode_pairs(pushes[:n], pushes[n:], self.columns, self.field,
                             self.memo)


def _lp(devs: list, pf: Optional[float]) -> float:
    """Float lp-norm of one module's deviations (pf None for p = inf)."""
    # kept apart from vec_pnorm, whose exact-type loops slow this hot path
    if pf is None:
        return max(devs, default=0.0)
    if pf == 1.0:
        return sum(devs)
    return lp_root(sum(d ** pf for d in devs), pf)


def _box_bounds(M: _ModuleData, N: _ModuleData, boxes: list,
                pf: Optional[float]) -> list:
    """Per box: the pushes of M.labels + N.labels at the box center, and
    the float bound of M plus the float bound of N over the box (not yet
    inflated)."""
    k = len(M.labels)
    return [(center, _lp(devs[:k], pf) + _lp(devs[k:], pf))
            for center, devs in _deviations(M.labels + N.labels, boxes)]


def _split_bounds(M: _ModuleData, N: _ModuleData, box: tuple,
                  pf: Optional[float]) -> list:
    """_box_bounds of the four children of both splits of an off-seam box.

    box (sl, sh, ml, mh) lies off both seams (sl >= 0 or sh <= 0, and
    ml >= 0 or mh <= 0) and has both cuts cs = (sl + sh) / 2 and
    cm = (ml + mh) / 2 strictly inside.  The children are
    (sl, cs, ml, mh), (cs, sh, ml, mh), (sl, sh, ml, cm) and
    (sl, sh, cm, mh), in that order, and the result equals
    _box_bounds on them bit for bit.  It takes 10 pushes, the 4 child
    centers and 6 extreme corners, where _deviations takes 20 at 12
    distinct points.

    The two-corner rule.  On each axis call the end of the box's range
    nearer to 0 near (sl when sl >= 0, else sh; likewise for mu) and
    the other far.  Every label here is >= 0: _ModuleData translates
    them into [0, C]^2, so each coordinate is +0.0 or positive.  The
    push is max(T1, T2) with T1 = kx (ax - wx) and T2 = ky (ay - wy).
    - In s: for fixed mu the float push does not increase as |s| grows,
      on either side of s = 0 (proof at _deviations).
    - In mu, on mu >= 0 (kx = 1, ky = 1 - mu): for fixed s, T1 is
      constant and the float ky does not increase with mu.  If the
      fixed factor ay - wy is >= 0, T2 does not increase either, as
      rounding is monotone.  If it is < 0, then wy > 0, so s < 0 and
      wx = 0, and T2 <= 0 <= ax = T1: the push has T1's value at every
      mu (T2 = -0.0 at ky = 0 ties T1 = 0.0 in value).
    - In mu, on mu <= 0 (kx = 1 + mu, ky = 1): the same with the terms
      swapped.  The float kx does not decrease with mu, and a factor
      ax - wx < 0 means s > 0 and wy = 0, so T1 <= 0 <= ay = T2.
    - Signed zeros: s = -0.0 and mu = -0.0 take the charts of s >= 0
      and mu >= 0, which equal the other side's at 0 (1 + -0.0 and
      1 - -0.0 are 1.0, and ax - -0.0 is ax), so the seams themselves
      are no exception.
    So the push does not increase as |s| or |mu| grows, and in value
    each label's max over the box is its push at (near s, near mu) and
    its min its push at (far s, far mu).  Both corners are on the grid
    that _deviations scans, so these equal its hi and lo in value, up
    to the sign of a zero.  A zero's sign leaves the deviation's bits
    alone: hi - c and c - lo are >= 0, a zero one never wins x > y, and
    y + 0.0 is +0.0 for either zero, as _deviations' deviation is never
    -0.0 either.

    The near child of each split keeps the parent's near corner and has
    its far corner on the cut; the far child has its near corner on the
    cut and keeps the parent's far corner.  So (near, near) and
    (far, far) serve two children each.  The centers are pushed at the
    floats _deviations uses, and the bounds are built by the same
    expressions, so every bit matches.  With a label below 0 the rule
    fails (a push can then be least inside a mu range), which is why
    _deviations scans the grid for label_deviation and local_bound,
    whose labels may have either sign.
    """
    sl, sh, ml, mh = box
    cs, cm = (sl + sh) / 2, (ml + mh) / 2
    near_s, far_s = (sl, sh) if sl >= 0.0 else (sh, sl)
    near_m, far_m = (ml, mh) if ml >= 0.0 else (mh, ml)
    label_vec = M.labels + N.labels
    nn = _push_at(label_vec, near_s, near_m)
    ff = _push_at(label_vec, far_s, far_m)
    # (hi, lo) corner pushes of the near child, then of the far child
    s_ends = [(nn, _push_at(label_vec, cs, far_m)),
              (_push_at(label_vec, cs, near_m), ff)]
    m_ends = [(nn, _push_at(label_vec, far_s, cm)),
              (_push_at(label_vec, near_s, cm), ff)]
    if sl < 0.0:
        s_ends.reverse()
    if ml < 0.0:
        m_ends.reverse()
    k = len(M.labels)
    out = []
    for s, mu, (hi, lo) in zip(((sl + cs) / 2, (cs + sh) / 2, cs, cs),
                               (cm, cm, (ml + cm) / 2, (cm + mh) / 2),
                               s_ends + m_ends):
        center = _push_at(label_vec, s, mu)
        devs = [x if (x := a - c) > (y := c - d) else y + 0.0
                for c, a, d in zip(center, hi, lo)]
        out.append((center, _lp(devs[:k], pf) + _lp(devs[k:], pf)))
    return out


def _line_value(M: _ModuleData, N: _ModuleData, pushes: list, p: PExp) -> float:
    """Float per-line distance from the pushes of M.labels + N.labels."""
    k = len(M.labels)
    agg, _ = bar_distance(*M.bars(pushes[:k]), *N.bars(pushes[k:]), p, 0.0)
    return lp_root(agg, p)


# ---------------------------------------------------------------------------
# the branch-and-bound approximation

@dataclass
class DistanceReport:
    """Certified bounds: lower <= d_M^p <= upper, upper - lower <= epsilon.

    translation is the least coordinate of each axis over the labels of
    both minimal presentations, the search's origin; argmax_admissible
    adds it back.
    """

    p: PExp
    epsilon: float
    lower: Extended
    upper: Extended
    lines_evaluated: int
    argmax_line: LineParam
    translation: Grade
    converged: bool = True
    max_depth_seen: int = 0

    def argmax_admissible(self) -> Line:
        """The best line found, in the original (untranslated) coordinates."""
        line = line_of_param(self.argmax_line)
        ux, uy = self.translation
        w = (line.w[0] + ux, line.w[1] + uy)
        if isinstance(line, LimitLine):
            return LimitLine(line.axis, w)
        return AdmissibleLine(line.v, w)


def approx_matching_distance(P_M: Presentation, P_N: Presentation, p: PExp,
                             epsilon, max_depth: int = 60) -> DistanceReport:
    """Approximate d_M^p(M, N) with certificate upper - lower <= epsilon.

    lower is the max of per-line distances over the evaluated box
    centers (re-evaluated exactly at the best line for integral p and
    p = inf); upper adds the local push-deviation bounds of the live
    boxes.  Boxes are processed best-first by upper bound and split one
    direction at a time by the rule in split_candidates; children whose
    bound cannot beat the current lower are pruned.  Raises DataError
    for epsilon <= 0 or max_depth < 0 (max_depth 0 evaluates the root
    line only), SubdivisionLimitError (with the partial report attached)
    if the depth guard is hit, and ComputationError if the exact lower
    bound exceeds the inflated float upper bound.

    The search runs on the minimal presentations of P_M and P_N
    (presentation._minimal), which present the same modules: the
    translation, C, the box bounds and the per-line values are all taken
    from them, and two equal minimal forms over one field give 0 (the
    forms are in label order, so this covers forms that differ only by a
    permutation of rows and columns of distinct labels).  This
    is sound because every quantity the certificate rests on is a
    module invariant.  The restriction of a module to a line depends
    only on the module, so isomorphic modules have equal per-line
    barcodes and equal per-line distances, and d_M^p is their supremum
    over lines.  The chart of the minimal labels covers every line, as
    it does for any labels the modules are presented with.  So the
    exact re-evaluation of the report's best line, run on the caller's
    P_M and P_N, gives the value the minimal presentations give there.
    """
    p = as_pexp(p)
    eps = float(epsilon)
    if not eps > 0:
        raise DataError("epsilon must be positive")
    if max_depth < 0:
        raise DataError(f"max_depth must be non-negative, got {max_depth}")
    for P in (P_M, P_N):
        if P.n_params != 2:
            raise DataError("matching distance requires 2-parameter presentations")

    min_M, min_N = _minimal(P_M), _minimal(P_N)
    all_labels = min_M[0] + min_M[1] + min_N[0] + min_N[1]
    if not all_labels:
        zero_param = LineParam(0, 0)
        return DistanceReport(p, eps, Fraction(0), Fraction(0), 0, zero_param,
                              (Fraction(0), Fraction(0)))
    ux = min(g[0] for g in all_labels)
    uy = min(g[1] for g in all_labels)
    translation = (ux, uy)
    C = max(max(g[0] - ux for g in all_labels), max(g[1] - uy for g in all_labels))
    Cf = float(C)
    if Fraction(Cf) < C:
        Cf = math.nextafter(Cf, math.inf)

    M = _ModuleData(min_M, P_M.field, ux, uy)
    N = _ModuleData(min_N, P_N.field, ux, uy)
    pf = None if is_inf(p) else float(p)

    def inflated(bounded):
        """The (center pushes, bound) pairs with each bound inflated."""
        return [(center, b * (1.0 + 1e-12) + _INFLATE) for center, b in bounded]

    root = (-Cf, Cf, -1.0, 1.0)
    [(root_pushes, root_bound)] = inflated(_box_bounds(M, N, [root], pf))
    root_val = _line_value(M, N, root_pushes, p)
    evaluated = 1
    argmax = LineParam(0, 0)
    if P_M.field == P_N.field and min_M == min_N:
        return DistanceReport(p, eps, Fraction(0), Fraction(0), evaluated,
                              argmax, translation)

    lower = root_val
    goal = eps * (1.0 - 1e-6)
    counter = 0
    heap = [(-(root_val + root_bound), counter, root, 0)]
    max_depth_seen = 0

    def make_report(upper_f: float, converged: bool) -> DistanceReport:
        report = DistanceReport(p, eps, lower, upper_f, evaluated, argmax,
                                translation, converged, max_depth_seen)
        if pexp_integral(p) or is_inf(p):
            line = report.argmax_admissible()
            report.lower = sampled_lower_bound(P_M, P_N, p, [line])
        if report.lower > upper_f * (1.0 + 1e-12) + _INFLATE:
            raise ComputationError(
                f"lower bound {float(report.lower)} exceeds upper bound {upper_f}")
        report.upper = max(upper_f, float(report.lower))
        return report

    def split_candidates(box):
        """Candidate splits: the midpoint of each axis the box spans.

        Every box is a dyadic cell of the root, whose midpoints are the
        seams s = 0 and mu = 0; so a box straddles a seam only while it
        spans that axis in full, and then its midpoint is the seam.  The
        children of all candidates are bounded in one batch, by
        _split_bounds when the box is off both seams and has both cuts.
        Returns (children, [(center pushes, bound)]) or None for a point
        box.
        """
        sl, sh, ml, mh = box
        cands = []
        cut = (sl + sh) / 2
        if sl < cut < sh:
            cands.append((0, [(sl, cut, ml, mh), (cut, sh, ml, mh)]))
        cut = (ml + mh) / 2
        if ml < cut < mh:
            cands.append((1, [(sl, sh, ml, cut), (sl, sh, cut, mh)]))
        if not cands:
            return None
        if len(cands) == 2 and not (sl < 0.0 < sh or ml < 0.0 < mh):
            bounded = inflated(_split_bounds(M, N, box, pf))
        else:
            bounded = inflated(_box_bounds(
                M, N, [ch for _, children in cands for ch in children], pf))
        best = None
        for i, (axis, children) in enumerate(cands):
            pair = bounded[2 * i:2 * i + 2]
            bnds = [b for _, b in pair]
            # sum-of-children ranks a split that flattens one child above
            # one that merely halves both; max alone cannot see that
            key = (sum(bnds), max(bnds), axis)
            if best is None or key < best[0]:
                best = (key, children, pair)
        return best[1], best[2]

    while heap:
        neg_upper, _, box, depth = heap[0]
        upper_top = -neg_upper
        if upper_top <= lower + goal:
            return make_report(max(float(lower), upper_top), True)
        heapq.heappop(heap)
        if depth >= max_depth:
            raise SubdivisionLimitError(
                f"subdivision depth limit {max_depth} reached",
                make_report(max(float(lower), upper_top), False))
        max_depth_seen = max(max_depth_seen, depth + 1)
        split = split_candidates(box)
        if split is None:
            # point box: its only line is the (already evaluated) center
            continue
        children, bounded = split
        for child, (pushes, bnd) in zip(children, bounded):
            val = _line_value(M, N, pushes, p)
            evaluated += 1
            if val > lower:
                lower = val
                sl, sh, ml, mh = child
                argmax = LineParam(Fraction((sl + sh) / 2), Fraction((ml + mh) / 2))
            upper_child = val + bnd
            if upper_child > lower:
                counter += 1
                heapq.heappush(heap, (-upper_child, counter, child, depth + 1))
    return make_report(float(lower), True)
