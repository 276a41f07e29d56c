"""Certified approximation of the p-matching distance on bipersistence modules.

Lines are drawn from a compact parameter square: s in [-C, C] encodes
the base point (s >= 0 -> w = (s, 0), s < 0 -> w = (0, -s)) and mu in
[-1, 1] the direction (mu >= 0 -> v = (1, 1/(1-mu)), mu < 0 ->
v = (1/(1+mu), 1)); |mu| = 1 are the axis-parallel limit lines.  After
jointly translating both modules into [0, C]^2, pushed labels are
constant in s beyond |s| = C, so the square captures the supremum over
all admissible lines.

In each sign quadrant of the chart the push of a fixed grade is the max
of two expressions that are affine in each parameter separately (one of
them constant or single-variable), so its extrema over a box sit on the
corners of the quadrant-split sub-boxes.  The push, the box deviation
and the per-line Wasserstein distance are each written once, generic in
the number type: on Fractions (push_param, label_deviation, local_bound,
wasserstein) they are exact, and the branch-and-bound loop runs the
same code on floats with a small inflation (~1e-9) on every upper-bound
term.  The final lower bound is re-evaluated in exact arithmetic at the
best line found (p in {1, inf}).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ComputationError, DataError, SubdivisionLimitError
from .grades import (INF, Extended, Grade, PExp, as_pexp, is_inf, pexp_integral,
                     rat, vec_pnorm)
from .lines import AdmissibleLine, Line, LimitLine, barcode_along_line
from .onepar import barcode_pairs
from .presentation import Presentation, labels
from .wasserstein import bar_distance, wasserstein


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
    """Coefficients (kx, ky, wx, wy) of the chart line (s, mu).

    The line has base point w = (wx, wy) and direction (1/kx, 1/ky), so
    it pushes a label a to max(kx (ax - wx), ky (ay - wy)); kx or ky is 0
    on the limit lines |mu| = 1.  zero and one carry the number type, so
    Fractions stay exact and floats meet no ints in the per-label loop.
    """
    if s >= 0:
        wx, wy = s, zero
    else:
        wx, wy = zero, -s
    if mu >= 0:
        return one, one - mu, wx, wy
    return one + mu, one, wx, wy


def _pushes(label_vec, charts) -> list:
    """Pushes of 2-D labels along chart lines, label by label: entry
    i * len(charts) + j is label i pushed along chart j."""
    # max(x, y) written out: the builtin call would dominate this loop
    return [y if (y := ky * (ay - wy)) > (x := kx * (ax - wx)) else x
            for ax, ay in label_vec for kx, ky, wx, wy in charts]


def line_of_param(q: LineParam) -> Line:
    """The admissible line of a chart point; |mu| = 1 gives the limit line."""
    kx, ky, wx, wy = _chart(q.s, q.mu, Fraction(0), Fraction(1))
    if ky == 0:
        return LimitLine(0, (wx, wy))
    if kx == 0:
        return LimitLine(1, (wx, wy))
    return AdmissibleLine((1 / kx, 1 / ky), (wx, wy))


def push_param(a: Grade, s: Fraction, mu: Fraction) -> Fraction:
    """Exact push of a grade along the chart line (valid on the boundary)."""
    return _pushes([a], [_chart(s, mu, Fraction(0), Fraction(1))])[0]


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


def _deviations(label_vec, sl, sh, ml, mh) -> list:
    """Per label, the sup over the box [sl, sh] x [ml, mh] of |push - push
    at the box center|.

    Extrema over each sign quadrant sit on sub-box corners, so the grid
    of boundary and zero cuts is evaluated.
    """
    zero = type(sl)(0)
    one = zero + 1
    s_cuts = (sl, zero, sh) if sl < zero < sh else (sl, sh)
    mu_cuts = (ml, zero, mh) if ml < zero < mh else (ml, mh)
    charts = [_chart((sl + sh) / 2, (ml + mh) / 2, zero, one)]
    charts += [_chart(s, mu, zero, one) for s in s_cuts for mu in mu_cuts]
    k = len(charts)
    pushes = _pushes(label_vec, charts)
    rows = (pushes[i:i + k] for i in range(0, len(pushes), k))
    # row[0] is the push at the box center
    return [max(max(row) - row[0], row[0] - min(row)) for row in rows]


def label_deviation(a: Grade, box: ParamBox) -> Fraction:
    """Exact sup over the box of |push - push at the box center|."""
    a = (rat(a[0]), rat(a[1]))
    return _deviations([a], box.s_lo, box.s_hi, box.mu_lo, box.mu_hi)[0]


def local_bound(label_vec: Sequence[Grade], box: ParamBox, p: PExp) -> Extended:
    """lp-norm of the per-label push deviations over the box.

    This bounds how far the pushed label vector can move from its value
    at the box center, hence (through the 1-parameter inequality
    d_W <= label distance) the change of the per-line Wasserstein
    distance across the box.
    """
    p = as_pexp(p)
    devs = [label_deviation(a, box) for a in label_vec]
    return vec_pnorm(devs, p)


def sampled_lower_bound(P_M: Presentation, P_N: Presentation, p: PExp,
                        lines: Sequence[Line]) -> Extended:
    """Max of the exact per-line Wasserstein distances (a valid lower bound)."""
    p = as_pexp(p)
    best: Extended = Fraction(0)
    for line in lines:
        v = wasserstein(barcode_along_line(P_M, line),
                        barcode_along_line(P_N, line), p)
        if v > best:
            best = v
    return best


# ---------------------------------------------------------------------------
# float label data for the branch-and-bound loop

_INFLATE = 1e-9


class _ModuleData:
    """Float label data of one presentation, translated to [0, C]^2."""

    def __init__(self, P: Presentation, ux: Fraction, uy: Fraction):
        self.rows = [(float(g[0] - ux), float(g[1] - uy)) for g in P.row_labels]
        self.cols = [(float(g[0] - ux), float(g[1] - uy)) for g in P.col_labels]
        self.columns = P.column_dicts()
        self.field = P.field
        self.all = self.rows + self.cols

    def bars(self, s: float, mu: float):
        """Finite bars and sorted essential births along the chart line."""
        charts = [_chart(s, mu, 0.0, 1.0)]
        pairs, essential = barcode_pairs(_pushes(self.rows, charts),
                                         _pushes(self.cols, charts),
                                         self.columns, self.field)
        return [(b, d) for b, d in pairs if d > b], sorted(essential)

    def bound(self, sl, sh, ml, mh, pf: Optional[float]) -> float:
        devs = _deviations(self.all, sl, sh, ml, mh)
        if pf is None:
            return max(devs, default=0.0)
        if pf == 1.0:
            return sum(devs)
        return sum(d ** pf for d in devs) ** (1.0 / pf)


# ---------------------------------------------------------------------------
# the branch-and-bound approximation

@dataclass
class DistanceReport:
    """Certified bounds: lower <= d_M^p <= upper, upper - lower <= epsilon."""

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


def _exact_line_value(P_M, P_N, lp: LineParam, translation: Grade, p) -> Extended:
    line = line_of_param(lp)
    ux, uy = translation
    moved = (line.w[0] + ux, line.w[1] + uy)
    line = LimitLine(line.axis, moved) if isinstance(line, LimitLine) \
        else AdmissibleLine(line.v, moved)
    return wasserstein(barcode_along_line(P_M, line),
                       barcode_along_line(P_N, line), p)


def approx_matching_distance(P_M: Presentation, P_N: Presentation, p: PExp,
                             epsilon, max_depth: int = 60) -> DistanceReport:
    """Approximate d_M^p(M, N) with certificate upper - lower <= epsilon.

    lower is the max of per-line distances over the evaluated box
    centers (re-evaluated exactly at the best line for p in {1, inf});
    upper adds the local push-deviation bounds of the live boxes.
    Boxes are processed best-first by upper bound and split one
    direction at a time by the rule in split_candidates; children whose
    bound cannot beat the current lower are pruned.  Raises
    SubdivisionLimitError (with the partial report attached) if the
    depth guard is hit.
    """
    p = as_pexp(p)
    eps = float(epsilon)
    if not eps > 0:
        raise DataError("epsilon must be positive")
    for P in (P_M, P_N):
        if P.n_params != 2:
            raise DataError("matching distance requires 2-parameter presentations")

    all_labels = labels(P_M) + labels(P_N)
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

    M = _ModuleData(P_M, ux, uy)
    N = _ModuleData(P_N, ux, uy)
    pf = None if is_inf(p) else float(p)

    def line_value(s: float, mu: float) -> float:
        return bar_distance(*M.bars(s, mu), *N.bars(s, mu), p, 0.0)[0]

    def box_bound(sl, sh, ml, mh) -> float:
        b = M.bound(sl, sh, ml, mh, pf) + N.bound(sl, sh, ml, mh, pf)
        return b * (1.0 + 1e-12) + _INFLATE

    root = (-Cf, Cf, -1.0, 1.0)
    root_val = line_value(0.0, 0.0)
    evaluated = 1
    argmax = LineParam(0, 0)
    if is_inf(root_val):
        return DistanceReport(p, eps, INF, INF, evaluated, argmax, translation)
    if P_M == P_N:
        return DistanceReport(p, eps, Fraction(0), Fraction(0), evaluated,
                              argmax, translation)

    lower = root_val
    goal = eps * (1.0 - 1e-6)
    counter = 0
    heap = [(-(root_val + box_bound(*root)), counter, root, 0)]
    max_depth_seen = 0

    def make_report(upper_f: float, converged: bool) -> DistanceReport:
        if pexp_integral(p) or is_inf(p):
            exact_lower = _exact_line_value(P_M, P_N, argmax, translation, p)
        else:
            exact_lower = lower
        upper_out: Extended = max(upper_f, float(exact_lower))
        report = DistanceReport(p, eps, exact_lower, upper_out, evaluated,
                                argmax, translation, converged, max_depth_seen)
        if not float(report.lower) <= float(report.upper) + 1e-9:
            raise ComputationError(
                f"lower bound {float(report.lower)} exceeds upper bound {float(report.upper)}")
        return report

    def split_candidates(box):
        """Candidate splits: midpoints and, when straddled, the sign seams.

        Pushes are flat or affine within each sign quadrant of the
        chart, so cutting at 0 isolates flat regions (bound 0) at once.
        Returns (children, bounds) or None for a point box.
        """
        sl, sh, ml, mh = box
        cands = []
        for cut in ((sl + sh) / 2, 0.0):
            if sl < cut < sh:
                cands.append((0, cut, [(sl, cut, ml, mh), (cut, sh, ml, mh)]))
        for cut in ((ml + mh) / 2, 0.0):
            if ml < cut < mh:
                cands.append((1, cut, [(sl, sh, ml, cut), (sl, sh, cut, mh)]))
        if not cands:
            return None
        best = None
        for axis, cut, children in cands:
            bnds = [box_bound(*ch) for ch in children]
            # sum-of-children ranks a split that flattens one child above
            # one that merely halves both; max alone cannot see that
            key = (sum(bnds), max(bnds), axis, cut)
            if best is None or key < best[0]:
                best = (key, children, bnds)
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
        children, bnds = split
        centers = [((a + b) / 2, (c + d) / 2) for a, b, c, d in children]
        for child, (cs, cmu), bnd in zip(children, centers, bnds):
            val = line_value(cs, cmu)
            evaluated += 1
            if val > lower:
                lower = val
                argmax = LineParam(Fraction(cs), Fraction(cmu))
            upper_child = val + bnd
            if upper_child > lower:
                counter += 1
                heapq.heappush(heap, (-upper_child, counter, child, depth + 1))
    return make_report(float(lower), True)
