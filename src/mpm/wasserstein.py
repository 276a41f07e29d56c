"""Exact p-Wasserstein and bottleneck distances between barcodes.

A bar [a1, a2) is identified with the point (a1, a2); unmatched bars pay
the lp-distance to their diagonal projection m(a).  The convention
inf - inf = 0 makes a matched pair of essential bars cost only the birth
difference, while an unmatched essential bar (or an essential bar
matched to a finite one) costs inf.  cost(sigma, p) is the lp-norm of
the flat list of these terms' coordinate differences (_cost_terms), so
matching_cost is grades.vec_pnorm of that list and matching_cost_power
its vec_pnorm_power.

Essential bars therefore pre-partition: they are matched among
themselves, and on a line the sorted pairing is optimal for every
p >= 1 (and for the bottleneck).  The finite bars go through a
min-cost assignment on an augmented square matrix (one diagonal ghost
per bar, ghosts mutually free), solved by shortest augmenting paths.
For p = inf, bottleneck_assignment bisects over the candidate costs
instead; each probed threshold is feasible when a graph with one ghost
per bar, each bar reaching only its own ghost, has a perfect matching,
found by rounds of augmenting-path searches.

bar_distance holds these steps once for any number type and returns
the aggregate: the sum of p-th powers, or the max at p = inf.  The
exact values come from integers: for integral p and for p = inf,
wasserstein_full scales every endpoint by 2L, with L the least common
denominator of the two barcodes, runs bar_distance on the resulting
ints and divides the aggregate back once (its docstring proves that the
answer is unchanged).  A non-integral p has float costs; the
matching-distance search runs bar_distance on floats.  Every caller
turns the aggregate into the distance with grades.lp_root.  Each
``*_power`` function and WassersteinResult.power is that aggregate,
the quantity lp_root roots, at every p in [1, inf].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import floordiv, truediv
from typing import Sequence

from .barcode import Barcode
from .errors import ComputationError, DataError
from .grades import (INF, Extended, PExp, as_pexp, ext_abs_diff, is_inf,
                     lp_root, pexp_integral, vec_pnorm, vec_pnorm_power)


@dataclass(frozen=True)
class Matching:
    """Partial matching between two barcodes, as index pairs (i in B, j in C)."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        left = [i for i, _ in self.pairs]
        right = [j for _, j in self.pairs]
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise DataError("an index appears in more than one matched pair")


@dataclass(frozen=True)
class WassersteinResult:
    p: PExp
    value: Extended          # the distance; Fraction for p in {1, inf}, else float
    # the aggregate, lp_root(power, p) == value: the minimal sum of p-th
    # powers at finite p (exact at integral p, a float otherwise), the
    # minimal max cost at p = inf, inf for an infinite distance
    power: Extended
    matching: Matching


# ---------------------------------------------------------------------------
# the cost of a matching

def _cost_terms(B: Barcode, C: Barcode, sigma: Matching) -> list:
    """The coordinate differences whose lp-norm is cost(sigma, p).

    A matched pair gives |birth difference| and |death difference|, with
    inf - inf = 0; an unmatched bar gives h twice, where h is its
    l-inf distance to the diagonal (inf for an essential bar).
    """
    for i, j in sigma.pairs:
        if not (0 <= i < len(B) and 0 <= j < len(C)):
            raise DataError(f"matching pair ({i}, {j}) out of range")
    terms = [d for i, j in sigma.pairs
             for d in (abs(B[i][0] - C[j][0]), ext_abs_diff(B[i][1], C[j][1]))]
    for bars, matched in ((B, {i for i, _ in sigma.pairs}),
                          (C, {j for _, j in sigma.pairs})):
        for k, (birth, death) in enumerate(bars):
            if k not in matched:
                h = INF if is_inf(death) else (death - birth) / 2
                terms += (h, h)
    return terms


def matching_cost_power(B: Barcode, C: Barcode, sigma: Matching, p: PExp) -> Extended:
    """The aggregate of cost(sigma, p), which lp_root turns into it."""
    return vec_pnorm_power(_cost_terms(B, C, sigma), as_pexp(p))


def matching_cost(B: Barcode, C: Barcode, sigma: Matching, p: PExp) -> Extended:
    """cost(sigma, p): lp-aggregated matched and diagonal terms."""
    return vec_pnorm(_cost_terms(B, C, sigma), as_pexp(p))


# ---------------------------------------------------------------------------
# exact min-cost assignment (shortest augmenting paths with potentials)

def min_cost_assignment(cost: Sequence[Sequence]) -> list[int]:
    """Optimal assignment of a square cost matrix with finite entries.

    Entries may be ints, Fractions or floats (not mixed with inf).
    Returns row_to_col.  Standard O(n^3) Jonker-Volgenant style
    algorithm; with int or Fraction entries every comparison is exact.
    """
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # column -> row, 1-based, 0 = free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv: list = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    row_to_col = [0] * n
    for j in range(1, n + 1):
        if match[j]:
            row_to_col[match[j] - 1] = j - 1
    return row_to_col


# ---------------------------------------------------------------------------
# the bottleneck: a threshold search over perfect matchings

def bottleneck_assignment(pair_cost, diag_left, diag_right):
    """Min over matchings of the max cost term, for finite bars only.

    pair_cost: m x n matrix; diag_left/diag_right: diagonal costs.
    Returns (value, pairs) where pairs matches left to right indices.
    The value is one of the given costs, so it keeps their number type;
    with no bars at all it is the int 0.

    A threshold thr is feasible when some partial matching sigma of the
    bars has every pair cost <= thr and every unmatched bar's diagonal
    cost <= thr.  A bisection over the candidate costs finds the least
    feasible one.  Each probe asks for a perfect matching in a bipartite
    graph with one ghost per bar.  Left: the m bars of B, then one ghost
    per bar of C; right: the n bars of C, then one ghost per bar of B.
    B-bar i reaches C-bar j when pair_cost[i][j] <= thr, and its own
    ghost n + i when diag_left[i] <= thr.  Left ghost m + k reaches C-bar
    k when diag_right[k] <= thr, and every right ghost, at no cost.

    The graph has a perfect matching exactly when thr is feasible.  The
    bar-to-bar edges of a perfect matching form such a sigma: a B-bar
    outside sigma is matched to its own ghost and a C-bar k outside
    sigma to left ghost m + k, so their diagonal costs are <= thr.
    Conversely, given sigma, send each unmatched B-bar to its own ghost
    and each unmatched C-bar k to left ghost m + k; the |sigma| ghosts
    left on each side pair up freely.

    A probe starts from a greedy matching (each left node takes its first
    free neighbour) and runs rounds of augmenting-path searches: a
    depth-first search from every free left node, all sharing one set of
    seen right nodes.  In a round that augments nothing the matching
    stays fixed, and a search skips only right nodes that an earlier
    search of the round explored in full without reaching a free right
    node; so no free left node has an augmenting path, and the matching
    is maximum (Berge).  The search keeps an explicit stack and does not
    recurse.

    The edges from left ghosts to right ghosts are not listed.  Every
    left ghost reaches every right ghost, and takes the first one in
    index order that is free (greedy start) or unseen (round).  A right
    ghost, once taken or seen, stays so for the rest of the greedy start
    or of the round, so one iterator over the right ghosts, shared by
    all left ghosts of the pass, hands each left ghost the same ghost as
    its own full list would, and costs O(m) per pass instead of per
    visit.
    """
    m, n = len(diag_left), len(diag_right)
    if m == 0 and n == 0:
        return 0, []
    # The optimum is the largest term of some matching, hence a given
    # cost.  Every bar is matched or sent to the diagonal, so no
    # threshold below any bar's cheapest option is feasible; sending
    # every bar to the diagonal is always feasible.
    diag = list(diag_left) + list(diag_right)
    cheapest = [min((d, *row)) for d, row in zip(diag_left, pair_cost)]
    cheapest += [min((d, *(row[j] for row in pair_cost)))
                 for j, d in enumerate(diag_right)]
    floor, ceil = max(cheapest), max(diag)
    candidates = sorted({c for c in diag + [pair_cost[i][j] for i in range(m)
                                            for j in range(n)]
                         if floor <= c <= ceil})
    ghosts = range(n, n + m)

    def matching_at(thr):
        """match_left of a perfect matching of the graph at thr, or None."""
        # a left ghost lists only its C-bar; its right ghosts come from the
        # pass's shared iterator (see the docstring)
        adj = [[j for j, c in enumerate(row) if c <= thr] + ([n + i] if d <= thr else [])
               for i, (row, d) in enumerate(zip(pair_cost, diag_left))]
        adj += [[k] if d <= thr else [] for k, d in enumerate(diag_right)]
        match_l, match_r = [-1] * (m + n), [-1] * (n + m)
        rest = iter(ghosts)
        for u, nbrs in enumerate(adj):
            for w in nbrs:
                if match_r[w] == -1:
                    match_l[u], match_r[w] = w, u
                    break
            else:
                if u >= m:
                    for w in rest:
                        if match_r[w] == -1:
                            match_l[u], match_r[w] = w, u
                            break

        def augment(root, seen, rest):
            # the path so far: its left nodes, the right nodes after them
            # and the unexplored edges of each left node
            lefts, rights = [root], []
            its = [iter(adj[root]) if root < m else chain(adj[root], rest)]
            while its:
                for w in its[-1]:
                    if not seen[w]:
                        seen[w] = True
                        rights.append(w)
                        u = match_r[w]
                        if u == -1:
                            for u, w in zip(lefts, rights):
                                match_l[u], match_r[w] = w, u
                            return True
                        lefts.append(u)
                        its.append(iter(adj[u]) if u < m else chain(adj[u], rest))
                        break
                else:
                    its.pop()
                    lefts.pop()
                    if rights:
                        rights.pop()
            return False

        while True:
            free = [u for u, w in enumerate(match_l) if w == -1]
            if not free:
                return match_l
            seen = [False] * (n + m)
            rest = iter(ghosts)
            if not sum(augment(u, seen, rest) for u in free):
                return None

    lo, hi = 0, len(candidates) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        ml = matching_at(candidates[mid])
        if ml is not None:
            best = (candidates[mid], ml)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise ComputationError("no perfect matching at the largest threshold")
    value, ml = best
    pairs = [(i, ml[i]) for i in range(m) if ml[i] < n]
    return value, pairs


# ---------------------------------------------------------------------------
# the distance

def _split(B: Barcode):
    """Indices of the finite bars, and of the essential bars by birth."""
    fin, ess = [], []
    for idx, bar in enumerate(B.bars):
        (ess if is_inf(bar[1]) else fin).append(idx)
    return fin, sorted(ess, key=lambda i: B[i][0])


def bar_distance(fin_b, ess_b, fin_c, ess_c, p: PExp, zero):
    """The p-Wasserstein aggregate of two barcodes given as plain lists.

    fin_b and fin_c hold finite bars (birth, death); ess_b and ess_c
    hold the births of the essential bars in ascending order, and the
    sorted pairing matches them.  Every number has the type of ``zero``:
    ints, with every bar length even, keep every cost exact at integral
    p and at p = inf; floats, or Fractions at a non-integral p, give a
    float aggregate.  Returns (aggregate, pairs): the aggregate is the
    minimal sum of p-th powers, or at p = inf the minimal max cost (INF
    when the essential bars cannot be paired), and grades.lp_root turns
    it into the distance; pairs lists the matched (i, j) indices into
    fin_b and fin_c.
    """
    if len(ess_b) != len(ess_c):
        return INF, []
    # a bar's distance to the diagonal is half its length; / would turn
    # ints into floats, and even lengths halve exactly by //
    halve = floordiv if type(zero) is int else truediv
    if is_inf(p):
        ess = zero
        for b, c in zip(ess_b, ess_c):
            ess = max(ess, abs(b - c))
        pair_cost = [[max(abs(b[0] - c[0]), abs(b[1] - c[1])) for c in fin_c]
                     for b in fin_b]
        diag_l = [halve(b[1] - b[0], 2) for b in fin_b]
        diag_r = [halve(c[1] - c[0], 2) for c in fin_c]
        fin, pairs = bottleneck_assignment(pair_cost, diag_l, diag_r)
        return max(ess, fin), pairs

    e = int(p) if pexp_integral(p) else float(p)
    pzero = zero ** e  # a Fraction to a float power is a float

    def diag(bar):
        return 2 * halve(bar[1] - bar[0], 2) ** e

    ess = pzero
    for b, c in zip(ess_b, ess_c):
        ess = ess + abs(b - c) ** e
    # augmented square matrix: one diagonal ghost per bar, ghosts mutually free
    m, n = len(fin_b), len(fin_c)
    cost = [[abs(b[0] - c[0]) ** e + abs(b[1] - c[1]) ** e for c in fin_c] + [diag(b)] * m
            for b in fin_b]
    ghost = [diag(c) for c in fin_c] + [pzero] * m
    cost += [ghost] * n  # one shared row: the solver only reads cost
    assign = min_cost_assignment(cost) if cost else []
    fin = pzero
    for i, j in enumerate(assign):
        fin = fin + cost[i][j]
    return ess + fin, [(i, j) for i, j in enumerate(assign) if i < m and j < n]


def wasserstein_full(B: Barcode, C: Barcode, p: PExp) -> WassersteinResult:
    """Minimal matching cost between B and C, with a realizing matching.

    For integral p and for p = inf the solvers run on ints: with L the
    least common denominator of every finite endpoint and essential
    birth of B and C, each number x becomes the int 2Lx, so every bar
    length is even and every half-length an int.  The aggregate is
    unscaled once, by 2L at p = inf and by (2L)^p at finite p, and
    rooted once by lp_root.

    The matching is the one the Fraction arithmetic finds, and the
    unscaled numbers are equal to its.  Scaling every number by s = 2L
    scales every cost by c = s^p (c = s at p = inf): each cost is a sum
    of p-th powers of differences, or at p = inf a maximum of
    differences.  min_cost_assignment starts from zero potentials and
    only adds and subtracts costs, reduced costs and their minima, so by
    induction each quantity it computes is c times the one it computes
    on the unscaled costs; as c > 0, every comparison between them has
    the same outcome, ties included (each is also below its INF starting
    minima on both scales), and it makes the same choices.
    bottleneck_assignment only compares costs and picks one of them, and
    its candidate list, being sorted and deduplicated, keeps its order
    and length, so its bisection probes the same positions and its
    searches see the same graphs.  The aggregate is therefore c times
    the unscaled one, and dividing by c recovers it exactly.  A
    non-integral p has float costs either way and keeps the Fraction
    inputs.

    The result's power is the aggregate, which lp_root turns into its
    value, at every p; the matching is empty when the distance is inf.
    """
    p = as_pexp(p)
    fin_b, ess_b = _split(B)
    fin_c, ess_c = _split(C)
    bars_b, bars_c = [B[i] for i in fin_b], [C[j] for j in fin_c]
    births_b, births_c = [B[i][0] for i in ess_b], [C[j][0] for j in ess_c]
    if is_inf(p) or pexp_integral(p):
        scale = 2 * math.lcm(*(x.denominator for x in chain(
            births_b, births_c, *bars_b, *bars_c)))

        def up(x):
            return x.numerator * (scale // x.denominator)

        agg, pairs = bar_distance(
            [(up(b), up(d)) for b, d in bars_b], [up(x) for x in births_b],
            [(up(b), up(d)) for b, d in bars_c], [up(x) for x in births_c], p, 0)
        if not is_inf(agg):
            agg = Fraction(agg, scale if is_inf(p) else scale ** int(p))
    else:
        agg, pairs = bar_distance(bars_b, births_b, bars_c, births_c, p, Fraction(0))
    pairs = [(fin_b[i], fin_c[j]) for i, j in pairs] + list(zip(ess_b, ess_c))
    return WassersteinResult(p, lp_root(agg, p), agg,
                             Matching(frozenset([] if is_inf(agg) else pairs)))


def wasserstein(B: Barcode, C: Barcode, p: PExp) -> Extended:
    """p-Wasserstein distance; exact Fraction for p in {1, inf}."""
    return wasserstein_full(B, C, p).value


def wasserstein_power(B: Barcode, C: Barcode, p: PExp) -> Extended:
    """The aggregate of the p-Wasserstein distance, which lp_root roots."""
    return wasserstein_full(B, C, p).power
