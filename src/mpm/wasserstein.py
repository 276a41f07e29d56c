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
p >= 1 (and for the bottleneck).  At finite p the finite bars go
through a min-cost assignment with no diagonal nodes: the smaller
side's k bars on the rows, the other side's l >= k bars on the columns,
and entry r_ij = min(0, c_ij - d_i - d_j), with c_ij the pair's cost and
d_i, d_j the two bars' diagonal costs.  A partial matching costs the sum
of every diagonal cost plus c_ij - d_i - d_j per matched pair, so the
negative entries of an optimal assignment form an optimal matching
(bar_distance proves it); min_cost_assignment solves the k x l matrix
by shortest augmenting paths.  For p = inf, bottleneck_assignment
searches the candidate costs instead, and keeps its ghosts: each
probed threshold is feasible when a graph with one ghost per bar, each
bar reaching only its own ghost, has a perfect matching, found by
rounds of augmenting-path searches.  It starts at the floor (the max
over bars of each bar's cheapest option, the least cost that can be
feasible).  A floor that covers every diagonal cost is the answer and
needs no graph: the greedy pairs at it are a perfect matching.
Otherwise it probes the floor first, and bisects over the costs above
it only when that probe fails; a line with bars on one side only
needs no probe.

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
    """Optimal assignment of every row of a k x l cost matrix, k <= l.

    Entries may be ints, Fractions or floats (not mixed with inf); l is
    read from len(cost[0]), so cost has at least one row.  Returns
    row_to_col, injective, of least total cost.  bar_distance passes
    the reduced matrix of its finite bars, the smaller side on the rows,
    and no diagonal ghosts (see there).

    Jonker-Volgenant style shortest augmenting paths with potentials,
    O(k^2 l): each row in turn joins by a Dijkstra search over the
    columns on reduced costs cost[i][j] - u[i] - v[j] >= 0, which ends
    at the first free column it reaches.  A column's potential only
    falls, and only once a search has reached it, so every free column
    keeps v = 0 and every taken one v <= 0: with u[i] + v[j] <= cost[i][j]
    throughout and equality on the matched pairs, these are the dual
    conditions under which an assignment of the k rows that leaves
    l - k columns free is optimal.  With int or Fraction entries every
    comparison is exact.
    """
    k, l = len(cost), len(cost[0])
    u = [0] * (k + 1)
    v = [0] * (l + 1)
    match = [0] * (l + 1)  # column -> row, 1-based, 0 = free
    way = [0] * (l + 1)
    for i in range(1, k + 1):
        match[0] = i
        j0 = 0
        minv: list = [INF] * (l + 1)
        used = [False] * (l + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = 0
            row, ui = cost[i0 - 1], u[i0]
            for j in range(1, l + 1):
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(l + 1):
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
    row_to_col = [0] * k
    for j in range(1, l + 1):
        if match[j]:
            row_to_col[match[j] - 1] = j - 1
    return row_to_col


# ---------------------------------------------------------------------------
# the bottleneck: a threshold search over perfect matchings

def _matching_at(pair_cost, diag_left, diag_right, thr):
    """match_left of a perfect matching of the ghost graph at thr, or None.

    See bottleneck_assignment for the graph and the search.
    """
    m, n = len(diag_left), len(diag_right)
    # a left ghost lists only its C-bar; its right ghosts come from the
    # pass's shared iterator (see bottleneck_assignment)
    adj = [[j for j, c in enumerate(row) if c <= thr] + ([n + i] if d <= thr else [])
           for i, (row, d) in enumerate(zip(pair_cost, diag_left))]
    adj += [[k] if d <= thr else [] for k, d in enumerate(diag_right)]
    ghosts = range(n, n + m)
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


def bottleneck_assignment(pair_cost, diag_left, diag_right):
    """Min over matchings of the max cost term, for finite bars only.

    pair_cost: m x n matrix; diag_left/diag_right: diagonal costs, all of
    one number type.  Returns (value, pairs) where pairs matches left to
    right indices.  The value is one of the given costs, so it keeps
    their number type; with no bars at all it is the int 0.  When one
    side has no bars no pair exists: every bar goes to the diagonal, the
    value is the largest diagonal cost and pairs is empty, and no graph
    is built.

    A threshold thr is feasible when some partial matching sigma of the
    bars has every pair cost <= thr and every unmatched bar's diagonal
    cost <= thr.  Feasibility is monotone in thr, and the answer is the
    least feasible given cost.  Each probe (_matching_at) asks for a
    perfect matching in a bipartite graph with one ghost per bar.  Left:
    the m bars of B, then one ghost per bar of C; right: the n bars of
    C, then one ghost per bar of B.  B-bar i reaches C-bar j when
    pair_cost[i][j] <= thr, and its own ghost n + i when diag_left[i] <=
    thr.  Left ghost m + k reaches C-bar k when diag_right[k] <= thr,
    and every right ghost, at no cost.

    The graph has a perfect matching exactly when thr is feasible.  The
    bar-to-bar edges of a perfect matching form such a sigma: a B-bar
    outside sigma is matched to its own ghost and a C-bar k outside
    sigma to left ghost m + k, so their diagonal costs are <= thr.
    Conversely, given sigma, send each unmatched B-bar to its own ghost
    and each unmatched C-bar k to left ghost m + k; the |sigma| ghosts
    left on each side pair up freely.

    The search starts at the floor.  Every bar is matched or sent to
    the diagonal, so no threshold below any bar's cheapest option is
    feasible: floor, the max over bars of each bar's least cost (its
    row or column minimum and its diagonal cost), is the least candidate
    that can be feasible, and is itself a given cost.  ceil, the largest
    diagonal cost, is feasible (send every bar to the diagonal), and
    floor <= ceil, as each bar's least cost is at most its diagonal
    cost.

    When floor == ceil the floor covers every diagonal cost and no graph
    is built: the answer is floor, and the pairs are those of
    _matching_at's greedy start at floor, each B-bar in index order
    taking the first still-free C-bar j with pair_cost[i][j] <= floor.
    That start is already perfect, so the probe would run no augmenting
    round and return exactly these pairs.  A B-bar that finds no free
    C-bar falls back on its own ghost, which only it and the left
    ghosts reach, and the left ghosts come after every B-bar.  Left
    ghost m + k takes C-bar k if it is free; the ghosts whose C-bar was
    taken number as many as the B-bars matched to C-bars, whose own
    ghosts are the free right ghosts, so each finds one.

    Otherwise the floor is probed.  When the probe succeeds, floor is
    the answer and that probe's matching is returned.  Otherwise the
    answer lies strictly above floor and at most ceil, and a bisection
    over the sorted distinct costs in (floor, ceil] finds the least
    feasible one: by monotonicity every candidate below it is
    infeasible and every one from it on is feasible, so the bisection's
    last feasible probe is at it, and that probe's matching is
    returned.  So the value and the
    pairs are the least feasible cost in [floor, ceil] and
    _matching_at's matching there, whichever thresholds the search
    probed, since a probe's result depends only on its graph and the
    graph only on which costs are <= thr.  A bisection over every cost
    in [floor, ceil] returns the same value and pairs.

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
    if not (m and n):
        return (max(diag_left or diag_right), []) if m or n else (0, [])
    floor = max(max(map(min, map(min, pair_cost), diag_left)),
                max(map(min, map(min, zip(*pair_cost)), diag_right)))
    ceil = max(max(diag_left), max(diag_right))
    if floor == ceil:
        # _matching_at's greedy start, which is perfect here
        free, pairs = [True] * n, []
        for i, row in enumerate(pair_cost):
            for j, c in enumerate(row):
                if c <= floor and free[j]:
                    free[j] = False
                    pairs.append((i, j))
                    break
        return floor, pairs
    value, ml = floor, _matching_at(pair_cost, diag_left, diag_right, floor)
    if ml is None:
        candidates = sorted({c for c in chain(diag_left, diag_right, *pair_cost)
                             if floor < c <= ceil})
        lo, hi = 0, len(candidates) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            found = _matching_at(pair_cost, diag_left, diag_right, candidates[mid])
            if found is not None:
                value, ml = candidates[mid], found
                hi = mid - 1
            else:
                lo = mid + 1
        if ml is None:
            raise ComputationError("no perfect matching at the largest threshold")
    return value, [(i, ml[i]) for i in range(m) if ml[i] < n]


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
    fin_b and fin_c, in ascending order.

    At finite p the finite bars need no diagonal nodes.  With c_ij the
    cost of pairing bar i of fin_b with bar j of fin_c, d_i and d_j
    their diagonal costs and D the sum of every diagonal cost, a partial
    matching sigma costs D + sum over sigma of (c_ij - d_i - d_j).  Put
    the smaller side's k bars on the rows, the other side's l >= k bars
    on the columns, with entry r_ij = min(0, c_ij - d_i - d_j); an
    assignment pi gives every row a distinct column.  Then
    min over sigma of cost(sigma) = D + min over pi of sum r_i,pi(i):

    - <=: take an optimal pi and let sigma be its pairs with r_ij < 0.
      On them r_ij = c_ij - d_i - d_j, and the other pairs of pi add 0,
      so sigma costs D + sum over pi of r.
    - >=: any sigma extends to an assignment pi, its unmatched rows
      sent to distinct unused columns (there are l >= k).  Every entry
      is <= 0, and r_ij <= c_ij - d_i - d_j, so sum over pi of r <=
      sum over sigma of r <= cost(sigma) - D.

    So the pairs with r_ij < 0 of the assignment min_cost_assignment
    returns are an optimal matching.  The aggregate is summed from the
    original terms, not from D and r, in a fixed order: from zero, the
    term of each bar of fin_b in index order (its pair cost if matched,
    else its diagonal cost), then the diagonal cost of each unmatched
    bar of fin_c in index order, and the essential terms added last;
    ints stay ints.  The solver runs only when both sides have finite
    bars.
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
    diag_b, diag_c = [diag(b) for b in fin_b], [diag(c) for c in fin_c]
    pair = [[abs(b0 - c0) ** e + abs(b1 - c1) ** e for c0, c1 in fin_c]
            for b0, b1 in fin_b]
    # r_ij, fin_b on the rows; the solver takes the smaller side on its rows
    reduced = [[min(pzero, c - db - dc) for c, dc in zip(row, diag_c)]
               for row, db in zip(pair, diag_b)]
    if not (fin_b and fin_c):
        pairs = []
    elif len(fin_b) <= len(fin_c):
        pairs = list(enumerate(min_cost_assignment(reduced)))
    else:
        pairs = sorted((i, j) for j, i in
                       enumerate(min_cost_assignment(list(zip(*reduced)))))
    pairs = [(i, j) for i, j in pairs if reduced[i][j] < pzero]
    partner = dict(pairs)
    agg = pzero
    for i, db in enumerate(diag_b):
        agg = agg + (pair[i][partner[i]] if i in partner else db)
    matched = set(partner.values())
    for j, dc in enumerate(diag_c):
        if j not in matched:
            agg = agg + dc
    return ess + agg, pairs


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
    differences.  So does each reduced cost r_ij = min(0, c_ij - d_i -
    d_j) of bar_distance, as min(0, c x) = c min(0, x) for c > 0, and a
    pair is matched, r_ij < 0, on both scales or on neither.
    min_cost_assignment starts from zero potentials and only adds and
    subtracts its entries, its potentials and their minima, so by
    induction each quantity it computes is c times the one it
    computes on the unscaled costs; as c > 0, every comparison between
    them has the same outcome, ties included (each is also below its
    INF starting minima on both scales), and it makes the same choices.
    The aggregate sums the matched pairs' and unmatched bars' original
    costs, each c times its unscaled value, in the same order.
    bottleneck_assignment only compares costs and picks one of them.
    Its floor and ceil, a max of mins of costs and a max of costs,
    scale by c, so floor == ceil holds on both scales or on neither,
    the greedy pairs compare the same costs with the same floor, and
    the floor probe sees the same graph; the candidates above the
    floor, being sorted and deduplicated, keep their order and length,
    so its bisection probes the same positions and its searches see the
    same graphs.  A one-sided line returns its largest diagonal cost,
    which scales by c too.  The aggregate is therefore c times the
    unscaled one, and dividing by c recovers it exactly.  A
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
