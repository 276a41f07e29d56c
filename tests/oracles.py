"""Independent oracles used to freeze expected values.

Everything here is deliberately naive: dense row reduction over F_q,
dense nullspace dimensions, brute-force sampling of line charts in
scaled integer arithmetic, and an exhaustive search over all matchings
of two barcodes.  None of it shares code with the package's
sparse/echelon machinery or its assignment solvers, and it imports no
private name of the package; the matching search prices each matched
or diagonal term with the public matching_cost / matching_cost_power
on one-bar barcodes.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from mpm import (INF, Barcode, DataError, Extended, Matching, PExp, Presentation,
                 WassersteinResult, as_pexp, grade_leq, labels, matching_cost,
                 matching_cost_power)
from mpm.grades import is_inf, pexp_integral, pth_root
from mpm.matchdist import ParamBox


def dense_rank(rows: list[list[int]], q: int) -> int:
    """Gaussian elimination on a dense row-major matrix over F_q."""
    mat = [row[:] for row in rows]
    rank = 0
    n_cols = len(mat[0]) if mat else 0
    col = 0
    for col in range(n_cols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] % q:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, q)
        for r in range(len(mat)):
            if r != rank and mat[r][col] % q:
                f = mat[r][col] * inv % q
                mat[r] = [(a - f * b) % q for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def dense_matrix(P: Presentation, col_indices) -> list[list[int]]:
    rows = [[0] * len(col_indices) for _ in range(P.n_rows)]
    for out_j, j in enumerate(col_indices):
        for r, v in P.columns[j]:
            rows[r][out_j] = v
    return rows


def dense_hilbert(P: Presentation, g) -> int:
    """#rows <= g minus the dense rank of the active columns."""
    active = [j for j in range(P.n_cols) if grade_leq(P.col_labels[j], g)]
    n_gens = sum(1 for lbl in P.row_labels if grade_leq(lbl, g))
    return n_gens - dense_rank(dense_matrix(P, active), P.field.q)


def dense_nullity_at(domain_grades, columns, n_rows: int, q: int, g) -> int:
    """Dim of the kernel of the matrix restricted to columns active at g."""
    active = [j for j in range(len(domain_grades)) if grade_leq(domain_grades[j], g)]
    rows = [[0] * len(active) for _ in range(n_rows)]
    for out_j, j in enumerate(active):
        for r, v in columns[j].items():
            rows[r][out_j] = v
    return len(active) - dense_rank(rows, q)


def span_dim_at(grades, columns, n_ambient: int, q: int, g) -> int:
    """Dim of the span of the vectors whose grade is <= g."""
    active = [i for i in range(len(grades)) if grade_leq(grades[i], g)]
    rows = [[0] * len(active) for _ in range(n_ambient)]
    for out_j, i in enumerate(active):
        for r, v in dict(columns[i]).items():
            rows[r][out_j] = v
    return dense_rank(rows, q)


def dense_rank_at(domain_grades, columns, n_rows: int, q: int, g) -> int:
    """Rank of the matrix restricted to columns active at g."""
    active = [j for j in range(len(domain_grades)) if grade_leq(domain_grades[j], g)]
    return len(active) - dense_nullity_at(domain_grades, columns, n_rows, q, g)


# ---------------------------------------------------------------------------
# dense sampling of push deviations over a parameter box

def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def box_sample_max_power(label_vec, box: ParamBox, p, n_side: int):
    """Max over an n_side x n_side grid of lines in the box of the p-power
    (or max, for p = inf) of the push-deviation vector, as an exact Fraction.

    Pure integer arithmetic after a single common rescaling, so 10^4
    samples with exact comparisons stay fast.
    """
    steps = n_side - 1
    s_vals = [box.s_lo + Fraction(i, steps) * (box.s_hi - box.s_lo) for i in range(n_side)]
    mu_vals = [box.mu_lo + Fraction(i, steps) * (box.mu_hi - box.mu_lo) for i in range(n_side)]
    center = box.center
    d1 = 1
    for x in [c for g in label_vec for c in g] + s_vals + [center.s]:
        d1 = _lcm(d1, Fraction(x).denominator)
    d2 = 1
    for x in mu_vals + [center.mu]:
        d2 = _lcm(d2, Fraction(x).denominator)

    lab = [(int(g[0] * d1), int(g[1] * d1)) for g in label_vec]

    def push_scaled(ax: int, ay: int, s1: int, mu2: int) -> int:
        # value times d1 * d2
        if s1 >= 0:
            a, b = ax - s1, ay
        else:
            a, b = ax, ay + s1
        if mu2 >= 0:
            return max(d2 * a, (d2 - mu2) * b)
        return max((d2 + mu2) * a, d2 * b)

    cs1, cmu2 = int(center.s * d1), int(center.mu * d2)
    pc = [push_scaled(ax, ay, cs1, cmu2) for ax, ay in lab]
    s_ints = [int(s * d1) for s in s_vals]
    mu_ints = [int(mu * d2) for mu in mu_vals]

    is_inf_p = p == float("inf")
    k = None if is_inf_p else int(p)
    best = 0
    for s1 in s_ints:
        for mu2 in mu_ints:
            if is_inf_p:
                agg = max((abs(push_scaled(ax, ay, s1, mu2) - c)
                           for (ax, ay), c in zip(lab, pc)), default=0)
            else:
                agg = sum(abs(push_scaled(ax, ay, s1, mu2) - c) ** k
                          for (ax, ay), c in zip(lab, pc))
            if agg > best:
                best = agg
    scale = Fraction(1, d1 * d2)
    if is_inf_p:
        return best * scale
    return best * scale ** k


def label_grid(P: Presentation, Q: Presentation, per_axis: int = 6):
    """Deterministic grade grid covering both label sets."""
    pool = labels(P) + labels(Q)
    n = P.n_params
    grids = []
    for i in range(n):
        vals = sorted(set(g[i] for g in pool)) or [Fraction(0)]
        if len(vals) > per_axis:
            step = (len(vals) - 1) / (per_axis - 1)
            vals = [vals[round(j * step)] for j in range(per_axis)]
        grids.append([vals[0] - 1] + vals + [vals[-1] + 1])
    out = []

    def rec(i, acc):
        if i == n:
            out.append(tuple(acc))
            return
        for v in grids[i]:
            rec(i + 1, acc + [v])

    rec(0, [])
    return out


def brute_force_full(B: Barcode, C: Barcode, p: PExp) -> WassersteinResult:
    """Exhaustive minimum over all matchings; instances of total size <= 12."""
    p = as_pexp(p)
    if len(B) + len(C) > 12:
        raise DataError("brute force limited to |B| + |C| <= 12 bars")
    nb, nc = len(B), len(C)
    use_max = is_inf(p)
    price = matching_cost if use_max else matching_cost_power

    # every term priced once, as the cost of a matching of one-bar barcodes
    singles_b = [Barcode([bar]) for bar in B]
    singles_c = [Barcode([bar]) for bar in C]
    unmatched = Matching(frozenset())
    matched = Matching(frozenset({(0, 0)}))
    diag_b = [price(b, Barcode(), unmatched, p) for b in singles_b]
    diag_c = [price(c, Barcode(), unmatched, p) for c in singles_c]
    pair_term = [[price(b, c, matched, p) for c in singles_c] for b in singles_b]

    best: dict = {"val": INF, "pairs": frozenset()}

    def combine(acc, term):
        return max(acc, term) if use_max else acc + term

    def leaf_tail(used_c):
        acc: Extended = Fraction(0)
        for j in range(nc):
            if j not in used_c:
                if is_inf(diag_c[j]):
                    return INF
                acc = combine(acc, diag_c[j])
        return acc

    def rec(i: int, used_c: set, acc: Extended, pairs: list):
        if acc >= best["val"]:
            return
        if i == nb:
            total = combine(acc, leaf_tail(used_c))
            if total < best["val"]:
                best["val"] = total
                best["pairs"] = frozenset(pairs)
            return
        # leave B[i] unmatched
        if not is_inf(diag_b[i]):
            rec(i + 1, used_c, combine(acc, diag_b[i]), pairs)
        # or match it to any unused bar of C
        for j in range(nc):
            if j in used_c:
                continue
            term = pair_term[i][j]
            if is_inf(term):
                continue
            used_c.add(j)
            pairs.append((i, j))
            rec(i + 1, used_c, combine(acc, term), pairs)
            pairs.pop()
            used_c.remove(j)

    rec(0, set(), Fraction(0), [])
    val = best["val"]
    if is_inf(val):
        return WassersteinResult(p, INF, INF if not use_max else None,
                                 Matching(frozenset()))
    if use_max:
        return WassersteinResult(p, val, None, Matching(best["pairs"]))
    value = val if p == 1 else pth_root(val, p)
    return WassersteinResult(p, value, val if pexp_integral(p) else None,
                             Matching(best["pairs"]))


def brute_force_wasserstein(B: Barcode, C: Barcode, p: PExp) -> Extended:
    return brute_force_full(B, C, p).value
