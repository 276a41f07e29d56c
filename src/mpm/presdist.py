"""Label distances between paired presentations and certified bound reports.

The exact infimum over presentation pairs (and the chain infimum below
it) is not computable here; what is computed is the label lp-distance
of concrete same-matrix pairs, which upper-bounds the presentation
distance, and chains of such pairs.  Lower bounds come from the
matching distance.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (ChainError, ComputationError, DataError, PairingError,
                     SubdivisionLimitError)
from .field import column_rank
from .grades import (Extended, Grade, PExp, as_pexp, is_inf, join_all,
                     vec_pnorm, vec_pnorm_power)
from .matchdist import DistanceReport, approx_matching_distance
from .onepar import barcode_of
from .presentation import Presentation, labels


@dataclass(frozen=True)
class PairedPresentations:
    """Two presentations with bit-identical underlying matrices."""

    first: Presentation
    second: Presentation

    def __post_init__(self):
        if self.first.field != self.second.field:
            raise DataError("paired presentations must share the coefficient field")
        if self.first.n_params != self.second.n_params:
            raise DataError("paired presentations must have the same parameter count")
        if not self.first.underlying_equal(self.second):
            raise DataError("paired presentations must share the underlying matrix")


def _label_deltas(pp: PairedPresentations) -> list[Fraction]:
    """Every coordinate of labels(first) - labels(second), flattened."""
    return [x - y for a, b in zip(labels(pp.first), labels(pp.second), strict=True)
            for x, y in zip(a, b, strict=True)]


def label_distance(pp: PairedPresentations, p: PExp) -> Extended:
    """||labels(first) - labels(second)||_p, the flat lp-norm of all
    coordinate differences (exact for p in {1, inf})."""
    return vec_pnorm(_label_deltas(pp), as_pexp(p))


def label_distance_power(pp: PairedPresentations, p: PExp) -> Extended:
    """The aggregate of label_distance, which lp_root roots: the sum of
    p-th powers of the label differences (exact at integral p), or their
    max |.| at p = inf."""
    return vec_pnorm_power(_label_deltas(pp), as_pexp(p))


# ---------------------------------------------------------------------------
# pairing heuristic

def _pad_label(P: Presentation, partner: Presentation) -> Grade:
    pool = labels(P) or labels(partner)
    if not pool:
        return tuple(Fraction(0) for _ in range(P.n_params))
    return join_all(pool)


def _padded(P: Presentation, n_pairs: int, n_zero: int, label: Grade) -> Presentation:
    """Append redundant generator-relation pairs, then zero columns.

    A redundant pair is a new row and a new column with a single unit
    entry and equal labels; it presents the zero module.
    """
    rows = P.row_labels + (label,) * n_pairs
    cols = P.col_labels + (label,) * n_pairs + (label,) * n_zero
    columns = list(P.columns)
    for k in range(n_pairs):
        columns.append(((P.n_rows + k, 1),))
    columns.extend(() for _ in range(n_zero))
    return Presentation(P.field, P.n_params, rows, cols, tuple(columns))


def _wl_orders(P: Presentation, rounds: int = 3):
    """Row/column orders from a Weisfeiler-Leman refinement of the entry graph."""
    row_entries: list[list[tuple[int, int]]] = [[] for _ in range(P.n_rows)]
    for j in range(P.n_cols):
        for r, v in P.columns[j]:
            row_entries[r].append((j, v))
    rc = [0] * P.n_rows
    cc = [0] * P.n_cols
    for _ in range(rounds):
        row_keys = [tuple(sorted((cc[j], v) for j, v in row_entries[i])) for i in range(P.n_rows)]
        col_keys = [tuple(sorted((rc[r], v) for r, v in P.columns[j])) for j in range(P.n_cols)]
        rc = _canonical(row_keys)
        cc = _canonical(col_keys)
    row_order = sorted(range(P.n_rows), key=lambda i: (rc[i], P.row_labels[i], i))
    col_order = sorted(range(P.n_cols), key=lambda j: (cc[j], P.col_labels[j], j))
    return row_order, col_order


def _canonical(keys):
    table = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [table[k] for k in keys]


def pad_and_pair(P: Presentation, Q: Presentation) -> PairedPresentations:
    """Produce one valid same-matrix pairing of the two presentations.

    Both sides are padded (redundant pairs for missing rows, zero
    columns for missing columns), then a few fixed row/column orders are
    tried: as given, label-sorted, and pattern-refined.  The candidate
    with equal matrices and the smallest label distance (at p = 1) wins.
    Raises PairingError when no candidate aligns the matrices.
    """
    if P.field != Q.field:
        raise PairingError("presentations are over different fields")
    if P.n_params != Q.n_params:
        raise PairingError("presentations have different parameter counts")
    kp = max(0, Q.n_rows - P.n_rows)
    kq = max(0, P.n_rows - Q.n_rows)
    cp = P.n_cols + kp
    cq = Q.n_cols + kq
    zp, zq = max(0, cq - cp), max(0, cp - cq)
    Pp = _padded(P, kp, zp, _pad_label(P, Q))
    Qp = _padded(Q, kq, zq, _pad_label(Q, P))

    def orders(R: Presentation):
        ident = (list(range(R.n_rows)), list(range(R.n_cols)))
        by_label = (sorted(range(R.n_rows), key=lambda i: (R.row_labels[i], i)),
                    sorted(range(R.n_cols), key=lambda j: (R.col_labels[j], j)))
        return [ident, by_label, _wl_orders(R)]

    candidates: list[PairedPresentations] = []
    for (pro, pco), (qro, qco) in zip(orders(Pp), orders(Qp)):
        cand_p = Pp.permuted(pro, pco)
        cand_q = Qp.permuted(qro, qco)
        if cand_p.underlying_equal(cand_q):
            candidates.append(PairedPresentations(cand_p, cand_q))
    candidates.extend(_uniform_borrow(Pp, Qp))

    best: Optional[PairedPresentations] = None
    best_key = None
    for pp in candidates:
        key = label_distance(pp, 1)
        if best is None or key < best_key:
            best, best_key = pp, key
    if best is None:
        raise PairingError(
            "structurally incompatible matrices after padding: no tried row/column "
            "order makes the underlying matrices equal")
    return best


def _uniform_label(P: Presentation) -> Optional[Grade]:
    pool = labels(P)
    if pool and all(g == pool[0] for g in pool):
        return pool[0]
    return None


def _uniform_borrow(Pp: Presentation, Qp: Presentation):
    """Borrow the partner's matrix when one side has a single label grade.

    A presentation with every label at one grade g presents Q^g^(r - rank),
    which depends on the matrix only through its rank, so any equal-rank
    matrix of the same shape presents the same module.
    """
    out = []
    for A, B in ((Pp, Qp), (Qp, Pp)):
        g = _uniform_label(A)
        if g is None or A.n_rows != B.n_rows or A.n_cols != B.n_cols:
            continue
        if column_rank(A.columns, A.field) != column_rank(B.columns, B.field):
            continue
        swapped = Presentation(A.field, A.n_params, A.row_labels, A.col_labels,
                               B.columns)
        pair = (swapped, B) if A is Pp else (B, swapped)
        out.append(PairedPresentations(*pair))
    return out


# ---------------------------------------------------------------------------
# chains and combined bounds

def _same_module(P: Presentation, Q: Presentation) -> bool:
    """True only when P and Q provably present isomorphic modules.

    Three cases are decided, each exactly:

    (a) P == Q.
    (b) Every label of both is one grade g: each presents the free
        module at g of rank rows - rank (as in _uniform_borrow), so
        equal ranks mean isomorphic modules.
    (c) Both are 1-parameter: the barcode is a complete invariant.

    Any other pair is undecided and gives False.
    """
    if P.field != Q.field or P.n_params != Q.n_params:
        return False
    if P == Q:
        return True
    if P.n_params == 1:
        return barcode_of(P) == barcode_of(Q)
    pool = labels(P) + labels(Q)
    return (all(g == pool[0] for g in pool)
            and P.n_rows - column_rank(P.columns, P.field)
            == Q.n_rows - column_rank(Q.columns, Q.field))


def chain_upper_bound(chain: Sequence[PairedPresentations], p: PExp) -> Extended:
    """Sum of label distances along a chain of same-matrix pairs.

    Valid upper bound for the presentation distance between the chain
    endpoints when adjacent links present the same module.  A junction
    is accepted only when _same_module proves it; any other raises
    ChainError, since equal Hilbert functions, say, do not make two
    modules isomorphic.
    """
    p = as_pexp(p)
    total: Extended = Fraction(0)
    for a, b in zip(chain, chain[1:]):
        if not _same_module(a.second, b.first):
            raise ChainError("adjacent chain links are not shown to present the same module")
    for link in chain:
        total = total + label_distance(link, p)
    return total


@dataclass(frozen=True)
class BoundsReport:
    """Certified lower (matching distance) and upper (label pairing) bounds."""

    p: PExp
    lower: Extended
    upper: Extended
    provenance: tuple[str, ...]
    matchdist: Optional[DistanceReport] = None


def bounds(P_M: Presentation, P_N: Presentation, p: PExp, epsilon) -> BoundsReport:
    """Lower bound from approx_matching_distance, upper from pad_and_pair."""
    p = as_pexp(p)
    notes: list[str] = []
    report: Optional[DistanceReport] = None
    try:
        report = approx_matching_distance(P_M, P_N, p, epsilon)
        lower = report.lower
        notes.append(f"lower: matching-distance branch-and-bound, eps={float(epsilon)}")
    except SubdivisionLimitError as exc:
        report = exc.report
        lower = report.lower
        notes.append("lower: matching-distance run hit the depth guard; bound kept")
    try:
        pairing = pad_and_pair(P_M, P_N)
        upper = label_distance(pairing, p)
        notes.append("upper: label distance of the padded sorted-alignment pairing")
    except PairingError as exc:
        upper = float("inf")
        notes.append(f"upper: no pairing found ({exc}); bound is infinite")
    if not is_inf(upper) and not float(lower) <= float(upper) + float(epsilon) + 1e-9:
        raise ComputationError(f"lower bound {float(lower)} exceeds upper bound {float(upper)}")
    return BoundsReport(p, lower, upper, tuple(notes), report)
