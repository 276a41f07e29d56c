"""Labeled presentation matrices and their pointwise invariants.

A presentation is a sparse matrix over a prime field with one grade per
row (generator) and per column (relation); its cokernel is the
presented persistence module.  Nonzero entry (i, j) requires
row_labels[i] <= col_labels[j] in the product order, otherwise the
matrix does not describe a morphism of free modules.

Instances are immutable; every operation returns a new value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DataError
from .field import ColumnEchelon, PrimeField, SparseCol, column_rank
from .grades import Grade, grade_leq, rat, show_grade

Entry = tuple[int, int]  # (row index, residue)
Column = tuple[Entry, ...]


def _freeze_column(col, n_rows: int, q: int) -> Column:
    items = sorted(col.items()) if isinstance(col, Mapping) else sorted(col)
    out = []
    last = -1
    for r, v in items:
        if not 0 <= r < n_rows:
            raise DataError(f"row index {r} out of range")
        if r == last:
            raise DataError(f"duplicate row index {r} in a column")
        v %= q
        if v:
            out.append((r, v))
        last = r
    return tuple(out)


def _freeze_grade(g, n_params: int) -> Grade:
    g = tuple(rat(c) for c in g)
    if len(g) != n_params:
        raise DataError(f"grade {g} does not have {n_params} coordinates")
    return g


@dataclass(frozen=True)
class Presentation:
    """Sparse column-major presentation matrix with grade labels."""

    field: PrimeField
    n_params: int
    row_labels: tuple[Grade, ...]
    col_labels: tuple[Grade, ...]
    columns: tuple[Column, ...]

    def __post_init__(self):
        if self.n_params not in (1, 2):
            raise DataError(f"n_params must be 1 or 2, got {self.n_params}")
        object.__setattr__(
            self, "row_labels",
            tuple(_freeze_grade(g, self.n_params) for g in self.row_labels))
        object.__setattr__(
            self, "col_labels",
            tuple(_freeze_grade(g, self.n_params) for g in self.col_labels))
        if len(self.columns) != len(self.col_labels):
            raise DataError("one column per column label required")
        frozen = tuple(
            _freeze_column(col, len(self.row_labels), self.field.q)
            for col in self.columns)
        object.__setattr__(self, "columns", frozen)
        for j, col in enumerate(self.columns):
            for r, _ in col:
                if not grade_leq(self.row_labels[r], self.col_labels[j]):
                    raise DataError(
                        f"label order violated: entry ({r}, {j}) has row label "
                        f"{show_grade(self.row_labels[r])} ≰ column label "
                        f"{show_grade(self.col_labels[j])}")

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    def column_dict(self, j: int) -> SparseCol:
        return dict(self.columns[j])

    def column_dicts(self) -> list[SparseCol]:
        return [dict(col) for col in self.columns]

    def with_labels(self, row_labels: Sequence[Grade],
                    col_labels: Sequence[Grade]) -> "Presentation":
        """Same matrix, new labels (used by push maps and pairings)."""
        n = len(row_labels[0]) if row_labels else (len(col_labels[0]) if col_labels else self.n_params)
        return Presentation(self.field, n, tuple(row_labels), tuple(col_labels), self.columns)

    def underlying_equal(self, other: "Presentation") -> bool:
        """Same field and identical unlabeled sparse matrix."""
        return (self.field == other.field
                and self.n_rows == other.n_rows
                and self.columns == other.columns)

    def permuted(self, row_order: Sequence[int], col_order: Sequence[int]) -> "Presentation":
        """Reorder generators and relations (a relabeling of bases)."""
        inv = [0] * len(row_order)
        for new, old in enumerate(row_order):
            inv[old] = new
        cols = []
        for old_j in col_order:
            cols.append(tuple(sorted((inv[r], v) for r, v in self.columns[old_j])))
        return Presentation(
            self.field, self.n_params,
            tuple(self.row_labels[i] for i in row_order),
            tuple(self.col_labels[j] for j in col_order),
            tuple(cols))


def labels(P: Presentation) -> tuple[Grade, ...]:
    """The label vector of P: row labels first, then column labels."""
    return P.row_labels + P.col_labels


def free_presentation(gens: Iterable[Grade], fld: PrimeField = PrimeField(2),
                      n_params: int | None = None) -> Presentation:
    """Presentation of a free module: one row per generator, no columns."""
    gens = tuple(tuple(rat(c) for c in g) for g in gens)
    if n_params is None:
        if not gens:
            raise DataError("n_params required for an empty free presentation")
        n_params = len(gens[0])
    return Presentation(fld, n_params, gens, (), ())


def hilbert_dim(P: Presentation, g: Grade) -> int:
    """dim of coker(P) at grade g: #{rows <= g} - rank(columns with label <= g)."""
    g = _freeze_grade(g, P.n_params)
    n_gens = sum(1 for lbl in P.row_labels if grade_leq(lbl, g))
    active = (P.column_dict(j) for j in range(P.n_cols)
              if grade_leq(P.col_labels[j], g))
    return n_gens - column_rank(active, P.field)


def rank_invariant(P: Presentation, s: Grade, t: Grade) -> int:
    """Rank of the internal map of coker(P) from grade s to grade t.

    Computed as rank([E_s | R_t]) - rank(R_t) where R_t collects the
    relation columns with label <= t and E_s the identity columns of the
    generators with label <= s.
    """
    s = _freeze_grade(s, P.n_params)
    t = _freeze_grade(t, P.n_params)
    if not grade_leq(s, t):
        raise DataError(f"rank_invariant requires s <= t, got {show_grade(s)} and {show_grade(t)}")
    ech = ColumnEchelon(P.field)
    for j in range(P.n_cols):
        if grade_leq(P.col_labels[j], t):
            ech.insert(P.column_dict(j))
    rank_rt = ech.rank
    for i in range(P.n_rows):
        if grade_leq(P.row_labels[i], s):
            ech.insert({i: 1})
    return ech.rank - rank_rt
