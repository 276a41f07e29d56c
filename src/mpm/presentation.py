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
from .field import ColumnEchelon, PrimeField, SparseCol, col_axpy, column_rank
from .grades import Grade, as_grade, grade_leq, show_grade

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
    g = as_grade(g)
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


def _minimal(P: Presentation) -> tuple[tuple[Grade, ...], tuple[Grade, ...],
                                         tuple[Column, ...]]:
    """(row labels, column labels, columns) of a minimal presentation of
    the module P presents, in the frozen form Presentation stores.

    Two steps, each of which keeps the presented module:
    - Relations are taken in lex order of (grade, index), and one is
      dropped when it lies in the F-span of the kept relations of grade
      <= its own (product order), tested on one ColumnEchelon per
      relation.  A dropped relation is zero in the cokernel already.  A
      kept relation j is then in no span of the other kept relations of
      grade <= its own: a later one of such a grade has j's grade, and
      if it took part in such a sum it would lie in the span of j and
      the relations before it, and would have been dropped.
    - Then, while a nonzero entry (r, j) joins a row and a column of
      equal grade, generator r and relation j cancel: r is cleared from
      every other column k by col_axpy with column j, admissible since
      an entry at r makes grade(k) >= grade(r) = grade(j), and row r
      and column j go.  A cleared column in the span of the others of
      grade <= its own would put its original column in the span of the
      original ones and j, so the relations stay minimal.
    By graded Nakayama the result is a minimal presentation, in label
    order: columns as the first step visits them, rows sorted by (grade,
    index).  Minimal forms that differ only by a permutation of rows and
    columns of distinct labels thus come out equal, since a column then
    meets at most one row of its grade and no cancellation depends on
    the order.  Equal labels keep index order, so a permutation among
    them can still make the forms of one module differ.
    """
    q, rows, cols = P.field.q, P.row_labels, P.col_labels
    kept: list[int] = []
    for j in sorted(range(P.n_cols), key=lambda j: (cols[j], j)):
        echelon = ColumnEchelon(P.field)
        for k in kept:
            if grade_leq(cols[k], cols[j]):
                echelon.add(P.columns[k])
        if echelon.add(P.columns[j]) is not None:
            kept.append(j)
    columns = {j: dict(P.columns[j]) for j in kept}
    gone: set[int] = set()
    while pair := next(((r, j) for j, col in columns.items() for r in col
                        if rows[r] == cols[j]), None):
        r, j = pair
        pivot = columns.pop(j)
        unit = P.field.inv(pivot[r])
        for col in columns.values():
            if r in col:
                col_axpy(col, col[r] * unit, pivot, q)
        gone.add(r)
    survivors = sorted(set(range(P.n_rows)) - gone, key=lambda r: (rows[r], r))
    index = {r: i for i, r in enumerate(survivors)}
    return (tuple(rows[r] for r in index), tuple(cols[j] for j in columns),
            tuple(tuple(sorted((index[r], v) for r, v in col.items()))
                  for col in columns.values()))


def labels(P: Presentation) -> tuple[Grade, ...]:
    """The label vector of P: row labels first, then column labels."""
    return P.row_labels + P.col_labels


def free_presentation(gens: Iterable[Grade], fld: PrimeField = PrimeField(2),
                      n_params: int | None = None) -> Presentation:
    """Presentation of a free module: one row per generator, no columns."""
    gens = tuple(as_grade(g) for g in gens)
    if n_params is None:
        if not gens:
            raise DataError("n_params required for an empty free presentation")
        n_params = len(gens[0])
    return Presentation(fld, n_params, gens, (), ())


def hilbert_dim(P: Presentation, g: Grade) -> int:
    """dim of coker(P) at grade g: #{rows <= g} - rank(columns with label <= g)."""
    g = _freeze_grade(g, P.n_params)
    n_gens = sum(1 for lbl in P.row_labels if grade_leq(lbl, g))
    active = (col for col, lbl in zip(P.columns, P.col_labels)
              if grade_leq(lbl, g))
    return n_gens - column_rank(active, P.field)
