"""One-parameter presentations: barcodes read off the pivot pairing.

barcode_pairs reads the bars off the pivot pairing, for barcode_of,
lines.barcode_along_line and the matching-distance search alike.

The reduction is the persistence-style column reduction, run by
field.ColumnEchelon (_pivot_pairing): rows and columns are sorted by
label (ties by index), columns are added left to right, and each is
repeatedly reduced by the earlier column owning its nonzero row of
largest index.  Every operation adds an earlier-labeled column to a later one,
hence is admissible.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .barcode import Barcode
from .errors import DataError
from .field import ColumnEchelon, PrimeField, SparseCol
from .grades import INF
from .presentation import Presentation


def _pivot_pairing(row_order: Sequence[int], col_order: Sequence[int],
                   columns: Sequence[SparseCol], field: PrimeField) -> dict:
    """Column reduction of the matrix with rows and columns permuted.

    The columns are added in col_order to a ColumnEchelon that ranks
    each row by its position in row_order, so a column's pivot is its
    row latest in row_order.  Returns {row rank: column rank} in pivot
    order.
    """
    echelon = ColumnEchelon(field, {orig: rank for rank, orig in enumerate(row_order)})
    pivots = {}
    for rank, j in enumerate(col_order):
        kept = echelon.add(columns[j])
        if kept is not None:
            pivots[kept[0]] = rank
    return pivots


def barcode_pairs(row_values: Sequence, col_values: Sequence,
                  columns: list[SparseCol], field: PrimeField,
                  memo: Optional[dict] = None):
    """Bars of a 1-parameter reduction, read off its pivot pairing.

    Label values only need to be totally ordered (ints, Fractions or
    floats).  Returns ([(birth, death) finite bars], [essential
    births]): the pivot pairs with birth < death, in pivot order, and
    the unpaired rows' values in row order, which is ascending.  When
    every nonzero entry has row value <= column value, a reduced column
    is a sum of columns valued at most its own, so no pair has
    birth > death and only the pairs with birth == death are dropped.

    The pivot pairing depends on the values only through the row order
    and the column order (stable sorts, so ties break by index).  memo,
    if given, maps that pair of orders to the pairing as (row index,
    column index) pairs and essential row indices; a memo must only
    ever see one matrix and field.
    """
    row_order = sorted(range(len(row_values)), key=row_values.__getitem__)
    col_order = sorted(range(len(col_values)), key=col_values.__getitem__)
    key = (tuple(row_order), tuple(col_order))
    pairing = None if memo is None else memo.get(key)
    if pairing is None:
        pivots = _pivot_pairing(row_order, col_order, columns, field)
        pairing = ([(row_order[r], col_order[j]) for r, j in pivots.items()],
                   [row_order[r] for r in range(len(row_order)) if r not in pivots])
        if memo is not None:
            memo[key] = pairing
    index_pairs, essential = pairing
    bars = [(b, d) for i, j in index_pairs
            if (b := row_values[i]) < (d := col_values[j])]
    return bars, [row_values[i] for i in essential]


def barcode_of(P: Presentation) -> Barcode:
    """Barcode of coker(P) for a 1-parameter presentation: the bars of
    barcode_pairs, essential ones as [birth, inf)."""
    if P.n_params != 1:
        raise DataError("barcodes require a 1-parameter presentation")
    bars, essential = barcode_pairs(
        [g[0] for g in P.row_labels], [g[0] for g in P.col_labels],
        P.column_dicts(), P.field)
    return Barcode(bars + [(b, INF) for b in essential])
