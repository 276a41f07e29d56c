"""Prime fields and sparse column elimination over them.

Field elements are plain ints in [0, q); columns are dicts mapping row
index to a nonzero residue.  :class:`ColumnEchelon` is the one
elimination engine used for ranks, kernel bases (cellular) and the
1-parameter pivot pairing behind barcodes and the graded normal form
(onepar).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional

from .errors import DataError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any sensible field size."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_q for a prime q (default everywhere in this package: q=2)."""

    q: int = 2

    def __post_init__(self):
        if not is_prime(self.q):
            raise DataError(f"field order {self.q} is not prime")

    def inv(self, x: int) -> int:
        if x % self.q == 0:
            raise ZeroDivisionError("inverse of zero in a prime field")
        return pow(x, -1, self.q)

    def __str__(self):
        return f"F_{self.q}"


F2 = PrimeField(2)

SparseCol = dict[int, int]  # row index -> nonzero residue


def col_axpy(dst: SparseCol, factor: int, src: SparseCol, q: int) -> SparseCol:
    """dst - factor * src over F_q, dropping zeros.  dst is consumed."""
    for r, v in src.items():
        w = (dst.get(r, 0) - factor * v) % q
        if w:
            dst[r] = w
        else:
            dst.pop(r, None)
    return dst


class ColumnEchelon:
    """Incremental column echelon form; a tag on an insert tracks it.

    Pivot of a column is its largest row index.  An echelon has a tag on
    every insert or on none.  A tagged entry remembers an expression of
    its reduced form as a combination of the original tagged columns,
    and :meth:`reduce` sums expressions only from entries that have one,
    so with tags on every insert its combo gives exact coordinates.
    Columns go in as dicts or as (row, value) pairs: reduce copies them.
    """

    def __init__(self, field: PrimeField):
        self.field = field
        self._table: dict[int, tuple[SparseCol, Optional[SparseCol]]] = {}
        self.rank = 0

    def reduce(self, col: SparseCol) -> tuple[SparseCol, SparseCol]:
        """Reduce col against the echelon.

        Returns (residual, combo) with
        ``residual = col - sum(combo[tag] * original_tag)`` over F_q.
        combo is empty when no insert had a tag.
        """
        q = self.field.q
        res = dict(col)
        combo: SparseCol = {}
        while res:
            piv = max(res)
            entry = self._table.get(piv)
            if entry is None:
                break
            ecol, eexpr = entry
            factor = res[piv] * self.field.inv(ecol[piv]) % q
            col_axpy(res, factor, ecol, q)
            if eexpr:
                for tag, v in eexpr.items():
                    w = (combo.get(tag, 0) + factor * v) % q
                    if w:
                        combo[tag] = w
                    else:
                        combo.pop(tag, None)
        return res, combo

    def insert(self, col: SparseCol, tag: Optional[int] = None) -> tuple[SparseCol, SparseCol]:
        """Reduce col and, if a residual remains, add it to the echelon.

        Returns the (residual, combo) pair of :meth:`reduce`; an empty
        residual means col was already in the span.
        """
        res, combo = self.reduce(col)
        if res:
            expr = None
            if tag is not None:
                expr = {tag: 1}
                for t, v in combo.items():
                    w = (expr.get(t, 0) - v) % self.field.q
                    if w:
                        expr[t] = w
                    else:
                        expr.pop(t, None)
            self._table[max(res)] = (res, expr)
            self.rank += 1
        return res, combo

    def truncate(self, n: int) -> None:
        """Keep the first n entries inserted and drop the later ones.

        Pivots are never replaced, so the echelon is then exactly as it
        was right after its n-th insertion that left a residual.
        """
        if n < self.rank:
            self._table = dict(islice(self._table.items(), n))
            self.rank = n


def column_rank(columns: Iterable[SparseCol], field: PrimeField) -> int:
    ech = ColumnEchelon(field)
    for col in columns:
        ech.insert(col)
    return ech.rank
