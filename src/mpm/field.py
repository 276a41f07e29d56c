"""Prime fields and sparse column elimination over them.

Field elements are plain ints in [0, q); columns are dicts mapping row
index to a nonzero residue.  :class:`ColumnEchelon` is the one
elimination engine used for ranks, kernel bases (cellular) and the
1-parameter pivot pairing behind barcodes (onepar).  Its callers hand
it columns and get back pivots and kernel vectors, the same way over
every field.

Inside, the field alone picks how ColumnEchelon stores its columns.
Over F_q with q > 2 a column is such a dict, and one reduction step
scales the pivot entry by an inverse and updates the column entry by
entry.  Over F_2 every nonzero entry is 1, so a column is all in its
support: it is kept as a Python int bitset (bit r set for row r), its
pivot is ``bit_length() - 1``, and one reduction step is one XOR.  This
is the column representation of F_2 persistence engines such as PHAT
and mpfree, which likewise keep it behind the matrix type; the default
field of this package is F_2.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, Optional

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
    """Incremental column echelon form over a prime field.

    Columns go in as dicts or as (row, value) pairs and are not
    modified.  A column's pivot is its row of largest rank, and pivots
    are reported by rank: row_rank, if given, maps each row to its
    rank, else a row's rank is its index.  A column is reduced by the
    entry at its pivot until its pivot is free or nothing is left; a
    nonzero residual is kept as a new entry, and no entry is replaced.

    An entry kept by :meth:`add_tagged` also keeps its expression as a
    combination of the tagged columns, and one kept by :meth:`add` has
    none, so an echelon that yields kernel vectors takes every column
    by add_tagged.  Over F_2 entries and expressions are int bitsets
    (see the module docstring), so ranks and tags must be nonnegative.
    """

    def __init__(self, field: PrimeField, row_rank: Optional[Mapping[int, int]] = None):
        self.field = field
        self._row_rank = row_rank
        self._bits = field.q == 2
        self._table: dict[int, tuple] = {}  # pivot rank -> (column, expression)
        self.rank = 0

    def add(self, col) -> Optional[tuple[int, int]]:
        """Reduce col; keep a nonzero residual and return its (pivot
        rank, pivot value), or return None if col is in the span."""
        res, _ = self._reduce(col)
        if not res:
            return None
        if self._bits:
            piv, value, expr = res.bit_length() - 1, 1, 0
        else:
            piv = max(res)
            value, expr = res[piv], None
        self._table[piv] = (res, expr)
        self.rank += 1
        return piv, value

    def add_tagged(self, col, tag: int) -> Optional[SparseCol]:
        """Reduce col, tracking the tagged columns that reduced it.

        The expression ``{tag: 1} - combo`` sums the tagged columns to
        the residual.  A nonzero residual is kept with it, and None is
        returned; else col is in the span, and the expression is
        returned as a dict: a kernel vector of the tagged columns.
        """
        res, combo = self._reduce(col)
        if self._bits:
            expr = combo ^ (1 << tag)
        else:
            expr = col_axpy({tag: 1}, 1, combo, self.field.q)
        if res:
            self._table[res.bit_length() - 1 if self._bits else max(res)] = (res, expr)
            self.rank += 1
            return None
        if not self._bits:
            return expr
        vec = {}
        while expr:
            t = expr.bit_length() - 1
            vec[t] = 1
            expr ^= 1 << t
        return vec

    def _reduce(self, col) -> tuple:
        """(residual, combo) of col in the entries' form, with
        ``residual = col - sum(combo[tag] * column tag)``."""
        table, row_rank = self._table, self._row_rank
        if not isinstance(col, dict):
            col = dict(col)
        if self._bits:
            res = combo = 0
            if row_rank is None:
                for r in col:
                    res |= 1 << r
            else:
                for r in col:
                    res |= 1 << row_rank[r]
            while res:
                entry = table.get(res.bit_length() - 1)
                if entry is None:
                    break
                res ^= entry[0]
                combo ^= entry[1]
            return res, combo
        q, inv = self.field.q, self.field.inv
        res = dict(col) if row_rank is None else {row_rank[r]: v for r, v in col.items()}
        combo: SparseCol = {}
        while res:
            piv = max(res)
            entry = table.get(piv)
            if entry is None:
                break
            ecol, eexpr = entry
            factor = res[piv] * inv(ecol[piv]) % q
            col_axpy(res, factor, ecol, q)
            if eexpr:
                col_axpy(combo, -factor, eexpr, q)
        return res, combo

    def truncate(self, n: int) -> None:
        """Keep the first n entries kept and drop the later ones.

        Pivots are never replaced, so the echelon is then exactly as it
        was right after the n-th column that left a residual.
        """
        if n < self.rank:
            self._table = dict(islice(self._table.items(), n))
            self.rank = n


def column_rank(columns: Iterable[SparseCol], field: PrimeField) -> int:
    ech = ColumnEchelon(field)
    for col in columns:
        ech.add(col)
    return ech.rank
