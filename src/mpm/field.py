"""Prime fields and sparse column elimination over them.

Field elements are plain ints in [0, q); columns are dicts mapping row
index to a nonzero residue.  :class:`ColumnEchelon` is the one
elimination engine used for ranks, kernel bases (cellular) and the
1-parameter pivot pairing behind barcodes and the graded normal form
(onepar).

ColumnEchelon stores its columns in one of two forms, chosen by the
field alone.  Over F_q with q > 2 a column is such a dict, and one
reduction step scales the pivot entry by an inverse and updates the
column entry by entry.  Over F_2 every nonzero entry is 1, so a column
is all in its support: it is kept as a Python int bitset (bit r set
for row r), its pivot is ``bit_length() - 1``, and one reduction step
is one XOR.  This is the column representation of F_2 persistence
engines such as PHAT and mpfree, and the default field of this package
is F_2.
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


def _bits_of(col) -> int:
    """The F_2 bitset of a column given as a dict or as (row, value) pairs.

    Bit r is set for every row r listed; values are taken to be nonzero
    residues, as every column of this package is, hence 1 over F_2.
    """
    bits = 0
    if isinstance(col, dict):
        for r in col:
            bits |= 1 << r
    else:
        for r, _ in col:
            bits |= 1 << r
    return bits


def _col_of(bits: int) -> SparseCol:
    """The dict column {r: 1} of an F_2 bitset, rows in descending order."""
    col = {}
    while bits:
        r = bits.bit_length() - 1
        col[r] = 1
        bits ^= 1 << r
    return col


class ColumnEchelon:
    """Incremental column echelon form; a tag on an insert tracks it.

    Pivot of a column is its largest row index.  An echelon has a tag on
    every insert or on none.  A tagged entry remembers an expression of
    its reduced form as a combination of the original tagged columns,
    and :meth:`reduce` sums expressions only from entries that have one,
    so with tags on every insert its combo gives exact coordinates.
    Columns go in as dicts or as (row, value) pairs: reduce copies them.

    The representation follows the field, with no other switch.  Over
    F_q, q > 2, an entry is a dict column with a dict expression (None
    when untagged).  Over F_2 an entry is an int bitset of rows (see
    _bits_of) with an int bitset of tags as its expression (0 when
    untagged), so a reduction step is ``res ^= column`` and ``combo ^=
    expression``, with no inverse and no per-entry update; rows and
    tags must then be nonnegative.  Both forms return the same dicts
    (over F_2 every value is 1).  Callers that hold bitsets already
    may call _reduce_bits and _insert_bits on an F_2 echelon and skip the
    dicts altogether.
    """

    def __init__(self, field: PrimeField):
        self.field = field
        self._table: dict[int, tuple] = {}  # pivot row -> (column, expression)
        self.rank = 0

    def reduce(self, col: SparseCol) -> tuple[SparseCol, SparseCol]:
        """Reduce col against the echelon.

        Returns (residual, combo) with
        ``residual = col - sum(combo[tag] * original_tag)`` over F_q.
        combo is empty when no insert had a tag.
        """
        if self.field.q == 2:
            res, combo = self._reduce_bits(_bits_of(col))
            return _col_of(res), _col_of(combo)
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
        if self.field.q == 2:
            res, combo = self._insert_bits(_bits_of(col), tag)
            return _col_of(res), _col_of(combo)
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

    def _reduce_bits(self, res: int) -> tuple[int, int]:
        """reduce over F_2 on bitsets: (residual, combo) as ints."""
        table = self._table
        combo = 0
        while res:
            entry = table.get(res.bit_length() - 1)
            if entry is None:
                break
            res ^= entry[0]
            combo ^= entry[1]
        return res, combo

    def _insert_bits(self, col: int, tag: Optional[int] = None) -> tuple[int, int]:
        """insert over F_2 on bitsets: (residual, combo) as ints.

        The new entry's expression is its tag minus combo, which over
        F_2 is the tag's bit XOR combo.
        """
        res, combo = self._reduce_bits(col)
        if res:
            self._table[res.bit_length() - 1] = (
                res, 0 if tag is None else combo ^ (1 << tag))
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
