"""Finitely presented barcodes and the ``.bc`` text format.

A bar is a half-open interval [birth, death) with a rational birth and
a death that is either rational or ``inf``.  A :class:`Barcode` is a
finite multiset of bars; equality is multiset equality.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DataError, ParseError
from .fpm import _Lines
from .grades import INF, Extended, format_rat, is_inf, rat

Bar = tuple[Fraction, Extended]  # (birth, death), birth < death


def _sort_key(bar: Bar):
    birth, death = bar
    return (birth, is_inf(death), death if not is_inf(death) else Fraction(0))


class Barcode:
    """Finite multiset of bars [a, b) with a < b <= inf."""

    __slots__ = ("bars",)

    def __init__(self, bars: Iterable = ()):
        out = []
        for bar in bars:
            birth, death = bar
            birth = rat(birth)
            if not is_inf(death):
                death = rat(death)
            if not birth < death:
                raise DataError(f"bar [{birth}, {death}) is empty or reversed")
            out.append((birth, death))
        self.bars: tuple[Bar, ...] = tuple(out)

    def __len__(self) -> int:
        return len(self.bars)

    def __iter__(self) -> Iterator[Bar]:
        return iter(self.bars)

    def __getitem__(self, i: int) -> Bar:
        return self.bars[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Barcode):
            return NotImplemented
        return sorted(self.bars, key=_sort_key) == sorted(other.bars, key=_sort_key)

    def __hash__(self):
        return hash(tuple(sorted(self.bars, key=_sort_key)))

    def __repr__(self):
        inner = ", ".join(f"[{format_rat(b)}, {format_rat(d)})" for b, d in self.bars)
        return f"Barcode({{{inner}}})"

    def sorted(self) -> "Barcode":
        return Barcode(sorted(self.bars, key=_sort_key))


def parse_barcode(text: str) -> Barcode:
    """Parse the ``.bc`` format: one ``<birth> <death|inf>`` pair per line."""
    bars = []
    for lineno, line in _Lines(text).items:
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(f"expected '<birth> <death|inf>', got {line!r}", lineno)
        try:
            birth = rat(toks[0])
            death: Extended = INF if toks[1].lower() in ("inf", "infinity") else rat(toks[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), lineno) from exc
        if not birth < death:
            raise ParseError(f"bar [{birth}, {toks[1]}) is empty or reversed", lineno)
        bars.append((birth, death))
    return Barcode(bars)


def serialize_barcode(bc: Barcode) -> str:
    lines = [f"{format_rat(b)} {format_rat(d)}" for b, d in bc.sorted().bars]
    return "\n".join(lines) + ("\n" if lines else "")
