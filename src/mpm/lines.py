"""Admissible lines, push maps, and restriction of 2-parameter presentations.

An admissible line is l(t) = t*v + w with v > 0 and min(v) = 1.  The
push of a grade a is the smallest t with l(t) >= a, i.e.
max_i (a_i - w_i) / v_i.  Degenerate axis-parallel limits (used by the
matching-distance compactification) are represented separately; their
push is max(a_i - w_i, 0) over the remaining finite-direction
coordinate, the pointwise limit of the admissible formula.  _pushes
holds the formula once, for any number type: push and
restrict_presentation (the builder behind ``mpm restrict``) run it on
Fractions; barcode_along_line runs it on ints, the labels and the line
scaled once per call by positive common denominators, and divides only
the bar endpoints back (proof at barcode_along_line); the
matching-distance search runs it on floats over its (s, mu) chart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .barcode import Barcode
from .errors import DataError
from .grades import INF, Grade, rat
from .onepar import barcode_pairs
from .presentation import Presentation, labels


@dataclass(frozen=True)
class AdmissibleLine:
    """l(t) = t*v + w with v > 0 and min(v) = 1."""

    v: Grade
    w: Grade

    def __post_init__(self):
        v = tuple(rat(c) for c in self.v)
        w = tuple(rat(c) for c in self.w)
        if len(v) != 2 or len(w) != 2:
            raise DataError("admissible lines live in the plane")
        if min(v) != 1 or any(c <= 0 for c in v):
            raise DataError(f"direction {v} is not admissible (need v > 0, min(v) = 1)")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    def __call__(self, t) -> Grade:
        t = rat(t)
        return (t * self.v[0] + self.w[0], t * self.v[1] + self.w[1])


@dataclass(frozen=True)
class LimitLine:
    """Axis-parallel limit of admissible lines; only push is defined.

    axis is the coordinate whose direction component stayed at 1.
    """

    axis: int
    w: Grade

    def __post_init__(self):
        w = tuple(rat(c) for c in self.w)
        if self.axis not in (0, 1) or len(w) != 2:
            raise DataError("a limit line needs axis 0 or 1 and a base point in the plane")
        object.__setattr__(self, "w", w)


Line = AdmissibleLine | LimitLine


def _pushes(label_vec, chart) -> list:
    """Pushes of 2-D labels along one line, given by its chart.

    The chart (kx, ky, wx, wy) is a line with base point (wx, wy) and
    direction (1/kx, 1/ky); it pushes a label a to
    max(kx (ax - wx), ky (ay - wy)).  kx or ky is 0 on a limit line.
    """
    kx, ky, wx, wy = chart
    # max(x, y) written out: the builtin call would dominate this loop
    return [y if (y := ky * (ay - wy)) > (x := kx * (ax - wx)) else x
            for ax, ay in label_vec]


def _line_chart(line: Line) -> tuple:
    """The chart (1/v0, 1/v1, w0, w1) of a line for _pushes; a limit line
    keeps the coefficient 1 on its axis and 0 on the other."""
    if isinstance(line, LimitLine):
        one, zero = Fraction(1), Fraction(0)
        kx, ky = (one, zero) if line.axis == 0 else (zero, one)
    else:
        kx, ky = 1 / line.v[0], 1 / line.v[1]
    return kx, ky, line.w[0], line.w[1]


def push(line: Line, a: Grade) -> Fraction:
    """Minimal t with l(t) >= a (limit value for degenerate lines)."""
    return _pushes([tuple(rat(c) for c in a)], _line_chart(line))[0]


def restrict_presentation(P: Presentation, line: Line) -> Presentation:
    """The induced 1-parameter presentation of coker(P) along the line.

    Same underlying matrix; every label is replaced by its push value.
    """
    if P.n_params != 2:
        raise DataError("restriction applies to 2-parameter presentations")
    pushed = [(t,) for t in _pushes(labels(P), _line_chart(line))]
    return Presentation(P.field, 1, tuple(pushed[:P.n_rows]),
                        tuple(pushed[P.n_rows:]), P.columns)


def barcode_along_line(P: Presentation, line: Line) -> Barcode:
    """Barcode of coker(P) restricted to the line, read by
    onepar.barcode_pairs straight off the pushed labels.

    Building the restricted presentation would check no more: P was
    validated when built, and the push is monotone (kx, ky >= 0), so
    the pushed labels cannot break the label order.

    The pushes are computed on ints.  With L the least common
    denominator of every label coordinate and of the base point
    (wx, wy), and d that of the chart's kx and ky, _pushes runs on the
    int labels (L ax, L ay) and the int chart (d kx, d ky, L wx, L wy).
    Each int push is d kx (L ax - L wx) or d ky (L ay - L wy), that is
    the Fraction one's term times s = L d, so their maximum is s times
    the Fraction push, picked from the same side of the same
    comparison.  As s > 0, every comparison between two int pushes has
    the outcome of the one between the Fraction pushes, ties included.
    barcode_pairs uses the values only through such comparisons: its
    stable sorts give the same row and column orders, hence the same
    memo keys and pivot pairing, and its birth < death test keeps the
    same pairs.  Dividing each returned endpoint by s gives back the
    Fraction bars, equal in value, order and type.
    """
    if P.n_params != 2:
        raise DataError("restriction applies to 2-parameter presentations")
    kx, ky, wx, wy = _line_chart(line)
    labs = labels(P)
    L = math.lcm(wx.denominator, wy.denominator,
                 *{c.denominator for a in labs for c in a})
    d = math.lcm(kx.denominator, ky.denominator)

    def up(x, scale):
        return x.numerator * (scale // x.denominator)

    # up() written out: the call would dominate this loop
    pushed = _pushes([(ax.numerator * (L // ax.denominator),
                       ay.numerator * (L // ay.denominator)) for ax, ay in labs],
                     (up(kx, d), up(ky, d), up(wx, L), up(wy, L)))
    bars, essential = barcode_pairs(pushed[:P.n_rows], pushed[P.n_rows:],
                                    P.column_dicts(), P.field)
    s = L * d
    return Barcode([(Fraction(b, s), Fraction(e, s)) for b, e in bars]
                   + [(Fraction(b, s), INF) for b in essential])


def parse_line(text: str) -> AdmissibleLine:
    """CLI literal ``"v1,v2;w1,w2"`` with exact decimals or rationals.

    The direction is scaled to min(v) = 1 (required for admissibility);
    the base point is kept as given, so push values follow the stated w.
    """
    try:
        v_part, w_part = text.split(";")
        v = tuple(rat(tok.strip()) for tok in v_part.split(","))
        w = tuple(rat(tok.strip()) for tok in w_part.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise DataError(f"bad line literal {text!r}: {exc}") from exc
    if len(v) != 2 or len(w) != 2 or any(c <= 0 for c in v):
        raise DataError(f"bad line literal {text!r}: need positive v1,v2;w1,w2")
    scale = min(v)
    return AdmissibleLine((v[0] / scale, v[1] / scale), w)
