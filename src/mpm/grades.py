"""Exact rational grades, extended values and lp-norm helpers.

Grades are tuples of ``fractions.Fraction`` (length 1 or 2).  Barcode
endpoints extend the rationals with ``math.inf``.  The convention
``inf - inf = 0`` needs no subtraction of infinities: wasserstein
matches essential bars among themselves and compares only their births.

Exponents p live in [1, inf].  A finite p is a ``Fraction`` (the norm
helpers here also take an int); p = inf is ``math.inf``.  For integral
p all p-th powers of rationals stay exact, so distances can be compared
as exact p-th powers.  Every lp aggregate (a sum of p-th powers, or a
max at p = inf) becomes a distance in one place, :func:`lp_root`: a
float power is rooted by ``**``, an exact one by :func:`pth_root`
(integer Newton iteration, within one ulp of a double at every
magnitude a double can hold).  A ``*_power`` function of this package
returns that aggregate, the quantity :func:`lp_root` roots, at every p
in [1, inf]; :func:`vec_pnorm_power` is the one for a flat vector.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

INF = math.inf

Extended = Union[Fraction, float]  # a Fraction, or math.inf
PExp = Union[Fraction, float]      # exponent in [1, inf]
Grade = tuple[Fraction, ...]


def is_inf(x) -> bool:
    """x is +inf.  Only a float can be: an int or a Fraction never is,
    so those skip the comparison."""
    return isinstance(x, float) and x == INF


def rat(x) -> Fraction:
    """Exact Fraction from an int, string ('1.25', '3/4', '-2') or Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def as_grade(g) -> Grade:
    """g as a tuple of Fractions (coordinates as rat takes them).

    A tuple whose coordinates are all Fractions is returned as it is,
    without a rebuild; any other sequence is rebuilt by rat.
    """
    if type(g) is tuple and all(type(c) is Fraction for c in g):
        return g
    return tuple(rat(c) for c in g)


def format_rat(x: Extended) -> str:
    """Exact text form: terminating decimal when possible, else 'a/b'; 'inf'."""
    if is_inf(x):
        return "inf"
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    den = x.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    digits = max(twos, fives)
    scaled = x.numerator * 10**digits // x.denominator
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{str(frac).zfill(digits)}" if digits else f"{sign}{whole}"


# ---------------------------------------------------------------------------
# exponents

def as_pexp(p) -> PExp:
    """Normalize an exponent to a Fraction in [1, inf) or math.inf."""
    if isinstance(p, float):
        if math.isinf(p) and p > 0:
            return INF
        p = Fraction(p)
    elif isinstance(p, int):
        p = Fraction(p)
    elif isinstance(p, str):
        return parse_pexp(p)
    if not isinstance(p, Fraction):
        raise TypeError(f"bad exponent {p!r}")
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    return p


def parse_pexp(text: str) -> PExp:
    text = text.strip().lower()
    if text in ("inf", "infinity", "oo"):
        return INF
    return as_pexp(Fraction(text))


def format_pexp(p: PExp) -> str:
    return "inf" if is_inf(p) else format_rat(p)


def pexp_integral(p: PExp) -> bool:
    """p is a finite integer exponent (a Fraction or an int)."""
    return isinstance(p, (int, Fraction)) and p.denominator == 1


# ---------------------------------------------------------------------------
# extended arithmetic

def _int_nth_root(n: int, k: int) -> int:
    """The floor of the k-th root of n >= 0, by Newton iteration on integers."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def pth_root(x: Extended, p: PExp) -> float:
    """Float p-th root of a nonnegative extended rational, p integral."""
    if is_inf(x):
        return INF
    if x < 0:
        raise ValueError("pth_root of a negative value")
    if x == 0:
        return 0.0
    if not pexp_integral(p):
        raise ValueError(f"pth_root needs an integral p, got {p}")
    k = int(p)
    if k == 1:
        return float(x)
    x = Fraction(x)
    # x > 2^(e-1), so the root r keeps at least 64 bits; the int division
    # rounds once and overflows only where the root itself does
    e = x.numerator.bit_length() - x.denominator.bit_length()
    shift = max(64, 64 - (e - 1) // k)
    r = _int_nth_root((x.numerator << (k * shift)) // x.denominator, k)
    return r / (1 << shift)


def lp_root(power: Extended, p: PExp) -> Extended:
    """The lp distance from its aggregate: the p-th root of a sum of p-th
    powers.

    At p = 1 and p = inf (where the aggregate is a max) and for an
    infinite aggregate the aggregate is the distance and is returned
    unchanged, with its type.  A float power is rooted by ``**``; an
    exact one (int or Fraction; at a non-integral p only a zero) by
    :func:`pth_root`.
    """
    if p == 1 or is_inf(p) or is_inf(power):
        return power
    if isinstance(power, float):
        return power ** (1.0 / float(p))
    return pth_root(power, p)


def vec_pnorm_power(values: Iterable[Extended], p: PExp) -> Extended:
    """The lp aggregate of the values, which lp_root turns into their
    lp-norm: the sum of |v|**p at finite p (exact for integral p), the
    max |v| at p = inf."""
    if is_inf(p):
        best: Extended = Fraction(0)
        for v in values:
            a = abs(v)
            if a > best:
                best = a
        return best
    exact = pexp_integral(p)
    e = int(p) if exact else float(p)
    total: Extended = Fraction(0)
    for v in values:
        if is_inf(v):
            return INF
        total = total + (abs(Fraction(v)) ** e if exact else abs(float(v)) ** e)
    return total


def vec_pnorm(values: Iterable[Extended], p: PExp) -> Extended:
    """lp-norm of the values; exact Fraction for p in {1, inf}, else float.

    At p = inf and at integral p it is lp_root of vec_pnorm_power.  At a
    non-integral p the float powers are taken of |v| / m, with m
    the largest |v|, and the root is multiplied by m.  Every ratio lies
    in [0, 1] and the largest is 1, so no power overflows and the sum
    is at least 1; a ratio whose power underflows adds less than one
    part in 2^1000 to it.  So the result overflows (OverflowError) only
    where the norm itself exceeds a double.
    """
    if is_inf(p) or pexp_integral(p):
        return lp_root(vec_pnorm_power(values, p), p)
    vals = list(values)
    if any(is_inf(v) for v in vals):
        return INF
    top = max(map(abs, vals), default=0)
    if top == 0:
        return 0.0
    q = float(p)
    norm = float(top) * lp_root(sum(float(abs(v) / top) ** q for v in vals), p)
    if math.isinf(norm):
        raise OverflowError("lp-norm exceeds the double range")
    return norm


# ---------------------------------------------------------------------------
# grades

def grade_leq(a: Grade, b: Grade) -> bool:
    """Product partial order on R^n; ValueError when the lengths differ."""
    if len(a) == 2 == len(b):
        return a[0] <= b[0] and a[1] <= b[1]
    if len(a) != len(b):
        raise ValueError(f"grades of {len(a)} and {len(b)} coordinates are not comparable")
    return all(x <= y for x, y in zip(a, b))


def grade_join(a: Grade, b: Grade) -> Grade:
    return tuple(max(x, y) for x, y in zip(a, b, strict=True))


def join_all(grades: Iterable[Grade]) -> Grade:
    it = iter(grades)
    out = next(it)
    for g in it:
        out = grade_join(out, g)
    return out


def grade_parser(n_params: int) -> Callable[[Sequence[str]], Grade]:
    """A parser of the n_params-coordinate grades of one document.

    It checks the token count and turns each distinct token into a
    Fraction once, kept in a dict that lives as long as the parser, so
    the grades of a document share their coordinates.  A bad token is
    not kept: it raises ValueError or ZeroDivisionError, as Fraction
    does, each time it is read.
    """
    coords: dict[str, Fraction] = {}

    def parse(tokens: Sequence[str]) -> Grade:
        if len(tokens) != n_params:
            raise ValueError(f"expected {n_params} coordinates, got {len(tokens)}")
        out = []
        for t in tokens:
            c = coords.get(t)
            if c is None:
                c = coords[t] = Fraction(t)
            out.append(c)
        return tuple(out)

    return parse


def grade_formatter() -> Callable[[Grade], str]:
    """A formatter of the grades of one document, the twin of grade_parser.

    It writes a grade as its coordinates in format_rat's text, joined by
    spaces, and formats each distinct coordinate once, kept in a dict
    that lives as long as the formatter.
    """
    texts: dict[Fraction, str] = {}

    def fmt(g: Grade) -> str:
        out = []
        for c in g:
            t = texts.get(c)
            if t is None:
                t = texts[c] = format_rat(c)
            out.append(t)
        return " ".join(out)

    return fmt


def show_grade(g: Grade) -> str:
    """Compact human-readable form for error messages: (1, 2.5)."""
    return "(" + ", ".join(format_rat(c) for c in g) + ")"
