"""Exact rational grades, extended values and lp-norm helpers.

Grades are tuples of ``fractions.Fraction`` (length 1 or 2).  Barcode
endpoints extend the rationals with ``math.inf``; everywhere in this
package the convention ``inf - inf = 0`` is applied through
:func:`ext_abs_diff` instead of raw float arithmetic.

Exponents p live in [1, inf].  A finite p is a ``Fraction`` (the norm
helpers here also take an int); p = inf is ``math.inf``.  For integral
p all p-th powers of rationals stay exact, so distances can be compared
as exact p-th powers; the distance itself is produced by
:func:`pth_root` (integer Newton iteration, within one ulp of a double
at every magnitude a double can hold).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

INF = math.inf

Extended = Union[Fraction, float]  # a Fraction, or math.inf
PExp = Union[Fraction, float]      # exponent in [1, inf]
Grade = tuple[Fraction, ...]


def is_inf(x) -> bool:
    return x == INF


def rat(x) -> Fraction:
    """Exact Fraction from an int, string ('1.25', '3/4', '-2') or Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def format_rat(x: Extended) -> str:
    """Exact text form: terminating decimal when possible, else 'a/b'; 'inf'."""
    if is_inf(x):
        return "inf"
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

def ext_abs_diff(x: Extended, y: Extended) -> Extended:
    """|x - y| on the extended line with the convention inf - inf = 0."""
    xi, yi = is_inf(x), is_inf(y)
    if xi and yi:
        return Fraction(0)
    if xi or yi:
        return INF
    return abs(x - y)


def _int_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0 by Newton iteration on integers."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def pth_root(x: Extended, p: PExp) -> float:
    """Float p-th root of a nonnegative extended rational."""
    if is_inf(x):
        return INF
    if x < 0:
        raise ValueError("pth_root of a negative value")
    if x == 0:
        return 0.0
    if not pexp_integral(p):
        return float(x) ** (1.0 / float(p))
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


def abs_power(x: Extended, p: PExp) -> Extended:
    """|x|**p; exact Fraction for integral p, float otherwise."""
    if is_inf(x):
        return INF
    if pexp_integral(p):
        return abs(Fraction(x)) ** int(p)
    return abs(float(x)) ** float(p)


def vec_pnorm_power(values: Iterable[Extended], p: PExp) -> Extended:
    """Sum of |v|**p over values; exact for integral p.  Requires finite p."""
    if is_inf(p):
        raise ValueError("p-th power sum undefined for p = inf")
    total: Extended = Fraction(0)
    for v in values:
        w = abs_power(v, p)
        if is_inf(w):
            return INF
        total = total + w
    return total


def vec_pnorm(values: Iterable[Extended], p: PExp) -> Extended:
    """lp-norm of the values; exact Fraction for p in {1, inf}, else float.

    At a non-integral p the float powers are taken of |v| / m, with m
    the largest |v|, and the root is multiplied by m.  Every ratio lies
    in [0, 1] and the largest is 1, so no power overflows and the sum
    is at least 1; a ratio whose power underflows adds less than one
    part in 2^1000 to it.  So the result overflows (OverflowError) only
    where the norm itself exceeds a double.
    """
    vals = list(values)
    if is_inf(p):
        best: Extended = Fraction(0)
        for v in vals:
            a = abs(v) if not is_inf(v) else INF
            if a > best:
                best = a
        return best
    if p == 1:
        total = Fraction(0)
        for v in vals:
            if is_inf(v):
                return INF
            total += abs(v)
        return total
    if pexp_integral(p):
        power = vec_pnorm_power(vals, p)
        return INF if is_inf(power) else pth_root(power, p)
    if any(is_inf(v) for v in vals):
        return INF
    top = max(map(abs, vals), default=0)
    if top == 0:
        return 0.0
    q = float(p)
    norm = float(top) * sum(float(abs(v) / top) ** q for v in vals) ** (1.0 / q)
    if math.isinf(norm):
        raise OverflowError("lp-norm exceeds the double range")
    return norm


# ---------------------------------------------------------------------------
# grades

def grade_leq(a: Grade, b: Grade) -> bool:
    """Product partial order on R^n."""
    return all(x <= y for x, y in zip(a, b, strict=True))


def grade_join(a: Grade, b: Grade) -> Grade:
    return tuple(max(x, y) for x, y in zip(a, b, strict=True))


def join_all(grades: Iterable[Grade]) -> Grade:
    it = iter(grades)
    out = next(it)
    for g in it:
        out = grade_join(out, g)
    return out


def parse_grade(tokens: Sequence[str], n_params: int) -> Grade:
    if len(tokens) != n_params:
        raise ValueError(f"expected {n_params} coordinates, got {len(tokens)}")
    return tuple(rat(t) for t in tokens)


def format_grade(g: Grade) -> str:
    return " ".join(format_rat(c) for c in g)


def show_grade(g: Grade) -> str:
    """Compact human-readable form for error messages: (1, 2.5)."""
    return "(" + ", ".join(format_rat(c) for c in g) + ")"
