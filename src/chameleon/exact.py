"""Exact arithmetic on the lattice of base-n fractions.

Everything here is a pure function of rational inputs.  The carrier type is
``fractions.Fraction``; ``NAdic`` is a canonical mantissa/exponent view of the
subring Z[1/n] used where digit positions matter (digit classes, tail
reductions, vertex indexing).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ParseError


def as_fraction(q) -> Fraction:
    """Coerce ints, strings like '5/16', NAdic values, and Fractions."""
    if isinstance(q, Fraction):
        return q
    if isinstance(q, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(q, int):
        return Fraction(q)
    if isinstance(q, NAdic):
        return q.value
    if isinstance(q, str):
        return parse_rational(q)
    raise TypeError(f"not a rational value: {q!r}")


def _check_depth(value, name: str, least: int = 0) -> None:
    """Refuse, with ValueError, a depth, level or count that is a bool, not
    an int, or below ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        kind = "a non-negative integer" if least == 0 else f"an integer of at least {least}"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b' in decimal digits, with an optional leading minus,
    surrounding whitespace and a nonzero b; reject anything else (``Fraction``
    reads more: decimal points, exponents, underscores, a plus sign)."""
    if isinstance(text, str):
        num, slash, den = text.strip().partition("/")
        if num.removeprefix("-").isdecimal() and (
            not slash or den.isdecimal() and int(den) != 0
        ):
            return Fraction(int(num), int(den) if slash else 1)
    raise ParseError(f"not a rational literal: {text!r}")


def parse_integer(text: str) -> int | None:
    """The integer ``text`` writes in decimal digits, with an optional minus
    and surrounding whitespace; None otherwise (``int`` reads more: a plus
    sign, underscores)."""
    text = text.strip()
    return int(text) if text.removeprefix("-").isdecimal() else None


def format_rational(q) -> str:
    """Render a Fraction as 'a/b', or 'a' when the denominator is one."""
    q = as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_smooth(d: int, n: int) -> bool:
    """True when every prime factor of d divides n (so d divides a power of n)."""
    if d == 0:
        return False
    d = abs(d)
    while d != 1:
        g = gcd(d, n)
        if g == 1:
            return False
        while d % g == 0:
            d //= g
    return True


def power_exponent(q, n: int) -> int | None:
    """Return k with q == n**k, or None when q is not an integral power of n."""
    if n < 2:
        raise ValueError("base must be at least 2")
    q = as_fraction(q)
    if q <= 0:
        return None
    return ratio_exponent(q.numerator, q.denominator, n)


def ratio_exponent(num: int, den: int, n: int) -> int | None:
    """Return k with num/den == n**k for positive integers num and den, or
    None when the ratio is not an integral power of n."""
    if n < 2:
        raise ValueError("base must be at least 2")
    common = gcd(num, den)
    num, den = num // common, den // common
    if num != 1 and den != 1:
        return None
    m, k = num * den, 0
    while m % n == 0:
        m //= n
        k += 1
    if m != 1:
        return None
    return k if den == 1 else -k


def trailing_zeros(i: int, n: int) -> int:
    """Number of trailing base-n zero digits of a nonzero integer."""
    if n < 2:
        raise ValueError("base must be at least 2")
    if i == 0:
        raise ValueError("trailing_zeros is undefined at zero")
    i = abs(i)
    count = 0
    while i % n == 0:
        i //= n
        count += 1
    return count


@dataclass(frozen=True)
class NAdic:
    """Canonical form a / n**e of an element of Z[1/n].

    Canonical means e == 0, or n does not divide a.  The mantissa may be any
    integer (zero is stored as 0 / n**0).
    """

    base: int
    mantissa: int
    exponent: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be at least 2")
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if self.mantissa == 0:
            if self.exponent != 0:
                raise ValueError("zero must be stored with exponent 0")
        elif self.exponent > 0 and self.mantissa % self.base == 0:
            raise ValueError("mantissa must not be divisible by the base")

    @property
    def value(self) -> Fraction:
        return Fraction(self.mantissa, self.base**self.exponent)

    def __str__(self) -> str:
        return format_rational(self.value)


def to_nadic(q, n: int) -> NAdic | None:
    """Canonical base-n form of q, or None when q is outside Z[1/n]."""
    if n < 2:
        raise ValueError("base must be at least 2")
    q = as_fraction(q)
    b = q.denominator
    if not is_smooth(b, n):
        return None
    # The least e with b | n**e; then q == a / n**e with n not dividing a
    # (else b | n**(e-1) too), unless e == 0.
    e, power = 0, 1
    while power % b:
        power *= n
        e += 1
    return NAdic(n, q.numerator * (power // b), e)


def is_nadic(q, n: int) -> bool:
    """Whether q lies in Z[1/n]: its denominator divides a power of n."""
    if n < 2:
        raise ValueError("base must be at least 2")
    return is_smooth(as_fraction(q).denominator, n)


def digit_class(q, n: int) -> int:
    """Digit-sum residue of q modulo n-1 (the casting-out-nines value).

    Defined on Z[1/n] only; this is the unique ring homomorphism onto the
    integers mod n-1 sending n to 1, so a / n**e maps to a mod (n-1).
    For n == 2 the value is always 0.
    """
    nad = q if isinstance(q, NAdic) and q.base == n else to_nadic(q, n)
    if nad is None:
        raise ValueError(f"digit_class needs a base-{n} fraction, got {q}")
    if n == 2:
        return 0
    return nad.mantissa % (n - 1)


def reduce_to_circle(q, r: int) -> Fraction:
    """Reduce a rational modulo the integer circumference r into [0, r)."""
    q = as_fraction(q)
    return q - (q // r) * r


def keep_last_digits(q, k: int, n: int) -> NAdic:
    """Drop all but the last k base-n digits of a circle point.

    The point lives on the circle of circumference n-1 and must have
    exponent at least k; the result is the point's image under e-k
    applications of the multiply-by-n circle map, where e is its exponent.
    For a / n**e this is (a mod (n-1)·n**k) / n**k, re-canonicalised.
    """
    if k < 0:
        raise ValueError("digit count must be nonnegative")
    nad = q if isinstance(q, NAdic) and q.base == n else to_nadic(q, n)
    if nad is None:
        raise ValueError(f"keep_last_digits needs a base-{n} fraction, got {q}")
    r = n - 1
    if not (0 <= nad.value < r):
        raise ValueError(f"point must lie on the circle [0, {r})")
    if nad.exponent < k:
        raise ValueError(
            f"point has exponent {nad.exponent}, below the requested {k} digits"
        )
    reduced = nad.mantissa % (r * n**k)
    shifted = Fraction(reduced, n**k)
    result = to_nadic(shifted, n)
    assert result is not None
    return result
