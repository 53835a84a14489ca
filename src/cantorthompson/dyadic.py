"""Exact dyadic rationals k/2^n, standard dyadic intervals and binary addresses.

This is the numeric substrate for the tree-pair machinery: every breakpoint,
offset and interval endpoint downstream is a :class:`Dyadic`.  All arithmetic
is exact on arbitrary-precision integers; there is no float anywhere here.

Addresses are strings over ``{L, R}`` read from the root: ``L`` descends to
the left half, ``R`` to the right half, the empty string is [0, 1].
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


@total_ordering
class Dyadic:
    """Exact dyadic rational num/2^exp in canonical form (num odd or exp = 0)."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            raise ValueError("exponent must be >= 0")
        num = int(num)
        if exp > 0:
            # strip the common factors of 2 in one shift (zero becomes 0/2^0)
            shift = exp if num == 0 else min(exp, (num & -num).bit_length() - 1)
            num >>= shift
            exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    # -- arithmetic (always exact, result canonical) --

    @staticmethod
    def _coerce(x) -> "Dyadic":
        if isinstance(x, Dyadic):
            return x
        if isinstance(x, int):
            return Dyadic(x)
        raise TypeError(f"cannot coerce {x!r} to Dyadic")

    def __add__(self, other):
        other = self._coerce(other)
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) - (other.num << (e - other.exp)), e)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __eq__(self, other):
        if isinstance(other, (Dyadic, int)):
            other = self._coerce(other)
            return self.num == other.num and self.exp == other.exp
        if isinstance(other, Fraction):
            return self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, (Dyadic, int)):
            other = self._coerce(other)
            e = max(self.exp, other.exp)
            return (self.num << (e - self.exp)) < (other.num << (e - other.exp))
        if isinstance(other, Fraction):
            return self.as_fraction() < other
        return NotImplemented

    def __hash__(self):
        return hash(self.as_fraction())

    def __bool__(self):
        return self.num != 0

    # -- conversions --

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self):
        return self.num / (1 << self.exp)

    def half(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    def __str__(self):
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse "k", "k/2^n" or "k/m" with m a power of two (e.g. "3/4")."""
        text = text.strip()
        if "/" not in text:
            return cls(int(text))
        top, bottom = text.split("/", 1)
        if bottom.startswith("2^"):
            return cls(int(top), int(bottom[2:]))
        den = int(bottom)
        exp = den.bit_length() - 1
        if den <= 0 or den != 1 << exp:
            raise ValueError(f"denominator of {text!r} is not a positive power of two")
        return cls(int(top), exp)

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "Dyadic":
        exp = fr.denominator.bit_length() - 1
        if fr.denominator != 1 << exp:
            raise ValueError(f"{fr} is not dyadic")
        return cls(fr.numerator, exp)

    def to_json(self) -> dict:
        return {"num": self.num, "exp": self.exp}

    @classmethod
    def from_json(cls, obj: dict) -> "Dyadic":
        return cls(obj["num"], obj["exp"])


ZERO = Dyadic(0)
ONE = Dyadic(1)


class DyadicInterval:
    """Closed interval [lo, hi] with dyadic endpoints, lo < hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        lo = Dyadic._coerce(lo)
        hi = Dyadic._coerce(hi)
        if not lo < hi:
            raise ValueError(f"not an interval: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicInterval is immutable")

    @property
    def width(self) -> Dyadic:
        return self.hi - self.lo

    @property
    def is_standard(self) -> bool:
        """True iff equal to [k/2^n, (k+1)/2^n] for some n >= 0, 0 <= k < 2^n."""
        w = self.width
        if w.num != 1:
            return False
        n = w.exp
        lo = self.lo
        # lo must be k/2^n with 0 <= k <= 2^n - 1
        if lo.exp > n or lo < 0 or not self.hi <= ONE:
            return False
        return True

    def __eq__(self, other):
        return isinstance(other, DyadicInterval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"

    __repr__ = __str__


UNIT = DyadicInterval(ZERO, ONE)


def _check_address(address: str) -> str:
    if any(c not in "LR" for c in address):
        raise ValueError(f"address {address!r} must be over {{L, R}}")
    return address


def interval_of_address(address: str) -> DyadicInterval:
    """Standard dyadic interval reached from [0,1] by halving along the address."""
    _check_address(address)
    n = len(address)
    k = 0
    for c in address:
        k = 2 * k + (1 if c == "R" else 0)
    return DyadicInterval(Dyadic(k, n), Dyadic(k + 1, n))


def address_of_interval(interval: DyadicInterval) -> str:
    """Inverse of :func:`interval_of_address`; raises NotStandard otherwise."""
    from .errors import NotStandard

    if not interval.is_standard:
        raise NotStandard(f"{interval} is not a standard dyadic interval")
    n = interval.width.exp
    k = interval.lo.num << (n - interval.lo.exp)
    return "".join("R" if (k >> (n - 1 - i)) & 1 else "L" for i in range(n))
