"""Exact scalar arithmetic: Bernoulli numbers and even zeta values.

Rational values are stdlib ``fractions.Fraction`` objects, which are always
kept in canonical form (reduced, positive denominator, 0 == 0/1).  This
module adds the number-theoretic constants the identity checks consume and
the float conversion shared by the rest of the package; no complex value is
needed.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "ZetaEven",
    "bernoulli",
    "zeta_even",
    "to_float",
]


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


class ZetaEven:
    """Exact value rational_part * pi**pi_power (pi_power even, >= 2).

    Keeping pi symbolic lets the moment checks separate the exact rational
    content from the single transcendental factor.  Instances are immutable and
    hashable, and compare by their two fields.
    """

    __slots__ = ("rational_part", "pi_power")

    def __init__(self, rational_part: Fraction | int, pi_power: int) -> None:
        object.__setattr__(self, "rational_part", _as_fraction(rational_part))
        if pi_power < 2 or pi_power % 2 != 0:
            raise ValueError("pi_power must be an even integer >= 2")
        object.__setattr__(self, "pi_power", pi_power)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("ZetaEven is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZetaEven):
            return NotImplemented
        return self.rational_part == other.rational_part and self.pi_power == other.pi_power

    def __hash__(self) -> int:
        return hash((self.rational_part, self.pi_power))

    def __repr__(self) -> str:
        return f"ZetaEven(rational_part={self.rational_part!r}, pi_power={self.pi_power!r})"

    def scaled(self, factor: Fraction | int) -> "ZetaEven":
        """Same pi power, rational part multiplied by an exact factor."""
        return ZetaEven(self.rational_part * _as_fraction(factor), self.pi_power)

    def __str__(self) -> str:
        return f"{self.rational_part}*pi^{self.pi_power}"


_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2), memoized.

    Computed from the defining recurrence sum_{k=0}^{m-1} C(m+1,k) B_k
    = -(m+1) B_m.  Only even indices feed the downstream identities, so the
    B_1 convention is inert there.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n % 2 == 1 and n > 1:
        return Fraction(0)
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * _BERNOULLI[k]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def zeta_even(n: int) -> ZetaEven:
    """Exact zeta(n) for even n >= 2 via Euler's formula.

    zeta(2k) = (-1)^(k+1) B_{2k} (2 pi)^(2k) / (2 (2k)!), returned as the
    (rational, pi-power) pair.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("zeta_even is defined for even arguments >= 2 only")
    k = n // 2
    rational = (-1) ** (k + 1) * bernoulli(2 * k) * Fraction(2**(2 * k), 2 * math.factorial(2 * k))
    return ZetaEven(rational, 2 * k)


def to_float(x: Fraction | ZetaEven | int) -> float:
    """Nearest double for an exact value.

    Fraction conversion is correctly rounded (big-int true division);
    ZetaEven uses the machine-precision pi constant.  Values beyond double
    range raise OverflowError.
    """
    if isinstance(x, ZetaEven):
        return float(x.rational_part) * math.pi**x.pi_power
    if isinstance(x, (Fraction, int)):
        return float(x)
    raise TypeError(f"cannot convert {type(x).__name__} to float exactly")
