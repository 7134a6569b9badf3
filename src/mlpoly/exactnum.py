"""Exact scalar arithmetic: Bernoulli numbers and even zeta values.

Rational values are stdlib ``fractions.Fraction`` objects, which are always
kept in canonical form (reduced, positive denominator, 0 == 0/1).  This
module adds the number-theoretic constants the identity and moment checks
consume.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["bernoulli", "zeta_even"]


_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2), memoized.

    Computed from the defining recurrence sum_{k=0}^{m-1} C(m+1,k) B_k
    = -(m+1) B_m, with B_m = 0 for odd m > 1 stored as such and left out of
    the sums.  Only even indices feed the downstream identities, so the
    B_1 convention is inert there.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n % 2 == 1 and n > 1:
        return Fraction(0)
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        if m % 2 == 1 and m > 1:
            _BERNOULLI.append(Fraction(0))
            continue
        acc = Fraction(0)
        for k in range(m):
            if k < 2 or k % 2 == 0:  # B_k = 0 at the odd k > 1
                acc += math.comb(m + 1, k) * _BERNOULLI[k]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def zeta_even(n: int) -> Fraction:
    """Exact zeta(n)/pi^n for even n >= 2 via Euler's formula.

    zeta(2k) = (-1)^(k+1) B_{2k} (2 pi)^(2k) / (2 (2k)!), so the rational
    coefficient of pi^n is returned and the caller, which holds n, keeps the
    power.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("zeta_even is defined for even arguments >= 2 only")
    k = n // 2
    return (-1) ** (k + 1) * bernoulli(2 * k) * Fraction(2**(2 * k), 2 * math.factorial(2 * k))
