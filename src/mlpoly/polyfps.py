"""Dense exact polynomials in x and truncated formal power series in t.

Poly is the coefficient workhorse, a polynomial with rational coefficients.  It
stores one canonical integer form: the numerators and one positive common
denominator, trimmed so the zero polynomial is the empty tuple over 1, with the
gcd of all those integers equal to 1.  Equality and hashing therefore compare two
fields, and the kernel (`combine`, one sum of scaled products over one common
denominator that every sum, product and scaling goes through; the additions-only
Taylor shift; Horner evaluation) runs on Python integers.
Fraction appears only at the edges: the constructor accepts int and Fraction
coefficients, and `coeffs`, `coefficient` and the string forms hand them out.
A power series in t truncated at order m is the tuple of its m coefficients, Poly
values in x: its order is its length, coefficient n is item n, and a truncation is a
slice.  `series_exp` and `elementary` return such tuples, and `divide_by_x` divides
one coefficient by x exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .exactnum import bernoulli

__all__ = ["Poly", "X", "combine", "divide_by_x", "elementary", "horner", "series_exp"]


def _is_scalar(v) -> bool:
    return isinstance(v, (int, Fraction))


def _parts(c) -> tuple[int, int]:
    """(num, den) with c = num/den and den > 0, for a rational scalar c."""
    if isinstance(c, int):
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    raise TypeError(f"polynomial coefficients must be exact rationals, got {type(c).__name__}")


def _addmul(acc: list[int], a, b) -> None:
    """acc += a*b in place, a*b the product (schoolbook convolution) of two integer
    coefficient sequences; acc grows where it is shorter than the product."""
    lb = len(b)
    for i, x in enumerate(a):
        if x:
            if len(acc) < i:
                acc.extend([0] * (i - len(acc)))
            k = min(len(acc) - i, lb)  # the overlap, added; the rest of the row, appended
            if k:
                acc[i:i + k] = [o + x * y for o, y in zip(acc[i:i + k], b)]
            if k < lb:
                acc.extend([x * y for y in b[k:]])


def _shift_one(cs: list[int]) -> list[int]:
    """Coefficients of f(x + 1) from those of f, by n(n+1)/2 integer additions.

    Pass i replaces c_j (j >= i) by the suffix sum c_j + c_{j+1} + ... + c_n,
    which is the inner loop c_j += c_{j+1}, j = n-1 .. i, of the classical
    Taylor shift (von zur Gathen & Gerhard, ISSAC 1997).
    """
    c = list(cs)
    for i in range(len(c) - 1):
        c[i:] = reversed(list(accumulate(reversed(c[i:]))))
    return c


def horner(cs, p: int, q: int) -> int:
    """q^deg * sum_k cs[k] (p/q)^k, for integer cs, p and q, deg = len(cs) - 1: the value at
    p/q of the integer polynomial with coefficients cs, scaled to an integer."""
    acc = 0
    if q == 1:  # an integer point: q^k = 1, so no bookkeeping
        for c in reversed(cs):
            acc = acc * p + c
        return acc
    qk = 1
    for c in reversed(cs):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _make(num: list[int], den: int) -> "Poly":
    """The canonical Poly of num/den for den > 0, taking over the list num."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return _raw((), 1)
    g = math.gcd(den, *num)
    if g != 1:
        den //= g
        num = [c // g for c in num]
    return _raw(tuple(num), den)


def _raw(num: tuple, den: int) -> "Poly":
    p = object.__new__(Poly)
    object.__setattr__(p, "_num", num)
    object.__setattr__(p, "_den", den)
    return p


# the integer numerators of the constant 1, the other factor of a term (c, p)
_UNIT = (1,)


def combine(terms: Iterable[tuple], over: int = 1) -> "Poly":
    """The sum of c p, or of c p q, over terms (c, p) and (c, p, q), divided by the positive
    integer over: c a rational scalar, p and q Poly values.

    The one kernel of Poly arithmetic.  Every term is put over the lcm of the term
    denominators, its scalar is folded into its shorter factor (a term (c, p) is a scaled
    add of p's numerators), the integer products are summed into one accumulator, which
    the first live term starts, and the sum is put in canonical form once, where pairwise
    Poly operations would run a gcd pass per term.
    """
    live = []
    for term in terms:
        c = term[0]
        r, d = (c, 1) if isinstance(c, int) else _parts(c)
        if not r:
            continue
        p = term[1]
        if len(term) == 2:
            if p._num:
                live.append((r, d * p._den, _UNIT, p._num))
            continue
        q = term[2]
        if p._num and q._num:
            if len(q._num) < len(p._num):
                p, q = q, p
            live.append((r, d * p._den * q._den, p._num, q._num))
    if not live:
        return _raw((), 1)
    den = live[0][1] if len(live) == 1 else math.lcm(*[t[1] for t in live])
    acc: list[int] = []
    for r, d, a, b in live:
        r *= den // d
        if a is not _UNIT:
            _addmul(acc, a if r == 1 else [r * x for x in a], b)
        elif not acc:
            acc = list(b) if r == 1 else [r * y for y in b]
        else:
            k = min(len(acc), len(b))
            acc[:k] = [o + r * y for o, y in zip(acc, b)]
            acc.extend([r * y for y in b[k:]])
    return _make(acc, den * over)


class Poly:
    """Dense univariate polynomial with exact coefficients.

    Stored as integer numerators over one positive denominator in lowest
    terms, trailing zeros removed; the zero polynomial has no coefficients and
    degree -1.  Instances are immutable and hashable, and equal polynomials
    have equal fields.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable = ()) -> None:
        parts = [_parts(c) for c in coeffs]
        den = math.lcm(*(d for _, d in parts)) if parts else 1
        canon = _make([r * (den // d) for r, d in parts], den)
        object.__setattr__(self, "_num", canon._num)
        object.__setattr__(self, "_den", canon._den)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple:
        """Ascending-degree coefficients as Fractions."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def numerators(self) -> tuple[int, ...]:
        """Ascending-degree integer numerators, over `denominator`."""
        return self._num

    @property
    def denominator(self) -> int:
        """The one positive denominator of every coefficient, in lowest terms."""
        return self._den

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial reports -1."""
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, k: int):
        """Coefficient of x**k (zero beyond the stored degree)."""
        if not 0 <= k < len(self._num):
            return Fraction(0)
        return Fraction(self._num[k], self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return combine(((1, self), (1, other)))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return combine(((1, self), (-1, other)))

    def __neg__(self) -> "Poly":
        return _raw(tuple(-c for c in self._num), self._den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return combine(((1, self, other),))
        if _is_scalar(other):
            return combine(((other, self),))
        return NotImplemented

    def __rmul__(self, other):
        if _is_scalar(other):
            return combine(((other, self),))
        return NotImplemented

    def __truediv__(self, scalar):
        if not _is_scalar(scalar):
            return NotImplemented
        r, d = _parts(scalar)
        if not r:
            raise ZeroDivisionError("polynomial division by zero")
        return combine(((Fraction(d, r), self),))

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out = Poly([1])
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, x):
        """Horner evaluation; exact for exact inputs, float for floats.

        At an int or Fraction p/q the Horner sum runs on the integers scaled
        by q^deg and one Fraction is built at the end; at any other point, a
        float say, it runs over the correctly rounded quotients num/den.
        """
        num, den = self._num, self._den
        if isinstance(x, (int, Fraction)):
            if not num:
                return Fraction(0)
            p, q = x.numerator, x.denominator
            return Fraction(horner(num, p, q), den * q ** (len(num) - 1))
        acc = x * 0
        for c in reversed(num):
            acc = acc * x + c / den
        return acc

    def derivative(self, k: int = 1) -> "Poly":
        """Exact k-th derivative; k beyond the degree gives the zero polynomial."""
        if k < 0:
            raise ValueError("derivative order must be non-negative")
        if k == 0:
            return self
        factors = [math.perm(j, k) for j in range(k, len(self._num))]  # j!/(j-k)!
        return _make([f * c for f, c in zip(factors, self._num[k:])], self._den)

    def shift(self, a) -> "Poly":
        """p(x + a), expanded exactly, for a rational a.

        With a = w/q (q > 0): the numerators of q^deg p(a x) are shifted by 1
        with integer additions only, and coefficient k of the result is then
        multiplied by (q/w)^k, an exact division.
        """
        w, q = _parts(a)
        n = self.degree
        if not w or n < 1:
            return self
        cs = list(self._num)
        wk, qk = 1, q ** n  # w^k and q^(n-k), walked up and down together
        for k in range(n + 1):
            cs[k] *= wk * qk
            wk, qk = wk * w, qk // q
        cs = _shift_one(cs)
        wk, qk = 1, 1
        for k in range(n + 1):
            cs[k] = cs[k] * qk // wk
            wk, qk = wk * w, qk * q
        return _make(cs, self._den * q ** n)

    def to_strings(self) -> list[str]:
        """Ascending-degree "num/den" strings: Fraction's str, without building one per
        coefficient."""
        den = self._den
        if den == 1:
            return list(map(str, self._num))
        out = []
        for c in self._num:
            if not c:
                out.append("0")
                continue
            g = math.gcd(c, den)
            out.append(str(c // g) if den == g else f"{c // g}/{den // g}")
        return out

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if not c:
                continue
            if k == 0:
                term = str(c)
            else:
                mag = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                term = f"{mag}x" if k == 1 else f"{mag}x^{k}"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term.lstrip("-"))
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


X = Poly((0, 1))


def series_exp(u: Sequence[Poly]) -> tuple[Poly, ...]:
    """exp(u) for a series u in t with zero constant term, truncated where u is.

    Uses the derivative recurrence n*f_n = sum_{k=1..n} k*u_k*f_{n-k},
    which keeps the cost quadratic in the order: each f_n is one combine of the
    integer-weighted terms, divided by n once.
    """
    if u[0]._num:
        raise ValueError("exp requires a series with zero constant term")
    out = [Poly([1])]
    for n in range(1, len(u)):
        out.append(combine(((k, u[k], out[n - k]) for k in range(1, n + 1)), n))
    return tuple(out)


def divide_by_x(p: Poly) -> Poly:
    """p / x, exactly; p must vanish at 0."""
    if p._num and p._num[0]:
        raise ValueError("polynomial is not divisible by x: nonzero constant term")
    # dropping a zero constant term keeps the canonical form
    return _raw(p._num[1:], p._den)


def elementary(kind: str, order: int) -> tuple[Poly, ...]:
    """Exact truncated series with constant coefficients for the four base maps.

    arctan_half  2*arctan(t/2)   = t - t^3/12 + t^5/80 - ...
    artanh       2*artanh(t)     = 2t + 2t^3/3 + 2t^5/5 + ...
    tan_half     2*tan(t/2)      = t + t^3/12 + t^5/120 + ... (Bernoulli form)
    log_ratio    log(1+t) - log(1-t), assembled termwise from the two logs

    log_ratio coincides with artanh as a mathematical fact, but it is built
    from an independent pair of log expansions so the two can cross-check
    each other.  An order below 1 is refused.
    """
    if order < 1:
        raise ValueError("series order must be at least 1")
    cs: list[Fraction] = [Fraction(0)] * order
    if kind == "arctan_half":
        for k in range(order // 2 + 1):
            m = 2 * k + 1
            if m < order:
                cs[m] = Fraction((-1) ** k, 4**k * (2 * k + 1))
    elif kind == "artanh":
        for m in range(1, order, 2):
            cs[m] = Fraction(2, m)
    elif kind == "tan_half":
        k = 1
        while 2 * k - 1 < order:
            num = (-1) ** (k - 1) * 4 * (4**k - 1) * bernoulli(2 * k)
            cs[2 * k - 1] = num / math.factorial(2 * k)
            k += 1
    elif kind == "log_ratio":
        for m in range(1, order):
            log_plus = Fraction((-1) ** (m - 1), m)
            log_minus = Fraction(-1, m)
            cs[m] = log_plus - log_minus
    else:
        raise ValueError(f"unknown elementary series kind: {kind!r}")
    return tuple(Poly([c]) for c in cs)
