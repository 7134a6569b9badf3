"""Dense exact polynomials in x and truncated formal power series in t.

Poly is the coefficient workhorse: an ascending-degree tuple over Fraction
(or GaussRational after a complex shift), trimmed so the zero polynomial is
the empty tuple.  PolySeries is a power series in t whose coefficients are
Poly values in x; the truncation order is fixed at construction and every
binary operation propagates the minimum of the operand orders, so precision
loss is explicit instead of silent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .exactnum import GaussRational, bernoulli

__all__ = ["Poly", "PolySeries", "X", "elementary"]


def _norm_coeff(c):
    if isinstance(c, (Fraction, GaussRational)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"polynomial coefficients must be exact, got {type(c).__name__}")


def _is_scalar(v) -> bool:
    return isinstance(v, (int, Fraction, GaussRational))


class Poly:
    """Dense univariate polynomial with exact coefficients.

    Coefficients are stored in ascending degree with trailing zeros removed;
    the zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()) -> None:
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value) -> None:
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_real(self) -> bool:
        """True when no coefficient carries an imaginary component."""
        return all(not isinstance(c, GaussRational) or c.is_real for c in self.coeffs)

    @property
    def leading_coefficient(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coefficient(self, k: int):
        """Coefficient of x**k (zero beyond the stored degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        if _is_scalar(other):
            return Poly([c * other for c in self.coeffs])
        return NotImplemented

    def __rmul__(self, other):
        if _is_scalar(other):
            return Poly([other * c for c in self.coeffs])
        return NotImplemented

    def __truediv__(self, scalar):
        if not _is_scalar(scalar):
            return NotImplemented
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        return Poly([c / scalar for c in self.coeffs])

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out = Poly([1])
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, x):
        """Horner evaluation; exact for exact inputs, float for floats."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self, k: int = 1) -> "Poly":
        """Exact k-th derivative; k beyond the degree gives the zero polynomial."""
        if k < 0:
            raise ValueError("derivative order must be non-negative")
        cs = self.coeffs
        for _ in range(k):
            if len(cs) <= 1:
                return Poly()
            cs = tuple(j * c for j, c in enumerate(cs) if j >= 1)
        return Poly(cs)

    def shift(self, a) -> "Poly":
        """p(x + a), expanded exactly (Horner in the shifted variable)."""
        a = _norm_coeff(a)
        if not a:
            return self
        base = Poly([a, 1])
        res = Poly()
        for c in reversed(self.coeffs):
            res = res * base + Poly([c])
        return res

    def to_strings(self) -> list[str]:
        """Ascending-degree "num/den" strings; rejects Gaussian coefficients."""
        out = []
        for c in self.coeffs:
            if isinstance(c, GaussRational):
                if not c.is_real:
                    raise ValueError("cannot serialize a non-real coefficient as num/den")
                c = c.re
            out.append(str(c))
        return out

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "Poly":
        return cls([Fraction(s) for s in items])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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


class PolySeries:
    """Power series in t, truncated at an exclusive order, with Poly coefficients.

    The invariant len(coeffs) == order always holds; reading at or beyond the
    truncation order is an error rather than an implicit zero, and binary
    operations truncate to the smaller operand order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()) -> None:
        if order < 1:
            raise ValueError("series order must be at least 1")
        cs = [c if isinstance(c, Poly) else Poly([c]) for c in coeffs]
        if len(cs) > order:
            raise ValueError("more coefficients than the truncation order allows")
        cs.extend(Poly() for _ in range(order - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value) -> None:
        raise AttributeError("PolySeries is immutable")

    @classmethod
    def one(cls, order: int) -> "PolySeries":
        return cls(order, [Poly([1])])

    def coeff(self, n: int) -> Poly:
        """Coefficient of t**n; reading beyond the truncation order is an error."""
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient t^{n} is beyond truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def truncate(self, order: int) -> "PolySeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return PolySeries(order, self.coeffs[:order])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __iter__(self) -> Iterator[Poly]:
        return iter(self.coeffs)

    def __add__(self, other: "PolySeries") -> "PolySeries":
        if not isinstance(other, PolySeries):
            return NotImplemented
        m = min(self.order, other.order)
        return PolySeries(m, [a + b for a, b in zip(self.coeffs[:m], other.coeffs[:m])])

    def __sub__(self, other: "PolySeries") -> "PolySeries":
        if not isinstance(other, PolySeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "PolySeries":
        return PolySeries(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, PolySeries):
            m = min(self.order, other.order)
            out = []
            for n in range(m):
                acc = Poly()
                for k in range(n + 1):
                    acc = acc + self.coeffs[k] * other.coeffs[n - k]
                out.append(acc)
            return PolySeries(m, out)
        if isinstance(other, Poly) or _is_scalar(other):
            return PolySeries(self.order, [c * other for c in self.coeffs])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Poly) or _is_scalar(other):
            return PolySeries(self.order, [other * c for c in self.coeffs])
        return NotImplemented

    def reciprocal(self) -> "PolySeries":
        """Multiplicative inverse; the t^0 coefficient must be a nonzero constant."""
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise ZeroDivisionError("series with zero constant term has no reciprocal")
        if c0.degree > 0:
            raise ValueError("series reciprocal requires a constant t^0 coefficient")
        inv0 = Fraction(1) / c0.coeffs[0]
        out = [Poly([inv0])]
        for n in range(1, self.order):
            acc = Poly()
            for k in range(1, n + 1):
                acc = acc + self.coeffs[k] * out[n - k]
            out.append(acc * (-inv0))
        return PolySeries(self.order, out)

    def __truediv__(self, other):
        if isinstance(other, PolySeries):
            m = min(self.order, other.order)
            return self.truncate(m) * other.truncate(m).reciprocal()
        if _is_scalar(other):
            if isinstance(other, int):
                other = Fraction(other)
            return PolySeries(self.order, [c / other for c in self.coeffs])
        return NotImplemented

    def exp(self) -> "PolySeries":
        """Series exponential of a series with zero constant term.

        Uses the derivative recurrence n*f_n = sum_{k=1..n} k*u_k*f_{n-k},
        which keeps the cost quadratic in the order.
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("exp requires a series with zero constant term")
        out = [Poly([1])]
        for n in range(1, self.order):
            acc = Poly()
            for k in range(1, n + 1):
                acc = acc + (k * self.coeffs[k]) * out[n - k]
            out.append(acc / Fraction(n))
        return PolySeries(self.order, out)

    def compose(self, inner: "PolySeries") -> "PolySeries":
        """self(inner(t)); the inner series must have zero constant term."""
        if not inner.coeffs[0].is_zero():
            raise ValueError("composition requires an inner series with zero constant term")
        m = min(self.order, inner.order)
        inner = inner.truncate(m)
        res = PolySeries(m)
        for c in reversed(self.coeffs[:m]):
            res = res * inner + PolySeries(m, [c])
        return res

    def scale_t(self, factor) -> "PolySeries":
        """Substitute t -> factor*t for an exact scalar factor."""
        factor = _norm_coeff(factor)
        out, power = [], Fraction(1)
        for c in self.coeffs:
            out.append(c * power)
            power = power * factor
        return PolySeries(self.order, out)

    def divide_by_t(self) -> "PolySeries":
        """Exact division by t; the constant coefficient must vanish."""
        if not self.coeffs[0].is_zero():
            raise ValueError("series is not divisible by t: nonzero constant term")
        if self.order < 2:
            raise ValueError("dividing by t needs order at least 2")
        return PolySeries(self.order - 1, self.coeffs[1:])

    def divide_coeffs_by_x(self) -> "PolySeries":
        """Exact coefficient-wise division by x; every Poly must vanish at 0."""
        out = []
        for n, p in enumerate(self.coeffs):
            if p.coeffs and p.coeffs[0]:
                raise ValueError(f"t^{n} coefficient is not divisible by x")
            out.append(Poly(p.coeffs[1:]))
        return PolySeries(self.order, out)

    def dx(self) -> "PolySeries":
        """Coefficient-wise derivative in x."""
        return PolySeries(self.order, [p.derivative() for p in self.coeffs])

    def __repr__(self) -> str:
        terms = ", ".join(f"t^{n}: {p}" for n, p in enumerate(self.coeffs) if not p.is_zero())
        return f"PolySeries(order={self.order}, {{{terms or '0'}}})"


def elementary(kind: str, order: int) -> PolySeries:
    """Exact truncated series with constant coefficients for the four base maps.

    arctan_half  2*arctan(t/2)   = t - t^3/12 + t^5/80 - ...
    artanh       2*artanh(t)     = 2t + 2t^3/3 + 2t^5/5 + ...
    tan_half     2*tan(t/2)      = t + t^3/12 + t^5/120 + ... (Bernoulli form)
    log_ratio    log(1+t) - log(1-t), assembled termwise from the two logs

    log_ratio coincides with artanh as a mathematical fact, but it is built
    from an independent pair of log expansions so the two can cross-check
    each other.  An order below 1 is refused by the PolySeries it builds.
    """
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
    return PolySeries(order, [Poly([c]) for c in cs])
