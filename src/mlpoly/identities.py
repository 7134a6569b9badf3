"""Differential and operator identities for the monic reduced family.

Everything in this module is exact: operator series applied to a polynomial
are truncated at its degree, where they terminate by nilpotence, so each
check is a yes/no statement about polynomial residuals with no tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polyfps import Poly, PolySeries, X, elementary
from .report import CheckReport, CheckStatus, aggregate
from .sequences import SeqKind, generate, monic_egf

__all__ = [
    "OdeCoeffs",
    "TuranValue",
    "ode_coeffs",
    "ode_residual",
    "trig_operator_apply",
    "trig_operator_eigencheck",
    "derivative_expansion_monic",
    "derivative_expansion_reduced_audit",
    "convolution_residual",
    "egf_pde_residual",
    "turan",
    "turan_recurrence_check",
    "lowering_apply",
    "lowering_check",
]

# cos(k*pi/2) and sin(k*pi/2) take only the values 0 and +-1, with period 4
_ALPHA_CYCLE = (Fraction(1), Fraction(0), Fraction(-1), Fraction(0))
_BETA_CYCLE = (Fraction(0), Fraction(1), Fraction(0), Fraction(-1))


@dataclass(frozen=True)
class OdeCoeffs:
    """Coefficients (alpha_k + beta_k x) of the n-th order equation, k = 1..n."""

    n: int
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]


@dataclass(frozen=True)
class TuranValue:
    n: int
    delta: Poly


def ode_coeffs(n: int) -> OdeCoeffs:
    if n < 1:
        raise ValueError("the equation order starts at n = 1")
    alpha = tuple(_ALPHA_CYCLE[k % 4] for k in range(1, n + 1))
    beta = tuple(_BETA_CYCLE[k % 4] for k in range(1, n + 1))
    return OdeCoeffs(n, alpha, beta)


def ode_residual(n: int) -> Poly:
    """sum_{k=1..n} (alpha_k + beta_k x) p_n^(k) / k! - n p_n; contract: zero."""
    co = ode_coeffs(n)
    p = generate(SeqKind.PHI_MONIC, n)[n]
    acc = Poly()
    dk = p
    for k in range(1, n + 1):
        dk = dk.derivative()
        weight = Poly([co.alpha[k - 1], co.beta[k - 1]])
        acc = acc + (weight * dk) / Fraction(math.factorial(k))
    return acc - n * p


def trig_operator_apply(p: Poly) -> Poly:
    """(cos D + x sin D) p, with both series truncated at deg p by nilpotence."""
    cos_part = Poly()
    sin_part = Poly()
    dk = p
    k = 0
    while not dk.is_zero():
        term = dk / Fraction(math.factorial(k))
        if k % 2 == 0:
            cos_part = cos_part + (-1) ** (k // 2) * term
        else:
            sin_part = sin_part + (-1) ** ((k - 1) // 2) * term
        dk = dk.derivative()
        k += 1
    return cos_part + X * sin_part


def trig_operator_eigencheck(n_max: int) -> CheckReport:
    """(cos D + x sin D) p_n = (n+1) p_n exactly for 0 <= n <= n_max."""
    if n_max < 0:
        raise ValueError("index must be non-negative")
    tab = generate(SeqKind.PHI_MONIC, n_max)
    return aggregate("trig-operator-eigenrelation", 0, n_max,
                     lambda n: trig_operator_apply(tab[n]) == (n + 1) * tab[n],
                     "(cos D + x sin D) p_n = (n+1) p_n exactly")


def derivative_expansion_monic(n_max: int) -> CheckReport:
    """p'_{n+1} = sum_k (-1)^k C(n+1, 2k+1) (2k)!/2^(2k) p_{n-2k} exactly for 0 <= n <= n_max."""
    if n_max < 0:
        raise ValueError("index must be non-negative")
    tab = generate(SeqKind.PHI_MONIC, n_max + 1)

    def holds(n: int) -> bool:
        rhs = Poly()
        for k in range(n // 2 + 1):
            coeff = Fraction((-1) ** k * math.comb(n + 1, 2 * k + 1) * math.factorial(2 * k), 4**k)
            rhs = rhs + coeff * tab[n - 2 * k]
        return tab[n + 1].derivative() == rhs

    return aggregate("derivative-expansion-monic", 0, n_max, holds,
                     "monic derivative expansion holds exactly")


def derivative_expansion_reduced_audit(n_max: int) -> CheckReport:
    """Audit the reduced-family derivative expansion: printed vs corrected form.

    Printed form:   phi'_n = 2 sum_k (-1)^k/(2k+1) phi_{n-2k}
    Corrected form: phi'_{n+1} = (2/(n+2)) sum_k (-1)^k (n-2k+1)/(2k+1) phi_{n-2k}

    Both are evaluated exactly for every n in range; the report states which
    one holds.  The corrected form is what the monic expansion becomes under
    the leading-coefficient rescaling, so it is a derived candidate, not a
    quotation.
    """
    if n_max < 1:
        raise ValueError("need at least n = 1")
    tab = generate(SeqKind.PHI, n_max + 1)

    def first_failure(shift: int, coeff) -> tuple[int | None, Poly | None]:
        """First n whose phi'_{n+shift} differs from sum_k coeff(n, k) phi_{n-2k}."""
        for n in range(1, n_max + 1):
            rhs = Poly()
            for k in range(n // 2 + 1):
                rhs = rhs + coeff(n, k) * tab[n - 2 * k]
            r = tab[n + shift].derivative() - rhs
            if not r.is_zero():
                return n, r
        return None, None

    printed_first_fail, printed_residual = first_failure(
        0, lambda n, k: Fraction(2 * (-1) ** k, 2 * k + 1))
    corrected_fail, _ = first_failure(
        1, lambda n, k: Fraction(2 * (-1) ** k * (n - 2 * k + 1), (n + 2) * (2 * k + 1)))

    if printed_first_fail is None and corrected_fail is None:
        note = f"both printed and corrected forms hold exactly for 1 <= n <= {n_max}"
    elif printed_first_fail is not None and corrected_fail is None:
        note = (f"printed form fails at n = {printed_first_fail} "
                f"(residual {printed_residual}); "
                f"index-shifted corrected form holds exactly for 1 <= n <= {n_max}")
    else:
        note = (f"printed form first fails at n = {printed_first_fail}; "
                f"corrected form fails at n = {corrected_fail}")
    return CheckReport("derivative-expansion-reduced", (1, n_max), CheckStatus.AUDITED,
                       residual=printed_residual, note=note)


def convolution_residual(n: int) -> Poly:
    """sum_k [p''_k p_{n-k} - p'_k p'_{n-k}] / (k! (n-k)!); contract: zero."""
    if n < 1:
        raise ValueError("index must be at least 1")
    tab = generate(SeqKind.PHI_MONIC, n)
    acc = Poly()
    for k in range(n + 1):
        weight = Fraction(1, math.factorial(k) * math.factorial(n - k))
        term = tab[k].derivative(2) * tab[n - k] - tab[k].derivative() * tab[n - k].derivative()
        acc = acc + weight * term
    return acc


def egf_pde_residual(order: int) -> PolySeries:
    """G * G_xx - (G_x)^2 for the monic exponential generating series; contract: zero."""
    if order < 2:
        raise ValueError("order must be at least 2")
    g = monic_egf(order)
    gx = g.dx()
    return g * gx.dx() - gx * gx


def turan(n: int) -> TuranValue:
    """delta_n = p_n^2 - p_{n-1} p_{n+1} over the monic reduced family.

    The n = 0 member uses the empty-product convention p_{-1} = 0, giving
    delta_0 = 1.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    tab = generate(SeqKind.PHI_MONIC, n + 1)
    if n == 0:
        return TuranValue(0, tab[0] * tab[0])
    return TuranValue(n, tab[n] * tab[n] - tab[n - 1] * tab[n + 1])


def turan_recurrence_check(n_max: int) -> CheckReport:
    """delta_{n+1} = c_n delta_n + ((n+1)/2) p_n^2 exactly, plus sign sampling.

    The recurrence proves pointwise nonnegativity by induction; on top of it,
    each delta_n is evaluated at 101 exact rational points spanning [-n, n]
    and required to be >= 0 there.
    """
    if n_max < 1:
        raise ValueError("need at least n = 1")
    tab = generate(SeqKind.PHI_MONIC, n_max + 2)  # held, so each turan(n) reads it
    deltas = [turan(n).delta for n in range(n_max + 2)]

    def holds(n: int) -> bool:
        rhs = Fraction(n * (n + 1), 4) * deltas[n] + Fraction(n + 1, 2) * (tab[n] * tab[n])
        return deltas[n + 1] == rhs and all(
            deltas[n](Fraction(n * (2 * j - 100), 100)) >= 0 for j in range(101))

    return aggregate("turan-recurrence", 1, n_max, holds,
                     "proof recurrence exact and sampled delta_n >= 0 "
                     f"on [-n, n] for 1 <= n <= {n_max}")


def lowering_apply(p: Poly) -> Poly:
    """Apply the lowering operator 2 tan(D/2) to a polynomial.

    The tan series coefficients come from the same Bernoulli-built expansion
    the series layer exposes; truncation at deg p is exact by nilpotence.
    """
    if p.degree <= 0:
        return Poly()
    series = elementary("tan_half", p.degree + 1)
    acc = Poly()
    dk = p
    for m in range(1, p.degree + 1):
        dk = dk.derivative()
        c = series.coeff(m)
        if not c.is_zero():
            acc = acc + c.coeffs[0] * dk
    return acc


def lowering_check(n_max: int) -> CheckReport:
    """2 tan(D/2) p_n = n p_{n-1} exactly for 1 <= n <= n_max."""
    if n_max < 1:
        raise ValueError("need at least n = 1")
    tab = generate(SeqKind.PHI_MONIC, n_max)
    return aggregate("lowering-operator", 1, n_max,
                     lambda n: lowering_apply(tab[n]) == n * tab[n - 1],
                     f"2 tan(D/2) maps p_n to n p_(n-1) exactly for n <= {n_max}")
