"""Differential and operator identities for the monic reduced family.

Everything in this module is exact: operator series applied to a polynomial
are truncated at its degree, where they terminate by nilpotence, so each
check is a yes/no statement about polynomial residuals with no tolerances.
The finite (n-th order) and the infinite (cos D + x sin D) differential equations
are one statement on members of degree <= n, and so is the difference equation in
steps of i, so one residual per n decides all three.  The derivative expansion proves
G_x = theta G for the monic generating series G = sum_n p_n t^n/n!, theta = 2 arctan(t/2),
as far as it holds, and the convolution identity and the lowering operator follow from
that congruence, so one residual per n decides those three too, with the direct check
run only past the first index where the expansion fails.  Both premises of that
implication, that theta and the lowering weights are the series they are named for, are
decided by one check of f(0) = 0 and (1 + a t^2/4) f' = 1 + c f^2/4 on constant
coefficients.  The direct convolution check and the series identity egf-pde compute one
residual, G G_xx - G_x^2, each over its own route: the EGF of the recurrence table and the
generating series.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from fractions import Fraction
from itertools import accumulate

from .polyfps import Poly, X, combine, elementary
from .report import CheckReport, CheckStatus, aggregate
from .sequences import SeqKind, generate, generating_series

__all__ = [
    "trig_operator_eigencheck",
    "derivative_expansion_checks",
    "derivative_expansion_reduced_audit",
    "convolution_check",
    "egf_pde_residual",
    "turan_recurrence_check",
    "lowering_check",
]

# cos(k pi/2) + x sin(k pi/2), which takes only these values, with period 4: the
# coefficient alpha_k + beta_k x of p^(k)/k! in the n-th order equation, k = 1..n, so
# that on a member of degree <= n that equation is T - (n+1), T = cos D + x sin D
_CYCLE = (Poly([1]), X, Poly([-1]), -X)


def _apply(p: Poly, weights: Sequence[Poly]) -> Poly:
    """sum_{k <= deg p} weights[k] D^k p: every higher derivative of p is zero."""
    derivatives = accumulate(range(p.degree), lambda dk, _: dk.derivative(), initial=p)
    return combine((1, w, dk) for w, dk in zip(weights, derivatives))


def _trig_weights(n: int) -> list[Poly]:
    """cos D + x sin D through D^n: the coefficient of D^k is (cos(k pi/2) + x sin(k pi/2))/k!."""
    return [_CYCLE[k % 4] / math.factorial(k) for k in range(n + 1)]


def trig_operator_eigencheck(n_max: int) -> list[CheckReport]:
    """The finite and the infinite equation and the difference equation, from one residual
    per n over one table: r_n = (cos D + x sin D) p_n - (n+1) p_n.

    trig-operator-eigenrelation: r_n = 0 for 0 <= n <= n_max.
    ode-residual: sum_{k=1..n} (alpha_k + beta_k x) p_n^(k)/k! - n p_n = 0 for
    1 <= n <= n_max; on a member of degree <= n that residual is r_n, so the report holds
    at n when r_n = 0 and deg p_n <= n.
    difference-relation-phi-monic-complex: R_n = (x+i) p_n(x+i) - 2(n+1)i p_n(x)
    - (x-i) p_n(x-i) = 0 for 0 <= n <= n_max, the difference equation of the
    Meixner-Pollaczek polynomials P_n^(lambda)(x; phi) at lambda = 1, phi = pi/2 (Koekoek,
    Lesky & Swarttouw 2010, sec. 9.7), of which p_n is the monic form.  For a real
    polynomial p Taylor's theorem gives p(x +- i) = cos D p +- i sin D p, so
    (x+i) p(x+i) - (x-i) p(x-i) = 2i (cos D + x sin D) p and R_n = 2i r_n: the report
    holds at n exactly when r_n = 0.  A recurrence step raises the degree by at most one,
    so deg p_n <= n <= n_max and the weights through D^n_max are the whole operator.
    """
    if n_max < 1:
        raise ValueError("need at least n = 1")
    tab = generate(SeqKind.PHI_MONIC, n_max)
    weights = _trig_weights(n_max)
    # T - (n+1) differs from T only at D^0, where 1 - (n+1) = -n
    vanishes = [_apply(tab[n], [Poly([-n]), *weights[1:]]).is_zero() for n in range(n_max + 1)]
    return [
        aggregate("ode-residual", 1, n_max, lambda n: vanishes[n] and tab[n].degree <= n,
                  "n-th order differential equation holds exactly"),
        aggregate("trig-operator-eigenrelation", 0, n_max, lambda n: vanishes[n],
                  "(cos D + x sin D) p_n = (n+1) p_n exactly"),
        aggregate("difference-relation-phi-monic-complex", 0, n_max, lambda n: vanishes[n],
                  "(x+i) p_n(x+i) - 2(n+1)i p_n(x) - (x-i) p_n(x-i) = 0, Gaussian-exact; "
                  "exact for all n in range"),
    ]


def _expansion_residual(tab: Sequence[Poly], n: int, shift: int,
                        coeff: Callable[[int, int], Fraction]) -> Poly:
    """p'_{n+shift} - sum_k coeff(n, k) p_{n-2k} over one table; contract: zero."""
    return combine([(1, tab[n + shift].derivative()),
                    *((-coeff(n, k), tab[n - 2 * k]) for k in range(n // 2 + 1))])


def _solves_series_ode(series: Sequence[Poly], a: int, c: int) -> bool:
    """f(0) = 0 and (1 + a t^2/4) f' = 1 + c f^2/4 through the last coefficient of
    f = sum_j series[j] t^j, each a constant: theta = 2 arctan(t/2) at (a, c) = (1, 0), the
    weights 2 tan(t/2) at (0, 1).  f(0) = 0 and the equation fix each coefficient from those
    before it, so only the equation's own series passes.  Over integers, f_j = F_j/den, t^j
    of 4 den^2 times the equation is
    4 den (j+1) F_(j+1) + a den (j-1) F_(j-1) = 4 den^2 [j = 0] + c sum_i F_i F_(j-i)."""
    if any(p.degree > 0 for p in series):
        return False
    den = math.lcm(*(p.denominator for p in series))
    fs = [p.numerators[0] * (den // p.denominator) if p.numerators else 0 for p in series]
    return not fs[0] and all(
        4 * den * (j + 1) * fs[j + 1] + (a * den * (j - 1) * fs[j - 1] if a and j else 0)
        == (4 * den * den if j == 0 else 0)
        + (c * sum(fs[i] * fs[j - i] for i in range(j + 1)) if c else 0)
        for j in range(len(fs) - 1))


def _monic_expansion(n_max: int) -> tuple[CheckReport, int]:
    """derivative-expansion-monic over 0..n_max, and the premise it proves: an m with
    G_x = theta G mod t^(m+1), theta = 2 arctan(t/2), or 0 where it proves none.

    The coefficient (-1)^k C(n+1, 2k+1) (2k)!/4^k is (n+1)!/(n-2k)! theta_(2k+1), read from
    the one arctan_half series, so the t^(n+1) coefficient of G_x = theta G times (n+1)! is
    the expansion at n.  With deg p_0 <= 0 the t^0 coefficients agree (p'_0 = 0 = theta_0
    p_0), so an expansion that holds for n < m, m its first failing index (n_max + 1 where
    none fails), gives the congruence mod t^(m+1), once theta solves its own equation.
    """
    tab = generate(SeqKind.PHI_MONIC, n_max + 1)
    series = elementary("arctan_half", n_max + 2)
    theta = [c.coefficient(0) for c in series]

    def coeff(n: int, k: int) -> Fraction:
        t = theta[2 * k + 1]
        return Fraction(math.perm(n + 1, 2 * k + 1) * t.numerator, t.denominator)

    holds = [_expansion_residual(tab, n, 1, coeff).is_zero() for n in range(n_max + 1)]
    report = aggregate("derivative-expansion-monic", 0, n_max, holds.__getitem__,
                       "monic derivative expansion holds exactly")
    m = holds.index(False) if False in holds else n_max + 1
    return report, m if tab[0].degree <= 0 and _solves_series_ode(series, 1, 0) else 0


def derivative_expansion_checks(n_max: int) -> list[CheckReport]:
    """derivative-expansion-monic, convolution-identity and lowering-operator from one
    residual per n of the expansion over one table.

    The expansion proves G_x = theta G mod t^(m+1) (see _monic_expansion); the convolution
    identity then holds for n <= m and the lowering operator for n <= m once its weights
    solve their own equation, and each is checked directly only past m.
    """
    if n_max < 1:
        raise ValueError("need at least n = 1")
    report, premise = _monic_expansion(n_max)
    return [report, convolution_check(n_max, premise), lowering_check(n_max, premise)]


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
        """First n in 1..n_max whose residual is nonzero, with that residual."""
        residuals = ((n, _expansion_residual(tab, n, shift, coeff)) for n in range(1, n_max + 1))
        return next(((n, r) for n, r in residuals if not r.is_zero()), (None, None))

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


def _pde_residual(g: Sequence[Poly], start: int) -> tuple[Poly, ...]:
    """The t^n coefficients of G G_xx - G_x^2 for start <= n < len(g), G = sum_n g[n] t^n,
    each one combine of the two Cauchy products over coefficient-wise derivatives.

    G G_xx - G_x^2 = G^2 (log G)_xx, and a factor of G that is free of x leaves
    (log G)_xx as it is, so the residual cannot see one: a wrong denominator of the monic
    series or a wrong scale of p_0 keeps a zero residual zero, and neither egf-pde nor
    convolution-identity fails on it; phi-oracle-equivalence is what guards them.
    """
    gx = [p.derivative() for p in g]
    gxx = [p.derivative(2) for p in g]
    return tuple(combine((c, u[k], v[n - k]) for c, u, v in ((1, g, gxx), (-1, gx, gx))
                         for k in range(n + 1))
                 for n in range(start, len(g)))


def convolution_check(n_max: int, premise: int = 0) -> CheckReport:
    """sum_k [p''_k p_{n-k} - p'_k p'_{n-k}] / (k! (n-k)!) = 0 for 1 <= n <= n_max: the
    t^n coefficient of G G_xx - G_x^2 over the table's EGF G = sum_n p_n t^n/n!.

    premise: G_x = theta G mod t^(premise+1) for a series theta in t alone, proved by the
    caller.  Differentiating in x keeps the congruence, so G_xx = theta G_x = theta^2 G and
    G G_xx - G_x^2 = 0 mod t^(premise+1): the identity holds for n <= premise, and the
    residual is built only for premise < n <= n_max (every n at premise 0), with no member
    scaled where the premise covers the whole range.
    """
    if n_max < 1:
        raise ValueError("need at least n = 1")
    start = premise + 1
    residual = ()
    if start <= n_max:
        tab = generate(SeqKind.PHI_MONIC, n_max)
        residual = _pde_residual([p / math.factorial(n) for n, p in enumerate(tab)], start)
    return aggregate("convolution-identity", 1, n_max,
                     lambda n: n < start or residual[n - start].is_zero(),
                     "weighted second/first derivative convolution vanishes")


def egf_pde_residual(order: int) -> tuple[Poly, ...]:
    """G * G_xx - (G_x)^2 for the monic exponential generating series; contract: zero.
    Inside a run, the series is a truncation of the one the run keeps.

    The series is exp(x u(t)) / (1 + t^2/4), u = 2 arctan(t/2), and G G_xx - G_x^2
    vanishes for every G = f(t) e^(x u(t)), whatever the series f and u (see
    _pde_residual).  So no fault in the data reaches this report, neither in RECURRENCES,
    which the series does not read, nor in the coefficients of u or f: only a bug in
    series_exp, in the division by 1 + t^2/4 or in the residual itself can fail it."""
    if order < 2:
        raise ValueError("order must be at least 2")
    return _pde_residual(generating_series(SeqKind.PHI_MONIC, order), 0)


def _turan(tab: Sequence[Poly], squares: Sequence[Poly], n: int) -> Poly:
    """delta_n = p_n^2 - p_{n-1} p_{n+1} over a monic reduced table that reaches p_{n+1},
    with squares[n] = p_n^2; the n = 0 member uses the empty-product convention
    p_{-1} = 0, giving delta_0 = 1."""
    below = tab[n - 1] if n else Poly()
    return combine(((1, squares[n]), (-1, below, tab[n + 1])))


def turan_recurrence_check(n_max: int) -> CheckReport:
    """delta_1 = 1/2 and delta_{n+1} = c_n delta_n + ((n+1)/2) p_n^2 exactly, 1 <= n <= n_max.

    Together they prove delta_n > 0 at every real x by induction: c_n = n(n+1)/4 > 0
    and p_n^2 >= 0, so delta_n > 0 gives delta_{n+1} > 0.  A wrong delta_1 fails
    index 1.
    """
    if n_max < 1:
        raise ValueError("need at least n = 1")
    tab = generate(SeqKind.PHI_MONIC, n_max + 2)
    squares = [p * p for p in tab[: n_max + 2]]  # each p_n^2 once, for delta_n and the step
    deltas = [_turan(tab, squares, n) for n in range(n_max + 2)]

    def holds(n: int) -> bool:
        # 4 delta_{n+1} = n(n+1) delta_n + 2(n+1) p_n^2
        rhs = combine(((n * (n + 1), deltas[n]), (2 * (n + 1), squares[n])), 4)
        return deltas[n + 1] == rhs and (n > 1 or deltas[1] == Poly([Fraction(1, 2)]))

    return aggregate("turan-recurrence", 1, n_max, holds,
                     "delta_1 = 1/2 and the proof recurrence exact, so by induction "
                     f"delta_n > 0 at every real x for 1 <= n <= {n_max}")


def lowering_check(n_max: int, premise: int = 0) -> CheckReport:
    """2 tan(D/2) p_n = n p_{n-1} exactly for 1 <= n <= n_max.

    premise: G_x = theta G mod t^(premise+1) with theta = 2 arctan(t/2), proved by the
    caller, who has checked (1 + t^2/4) theta' = 1, theta(0) = 0.  Then D^k G = theta^k G,
    so with f(u) = sum_k w_k u^k over the weights below, f(D) G = f(theta) G mod
    t^(premise+1).  Where f solves f' = 1 + f^2/4, f(0) = 0, y = f(theta) solves
    (1 + t^2/4) y' = 1 + y^2/4, y(0) = 0; so does y = t, and the equation fixes each
    coefficient of y from those before, so f(theta) = t through t^n_max (the series are
    never composed).  Its t^n coefficient, f(D) p_n = n p_{n-1}, then holds for
    n <= premise, and the operator is applied only past it or where the weights fail
    their equation (every n at premise 0).
    """
    if n_max < 1:
        raise ValueError("need at least n = 1")
    tab = generate(SeqKind.PHI_MONIC, n_max)
    # 2 tan(D/2) through D^n_max: the constant coefficients of the Bernoulli-built series
    weights = elementary("tan_half", n_max + 1)
    implied = premise if premise and _solves_series_ode(weights, 0, 1) else 0
    return aggregate("lowering-operator", 1, n_max,
                     lambda n: n <= implied or _apply(tab[n], weights) == n * tab[n - 1],
                     f"2 tan(D/2) maps p_n to n p_(n-1) exactly for n <= {n_max}")
