"""Verification suites: bundled exact and numeric checks with fixed ordering.

Each suite returns a list of CheckReport values sorted by a canonical key,
so the output is reproducible byte for byte no matter how the individual
checks were scheduled.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .analysis import (erratum_audit, ft_closed, ft_numeric, gram_deviation,
                       moment, orthogonality_matrix, zeros)
from .identities import (convolution_residual, derivative_expansion_monic,
                         derivative_expansion_reduced_audit, egf_pde_residual,
                         lowering_check, ode_residual, trig_operator_eigencheck,
                         turan_recurrence_check)
from .report import CheckReport, CheckStatus
from .sequences import (SeqKind, difference_relation_checks, g_oracle_mismatches,
                        generate, generating_series, reduce_from_g,
                        rodrigues_audit)

__all__ = ["exact_suite", "numeric_suite", "audit_suite", "run_suite", "summarize"]

_ZERO_REFS = {2: 0.707, 3: 1.414, 4: 2.163, 5: 2.945}
_FT_S_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


def _aggregate(identity: str, n_range: tuple[int, int], failures: list[int],
               pass_note: str) -> CheckReport:
    if not failures:
        return CheckReport(identity, n_range, CheckStatus.PASS, note=pass_note)
    return CheckReport(identity, n_range, CheckStatus.FAIL,
                       note=f"failing indices: {failures}")


def exact_suite(max_n: int = 20) -> list[CheckReport]:
    reports: list[CheckReport] = []
    # Held past max_n as far as reduce_from_g, the derivative expansions and
    # Turan read, so that every per-n check below reads these live tables.
    g = generate(SeqKind.G, max_n + 1)
    phi = generate(SeqKind.PHI, max_n + 1)
    phi_monic = generate(SeqKind.PHI_MONIC, max_n + 2)
    phi_series = generating_series(SeqKind.PHI, max_n + 1)
    monic_series = generating_series(SeqKind.PHI_MONIC, max_n + 1)

    reports.append(_aggregate("g-oracle-equivalence", (1, max_n),
                              list(g_oracle_mismatches(max_n)),
                              "recurrence output equals hypergeometric, Meixner "
                              "and series-extraction oracles exactly"))

    bad = []
    for n in range(0, max_n + 1):
        scale = Fraction(math.factorial(n + 1), 2 ** (n + 1))
        if not (phi[n] == phi_series.coeff(n) == reduce_from_g(n)
                and scale * phi[n] == phi_monic[n]
                and phi_monic[n] == monic_series.coeff(n) * math.factorial(n)):
            bad.append(n)
    reports.append(_aggregate("phi-oracle-equivalence", (0, max_n), bad,
                              "reduced family equals its series extraction, the "
                              "imaginary-axis reduction, and the monic rescaling"))

    bad = [n for n in range(1, max_n + 1)
           if not (g[n](Fraction(1)) == 2 and g[n](Fraction(0)) == 0)]
    reports.append(_aggregate("g-special-values", (1, max_n), bad,
                              "g_n(1) = 2 and g_n(0) = 0"))

    bad = []
    for n in range(0, max_n + 1):
        vanish_start = 1 if n % 2 == 0 else 0
        if any(phi_monic[n].coefficient(k) or phi[n].coefficient(k)
               for k in range(vanish_start, n + 1, 2)):
            bad.append(n)
    reports.append(_aggregate("phi-parity", (0, max_n), bad,
                              "reduced members satisfy p_n(-x) = (-1)^n p_n(x)"))

    reports.extend(difference_relation_checks(max_n))

    bad = [n for n in range(1, max_n + 1) if not ode_residual(n).is_zero()]
    reports.append(_aggregate("ode-residual", (1, max_n), bad,
                              "n-th order differential equation holds exactly"))

    bad = [n for n in range(0, max_n + 1)
           if trig_operator_eigencheck(n).status is not CheckStatus.PASS]
    reports.append(_aggregate("trig-operator-eigenrelation", (0, max_n), bad,
                              "(cos D + x sin D) p_n = (n+1) p_n exactly"))

    bad = [n for n in range(0, max_n + 1)
           if derivative_expansion_monic(n).status is not CheckStatus.PASS]
    reports.append(_aggregate("derivative-expansion-monic", (0, max_n), bad,
                              "monic derivative expansion holds exactly"))

    reports.append(derivative_expansion_reduced_audit(max_n))

    bad = [n for n in range(1, max_n + 1) if not convolution_residual(n).is_zero()]
    reports.append(_aggregate("convolution-identity", (1, max_n), bad,
                              "weighted second/first derivative convolution vanishes"))

    order = 16
    if egf_pde_residual(order).is_zero():
        reports.append(CheckReport("egf-pde", (0, order - 1), CheckStatus.PASS,
                                   note="G G_xx = (G_x)^2 through truncation order 16"))
    else:
        reports.append(CheckReport("egf-pde", (0, order - 1), CheckStatus.FAIL,
                                   note="EGF second-derivative identity has a nonzero residual"))

    reports.append(turan_recurrence_check(max_n))
    reports.append(lowering_check(max_n))
    return _canonical(reports)


def numeric_suite(max_n: int = 12) -> list[CheckReport]:
    reports: list[CheckReport] = []

    found = {n: zeros(n) for n in range(1, 25)}  # bound and interlacing checks run inside
    dev = max(abs(found[n][-1] - ref) for n, ref in _ZERO_REFS.items())
    status = CheckStatus.PASS if dev < 1e-3 else CheckStatus.FAIL
    reports.append(CheckReport(
        "zeros-reference", (2, 24), status, max_deviation=dev,
        note="largest zeros match 0.707/1.414/2.163/2.945 and every size up to 24 "
             "satisfies the sqrt(n(n-1)) bound and strict interlacing"))

    dev = gram_deviation(orthogonality_matrix(max_n))
    status = CheckStatus.PASS if dev < 1e-8 else CheckStatus.FAIL
    reports.append(CheckReport(
        "orthogonality-matrix", (0, max_n), status, max_deviation=dev,
        note="Gram matrix of the reduced family is diag(2/(n+1)) within 1e-8"))

    dev = max(moment(n).deviation for n in range(1, 10, 2))
    status = CheckStatus.PASS if dev < 1e-8 else CheckStatus.FAIL
    reports.append(CheckReport(
        "zeta-moments", (1, 9), status, max_deviation=dev,
        note="odd sinh moments match their exact zeta closed forms to 1e-8 relative"))

    dev = 0.0
    for n in range(0, 9):
        for s in _FT_S_GRID:
            dev = max(dev, abs(ft_numeric(n, s).value - ft_closed(n, s).value))
    status = CheckStatus.PASS if dev < 1e-6 else CheckStatus.FAIL
    reports.append(CheckReport(
        "fourier-closed-vs-quadrature", (0, 8), status, max_deviation=dev,
        note="closed-form transform agrees with direct quadrature to 1e-6 on the s grid"))

    for n in (1, 2, 3):
        reports.append(rodrigues_audit(n, [0.1, 0.2, 0.3, 0.4]))

    return _canonical(reports)


def audit_suite() -> list[CheckReport]:
    return _canonical(erratum_audit())


def run_suite(name: str, max_n: int | None = None) -> list[CheckReport]:
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    exact_n, numeric_n = (20, 12) if max_n is None else (max_n, max_n)
    if name == "exact":
        return exact_suite(exact_n)
    if name == "numeric":
        return numeric_suite(numeric_n)
    if name == "all":
        reports = exact_suite(exact_n) + numeric_suite(numeric_n) + audit_suite()
        # the audit repeats the numeric suite's n = 1 Rodrigues report, and at
        # max_n 20 the exact suite's derivative-expansion report
        return _canonical(list(dict.fromkeys(reports)))
    raise ValueError(f"unknown suite: {name!r}")


def summarize(reports: list[CheckReport]) -> dict:
    return {
        "pass": sum(r.status is CheckStatus.PASS for r in reports),
        "fail": sum(r.status is CheckStatus.FAIL for r in reports),
        "audited": sum(r.status is CheckStatus.AUDITED for r in reports),
    }


def _canonical(reports: list[CheckReport]) -> list[CheckReport]:
    return sorted(reports, key=lambda r: (r.identity, r.n_range, r.note))
