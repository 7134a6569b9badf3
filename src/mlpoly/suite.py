"""Verification suites: one plan of checks per layer, run by one runner.

A plan lists its steps, each a callable with hashable arguments.  Every exact step
is `(check, size)`, one or more `aggregate` reports over a whole range; a numeric
check is a `bounded` deviation.  Both verdicts come from
`report`, so every PASS or FAIL has one shape.  The runner calls each distinct
step once (so a check two layers share runs once in `all`) in one
`sequences.shared_run`, where the steps share each family's series and the G
oracles' verdicts (the family tables are kept by `sequences.generate` for the
whole process), and sorts the reports by a canonical key, so the output is
reproducible byte for byte no matter how the individual checks were scheduled.
The numeric and audit steps import the float layer they run, `floats`, themselves; it
computes on Python floats and loads no numpy, so `verify` and `audit` never load numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .identities import (derivative_expansion_checks, derivative_expansion_reduced_audit,
                         egf_pde_check, trig_operator_eigencheck, turan_recurrence_check)
from .report import CheckReport, CheckStatus, aggregate, bounded
from .sequences import (RECURRENCES, SeqKind, difference_relation_checks,
                        g_oracle_mismatches, generate, generating_series, reduce_from_g,
                        rodrigues_audit, shared_run)

__all__ = ["audit_suite", "run_suite", "summarize"]

_ZERO_REFS = {2: 0.707, 3: 1.414, 4: 2.163, 5: 2.945}
_FT_S_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)

# A plan's steps; a step is (callable, *hashable args) returning a report or a list of
# them, read from the module's names at each call.
Plan = list[tuple]


def _table_checks(max_n: int) -> list[CheckReport]:
    """The checks that read the family tables member by member, route against route."""
    g_series = generating_series(SeqKind.G, max_n + 1)
    mismatches = g_oracle_mismatches(max_n)
    g, phi, monic, g_monic, pidduck = (generate(kind, max_n) for kind in (
        SeqKind.G, SeqKind.PHI, SeqKind.PHI_MONIC, SeqKind.G_MONIC, SeqKind.PIDDUCK))
    phi_series = generating_series(SeqKind.PHI, max_n + 1)
    monic_series = generating_series(SeqKind.PHI_MONIC, max_n + 1)
    pidduck_series = generating_series(SeqKind.PIDDUCK, max_n + 1)

    def phi_routes_agree(n: int) -> bool:
        try:
            reduced = reduce_from_g(n)
        except ValueError:  # a G table the imaginary-axis route cannot reduce disagrees at n
            return False
        scale = Fraction(math.factorial(n + 1), 2 ** (n + 1))
        return (phi[n] == phi_series[n] == reduced and scale * phi[n] == monic[n]
                and monic[n] == monic_series[n] * math.factorial(n))

    def g_monic_routes_agree(n: int) -> bool:
        scale = Fraction(math.factorial(n), 2 ** n)
        return g_monic[n] == scale * g[n] == scale * g_series[n]

    def pidduck_routes_agree(n: int) -> bool:
        return pidduck[n] == (g[n].shift(1) + g[n]) / 2 == pidduck_series[n]

    return [
        aggregate("g-oracle-equivalence", 1, max_n, lambda n: n not in mismatches,
                  "recurrence output equals hypergeometric, Meixner "
                  "and series-extraction oracles exactly"),
        aggregate("phi-oracle-equivalence", 0, max_n, phi_routes_agree,
                  "reduced family equals its series extraction, the "
                  "imaginary-axis reduction, and the monic rescaling"),
        aggregate("g-monic-oracle-equivalence", 0, max_n, g_monic_routes_agree,
                  "monic recurrence equals the rescaling n!/2^n g_n of the base table "
                  "and of its series extraction"),
        aggregate("pidduck-oracle-equivalence", 0, max_n, pidduck_routes_agree,
                  "Pidduck recurrence equals the shift average (g_n(x+1) + g_n(x))/2 "
                  "and the series extraction from ((1+t)/(1-t))^x/(1-t)"),
        aggregate("g-special-values", 1, max_n,
                  lambda n: g[n](Fraction(1)) == 2 and g[n](Fraction(0)) == 0,
                  "g_n(1) = 2 and g_n(0) = 0"),
        aggregate("phi-parity", 0, max_n,
                  lambda n: not any(monic[n].coefficient(k) or phi[n].coefficient(k)
                                    for k in range(1 - n % 2, n + 1, 2)),
                  "reduced members satisfy p_n(-x) = (-1)^n p_n(x)"),
    ]


def _exact_plan(max_n: int) -> Plan:
    return [
        (_table_checks, max_n),
        (difference_relation_checks, max_n),  # the two relations of g_n
        # ode-residual, trig-operator-eigenrelation and difference-relation-phi-monic-complex
        (trig_operator_eigencheck, max_n),
        # derivative-expansion-monic, and convolution-identity and lowering-operator, which
        # follow from it as far as it holds
        (derivative_expansion_checks, max_n),
        (derivative_expansion_reduced_audit, max_n),
        (egf_pde_check, 16),
        (turan_recurrence_check, max_n),
    ]


def _bounded_checks(max_n: int) -> list[CheckReport]:
    from .floats import (ft_closed, ft_numeric_grid, gram_deviation, moment,
                         orthogonality_matrix, zeros_range)
    # the Jacobi matrix is real only while every -b(k) > 0; a family without one has no
    # zeros to match, so its deviation is unmeasured and zeros-reference fails
    nums, _ = RECURRENCES[SeqKind.PHI_MONIC].b.terms(24)  # over positive denominators
    real = all(c < 0 for c in nums[1:])
    found = zeros_range(1, 24) if real else {}  # one sweep; bound and interlacing checks run inside
    zero_dev = max(abs(found[n][-1] - ref) for n, ref in _ZERO_REFS.items()) if real else math.inf
    return [
        bounded("zeros-reference", (2, 24), zero_dev, 1e-3,
                "largest zeros match 0.707/1.414/2.163/2.945 and every size up to 24 "
                "satisfies the sqrt(n(n-1)) bound and strict interlacing"),
        bounded("orthogonality-matrix", (0, max_n),
                gram_deviation(orthogonality_matrix(max_n)), 1e-8,
                "Gram matrix of the reduced family is diag(2/(n+1)) within 1e-8"),
        bounded("zeta-moments", (1, 9), max(moment(n).deviation for n in range(1, 10, 2)), 1e-8,
                "odd sinh moments match their exact zeta closed forms to 1e-8 relative"),
        bounded("fourier-closed-vs-quadrature", (0, 8),
                max(abs(v - ft_closed(n, s)) for n in range(0, 9)
                    for s, v in zip(_FT_S_GRID, ft_numeric_grid(n, _FT_S_GRID))), 1e-6,
                "closed-form transform agrees with direct quadrature to 1e-6 on the s grid"),
    ]


def _numeric_plan(max_n: int) -> Plan:
    return [(_bounded_checks, max_n)] + [(rodrigues_audit, n) for n in (1, 2, 3)]


def _audit_plan() -> Plan:
    # the five printed errata, three adjudicated in floats; the other two layers
    # share the last two
    from .floats import own_erratum_audit
    return [(own_erratum_audit,), (derivative_expansion_reduced_audit, 20),
            (rodrigues_audit, 1)]


def _run(*plans: Plan) -> list[CheckReport]:
    """Call each distinct step once, in order, in one shared run; sort once."""
    reports: list[CheckReport] = []
    with shared_run():
        for fn, *args in dict.fromkeys(step for plan in plans for step in plan):
            out = fn(*args)
            reports.extend(out if isinstance(out, list) else [out])
    return sorted(reports, key=lambda r: (r.identity, r.n_range, r.note))


def audit_suite() -> list[CheckReport]:
    return _run(_audit_plan())


def run_suite(name: str, max_n: int | None = None) -> list[CheckReport]:
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    exact_n, numeric_n = (20, 12) if max_n is None else (max_n, max_n)
    if name == "exact":
        return _run(_exact_plan(exact_n))
    if name == "numeric":
        return _run(_numeric_plan(numeric_n))
    if name == "all":
        # numeric steps run first, so a size past the quadrature's reach fails before any
        # exact step has run (the reports are sorted, so the order does not show)
        return _run(_numeric_plan(numeric_n), _exact_plan(exact_n), _audit_plan())
    raise ValueError(f"unknown suite: {name!r}")


def summarize(reports: list[CheckReport]) -> dict:
    return {s.value.lower(): sum(r.status is s for r in reports) for s in CheckStatus}
