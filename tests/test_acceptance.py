"""Acceptance gate: nine end-to-end criteria with stated tolerances and
runtime limits.

Each test prints one checklist line of the form

    [PASS] criterion k: <what was established>

so running this file with -s doubles as the acceptance report.  Every
numeric bound asserted here is the contract bound, not a loosened stand-in,
and the audit verdicts of criterion 8 are recomputed from scratch inside the
test rather than trusted from the library.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mlpoly.analysis import ft_closed, ft_numeric, moment, orthogonality_matrix, zeros
from mlpoly.identities import (convolution_check, derivative_expansion_checks,
                               egf_pde_residual, lowering_check,
                               trig_operator_eigencheck, turan_recurrence_check)
from mlpoly.polyfps import Poly, X
from mlpoly.report import CheckStatus
from mlpoly.sequences import (SeqKind, g_oracle_mismatches, generate, generating_series,
                              oracle_hypergeometric_g, reduce_from_g)
from mlpoly.suite import audit_suite

F = Fraction


def _verdict(criterion: int, ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {label}")
    assert ok, f"criterion {criterion} failed: {label}"


def test_criterion_1_first_monic_members_exact():
    start = time.perf_counter()
    expected = [
        Poly([1]),
        Poly([0, 1]),
        Poly([F(-1, 2), 0, 1]),
        Poly([0, -2, 0, 1]),
        Poly([F(3, 2), 0, -5, 0, 1]),
        Poly([0, F(23, 2), 0, -10, 0, 1]),
    ]
    table = generate(SeqKind.PHI_MONIC, 5)
    ok = all(table[n] == expected[n] for n in range(6))
    elapsed = time.perf_counter() - start
    _verdict(1, ok and elapsed < 1.0,
             f"monic members 0..5 match their exact expansions in {elapsed:.3f}s (< 1s)")


def test_criterion_2_oracle_equivalence_to_20():
    start = time.perf_counter()
    phi = generate(SeqKind.PHI, 20)
    phi_series = generating_series(SeqKind.PHI, 22)
    ok = g_oracle_mismatches(20) == ()  # hypergeometric, Meixner and series against g_n
    ok = ok and all(
        phi[n] == phi_series[n] == reduce_from_g(n)
        for n in range(21))
    elapsed = time.perf_counter() - start
    _verdict(2, ok and elapsed < 10.0,
             "recurrence output equals hypergeometric, Meixner, series and "
             f"reduction oracles for n <= 20 in {elapsed:.2f}s (< 10s)")


def test_criterion_3_zeros_reference_bound_interlacing():
    refs = {2: 0.707, 3: 1.414, 4: 2.163, 5: 2.945}
    ok = all(abs(zeros(n)[-1] - ref) < 1e-3 for n, ref in refs.items())
    previous = zeros(1)
    for n in range(2, 25):
        zs = zeros(n)
        ok = ok and max(abs(z) for z in zs) < math.sqrt(n * (n - 1))
        ok = ok and all(zs[k] < previous[k] < zs[k + 1] for k in range(n - 1))
        previous = zs
    _verdict(3, ok, "largest zeros match 0.707/1.414/2.163/2.945 within 1e-3; "
                    "bound and interlacing hold for n <= 24")


def test_criterion_4_differential_suite_exact():
    start = time.perf_counter()
    # the finite equation for 1 <= n <= 30 and the operator eigenrelation for 0 <= n <= 30,
    # the two reports of one step
    ok = all(r.status is CheckStatus.PASS for r in trig_operator_eigencheck(30))
    ok = ok and derivative_expansion_checks(30)[0].status is CheckStatus.PASS
    ok = ok and convolution_check(20).status is CheckStatus.PASS
    ok = ok and all(p.is_zero() for p in egf_pde_residual(16))
    ok = ok and turan_recurrence_check(25).status is CheckStatus.PASS
    ok = ok and lowering_check(30).status is CheckStatus.PASS
    elapsed = time.perf_counter() - start
    _verdict(4, ok and elapsed < 30.0,
             "equation residuals, operator eigenrelation, derivative expansion "
             "(n <= 30), convolution (n <= 20), series identity (order 16), "
             "Turan recurrence (n <= 25) and lowering operator (n <= 30) "
             f"all exact in {elapsed:.2f}s (< 30s)")


def test_criterion_5_orthogonality_13x13():
    mat = orthogonality_matrix(12)
    dev = max(abs(mat[i, j] - (2.0 / (i + 1.0) if i == j else 0.0))
              for i in range(13) for j in range(13))
    ok = dev < 1e-8 and abs(mat[0, 0] - 2.0) < 1e-8
    _verdict(5, ok, f"13x13 Gram matrix within {dev:.2e} of diag(2/(n+1)) (< 1e-8)")


def test_criterion_6_moments_match_zeta_forms():
    devs = [moment(n).deviation for n in range(1, 10, 2)]
    first = moment(1)
    ok = max(devs) < 1e-8
    ok = ok and float(first.numeric) == pytest.approx(math.pi**2 / 2, abs=1e-8)
    ok = ok and abs(math.pi**2 / 2 - 4.9348022005446793) < 1e-12
    _verdict(6, ok, f"odd moments 1..9 match zeta closed forms to {max(devs):.2e} "
                    "relative (< 1e-8); first moment is pi^2/2 = 4.9348...")


def test_criterion_7_fourier_closed_vs_quadrature():
    dev = max(abs(ft_numeric(n, s) - ft_closed(n, s))
              for n in range(9) for s in (0.25, 0.5, 1.0, 2.0, 4.0))
    ok = dev < 1e-6
    ok = ok and abs(ft_closed(0, 0.0) - 0.199471) < 1e-6
    _verdict(7, ok, f"transform quadrature matches the closed form to {dev:.2e} "
                    "(< 1e-6) on n <= 8 and the five-point s grid; "
                    "n=0, s=0 value is 0.199471")


def test_criterion_8_erratum_audit_verdicts():
    reports = {r.identity: r for r in audit_suite()}
    ok = len(reports) == 5 and all(r.status is CheckStatus.AUDITED
                                   for r in reports.values())

    # verdict 1, recomputed: the minus-sign recurrence diverges from the
    # plus-sign one exactly at n = 3, and the plus-sign one matches the
    # hypergeometric oracle
    minus = [Poly([1]), 2 * X]
    plus = [Poly([1]), 2 * X]
    for n in range(1, 3):
        minus.append((2 * X * minus[n] - (n - 1) * minus[n - 1]) / F(n + 1))
        plus.append((2 * X * plus[n] + (n - 1) * plus[n - 1]) / F(n + 1))
    oracle3 = oracle_hypergeometric_g(3)
    ok = ok and minus[2] == plus[2] == oracle_hypergeometric_g(2)
    ok = ok and minus[3] != oracle3 and plus[3] == oracle3
    ok = ok and reports["g-recurrence-sign"].residual == minus[3] - oracle3
    ok = ok and reports["g-recurrence-sign"].n_range == (3, 3)

    # verdict 2, recomputed: with divisor 2^(n+1) the tanh/sech form equals
    # the sinh-quotient form; with 2^n it is double
    worst = 0.0
    for n in range(7):
        for s in (0.5, 1.0, 2.0):
            tanh_form = (math.factorial(n + 1) / (2.0 ** (n + 1) * math.sqrt(2 * math.pi))
                         * math.tanh(s / 2) ** n / math.cosh(s / 2) ** 2)
            sinh_form = (math.factorial(n + 1) * math.sqrt(2 / math.pi)
                         * math.sinh(s / 2) ** (2 * n + 2) / math.sinh(s) ** (n + 2))
            worst = max(worst, abs(tanh_form - sinh_form) / sinh_form)
            ok = ok and abs(2 * tanh_form - sinh_form) / sinh_form > 0.9
    ok = ok and worst < 1e-12
    ok = ok and abs(ft_numeric(0, 0.0)
                    - 1 / (2 * math.sqrt(2 * math.pi))) < 1e-9
    ok = ok and "factor of 2" in reports["fourier-tanh-constant"].note

    # verdict 3, recomputed: at s = 1.3 the first display expression equals
    # the closed form and the second is exactly half of it
    s0 = 1.3
    first = 1.0 / ((1.0 + math.cosh(s0)) * math.sqrt(2 * math.pi))
    second = 0.5 * math.sqrt(2 / math.pi) * math.sinh(s0 / 2) ** 2 / math.sinh(s0) ** 2
    ok = ok and abs(first - ft_closed(0, s0)) / first < 1e-14
    ok = ok and abs(second - first / 2) / first < 1e-14
    ok = ok and "low by a factor" in reports["fourier-n0-display"].note

    # verdict 4, recomputed: the flat-coefficient derivative expansion fails
    # at n = 1 with residual 2 - 4x while the index-shifted form holds
    phi = generate(SeqKind.PHI, 21)
    printed_residual = phi[1].derivative() - 2 * phi[1]
    ok = ok and printed_residual == Poly([2, -4])
    ok = ok and reports["derivative-expansion-reduced"].residual == printed_residual
    corrected_holds = True
    for n in range(1, 21):
        rhs = Poly()
        for k in range(n // 2 + 1):
            rhs = rhs + F(2 * (-1) ** k * (n - 2 * k + 1),
                          (n + 2) * (2 * k + 1)) * phi[n - 2 * k]
        corrected_holds = corrected_holds and phi[n + 1].derivative() == rhs
    ok = ok and corrected_holds
    ok = ok and "fails at n = 1" in reports["derivative-expansion-reduced"].note

    # verdict 5, recomputed: the difference-Rodrigues right-hand side at
    # n = 1 is 4x tan(pi x), nowhere near the polynomial value 2x; at
    # x = 0.3 that is 1.6516... against 0.6
    def pair(y: float) -> float:
        return math.gamma(1 - y) * math.gamma(1 + y)

    def rodrigues_rhs(x: float) -> float:
        return 2.0 * (x / pair(x)) * (pair(x + 0.5) - pair(x - 0.5))

    ok = ok and abs(rodrigues_rhs(0.3) - 1.6516583045654085) < 1e-12
    ok = ok and abs(rodrigues_rhs(0.3) - 1.2 * math.tan(0.3 * math.pi)) < 1e-12
    ok = ok and abs(rodrigues_rhs(0.3) - 0.6) > 1.0
    expected_dev = max(
        abs(rodrigues_rhs(x) - 2 * x) / max(abs(rodrigues_rhs(x)), abs(2 * x), 1.0)
        for x in (0.1, 0.2, 0.3, 0.4))
    ok = ok and "MISMATCH" in reports["rodrigues-formula"].note
    ok = ok and reports["rodrigues-formula"].max_deviation == pytest.approx(
        expected_dev, rel=1e-9)

    _verdict(8, ok, "all five audit verdicts (recurrence sign at n = 3, "
                    "transform constant 2^(n+1), halved n = 0 display, "
                    "derivative expansion failing at n = 1, difference-"
                    "Rodrigues mismatch at n = 1, x = 0.3) reproduced "
                    "independently in-test")


def test_criterion_9_full_verify_deterministic_under_60s():
    cmd = [sys.executable, "-m", "mlpoly", "verify", "--suite", "all"]
    start = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    mid = time.perf_counter()
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    end = time.perf_counter()
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    ok = ok and (mid - start) < 60.0 and (end - mid) < 60.0
    summary = json.loads(first.stdout)["summary"]
    ok = ok and summary["fail"] == 0
    _verdict(9, ok, "two runs of the full verification suite are byte-identical, "
                    f"exit 0 with fail=0, in {mid - start:.1f}s and "
                    f"{end - mid:.1f}s (< 60s each)")
