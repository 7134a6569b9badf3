"""Differential and operator identities, all exact.

Hand-worked low cases pin each identity's normalization before the range
sweeps run; a sweep alone would also pass if both sides carried the same
wrong constant.
"""

import functools
import math
from fractions import Fraction

import pytest

from mlpoly import identities
from mlpoly.identities import (convolution_check, derivative_expansion_checks,
                               derivative_expansion_reduced_audit,
                               egf_pde_residual, lowering_check,
                               trig_operator_eigencheck, turan_recurrence_check)
from mlpoly.polyfps import Poly, X, combine, elementary
from mlpoly.report import CheckStatus
from mlpoly.sequences import SeqKind, generate, generating_series

F = Fraction


def _reports(n_max):
    """The two reports of the equations' one step, by identity."""
    return {r.identity: r for r in trig_operator_eigencheck(n_max)}


def test_ode_residual_hand_case():
    # sum_{k=1..n} (alpha_k + beta_k x) p^(k)/k! - n p with alpha = (0, -1, 0, 1) and
    # beta = (1, 0, -1, 0) for k = 1..4, written out: n = 2 for p_2 = x^2 - 1/2 and
    # n = 4 for p_4 = x^4 - 5x^2 + 3/2
    p = Poly([F(-1, 2), 0, 1])
    assert (X * p.derivative() - p.derivative(2) / 2 - 2 * p).is_zero()
    p = Poly([F(3, 2), 0, -5, 0, 1])
    assert (X * p.derivative() - p.derivative(2) / 2 - X * p.derivative(3) / 6
            + p.derivative(4) / 24 - 4 * p).is_zero()
    report = _reports(4)["ode-residual"]
    assert (report.status, report.n_range) == (CheckStatus.PASS, (1, 4))


def test_ode_residual_vanishes_up_to_30():
    for n in range(1, 31):
        report = _reports(n)["ode-residual"]
        assert (report.status, report.n_range) == (CheckStatus.PASS, (1, n))


def test_trig_operator_hand_case():
    # p = x^2 - 1/2: cos-part p - p''/2 = x^2 - 3/2, sin-part x p' = 2x^2, so T p = 3p
    p = Poly([F(-1, 2), 0, 1])
    assert p - p.derivative(2) / 2 + X * p.derivative() == Poly([F(-3, 2), 0, 3]) == 3 * p
    report = _reports(2)["trig-operator-eigenrelation"]
    assert (report.status, report.n_range) == (CheckStatus.PASS, (0, 2))


def test_trig_operator_eigenrelation_up_to_30():
    for n in range(1, 31):
        report = _reports(n)["trig-operator-eigenrelation"]
        assert (report.status, report.n_range) == (CheckStatus.PASS, (0, n))
    with pytest.raises(ValueError):
        trig_operator_eigencheck(0)


def test_derivative_expansion_monic_hand_case():
    # p'_4 = 4x^3 - 10x = 4 p_3 - 2 p_1
    tab = generate(SeqKind.PHI_MONIC, 4)
    assert tab[4].derivative() == 4 * tab[3] - 2 * tab[1]
    report = derivative_expansion_checks(3)[0]
    assert (report.identity, report.status, report.n_range) == (
        "derivative-expansion-monic", CheckStatus.PASS, (0, 3))


def test_derivative_expansion_monic_up_to_30():
    # one range report: it passes only where the expansion holds at each n = 0..30
    report = derivative_expansion_checks(30)[0]
    assert (report.identity, report.status, report.n_range) == (
        "derivative-expansion-monic", CheckStatus.PASS, (0, 30))


def test_derivative_expansion_reduced_audit():
    report = derivative_expansion_reduced_audit(20)
    assert report.status is CheckStatus.AUDITED
    assert report.residual == Poly([2, -4])  # printed form misses at n = 1
    assert "fails at n = 1" in report.note
    assert "corrected form holds exactly" in report.note
    with pytest.raises(ValueError):
        derivative_expansion_reduced_audit(0)


def test_corrected_reduced_expansion_recomputed():
    # the audit's corrected candidate, evaluated here from scratch
    tab = generate(SeqKind.PHI, 13)
    for n in range(1, 12):
        rhs = Poly()
        for k in range(n // 2 + 1):
            rhs = rhs + F(2 * (-1) ** k * (n - 2 * k + 1),
                          (n + 2) * (2 * k + 1)) * tab[n - 2 * k]
        assert tab[n + 1].derivative() == rhs, f"n = {n}"


def _ref_convolution_residual(n):
    """sum_k [p''_k p_{n-k} - p'_k p'_{n-k}] / (k! (n-k)!) by pairwise Poly operations, the
    reference of convolution_check, which shares its residual with egf_pde_residual."""
    tab = generate(SeqKind.PHI_MONIC, n)
    residual = Poly()
    for k in range(n + 1):
        u, v = tab[k], tab[n - k]
        w = F(1, math.factorial(k) * math.factorial(n - k))
        residual = residual + w * (u.derivative(2) * v - u.derivative() * v.derivative())
    return residual


def test_convolution_residual_vanishes_up_to_20():
    for n in range(1, 21):
        assert _ref_convolution_residual(n).is_zero(), f"n = {n}"


def test_convolution_check_passes_through_40():
    report = convolution_check(40)
    assert report.status is CheckStatus.PASS
    assert report.n_range == (1, 40)
    with pytest.raises(ValueError):
        convolution_check(0)


@pytest.mark.parametrize("field, breaks, failing", [
    # a bump in p_1's scale, where the expansion fails at n = 0 and proves no premise
    ("a", lambda bump: bump(Fraction(1, 7), 0), list(range(2, 13))),
    # a constant term in p_1 or p_4
    ("d", lambda bump: bump(Fraction(1, 7), 0), list(range(3, 13))),
    ("d", lambda bump: bump(Fraction(1, 7), 3), list(range(4, 13))),
    ("b", lambda bump: bump(1, 3), list(range(4, 13))),
    # the expansion fails from n = 20: the premise serves n <= 20 in the suite's step
    ("b", lambda bump: bump(Fraction(1, 7), 20), list(range(21, 41))),
])
def test_convolution_check_fails_where_the_residual_is_nonzero(perturb, field, breaks, failing):
    # the check fails exactly the indices whose reference residual is nonzero, up to the last
    # of them, called alone (premise 0) and in the suite's step, which proves its own premise
    n_max = failing[-1]
    breaks(functools.partial(perturb, SeqKind.PHI_MONIC, field))
    assert [n for n in range(1, n_max + 1)
            if not _ref_convolution_residual(n).is_zero()] == failing
    report = convolution_check(n_max)
    assert report.status is CheckStatus.FAIL
    assert report.note == f"failing indices: {failing}"
    assert derivative_expansion_checks(n_max)[1] == report


def test_convolution_builds_no_residual_coefficient_the_premise_covers(monkeypatch):
    built = []  # the terms of each residual coefficient, two per k = 0..n at t^n
    combine = identities.combine

    def counted(terms, *over):
        terms = list(terms)
        built.append(len(terms))
        return combine(terms, *over)

    derivatives = []
    derivative = Poly.derivative
    monkeypatch.setattr(identities, "combine", counted)
    monkeypatch.setattr(Poly, "derivative",
                        lambda p, *k: derivatives.append(p) or derivative(p, *k))
    assert convolution_check(40, 41).status is CheckStatus.PASS
    assert built == [] and derivatives == []
    # past the premise, t^40 alone, over the first two derivatives of 41 members
    assert convolution_check(40, 39).status is CheckStatus.PASS
    assert built == [2 * 41] and len(derivatives) == 2 * 41


def test_egf_pde_residual_is_zero_through_order_16():
    residual = egf_pde_residual(16)
    assert len(residual) == 16 and all(p.is_zero() for p in residual)
    with pytest.raises(ValueError):
        egf_pde_residual(1)


def _cauchy(a, b):
    """The product of two series of one order, coefficient by coefficient."""
    return tuple(sum((a[k] * b[n - k] for k in range(n + 1)), Poly()) for n in range(len(a)))


def _ref_egf_pde_residual(g):
    gx = [p.derivative() for p in g]
    gxx = [p.derivative() for p in gx]
    return tuple(u - v for u, v in zip(_cauchy(g, gxx), _cauchy(gx, gx)))


def test_egf_pde_residual_equals_the_cauchy_product_reference(monkeypatch):
    # by hand, G = x^2 + 2x t + 5 t^2: G_x = 2x + 2t and G_xx = 2, each taken coefficient
    # by coefficient, so G G_xx - G_x^2 = -2x^2 - 4x t + 6 t^2
    with monkeypatch.context() as patch:
        patch.setattr(identities, "generating_series",
                      lambda kind, order: (X * X, 2 * X, Poly([5])))
        assert egf_pde_residual(3) == (Poly([0, 0, -2]), Poly([0, -4]), Poly([6]))
    # the monic series, where both are zero, and the PHI series, which is no solution
    for k in range(2, 25):
        expected = _ref_egf_pde_residual(generating_series(SeqKind.PHI_MONIC, k))
        assert egf_pde_residual(k) == expected, k
    monkeypatch.setattr(identities, "generating_series",
                        lambda kind, order: generating_series(SeqKind.PHI, order))
    for k in range(2, 25):
        expected = _ref_egf_pde_residual(generating_series(SeqKind.PHI, k))
        assert any(not p.is_zero() for p in expected) == (k > 2), k  # nonzero from t^2
        assert egf_pde_residual(k) == expected, k


def test_turan_low_members():
    tab = generate(SeqKind.PHI_MONIC, 3)
    squares = [p * p for p in tab]
    assert identities._turan(tab, squares, 0) == Poly([1])
    assert identities._turan(tab, squares, 1) == Poly([F(1, 2)])
    assert identities._turan(tab, squares, 2) == Poly([F(1, 4), 0, 1])


def test_turan_recurrence_recomputed():
    # delta_{n+1} = c_n delta_n + ((n+1)/2) p_n^2, checked directly
    tab = generate(SeqKind.PHI_MONIC, 11)
    deltas = [tab[0] * tab[0]]
    for n in range(1, 11):
        deltas.append(tab[n] * tab[n] - tab[n - 1] * tab[n + 1])
    for n in range(1, 10):
        c_n = F(n * (n + 1), 4)
        assert deltas[n + 1] == c_n * deltas[n] + F(n + 1, 2) * tab[n] * tab[n]


def test_turan_is_positive_at_sampled_rational_points():
    # independent of the induction proof the check rests on: delta_n > 0 at 101 exact
    # rational points spanning [-n, n]
    tab = generate(SeqKind.PHI_MONIC, 13)
    for n in range(1, 13):
        delta = tab[n] * tab[n] - tab[n - 1] * tab[n + 1]
        assert all(delta(F(n * (2 * j - 100), 100)) > 0 for j in range(101)), f"n = {n}"


def test_turan_recurrence_check_passes():
    report = turan_recurrence_check(25)
    assert report.status is CheckStatus.PASS
    assert report.n_range == (1, 25)
    with pytest.raises(ValueError):
        turan_recurrence_check(0)


def test_turan_recurrence_check_computes_each_member_once(members_built):
    # called outside a run, where nothing is kept: every delta_n comes from the one table
    assert turan_recurrence_check(30).status is CheckStatus.PASS
    assert members_built == {SeqKind.PHI_MONIC: 33}


def test_turan_recurrence_check_fails_a_wrong_base_case(monkeypatch):
    # h_n = -prod_{k<n} c_k solves the recurrence's homogeneous part, so delta_n + h_n
    # passes every recurrence step; only the base case sees delta_1 = -1/2
    def shifted(tab, squares, n, turan=identities._turan):
        return turan(tab, squares, n) - Poly([math.prod(F(k * (k + 1), 4) for k in range(1, n))])

    monkeypatch.setattr(identities, "_turan", shifted)
    report = turan_recurrence_check(5)
    assert report.status is CheckStatus.FAIL
    assert report.note == "failing indices: [1]"


def test_lowering_hand_case():
    # 2 tan(D/2) = D + D^3/12 + ... on degree <= 3: D p_2 = 2x = 2 p_1, and
    # D p_3 + D^3 p_3 / 12 = 3x^2 - 3/2 = 3 p_2 for p_3 = x^3 - 2x
    tab = generate(SeqKind.PHI_MONIC, 3)
    assert tab[2].derivative() == 2 * tab[1] == 2 * X
    assert tab[3].derivative() + tab[3].derivative(3) / 12 == 3 * tab[2] == Poly([F(-3, 2), 0, 3])
    report = lowering_check(3)
    assert (report.status, report.n_range) == (CheckStatus.PASS, (1, 3))


def test_lowering_check_up_to_30(monkeypatch):
    calls = []
    original = identities.elementary

    def counted(kind, order):
        calls.append((kind, order))
        return original(kind, order)

    monkeypatch.setattr(identities, "elementary", counted)
    report = lowering_check(30)
    assert report.status is CheckStatus.PASS
    assert calls == [("tan_half", 31)]  # the weights are built once, for the largest member
    with pytest.raises(ValueError):
        lowering_check(0)


def _off(series, k):
    """series with its k-th coefficient off by 1/7."""
    return tuple(c + Poly([F(1, 7)]) if j == k else c for j, c in enumerate(series))


def test_the_series_equations_hold_for_their_own_series_only():
    # f' = 1 + f^2/4 for 2 tan(u/2), (1 + t^2/4) theta' = 1 for 2 arctan(t/2), both through
    # the last coefficient and from a zero constant term
    tan, arctan, artanh = (elementary(kind, 41) for kind in ("tan_half", "arctan_half", "artanh"))
    solves_tan = functools.partial(identities._solves_series_ode, a=0, c=1)
    solves_arctan = functools.partial(identities._solves_series_ode, a=1, c=0)
    assert solves_tan(tan) and solves_arctan(arctan)
    assert not any(map(solves_tan, (arctan, artanh)))
    assert not any(map(solves_arctan, (tan, artanh)))
    for k in (0, 1, 2, 3, 5, 39, 40):
        assert not solves_tan(_off(tan, k)), k
        assert not solves_arctan(_off(arctan, k)), k
    # 2 tan(u/2 + arctan(1/2)) solves f' = 1 + f^2/4 from f(0) = 1; only the start rules it out
    shifted = [F(1)]
    for j in range(40):
        shifted.append((F(j == 0) + sum(shifted[i] * shifted[j - i] for i in range(j + 1)) / 4)
                       / (j + 1))
    assert not solves_tan(tuple(Poly([c]) for c in shifted))
    assert not solves_tan((*tan[:3], tan[3] + X, *tan[4:]))  # depends on x
    assert not solves_arctan((*arctan[:3], arctan[3] + X, *arctan[4:]))


def _broken(monkeypatch, kind, k):
    """identities reads the elementary series kind with its k-th coefficient off by 1/7."""
    original = identities.elementary

    def broken(name, order):
        series = original(name, order)
        return _off(series, k) if name == kind else series

    monkeypatch.setattr(identities, "elementary", broken)


def test_lowering_applies_weights_that_fail_their_equation(monkeypatch):
    # a wrong weight of D^5 cannot hide behind the premise: the operator runs at every n
    _broken(monkeypatch, "tan_half", 5)
    direct = lowering_check(12)
    assert direct.note == f"failing indices: {list(range(5, 13))}"
    assert lowering_check(12, 13) == direct
    assert identities.derivative_expansion_checks(12)[2] == direct


def test_a_wrong_theta_proves_no_premise(monkeypatch):
    # the expansion reads theta from the arctan_half series, so a wrong theta_3 fails it
    # from n = 2, and the two identities it implies are checked directly at every n
    _broken(monkeypatch, "arctan_half", 3)
    expansion, premise = identities._monic_expansion(12)
    assert (expansion.note, premise) == (f"failing indices: {list(range(2, 13))}", 0)
    reports = identities.derivative_expansion_checks(12)
    assert reports == [expansion, convolution_check(12), lowering_check(12)]
    assert [r.status for r in reports[1:]] == [CheckStatus.PASS] * 2


def test_a_member_p_0_of_positive_degree_proves_no_premise(monkeypatch):
    # p_0 = x, p_1 = x^2/2, p_2 = x^3/3 satisfy the expansion at n = 0 and 1, but G_x and
    # theta G differ at t^0 (1 against 0), and the convolution residual at n = 1 is -x
    table = (X, X * X / 2, X * X * X / 3)
    monkeypatch.setattr(identities, "generate", lambda kind, n_max: table[: n_max + 1])
    expansion, convolution, _ = identities.derivative_expansion_checks(1)
    assert expansion.status is CheckStatus.PASS
    assert convolution == convolution_check(1)
    assert convolution.note == "failing indices: [1]"
