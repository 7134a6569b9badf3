"""Family generation against frozen members and the independent oracles.

The recurrence outputs are pinned to hand-computed low members, then cross
checked against the hypergeometric sum, the shifted Meixner sum, the series
extractions, and the imaginary-axis reduction.  Agreement across five
structurally different routes is the core correctness argument for the
whole package.
"""

import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpoly import analysis, identities, sequences
from mlpoly.polyfps import Poly, X, elementary, series_exp
from mlpoly.report import CheckStatus
from mlpoly.sequences import (Ratio, SeqKind, difference_relation_checks,
                              generate, generating_series, monic_egf,
                              oracle_hypergeometric_g, reduce_from_g, rodrigues_audit)

F = Fraction

FROZEN = {
    SeqKind.G: [
        Poly([1]),
        Poly([0, 2]),
        Poly([0, 0, 2]),
        Poly([0, F(2, 3), 0, F(4, 3)]),
        Poly([0, 0, F(4, 3), 0, F(2, 3)]),
    ],
    SeqKind.PHI: [
        Poly([2]),
        Poly([0, 2]),
        Poly([F(-2, 3), 0, F(4, 3)]),
        Poly([0, F(-4, 3), 0, F(2, 3)]),
    ],
    SeqKind.PHI_MONIC: [
        Poly([1]),
        Poly([0, 1]),
        Poly([F(-1, 2), 0, 1]),
        Poly([0, -2, 0, 1]),
        Poly([F(3, 2), 0, -5, 0, 1]),
        Poly([0, F(23, 2), 0, -10, 0, 1]),
    ],
    SeqKind.G_MONIC: [
        Poly([1]),
        Poly([0, 1]),
        Poly([0, 0, 1]),
        Poly([0, F(1, 2), 0, 1]),
    ],
    SeqKind.PIDDUCK: [
        Poly([1]),
        Poly([1, 2]),
        Poly([1, 2, 2]),
    ],
}


def test_frozen_low_members():
    for kind, members in FROZEN.items():
        table = generate(kind, len(members) - 1)
        for n, expected in enumerate(members):
            assert table[n] == expected, f"{kind.value} member {n}"


def test_recurrence_families_have_one_definition():
    first_two = {SeqKind.G: [Poly([1]), 2 * X], SeqKind.PHI: [Poly([2]), 2 * X],
                 SeqKind.PHI_MONIC: [Poly([1]), X], SeqKind.G_MONIC: [Poly([1]), X],
                 SeqKind.PIDDUCK: [Poly([1]), Poly([1, 2])]}
    assert set(sequences.RECURRENCES) == set(first_two) == set(SeqKind)
    assert all(type(r) is Ratio for rec in sequences.RECURRENCES.values()
               for r in (rec.a, rec.b, rec.d))
    for kind, first in first_two.items():
        members = sequences.RECURRENCES[kind].members(30)
        assert members[:2] == first
        assert generate(kind, 30) == tuple(members)
    assert sequences.RECURRENCES[SeqKind.G].members(0) == [Poly([1])]


def _members_by_poly_operations(rec, n_max):
    polys = [Poly(), Poly([rec.p0])]
    for n in range(n_max):
        polys.append(Poly([rec.d(n), rec.a(n)]) * polys[-1] + rec.b(n) * polys[-2])
    return polys[1:]


# fractional a, b and d with unrelated denominators, none of them a family's
_PERTURBED = sequences.Recurrence(3, Ratio((3, 2), (7, 3)), Ratio((-1, 0, -1), (2, 5)),
                                  d=Ratio((-4, 1), (1, 6)))


def test_fused_recurrence_step_builds_the_same_tables():
    for kind, rec in sequences.RECURRENCES.items():
        assert rec.members(200) == _members_by_poly_operations(rec, 200), kind
    assert _PERTURBED.members(60) == _members_by_poly_operations(_PERTURBED, 60)


@given(st.sampled_from([*sequences.RECURRENCES.items(), (SeqKind.G, _PERTURBED)]),
       st.integers(0, 40),
       st.one_of(st.just(F(0)), st.fractions(max_value=0),
                 st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**60))))
@settings(max_examples=150, deadline=None)
def test_value_is_the_table_member_at_the_point(kind_entry, n, x):
    kind, entry = kind_entry
    with mock.patch.dict(sequences.RECURRENCES, {kind: entry}):
        assert entry.value(n, x) == generate(kind, n)[n](x)


def test_stepping_a_recurrence_builds_no_fraction_per_step(monkeypatch):
    # value builds its one result; members and member_values build none
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    x, t = F(5, 7), np.linspace(-3.0, 3.0, 7)
    for kind, entry in sequences.RECURRENCES.items():
        counts = []
        for n in (20, 200):
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
            built.clear()
            entry.value(n, x)
            entry.members(n)
            analysis.member_values(kind, min(n, 120), t)  # the monic rows pass 1e308 by 200
            monkeypatch.undo()
            counts.append(len(built))
        assert counts == [1, 1], kind


@given(st.lists(st.integers(-10**6, 10**6), max_size=5), st.integers(0, 24))
@settings(max_examples=200, deadline=None)
def test_values_are_the_polynomial_at_each_n(coeffs, count):
    # up to 24 values reach the difference table at every length, as well as direct Horner
    expected = [sum(c * k**i for i, c in enumerate(coeffs)) for k in range(count)]
    assert sequences._values(tuple(coeffs), count) == expected


# degree <= 2 in n; a denominator with positive coefficients has no root at n >= 0, and its
# negation tests the sign normalization of Ratio.terms
_NUMS = st.lists(st.integers(-9, 9), min_size=1, max_size=3).map(tuple)
_DENS = st.lists(st.integers(0, 9), max_size=2).flatmap(
    lambda rest: st.sampled_from([1, -1]).flatmap(
        lambda sign: st.integers(1, 9).map(lambda c0: tuple(sign * c for c in (c0, *rest)))))


@given(st.integers(-3, 3), st.builds(Ratio, _NUMS, _DENS), st.builds(Ratio, _NUMS, _DENS),
       st.builds(Ratio, _NUMS.filter(any), _DENS), st.integers(0, 12),
       st.fractions(min_value=-5, max_value=5, max_denominator=50))
@settings(max_examples=100, deadline=None)
def test_a_random_entry_steps_alike_on_tables_points_and_floats(p0, a, b, d, n, x):
    entry = sequences.Recurrence(p0, a, b, d)
    assert entry.value(n, x) == entry.members(n)[n](x)
    # the float rows, bit for bit, against the recurrence on float(Fraction(num, den))
    t = np.array([-2.5, -0.5, 0.0, 0.75, 3.0])
    with mock.patch.dict(sequences.RECURRENCES, {SeqKind.G: entry}):
        rows = analysis.member_values(SeqKind.G, n, t)
    expected = np.empty((n + 2, t.size))
    expected[0], expected[1] = 0.0, p0
    for k in range(n):
        expected[k + 2] = ((float(a(k)) * t + float(d(k))) * expected[k + 1]
                           + float(b(k)) * expected[k])
    assert rows.tobytes() == expected[1:].tobytes()


def test_ratios_and_entries_compare_and_hash_by_value(monkeypatch, members_built):
    r = Ratio((2,), (1, 1))
    assert r == Ratio((2,), (1, 1)) and hash(r) == hash(Ratio((2,), (1, 1)))
    assert r != Ratio((2,), (1, 2)) and -r == Ratio((-2,), (1, 1)) and -(-r) == r
    assert r(3) == F(1, 2) and r.terms(4) == ([2, 2, 2, 2], [1, 2, 3, 4])
    assert Ratio((0, 0, 1), (-1,)).terms(4) == ([0, -1, -4, -9], [1, 1, 1, 1])
    with pytest.raises(ZeroDivisionError):
        Ratio((1,), (-2, 1)).terms(3)
    # an equal G entry built apart is the entry the process's G table was built from, so
    # that table serves it, in a run and outside one
    g = sequences.RECURRENCES[SeqKind.G]
    twin = sequences.Recurrence(1, Ratio((2,), (1, 1)), Ratio((-1, 1), (1, 1)))
    assert twin == g and hash(twin) == hash(g) and twin is not g
    held = generate(SeqKind.G, 12)
    monkeypatch.setitem(sequences.RECURRENCES, SeqKind.G, twin)
    assert generate(SeqKind.G, 12) is held
    with sequences.shared_run():
        assert generate(SeqKind.G, 12) is held
    assert members_built == Counter({SeqKind.G: 13})


def test_generate_validates_input():
    with pytest.raises(ValueError):
        generate(SeqKind.G, -1)


def test_monic_families_are_monic():
    for kind in (SeqKind.PHI_MONIC, SeqKind.G_MONIC):
        table = generate(kind, 15)
        for n in range(16):
            assert table[n].coefficient(n) == 1
            assert table[n].degree == n


def test_monic_rescaling_of_base_family():
    # the monic recurrence against the rescaled base table and the rescaled G series
    g = generate(SeqKind.G, 60)
    g_series = generating_series(SeqKind.G, 61)
    g_monic = generate(SeqKind.G_MONIC, 60)
    for n in range(61):
        scale = F(math.factorial(n), 2**n)
        assert g_monic[n] == scale * g[n] == scale * g_series[n]


def test_pidduck_recurrence_equals_shift_average_and_series():
    g = generate(SeqKind.G, 60)
    pidduck = generate(SeqKind.PIDDUCK, 60)
    for n in range(61):
        assert pidduck[n] == (g[n].shift(1) + g[n]) / 2
    assert generating_series(SeqKind.PIDDUCK, 61) == pidduck


def test_oracle_equivalence_g():
    g = generate(SeqKind.G, 20)
    series = generating_series(SeqKind.G, 21)
    poch_y = sequences._pochhammer(0, 20)
    for n in range(1, 21):
        assert g[n] == oracle_hypergeometric_g(n)
        assert g[n] == sequences._meixner_g(n, poch_y)
        assert g[n] == series[n]


def test_oracle_equivalence_phi():
    phi = generate(SeqKind.PHI, 20)
    phi_monic = generate(SeqKind.PHI_MONIC, 20)
    phi_series, monic_series = (generating_series(kind, 21)
                                for kind in (SeqKind.PHI, SeqKind.PHI_MONIC))
    for n in range(21):
        assert phi[n] == phi_series[n]
        assert phi[n] == reduce_from_g(n)
        assert phi_monic[n] == monic_series[n] * math.factorial(n)
        assert phi_monic[n] == F(math.factorial(n + 1), 2 ** (n + 1)) * phi[n]


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        oracle_hypergeometric_g(0)
    with pytest.raises(ValueError):
        generating_series(SeqKind.G_MONIC, 4)
    for kind in (SeqKind.G, SeqKind.PHI, SeqKind.PHI_MONIC, SeqKind.PIDDUCK):
        with pytest.raises(ValueError, match="series order must be at least 1"):
            generating_series(kind, 0)
    with pytest.raises(ValueError):
        reduce_from_g(-1)
    with pytest.raises(ValueError):
        monic_egf(0)


def test_monic_egf_small_orders():
    # regression: the denominator 1 + t^2/4 must truncate cleanly below order 3
    assert monic_egf(1) == (Poly([1]),)
    assert monic_egf(2) == (Poly([1]), X)
    assert monic_egf(3) == (Poly([1]), X, Poly([F(-1, 4), 0, F(1, 2)]))
    assert generating_series(SeqKind.PHI_MONIC, 1) == (Poly([1]),)
    # the PHI route drops the t^0 coefficient of an exponential one longer than it returns
    assert generating_series(SeqKind.PHI, 1) == (Poly([2]),)
    assert generating_series(SeqKind.PHI, 2) == (Poly([2]), 2 * X)


def test_reduction_examples():
    assert reduce_from_g(0) == Poly([2])
    assert reduce_from_g(1) == 2 * X
    assert reduce_from_g(2) == Poly([F(-2, 3), 0, F(4, 3)])


# The routes as each rebuilt its pieces per call: the references of the shared-basis sums,
# the division recurrence of the monic series and the sign pattern of the reduction.
def _ref_hypergeometric_g(n):
    terms, scalar, poch_x = Poly(), F(1), Poly([1])
    for j in range(n):
        terms = terms + 2 * scalar * X * poch_x
        scalar = scalar * F(2 * (1 - n + j), (2 + j) * (j + 1))
        poch_x = poch_x * Poly([1 + j, -1])
    return terms


def _ref_meixner_g(n):
    k, beta, z = n - 1, F(2), 1 - 1 / F(-1)
    m, scalar, poch_y = Poly(), F(1), Poly([1])
    for j in range(k + 1):
        m = m + scalar * poch_y
        scalar = scalar * (-k + j) * z / ((beta + j) * (j + 1))
        poch_y = poch_y * Poly([j, -1])
    return 2 * X * m.shift(-1)


# Gaussian rationals as (re, im) pairs of Fractions, for the reference of the imaginary-axis
# reduction and the identity that relation 3 rests on.
def _gauss_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gauss_horner(cs, z):
    """sum_k cs[k] z^k for rational cs at a Gaussian point z."""
    acc = (F(0), F(0))
    for c in reversed(cs):
        re, im = _gauss_mul(acc, z)
        acc = (re + c, im)
    return acc


def _ref_reduce_from_g(n):
    g = generate(SeqKind.G, n + 1)[n + 1]
    if g.coefficient(0):
        raise ValueError("source polynomial has a nonzero constant term; cannot divide by x")
    out = []
    for k in range(1, g.degree + 1):
        i_power = (F(1), F(0))
        for _ in range((k - n - 1) % 4):  # i^(k-n-1), the exponent taken mod 4
            i_power = _gauss_mul(i_power, (F(0), F(1)))
        re, im = _gauss_mul(i_power, (g.coefficient(k), F(0)))
        if im:
            raise ValueError("imaginary residue in the reduction; sign convention broken")
        out.append(re)
    return Poly(out)


def test_the_shared_basis_sums_equal_the_public_oracles():
    poch_x, poch_y = sequences._pochhammer(1, 60), sequences._pochhammer(0, 60)
    assert poch_x[3] == Poly([1, -1]) * Poly([2, -1]) * Poly([3, -1])
    assert poch_y[3] == Poly([0, -1]) * Poly([1, -1]) * Poly([2, -1])
    for n in range(1, 61):
        assert (sequences._hypergeometric_g(n, poch_x) == oracle_hypergeometric_g(n)
                == _ref_hypergeometric_g(n)), n
        assert sequences._meixner_g(n, poch_y) == _ref_meixner_g(n), n


def test_the_g_oracles_build_each_pochhammer_basis_once(monkeypatch):
    # one product by a degree-one factor (a - x) per basis member past (a - x)_0: 2(n - 1)
    # per call, where rebuilding both bases for every index took n(n + 1)
    products = []
    poly_mul = Poly.__mul__

    def counted(self, other):
        if isinstance(other, Poly) and other.degree == 1 and other.coefficient(1) == -1:
            products.append(other)
        return poly_mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    for n, expected in ((10, 18), (20, 38)):
        products.clear()
        assert sequences.g_oracle_mismatches(n) == ()
        assert len(products) == expected, n


def _cauchy(a, b):
    """The product of two series of one order, coefficient by coefficient."""
    return tuple(sum((a[k] * b[n - k] for k in range(n + 1)), Poly()) for n in range(len(a)))


def _ref_series_quotient(num, den):
    """num/den for series of one order whose t^0 coefficient of den is a nonzero constant:
    num times 1/den, whose t^n coefficient is -(sum_{k=1..n} d_k r_{n-k}) / d_0."""
    inv0 = 1 / den[0].coefficient(0)
    r = [Poly([inv0])]
    for n in range(1, len(den)):
        acc = Poly()
        for k in range(1, n + 1):
            acc = acc + den[k] * r[n - k]
        r.append(-inv0 * acc)
    return _cauchy(num, r)


def test_monic_egf_equals_the_series_division():
    for order in range(1, 61):
        numerator = series_exp([c * X for c in elementary("arctan_half", order)])
        denominator = ((Poly([1]), Poly(), Poly([F(1, 4)])) + (Poly(),) * order)[:order]
        assert monic_egf(order) == _ref_series_quotient(numerator, denominator), order


def test_reduce_from_g_equals_the_i_power_map():
    for n in range(61):
        assert reduce_from_g(n) == _ref_reduce_from_g(n), n


@pytest.mark.parametrize("at, message", [(0, "nonzero constant term"),
                                         (3, "imaginary residue")])
def test_reduce_from_g_refuses_a_g_table_off_the_imaginary_axis(perturb, at, message):
    # d(0) gives g_1 a constant term; d(3) gives g_4 terms of the wrong parity
    perturb(SeqKind.G, "d", F(1, 7), at)
    for reduce in (reduce_from_g, _ref_reduce_from_g):
        with pytest.raises(ValueError, match=message):
            reduce(at)


def test_pidduck_difference_invariant():
    # P_n - P_{n-1} = g_n, a consequence of the shift-average definition
    g = generate(SeqKind.G, 15)
    p = generate(SeqKind.PIDDUCK, 15)
    for n in range(1, 16):
        assert p[n] - p[n - 1] == g[n]


def test_special_values():
    g = generate(SeqKind.G, 20)
    for n in range(1, 21):
        assert g[n](F(1)) == 2
        assert g[n](F(0)) == 0


def test_parity():
    phi = generate(SeqKind.PHI, 16)
    phi_monic = generate(SeqKind.PHI_MONIC, 16)
    for n in range(17):
        for table in (phi, phi_monic):
            flipped = Poly([(-1) ** k * c for k, c in enumerate(table[n].coeffs)])
            assert flipped == (-1) ** n * table[n]


@given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=24), max_size=9),
       st.integers(min_value=0, max_value=12),
       st.fractions(min_value=-20, max_value=20, max_denominator=24))
@settings(max_examples=100, deadline=None)
def test_relation_3_is_2i_times_the_trig_operator_residual(cs, n, x0):
    # for every real p, (x+i) p(x+i) - 2(n+1)i p(x) - (x-i) p(x-i) = 2i r with
    # r = (cos D + x sin D) p - (n+1) p: the left side at x0 by Horner on Gaussian pairs
    terms = [_gauss_mul((x0, F(s)), _gauss_horner(cs, (x0, F(s)))) for s in (1, -1)]
    middle = _gauss_mul((F(0), F(-2 * (n + 1))), _gauss_horner(cs, (x0, F(0))))
    left = (terms[0][0] + middle[0] - terms[1][0], terms[0][1] + middle[1] - terms[1][1])
    p = Poly(cs)
    r = identities._apply(p, [Poly([-n]), *identities._trig_weights(p.degree)[1:]])
    assert left == (0, 2 * r(x0))


def test_difference_relation_checks_pass():
    reports = difference_relation_checks(20)
    assert [r.identity for r in reports] == [
        "difference-relation-g",
        "recurrence-difference-g",
    ]
    assert all(r.status is CheckStatus.PASS for r in reports)
    with pytest.raises(ValueError):
        difference_relation_checks(0)


def test_generate_shares_a_live_table(members_built):
    # a shorter table is a prefix of the kept one and a longer one continues it
    big = generate(SeqKind.PHI_MONIC, 30)
    small = generate(SeqKind.PHI_MONIC, 12)
    assert len(small) == 13
    assert all(a is b for a, b in zip(small, big))
    assert generate(SeqKind.PHI_MONIC, 30) is big
    longer = generate(SeqKind.PHI_MONIC, 40)
    assert all(a is b for a, b in zip(big, longer))
    assert generate(SeqKind.PHI_MONIC, 40) is longer
    assert members_built == Counter({SeqKind.PHI_MONIC: 41})
    assert longer == tuple(sequences.RECURRENCES[SeqKind.PHI_MONIC].members(40))


def _count_elementary(monkeypatch):
    calls = []
    original = sequences.elementary

    def counted(kind, order):
        calls.append(kind)
        return original(kind, order)

    monkeypatch.setattr(sequences, "elementary", counted)
    return calls


def test_a_live_g_series_serves_every_later_read(monkeypatch):
    calls = _count_elementary(monkeypatch)
    with sequences.shared_run():
        held = generating_series(SeqKind.G, 31)
        assert generating_series(SeqKind.G, 31) is held
        assert generating_series(SeqKind.G, 12) == held[:12]
        pidduck = generating_series(SeqKind.PIDDUCK, 31)
    assert calls == ["log_ratio"]  # the Pidduck series is summed from the kept G series
    assert pidduck[30] - pidduck[29] == held[30]


def test_a_table_outlives_its_run_and_nothing_else_does(monkeypatch, members_built):
    calls = _count_elementary(monkeypatch)
    with sequences.shared_run():
        assert sequences.g_oracle_mismatches(8) == ()
        held = generate(SeqKind.G, 25)
    assert members_built == Counter({SeqKind.G: 26}) and calls == ["log_ratio"]
    members_built.clear()
    calls.clear()
    # the table is the process's: later calls, in a run or outside one, read it
    assert all(a is b for a, b in zip(generate(SeqKind.G, 12), held))
    assert len(generate(SeqKind.G, 12)) == 13 and generate(SeqKind.G, 25) is held
    with sequences.shared_run():
        assert generate(SeqKind.G, 25) is held
    # the series and the oracles' verdicts are the run's: outside one each call builds them
    assert sequences.g_oracle_mismatches(8) == sequences.g_oracle_mismatches(8) == ()
    assert generating_series(SeqKind.G, 9) is not generating_series(SeqKind.G, 9)
    assert members_built == Counter() and calls == ["log_ratio"] * 4
    # a longer request continues the kept table
    longer = generate(SeqKind.G, 30)
    assert all(a is b for a, b in zip(held, longer)) and len(longer) == 31
    assert members_built == Counter({SeqKind.G: 5})


def test_a_held_table_is_not_served_for_a_replaced_entry(members_built):
    # one table per family: a patched entry's table replaces the held one, and once the
    # patch is undone the family's own entry builds an equal table afresh, then keeps it
    held = generate(SeqKind.PHI, 6)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sequences.RECURRENCES, SeqKind.PHI,
                      sequences.RECURRENCES[SeqKind.PHI]._replace(p0=3))
        assert generate(SeqKind.PHI, 6)[0] == Poly([3])
        assert generate(SeqKind.PHI, 4)[0] == Poly([3])
    again = generate(SeqKind.PHI, 6)
    assert again == held and again is not held
    assert generate(SeqKind.PHI, 6) is again
    assert members_built == Counter({SeqKind.PHI: 3 * 7})


def test_seq_kind_tokens():
    for kind in SeqKind:
        assert SeqKind.from_token(kind.token) is kind
    assert SeqKind.from_token("phi-monic") is SeqKind.PHI_MONIC
    with pytest.raises(ValueError):
        SeqKind.from_token("legendre")


def test_generate_returns_the_tuple_of_members():
    assert generate(SeqKind.PHI_MONIC, 2) == (Poly([1]), X, Poly([F(-1, 2), 0, 1]))


def test_rodrigues_audit_reports_mismatch():
    report = rodrigues_audit(1)
    assert report.status is CheckStatus.AUDITED
    assert "MISMATCH" in report.note
    assert report.note.count("x=") == 4
    # independent evaluation: at n = 1 the printed right-hand side is 4x tan(pi x),
    # the polynomial g_1 is 2x, and the audit samples x = 0.1 .. 0.4
    w = lambda y: math.gamma(1 - y) * math.gamma(1 + y)
    expected_dev = 0.0
    for x in (0.1, 0.2, 0.3, 0.4):
        rhs = 4 * x * math.tan(math.pi * x)
        assert 2.0 * (x / w(x)) * (w(x + 0.5) - w(x - 0.5)) == pytest.approx(rhs, rel=1e-12)
        poly_value = 2 * x
        expected_dev = max(expected_dev,
                           abs(rhs - poly_value) / max(abs(rhs), abs(poly_value), 1.0))
    assert report.max_deviation == pytest.approx(expected_dev, rel=1e-9)


def test_rodrigues_audit_validates_input():
    with pytest.raises(ValueError):
        rodrigues_audit(0)
