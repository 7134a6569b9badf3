"""Polynomial and truncated-series layer.

The elementary series are pinned to hand-expanded leading terms and to each
other: the two arctangent-flavored maps must be mutual compositional
inverses, and the log-difference series must coincide termwise with the
doubled artanh expansion even though the two are built from different
formulas.
"""

import math
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlpoly.polyfps import Poly, PolySeries, X, combine, elementary

_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=24)
_polys = st.lists(_fractions, max_size=6).map(Poly)
# coefficient lists, kept next to the Poly built from them
_coeff_lists = st.lists(_fractions, max_size=7)
_scalars = st.one_of(_fractions, st.integers(-9, 9))
# kernel terms as coefficient lists: (c, a) for c a, (c, a, b) for c a b
_terms = st.lists(st.one_of(st.tuples(_scalars, _coeff_lists),
                            st.tuples(_scalars, _coeff_lists, _coeff_lists)), max_size=5)


def test_poly_construction_trims_and_reports_degree():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly().degree == -1
    assert Poly().is_zero()
    assert Poly([0, 0]).is_zero()
    assert Poly([5]).degree == 0
    assert X.degree == 1
    assert Poly([1, 2]).coefficient(1) == 2
    for inexact in (0.5, 1j):
        with pytest.raises(TypeError):
            Poly([1, inexact])


def test_poly_is_immutable_and_hashable():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = ()
    assert hash(Poly([1, 2])) == hash(p)
    assert {p: "v"}[Poly([1, 2])] == "v"


def test_poly_arithmetic_examples():
    assert (X + Poly([1])) * (X - Poly([1])) == Poly([-1, 0, 1])
    assert 2 * X == Poly([0, 2])
    assert X * Fraction(1, 2) == Poly([0, Fraction(1, 2)])
    assert (X**3).coefficient(3) == 1
    assert X**0 == Poly([1])
    assert Poly([1, 1]) ** 2 == Poly([1, 2, 1])
    assert Poly([2, 4]) / 2 == Poly([1, 2])
    with pytest.raises(ValueError):
        X ** (-1)


def test_poly_evaluation():
    p = Poly([Fraction(3, 2), 0, -5, 0, 1])
    assert p(Fraction(0)) == Fraction(3, 2)
    assert p(Fraction(1, 2)) == Fraction(5, 16)
    assert p(2.0) == pytest.approx(-2.5)


def test_poly_derivative():
    assert (X**3).derivative() == 3 * X**2
    assert (X**3).derivative(2) == 6 * X
    assert (X**3).derivative(4) == Poly()
    assert Poly([7]).derivative() == Poly()
    p = Poly([1, 2, 3])
    assert p.derivative(0) == p
    with pytest.raises(ValueError):
        p.derivative(-1)


def test_poly_shift_examples():
    assert (X**2).shift(1) == Poly([1, 2, 1])
    assert (2 * X).shift(Fraction(-1, 2)) == Poly([-1, 2])


@given(_polys, _fractions, _fractions)
@settings(max_examples=60, deadline=None)
def test_poly_shift_is_evaluation_compatible(p, a, b):
    assert p.shift(a)(b) == p(a + b)
    assert p.shift(a).shift(-a) == p


@given(_polys, _polys, _polys)
@settings(max_examples=60, deadline=None)
def test_poly_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p - p == Poly()


@given(_polys, _fractions)
@settings(max_examples=60, deadline=None)
def test_poly_evaluation_is_linear_and_multiplicative(p, x):
    q = Poly([1, -2, 3])
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


def test_poly_string_forms():
    p = Poly([Fraction(-1, 2), 0, 1])
    assert str(p) == "x^2 - 1/2"
    assert str(Poly()) == "0"
    assert str(Poly([0, -1])) == "-x"
    assert p.to_strings() == ["-1/2", "0", "1"]
    assert Poly([Fraction(c) for c in p.to_strings()]) == p


@given(st.one_of(_coeff_lists, st.lists(st.integers(-10**30, 10**30), max_size=7)))
@settings(max_examples=80, deadline=None)
def test_to_strings_writes_fraction_strings(a):
    # zero numerators, and integer polynomials, whose denominator is 1, among them
    p = Poly(a)
    assert p.to_strings() == [str(c) for c in p.coeffs]


def test_series_constructor_enforces_order_invariant():
    s = PolySeries(3, [1, 2])
    assert s.coeffs == (Poly([1]), Poly([2]), Poly())
    with pytest.raises(ValueError):
        PolySeries(2, [1, 2, 3])
    with pytest.raises(ValueError):
        PolySeries(0)


def test_series_coeff_access_is_bounded():
    s = PolySeries.one(4)
    assert s.coeff(0) == Poly([1])
    with pytest.raises(IndexError):
        s.coeff(4)
    with pytest.raises(IndexError):
        s.coeff(-1)


def test_series_binary_ops_truncate_to_smaller_order():
    a = PolySeries(5, [1, 1, 1, 1, 1])
    b = PolySeries(3, [1, 2])
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert (a * b).coeff(2) == Poly([3])  # 1*0 + 1*2 + 1*1
    with pytest.raises(ValueError):
        b.truncate(4)


def test_elementary_leading_terms():
    arctan = elementary("arctan_half", 7)
    assert [c.coefficient(0) for c in arctan] == [
        0, 1, 0, Fraction(-1, 12), 0, Fraction(1, 80), 0]
    tan = elementary("tan_half", 8)
    assert [c.coefficient(0) for c in tan] == [
        0, 1, 0, Fraction(1, 12), 0, Fraction(1, 120), 0, Fraction(17, 20160)]
    artanh = elementary("artanh", 6)
    assert [c.coefficient(0) for c in artanh] == [
        0, 2, 0, Fraction(2, 3), 0, Fraction(2, 5)]
    with pytest.raises(ValueError):
        elementary("exp", 4)


def test_log_ratio_equals_doubled_artanh_termwise():
    # independent constructions of the same function
    assert elementary("log_ratio", 40) == elementary("artanh", 40)


def _ref_compose(outer, inner):
    """outer(inner(t)) by Horner in the series ring; inner has a zero constant term."""
    assert inner.coeff(0).is_zero()
    res = PolySeries(outer.order)
    for c in reversed(outer.coeffs):
        res = res * inner + PolySeries(outer.order, [c])
    return res


def test_arctan_and_tan_are_compositional_inverses():
    order = 12
    t = PolySeries(order, [Poly(), Poly([1])])
    arctan = elementary("arctan_half", order)
    tan = elementary("tan_half", order)
    assert _ref_compose(arctan, tan) == t
    assert _ref_compose(tan, arctan) == t


def test_scale_t_recovers_unhalved_arctan():
    # substituting t -> 2t in 2*arctan(t/2) gives 2*arctan(t)
    doubled = elementary("arctan_half", 6).scale_t(2)
    assert [c.coefficient(0) for c in doubled] == [
        0, 2, 0, Fraction(-2, 3), 0, Fraction(2, 5)]


def test_exp_of_a_series_and_of_its_negation_multiply_to_one():
    u = PolySeries(8, [Poly(), X, Poly([Fraction(1, 3)])])
    e = u.exp()
    assert e.coeff(0) == Poly([1])
    assert e * (-u).exp() == PolySeries.one(8)
    with pytest.raises(ValueError):
        PolySeries(4, [1, 1]).exp()  # nonzero constant term


@given(st.lists(_fractions, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_exp_inverse_property(cs):
    u = PolySeries(7, [Poly()] + [Poly([c]) for c in cs[:4]])
    assert u.exp() * (-u).exp() == PolySeries.one(7)


def test_series_exp_extracts_known_family_member():
    # [t^2] exp(x log((1+t)/(1-t))) = 2x^2
    series = (elementary("log_ratio", 4) * X).exp()
    assert series.coeff(0) == Poly([1])
    assert series.coeff(1) == 2 * X
    assert series.coeff(2) == Poly([0, 0, 2])


def test_divide_by_t_and_by_x():
    s = PolySeries(4, [Poly(), 2 * X, X * X])
    shifted = s.divide_by_t()
    assert shifted.order == 3
    assert shifted.coeff(0) == 2 * X
    reduced = s.divide_coeffs_by_x()
    assert reduced.coeff(1) == Poly([2])
    assert reduced.coeff(2) == X
    with pytest.raises(ValueError):
        PolySeries.one(4).divide_by_t()
    with pytest.raises(ValueError):
        PolySeries(3, [Poly([1])]).divide_coeffs_by_x()
    with pytest.raises(ValueError):
        PolySeries(1, [Poly()]).divide_by_t()


def test_series_dx():
    s = PolySeries(3, [X * X, 2 * X, Poly([5])])
    assert s.dx() == PolySeries(3, [2 * X, Poly([2]), Poly()])


def test_series_equality_and_iteration():
    a = PolySeries(3, [1, 2])
    assert a == PolySeries(3, [Poly([1]), Poly([2]), Poly()])
    assert a != PolySeries(4, [1, 2])
    assert list(a) == [Poly([1]), Poly([2]), Poly()]
    assert hash(a) == hash(PolySeries(3, [1, 2]))
    with pytest.raises(AttributeError):
        a.order = 5


# The integer kernel against a naive per-coefficient reference over Fraction,
# which is how Poly computed before its integer form.

def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _ref_shift(cs, a):
    # coefficient j of sum_k c_k (x + a)^k is sum_{k >= j} C(k, j) c_k a^(k - j)
    out = []
    for j in range(len(cs)):
        acc, power = Fraction(0), Fraction(1)
        for k in range(j, len(cs)):
            acc = acc + math.comb(k, j) * cs[k] * power
            power = power * a
        out.append(acc)
    return _trim(out)


def _ref_float_horner(cs, x):
    acc = x * 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _assert_canonical(p):
    num, den = p._num, p._den
    assert den > 0
    assert math.gcd(den, *num) == 1
    assert not num or num[-1]


@given(_coeff_lists, _coeff_lists)
@settings(max_examples=80, deadline=None)
def test_kernel_ring_operations_match_the_reference(a, b):
    p, q = Poly(a), Poly(b)
    pairs = list(zip_longest(a, b, fillvalue=Fraction(0)))
    assert (p + q).coeffs == _trim(x + y for x, y in pairs)
    assert (p - q).coeffs == _trim(x - y for x, y in pairs)
    assert (p * q).coeffs == _ref_mul(a, b)
    assert (-p).coeffs == _trim(-x for x in a)
    for r in (p, q, p + q, p - q, p * q, -p):
        _assert_canonical(r)


@given(_coeff_lists, _scalars)
@settings(max_examples=80, deadline=None)
def test_kernel_scalar_products_match_the_reference(a, c):
    p = Poly(a)
    assert (p * c).coeffs == _trim(x * c for x in a)
    assert (c * p).coeffs == (p * c).coeffs
    _assert_canonical(p * c)


@given(_coeff_lists, _fractions.filter(bool))
@settings(max_examples=60, deadline=None)
def test_kernel_scalar_division_matches_the_reference(a, c):
    p = Poly(a) / c
    assert p.coeffs == _trim(x * (1 / c) for x in a)
    _assert_canonical(p)


def test_kernel_division_by_zero_and_by_gaussian():
    with pytest.raises(ZeroDivisionError):
        X / 0
    # a Gaussian scalar is not a coefficient
    with pytest.raises(TypeError):
        X / 1j


def _ref_combine(terms):
    out = []
    for c, *factors in terms:
        product = _ref_mul(*factors) if len(factors) == 2 else _trim(*factors)
        out = [x + c * y for x, y in zip_longest(out, product, fillvalue=Fraction(0))]
    return _trim(out)


@given(_terms)
@settings(max_examples=120, deadline=None)
# every branch of the kernel, whatever is drawn: a single term of each shape, int and zero
# scalars, and zero polynomials on either side of a product
@example([(3, [Fraction(1, 2), 1])])
@example([(Fraction(-2, 3), [1, 2], [Fraction(1, 5)])])
@example([(0, [1, 2]), (0, [1], [3]), (4, []), (5, [], [1, 2]), (6, [1, 2], [0, 0])])
@example([(1, [2, 3], [1]), (-7, [1], [1, 2, 3]), (2, [Fraction(1, 6)]), (True, [5])])
def test_kernel_combine_matches_the_reference(terms):
    as_polys = [(c, *map(Poly, factors)) for c, *factors in terms]
    total = combine(as_polys)
    assert total.coeffs == _ref_combine(terms)
    _assert_canonical(total)
    # each term with its negation: the sum cancels to the canonical zero
    cancelled = combine(as_polys + [(-c, *factors) for c, *factors in as_polys])
    assert (cancelled._num, cancelled._den) == ((), 1)


def test_kernel_combine_examples():
    assert combine([]) == Poly() and combine(iter(())) == Poly()
    assert combine([(Fraction(1, 2), X, X), (Fraction(-1, 2), X, X), (3, Poly([2]))]) == Poly([6])
    assert combine([(0, X), (1, Poly(), X)]) == Poly()


@given(_coeff_lists, st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_kernel_derivative_matches_the_reference(a, k):
    cs = _trim(a)
    for _ in range(k):
        cs = _trim(j * c for j, c in enumerate(cs) if j >= 1)
    assert Poly(a).derivative(k).coeffs == cs
    _assert_canonical(Poly(a).derivative(k))


@given(_coeff_lists, st.one_of(_fractions, st.integers(-3, 3)))
@settings(max_examples=80, deadline=None)
def test_kernel_shift_matches_the_reference(a, shift):
    p = Poly(a).shift(shift)
    assert p.coeffs == _ref_shift(_trim(a), shift)
    _assert_canonical(p)


@given(_coeff_lists, st.one_of(_fractions, st.integers(-9, 9)))
@settings(max_examples=80, deadline=None)
def test_kernel_rational_evaluation_matches_the_reference(a, x):
    expected = sum((c * Fraction(x) ** k for k, c in enumerate(a)), Fraction(0))
    assert Poly(a)(x) == expected


@given(_coeff_lists, st.floats(min_value=-50, max_value=50))
@settings(max_examples=80, deadline=None)
def test_kernel_float_evaluation_is_bit_identical_to_fraction_horner(a, x):
    assert Poly(a)(x) == _ref_float_horner(_trim(a), x)


def test_float_evaluation_past_the_float_range_raises_overflow():
    with pytest.raises(OverflowError):
        Poly([Fraction(10**400, 3)])(1.0)


def test_canonical_form_examples():
    p = Poly([Fraction(2, 6), Fraction(4, 6), 0, 0])
    assert (p._num, p._den) == ((1, 2), 3)
    z = Poly([0, 0])
    assert (z._num, z._den) == ((), 1)
    assert (Poly([-2, 4]) / -2)._den == 1


def test_hash_agrees_with_equality_across_coefficient_types():
    assert Poly([1, 2]) == Poly([Fraction(2, 2), 2])
    assert hash(Poly([Fraction(2, 2), 2])) == hash(Poly([1, 2]))
    assert len({Poly([1, 2]), Poly([Fraction(1), Fraction(2)])}) == 1
    shifted = (X * X).shift(Fraction(1, 3)).shift(Fraction(-1, 3))
    assert shifted == X * X and hash(shifted) == hash(X * X)
