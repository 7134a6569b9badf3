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

from mlpoly.polyfps import Poly, X, combine, divide_by_x, elementary, series_exp

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
    assert (X * X * X).coefficient(3) == 1
    assert Poly([1, 1]) * Poly([1, 1]) == Poly([1, 2, 1])
    assert Poly([2, 4]) / 2 == Poly([1, 2])


def test_poly_evaluation():
    p = Poly([Fraction(3, 2), 0, -5, 0, 1])
    assert p(Fraction(0)) == Fraction(3, 2)
    assert p(Fraction(1, 2)) == Fraction(5, 16)
    assert p(2.0) == pytest.approx(-2.5)


def test_poly_derivative():
    cube = X * X * X
    assert cube.derivative() == 3 * X * X
    assert cube.derivative(2) == 6 * X
    assert cube.derivative(4) == Poly()
    assert Poly([7]).derivative() == Poly()
    p = Poly([1, 2, 3])
    assert p.derivative(0) == p
    with pytest.raises(ValueError):
        p.derivative(-1)


def test_poly_shift_examples():
    assert (X * X).shift(1) == Poly([1, 2, 1])
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
    for kind in ("arctan_half", "artanh", "tan_half", "log_ratio"):
        assert len(elementary(kind, 1)) == 1
        with pytest.raises(ValueError, match="series order must be at least 1"):
            elementary(kind, 0)


def test_log_ratio_equals_doubled_artanh_termwise():
    # independent constructions of the same function
    assert elementary("log_ratio", 40) == elementary("artanh", 40)


def _cauchy(a, b):
    """The product of two series of one order, coefficient by coefficient."""
    return tuple(sum((a[k] * b[n - k] for k in range(n + 1)), Poly()) for n in range(len(a)))


def _ref_compose(outer, inner):
    """outer(inner(t)) by Horner in the series ring; inner has a zero constant term."""
    assert inner[0].is_zero()
    res = (Poly(),) * len(outer)
    for c in reversed(outer):
        res = _cauchy(res, inner)
        res = (res[0] + c, *res[1:])
    return res


def test_arctan_and_tan_are_compositional_inverses():
    order = 12
    t = (Poly(), Poly([1])) + (Poly(),) * (order - 2)
    arctan = elementary("arctan_half", order)
    tan = elementary("tan_half", order)
    assert _ref_compose(arctan, tan) == t
    assert _ref_compose(tan, arctan) == t


def test_scale_t_recovers_unhalved_arctan():
    # substituting t -> 2t in 2*arctan(t/2), coefficient m times 2^m, gives 2*arctan(t)
    doubled = [2**m * c for m, c in enumerate(elementary("arctan_half", 6))]
    assert [c.coefficient(0) for c in doubled] == [
        0, 2, 0, Fraction(-2, 3), 0, Fraction(2, 5)]


def _one(order):
    return (Poly([1]),) + (Poly(),) * (order - 1)


def test_exp_of_a_series_and_of_its_negation_multiply_to_one():
    u = (Poly(), X, Poly([Fraction(1, 3)])) + (Poly(),) * 5
    e = series_exp(u)
    assert len(e) == 8 and e[0] == Poly([1])
    assert _cauchy(e, series_exp([-c for c in u])) == _one(8)
    with pytest.raises(ValueError):
        series_exp((Poly([1]), Poly([1]), Poly(), Poly()))  # nonzero constant term


@given(st.lists(_fractions, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_exp_inverse_property(cs):
    u = [Poly()] + [Poly([c]) for c in cs[:4]] + [Poly()] * (6 - len(cs[:4]))
    assert _cauchy(series_exp(u), series_exp([-c for c in u])) == _one(7)


def test_series_exp_extracts_known_family_member():
    # [t^2] exp(x log((1+t)/(1-t))) = 2x^2
    series = series_exp([c * X for c in elementary("log_ratio", 4)])
    assert series[0] == Poly([1])
    assert series[1] == 2 * X
    assert series[2] == Poly([0, 0, 2])


def test_divide_by_t_and_by_x():
    # (exp(u) - 1)/t is exp(u) without its t^0 coefficient, which is exactly 1
    assert series_exp([Poly(), X, X * X])[0] == Poly([1])
    assert divide_by_x(2 * X) == Poly([2])
    assert divide_by_x(X * X) == X
    assert divide_by_x(Poly([0, Fraction(1, 3), 2])) == Poly([Fraction(1, 3), 2])
    assert divide_by_x(Poly()) == Poly()
    with pytest.raises(ValueError):
        divide_by_x(Poly([1]))
    with pytest.raises(ValueError):
        divide_by_x(X + Poly([1]))


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
