"""Scalar layer: Bernoulli numbers and even zeta values.

The Bernoulli and zeta values are checked against two independent routes:
the Akiyama-Tanigawa triangle (exact) and Euler-Maclaurin-corrected partial
sums (float), so a sign or indexing slip in the defining recurrence cannot
pass unnoticed.
"""

import math
from fractions import Fraction

import pytest

from mlpoly.exactnum import bernoulli, zeta_even

KNOWN_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def test_bernoulli_known_values():
    for n, b in KNOWN_BERNOULLI.items():
        assert bernoulli(n) == b


def test_bernoulli_odd_indices_vanish():
    assert all(bernoulli(n) == 0 for n in range(3, 62, 2))


def test_bernoulli_rejects_negative_index():
    with pytest.raises(ValueError):
        bernoulli(-1)


def _akiyama_tanigawa(n_max: int) -> list[Fraction]:
    # triangle recurrence; this route uses the B_1 = +1/2 convention, so
    # only even indices are comparable with the package values
    row = [Fraction(1, m + 1) for m in range(n_max + 1)]
    out = [row[0]]
    for _ in range(n_max):
        row = [(j + 1) * (row[j] - row[j + 1]) for j in range(len(row) - 1)]
        out.append(row[0])
    return out


def test_bernoulli_matches_triangle_oracle():
    oracle = _akiyama_tanigawa(30)
    for n in range(0, 31, 2):
        assert bernoulli(n) == oracle[n]
    assert oracle[1] == Fraction(1, 2)  # the convention the triangle uses


def _full_recurrence(n_max: int) -> list[Fraction]:
    # sum_{k=0}^{m-1} C(m+1,k) B_k = -(m+1) B_m over every k, the zero odd terms too
    out = [Fraction(1)]
    for m in range(1, n_max + 1):
        out.append(-sum(math.comb(m + 1, k) * out[k] for k in range(m)) / (m + 1))
    return out


def test_bernoulli_equals_the_full_recurrence(monkeypatch):
    from mlpoly import exactnum
    monkeypatch.setattr(exactnum, "_BERNOULLI", [Fraction(1)])  # computed from scratch here
    reference = _full_recurrence(62)
    assert [bernoulli(n) for n in range(63)] == reference
    assert exactnum._BERNOULLI == reference  # the stored odd terms are the recurrence's 0s too


def test_zeta_even_exact_values():
    # the coefficient of pi^n in zeta(n)
    assert zeta_even(2) == Fraction(1, 6)
    assert zeta_even(4) == Fraction(1, 90)
    assert zeta_even(6) == Fraction(1, 945)
    assert zeta_even(8) == Fraction(1, 9450)
    assert all(type(zeta_even(n)) is Fraction for n in (2, 4, 6, 8))


def test_zeta_even_rejects_odd_or_small_arguments():
    for bad in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            zeta_even(bad)


def _zeta_series_oracle(n: int, cutoff: int = 40) -> float:
    # partial sum plus the first Euler-Maclaurin corrections; the omitted
    # term is O(cutoff^-(n+5)), far below the comparison tolerance
    s = sum(1.0 / k**n for k in range(1, cutoff))
    s += cutoff ** (1 - n) / (n - 1) + 0.5 * cutoff ** (-n)
    s += n * cutoff ** (-n - 1) / 12.0
    s -= n * (n + 1) * (n + 2) * cutoff ** (-n - 3) / 720.0
    return s


def test_zeta_even_float_matches_series_oracle():
    for n in (2, 4, 6, 8, 10, 12):
        assert float(zeta_even(n)) * math.pi**n == pytest.approx(_zeta_series_oracle(n),
                                                                 rel=1e-12)
