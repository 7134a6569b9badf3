"""Floats on Python floats and `math` alone: the default numeric plan and the audit.

`verify` and `audit` check the numeric claims at small sizes, and loading numpy for
them would cost more than all their float work.  So this module computes them
without numpy, and `analysis`, which keeps the numpy lanes of the `zeros`, `quad`,
`moments` and `ft` commands, imports from here what is already pure Python: the
Jacobi matrix and its bracket, the zero checks, the panel rule's constants, the
truncations (`make_quad_config` and the Gram matrix's envelope), the closed forms and
the erratum audit.  A name both modules define computes the same quantity; here it
serves the sizes of `verify`:

- `zeros_range` bisects one eigenvalue at a time by Sturm counts, with the IEEE
  steps, pivot guard and freezing rules of `analysis._spectra`, so every zero is
  the lanes' bit for bit.  Each estimate is Newton's iteration on the monic
  recurrence, started between the zeros of the size below, which interlace.
- `orthogonality_matrix`, `moment` and `ft_numeric_grid` sum the panel rule with
  `math.fsum`, correctly rounded, where numpy sums with `einsum`, and weigh with
  `math.sinh`.  Where the integrand is even they sum the nodes t > 0 with doubled
  weights: the terms at -t and t are equal, so the exact two-sided sum is twice the
  exact half-line sum, and `fsum` rounds both to the same float.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

from .exactnum import zeta_even
from .polyfps import Poly
from .report import CheckReport, CheckStatus
from .sequences import (RECURRENCES, Recurrence, SeqKind, g_oracle_mismatches, generate,
                        oracle_hypergeometric_g)

__all__ = [
    "MomentResult",
    "zeros_range",
    "make_quad_config",
    "orthogonality_matrix",
    "gram_deviation",
    "moment",
    "ft_closed",
    "ft_numeric",
    "ft_numeric_grid",
    "own_erratum_audit",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _off_diagonal(n: int) -> list[float]:
    """The off-diagonal of the n x n Jacobi matrix J of the monic recurrence, whose
    diagonal is zero: sqrt(-b(k)) = sqrt(c_k) = sqrt(k(k+1))/2 for k = 1 .. n - 1."""
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    nums, dens = RECURRENCES[SeqKind.PHI_MONIC].b.terms(n)
    return [math.sqrt(-c / d) for c, d in zip(nums[1:], dens[1:])]


def _bracket(n: int) -> float:
    """The half-width of the first bracket of every lane of size n.  It holds the spectrum
    of J: by Gershgorin, no eigenvalue exceeds sqrt(c_{n-2}) + sqrt(c_{n-1}) < n - 1."""
    return math.sqrt(n * (n - 1)) + 1.0 if n > 1 else 1.0


# Half-widths of the brackets around the eigenvalue estimates that a bisection certifies, in
# units of eps times the lane's bound: every lane first tries the tight one, and
# analysis._spectra gives the lanes it misses the wide one; a lane that certifies neither
# bisects with a count at every step.  The SVD estimates of analysis sit within 0.7, 3.8,
# 7.7 and 14.3 eps * bound of the zeros bisected to adjacent floats at sizes 24, 400, 1000
# and 2000 (OpenBLAS on an AVX-512 x86-64; 0.7, 5.8, 8.7 and 13.8 with its Prescott
# kernel), so the tight bracket certifies every lane up to size 400 on both kernels, and
# the wide one the few it misses above: none at 1000 and 21 of the 2000 lanes at 2000 (4
# and 27 with the Prescott kernel).  The Newton estimates of this module certify every
# lane of sizes 1..24 with the tight one.
_CERTIFICATE_HALF_WIDTHS = (8.0, 64.0)


def _check_zero_range(lo: int, hi: int, tol: float) -> None:
    """Refuse what zeros_range cannot serve."""
    if lo < 1:
        raise ValueError("need at least one zero")
    if hi < lo:
        raise ValueError(f"empty size range {lo}..{hi}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be positive and finite")


def _check_bound(n: int, zs: list[float]) -> None:
    """Raise unless the zeros zs of size n >= 2 lie inside the known bound sqrt(n(n-1))."""
    if max(abs(z) for z in zs) >= math.sqrt(n * (n - 1)):
        raise RuntimeError(f"zero bound sqrt(n(n-1)) violated at n = {n}")


def _check_interlacing(n: int, zs: list[float], below: list[float], tol: float) -> None:
    """Raise unless the zeros zs of size n strictly interlace with those of size n - 1,
    below: a ValueError where tol is too coarse to resolve the spacing, else a RuntimeError."""
    chain = [z for pair in zip(zs, below) for z in pair] + [zs[-1]]
    gaps = [b - a for a, b in zip(chain, chain[1:])]
    if min(gaps) <= 0:
        if tol >= min(map(abs, gaps)):  # the tolerance cannot resolve the spacing
            raise ValueError(f"tolerance {tol:g} cannot separate the zeros of sizes {n - 1}"
                             f" and {n} (smallest gap {min(map(abs, gaps)):.3g})")
        raise RuntimeError(f"interlacing violated between sizes {n - 1} and {n}")


def _sturm_count(bsqs: Sequence[float], pivmin: float, x: float) -> int:
    """The Sturm count of J - x I: its number of negative pivots -x - b_j^2/d, with
    bsqs = (0, b_1^2, ..., b_{n-1}^2) and every |d| < pivmin replaced by -pivmin, the IEEE
    steps of a lane of analysis._SturmLanes."""
    nx, d, count = -x, 1.0, 0
    for bsq in bsqs:
        d = nx - bsq / d
        if abs(d) < pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
    return count


def _newton(bsqs: Sequence[float], x: float, small: float) -> float:
    """An eigenvalue estimate of J: Newton's iteration from x on p_n, the monic recurrence
    p_{k+1} = x p_k - b_k^2 p_{k-1} run on values and derivatives, until a step is at most
    small.  It decides no step of the bisection (see _spectra), so it may stop anywhere."""
    for _ in range(50):
        p, dp, q, dq = 1.0, 0.0, 0.0, 0.0  # p_k and p_k' as k runs; q, dq those of k - 1
        for bsq in bsqs:  # bsqs[0] = 0 multiplies p_{-1} = 0
            p, dp, q, dq = x * p - bsq * q, p + x * dp - bsq * dq, p, dp
        if not dp:
            break
        step = p / dp
        x -= step
        if not abs(step) > small:  # converged, or not a number
            break
    return x


def _spectra(max_size: int, tol: float) -> dict[int, list[float]]:
    """Every eigenvalue of the Jacobi matrix of each size 1..max_size, bit for bit as
    analysis._spectra bisects them, one eigenvalue at a time.

    Eigenvalue k of size n (k != (n - 1)/2; the middle one of an odd size is 0.0) runs
    the lane's steps: from [-B, B], B = _bracket(n), the midpoint 0.5 * (lo + hi) goes low
    when its count is <= k, with the guard at the pivmin of size n, and the bisection
    stops once hi - lo <= tol, after 200 moves, or at a step that would leave lo or hi as
    it was (a fixed point).  The count is monotone in x (see analysis._spectra), so two
    counts L < U with c(L) <= k < c(U) decide every midpoint outside (L, U) without a
    count.  (L, U) is a Newton estimate +- 8 eps B (_CERTIFICATE_HALF_WIDTHS[0]), started
    at the midpoint of the two zeros of size n - 1 that the k-th interlaces with (-B and
    B standing in beyond the extreme ones).  A bracket its two counts do not certify is
    dropped, and that eigenvalue counts at every step: an estimate costs counts, never a
    bit.  The zeros of each size are then antisymmetrized exactly, as the lanes' are.
    """
    off_sq = [b * b for b in _off_diagonal(max_size)]
    tight, eps = _CERTIFICATE_HALF_WIDTHS[0], sys.float_info.epsilon
    out = {1: [0.0]}
    for n in range(2, max_size + 1):
        bsqs, bound = [0.0, *off_sq[:n - 1]], _bracket(n)
        # off_sq rises with k, so the largest entry of size n is its last
        pivmin = max(1e-290, 2.3e-16 * off_sq[n - 2])
        interlaced = [-bound, *out[n - 1], bound]
        half = tight * (eps * bound)
        mids = []
        for k in (*range(n // 2), *range((n + 1) // 2, n)):
            est = _newton(bsqs, 0.5 * (interlaced[k] + interlaced[k + 1]), eps * bound)
            cert_lo, cert_hi = est - half, est + half
            if not (_sturm_count(bsqs, pivmin, cert_lo) <= k
                    < _sturm_count(bsqs, pivmin, cert_hi)):
                cert_lo, cert_hi = -math.inf, math.inf
            lo, hi, steps = -bound, bound, 0
            while hi - lo > tol and steps < 200:
                mid = 0.5 * (lo + hi)
                if mid <= cert_lo or mid >= cert_hi:
                    go_lo = mid <= cert_lo
                else:
                    go_lo = _sturm_count(bsqs, pivmin, mid) <= k
                if mid == (lo if go_lo else hi):  # a fixed point
                    break
                if go_lo:
                    lo = mid
                else:
                    hi = mid
                steps += 1
            mids.append(0.5 * (lo + hi))
        z = [0.5 * (a - b) for a, b in zip(mids, reversed(mids))]  # exact antisymmetry
        out[n] = z[:n // 2] + [0.0] * (n % 2) + z[n // 2:]
    return out


def zeros_range(lo: int, hi: int, tol: float = 1e-12) -> dict[int, list[float]]:
    """The zeros of every size lo..hi, sorted ascending, each bracketed to width tol: bit
    for bit those of analysis.zeros_range, with its checks.

    One sweep bisects sizes 1..hi, one eigenvalue at a time, so its cost grows as hi^3: it
    serves the numeric plan's sizes 1..24.  Every size n >= 2 of lo..hi is checked against
    the bound sqrt(n(n-1)) and for strict interlacing with the zeros of size n - 1."""
    _check_zero_range(lo, hi, tol)
    found = _spectra(hi, tol)
    for n in range(max(lo, 2), hi + 1):
        _check_bound(n, found[n])
        _check_interlacing(n, found[n], found[n - 1], tol)
    return {n: found[n] for n in range(lo, hi + 1)}


def _abs_coeffs(p: Poly) -> list[float]:
    """|c_0|, |c_1|, ... of p as floats.

    Each int/int quotient is correctly rounded, as float(Fraction) is, with no Fraction built.
    """
    den = p.denominator
    try:
        return [abs(c) / den for c in p.numerators]
    except OverflowError:
        raise ValueError(f"a coefficient of the degree-{p.degree} member exceeds "
                         f"the float range") from None


def _coeff_norm(p: Poly) -> float:
    """1-norm of the float coefficients, the constant of ft's quadrature tail bound."""
    return sum(_abs_coeffs(p))


def _step_floats(rec: Recurrence, n_max: int) -> tuple[list[float], ...]:
    """The step coefficients a(n), b(n) and d(n) of a recurrence for n < n_max as floats,
    each int/int quotient correctly rounded, as float(Fraction) is."""
    return tuple(list(map(operator.truediv, *r.terms(n_max))) for r in (rec.a, rec.b, rec.d))


def _member_rows(kind: SeqKind, n_max: int, t: Sequence[float]) -> list[list[float]]:
    """Rows p_0(t) .. p_{n_max}(t) of a RECURRENCES family at the points t, by its
    recurrence in floats, in the operations of analysis.member_values, so bit for bit its
    rows."""
    rec = RECURRENCES[kind]
    a, b, d = _step_floats(rec, n_max)
    rows, prev = [[float(rec.p0)] * len(t)], [0.0] * len(t)
    for n in range(n_max):
        an, bn, dn, cur = a[n], b[n], d[n], rows[-1]
        rows.append([(an * x + dn) * p + bn * q for x, p, q in zip(t, cur, prev)])
        prev = cur
    return rows


def _log_envelope(envelope: Sequence[float]) -> tuple[float | None, ...]:
    """log e_m for each term of an envelope, None where e_m = 0: what _tail_sum reads, taken
    once for every truncation tried."""
    return tuple(math.log(e) if e else None for e in envelope)


def _tail_sum(log_envelope: Sequence[float | None], rate: float, upper: float) -> float:
    """Sum over m of e_m times the integral of t^m e^(-rate t) over [upper, infinity), given
    log e_m (None for a zero term, which is skipped) as _log_envelope gives them.

    With T = upper and r = rate, the m-th integral is I_m = J_m T^m e^(-rT), where
    J_0 = 1/r and J_m = (1 + m J_(m-1)/T)/r (by parts), so the sum takes O(len(envelope))
    steps; each term is taken through logarithms, so that neither T^m nor e^(-rT) leaves
    the float range on its own.  A term beyond the float range makes the sum math.inf,
    which no tolerance meets, so the caller moves on to a larger truncation.
    """
    log_upper, rt = math.log(upper), rate * upper
    j, total = 1.0 / rate, 0.0
    try:
        for m, log_e in enumerate(log_envelope):
            if m:
                j = (1.0 + m * j / upper) / rate
            if log_e is not None:
                total += math.exp(log_e + math.log(j) + m * log_upper - rt)
    except OverflowError:
        return math.inf
    return total


# A pure function of its arguments, kept: every served size of quad, moments and ft needs
# fewer than 300 truncations in all.
@functools.lru_cache(maxsize=512)
def make_quad_config(envelope: tuple[float, ...], abs_tol: float = 1e-10,
                     rate: float = math.pi) -> float:
    """The truncation T of the unit-panel rule over [-T, T]: the smallest integer whose
    two-sided tail bound clears abs_tol/2, as a float.  It bounds the tail alone: the
    weight t/sinh(pi t) has poles at t = +-i, +-2i, ..., so the integrands are not entire,
    and no bound covers the error of the panels yet.

    The integrand is a polynomial factor over sinh(rate * t), and envelope[m] bounds the
    magnitude of the t^m coefficient of the factor.  With 1/sinh(rate*t) <=
    2 e^(-rate t)/(1 - e^(-2 rate T)), the tail beyond T on each side is at most that
    constant times the envelope's sum of e_m * integral of t^m e^(-rate t) over
    [T, infinity), term by term.  Both fall as T grows, so the bound clears abs_tol/2 on
    a suffix of 4..399, and bisection finds where that suffix starts.
    """
    if abs_tol <= 0 or rate <= 0 or not envelope or not all(0 <= e < math.inf for e in envelope):
        raise ValueError("invalid quadrature envelope parameters")
    log_envelope = _log_envelope(envelope)

    def clears(upper: int) -> bool:
        sinh_bound = 2.0 / (1.0 - math.exp(-2.0 * rate * upper))
        return 2.0 * sinh_bound * _tail_sum(log_envelope, rate, float(upper)) < 0.5 * abs_tol

    lo, hi = 4, 399
    if not clears(hi):
        raise ValueError("no truncation below 400 satisfies the tail bound")
    while lo < hi:  # clears(hi) holds, and nothing below lo clears
        mid = (lo + hi) // 2
        if clears(mid):
            hi = mid
        else:
            lo = mid + 1
    return float(hi)


def _gram_envelope(n_max: int) -> tuple[float, ...]:
    """The tail envelope of the Gram integrands t p_i(t) p_j(t) / sinh(pi t), i, j <= n_max:
    a_k = max_i |c_ik| bounds the t^k coefficient of every PHI member, so the coefficients
    of t A(t)^2, A(t) = sum_k a_k t^k, bound those of each polynomial factor t p_i p_j.
    Each coefficient of A(t)^2 is one correctly rounded sum (math.fsum).

    Refused where a product a_j a_k would fall below the normal floats, whose rounding to
    fewer bits could make the bound undercount: from n = 114, where the square of the
    smallest a_k, the leading coefficient 2^(n+1)/(n+1)!, is 2.0e-308."""
    coeffs = [0.0] * (n_max + 1)
    for p in generate(SeqKind.PHI, n_max):
        coeffs[:p.degree + 1] = map(max, coeffs, _abs_coeffs(p))
    if min(coeffs) ** 2 < sys.float_info.min:
        raise ValueError(f"the tail envelope of the Gram matrix at max_n = {n_max} "
                         f"leaves the float range")
    square = [math.fsum(map(operator.mul, coeffs[max(0, k - n_max):k + 1],
                            coeffs[min(k, n_max)::-1]))
              for k in range(2 * n_max + 1)]
    return (0.0, *square)


# The positive half of the 20-node Gauss-Legendre rule on [-1/2, 1/2], ascending: half of
# what numpy.polynomial.legendre.leggauss(20) gives on [-1, 1] (numpy 2.4), which is
# symmetric to the bit.  Written out, so that no run imports numpy.polynomial.
_HALF_NODES = (0.03826326056674867, 0.11389292557082253, 0.18685304435770977,
               0.25543350097541356, 0.3180268403632575, 0.3731659532300754,
               0.4195584859111094, 0.456117214125663, 0.4819859636389569, 0.4965642995925475)
_HALF_WEIGHTS = (0.07637669356536314, 0.07458649323630212, 0.0710480546591912,
                 0.06584431922458844, 0.0590972659807593, 0.05096505990862035,
                 0.04163837078835236, 0.031336024167054395, 0.020300714900193223,
                 0.008807003569575447)


def _panel_points(truncation: float, half_line: bool) -> tuple[list[float], list[float]]:
    """Nodes and weights of the unit panels centred at -T + 1/2, ..., T - 1/2, as
    analysis._panel_points gives them; with half_line, the nodes t > 0 alone (the panels
    centred at 1/2, ..., T - 1/2), their weights doubled, as analysis._half_line_points."""
    nodes = tuple(-v for v in reversed(_HALF_NODES)) + _HALF_NODES
    wts = _HALF_WEIGHTS[::-1] + _HALF_WEIGHTS
    if half_line:
        wts = tuple(2.0 * w for w in wts)
    upper = int(truncation)
    mids = [m + 0.5 for m in range(0 if half_line else -upper, upper)]
    return [m + v for m in mids for v in nodes], list(wts) * len(mids)


def _weight(t: float) -> float:
    """The weight t/sinh(pi t) at a panel node (never 0); 0.0 from |pi t| >= 710, as
    math.sinh nears the float range."""
    return t / math.sinh(math.pi * t) if abs(math.pi * t) < 710.0 else 0.0


def _panel_sum(wts: Sequence[float], vals: Sequence[float]) -> float:
    """The rule's sum of integrand values at the panel nodes, correctly rounded, refused
    where one is not finite."""
    if not all(map(math.isfinite, vals)):
        raise ValueError("integrand produced a non-finite value inside the panel range")
    return math.fsum(map(operator.mul, wts, vals))


def _has_parity(kind: SeqKind, n_max: int) -> bool:
    """Whether members p_0 .. p_n_max of a family have the parity p_n(-t) = (-1)^n p_n(t)
    bit for bit in floats: where its d vanishes at 0 .. n_max - 1, the indices they read,
    each row is (a t + 0) p_n + b p_(n-1), and IEEE negation is exact."""
    return not any(RECURRENCES[kind].d.terms(n_max)[0])


def orthogonality_matrix(n_max: int) -> list[list[float]]:
    """Gram matrix of the reduced family under t/sinh(pi t), as rows; target diag 2/(n+1).

    analysis._gram's rule and truncation, each entry one math.fsum: where the PHI entry's
    d vanishes, the pairs of even i + j over the nodes t > 0 with doubled weights, the odd
    entries 0.0 (phi-parity proves them exactly); else every pair over both halves.  The
    matrix is exactly symmetric.  It serves every size of verify; its cost grows as n_max^3:
    4 ms at the default 12 (13 members over 520 nodes), 46 ms at 40, 0.25 s at 80 and
    0.6 s at 113 on a 2-core x86-64."""
    if n_max < 0:
        raise ValueError("size must be non-negative")
    truncation = make_quad_config(_gram_envelope(n_max), abs_tol=1e-10)
    half_line = _has_parity(SeqKind.PHI, n_max)
    pts, wts = _panel_points(truncation, half_line)
    wts = [w * _weight(t) for w, t in zip(wts, pts)]
    rows = _member_rows(SeqKind.PHI, n_max, pts)
    out = [[0.0] * (n_max + 1) for _ in range(n_max + 1)]
    for i, row in enumerate(rows):
        weighted = list(map(operator.mul, row, wts))
        for j in range(i % 2 if half_line else 0, i + 1, 2 if half_line else 1):
            out[i][j] = out[j][i] = math.fsum(map(operator.mul, weighted, rows[j]))
    return out


def gram_deviation(mat: Sequence[Sequence[float]]) -> float:
    """Largest entrywise distance of a Gram matrix from its target diag(2/(n+1))."""
    return max(abs(v - 2.0 / (i + 1.0)) if i == j else abs(v)
               for i, row in enumerate(mat) for j, v in enumerate(row))


class MomentResult(NamedTuple):
    closed: Fraction  # the exact coefficient of pi^(n+1)
    closed_float: float
    numeric: float
    deviation: float


def _moment_result(n: int, numeric: float) -> MomentResult:
    """moment(n) from its quadrature value: the closed form (1 - (-1)^n) (2^(n+1) - 1)/2^n
    * n! * zeta(n+1), which is 0 for even n and a rational multiple of pi^(n+1) for odd n,
    carried as that rational and as float(closed) * pi^(n+1), and the relative deviation."""
    closed = (Fraction(0) if n % 2 == 0 else
              zeta_even(n + 1) * Fraction(2 * (2 ** (n + 1) - 1) * math.factorial(n), 2**n))
    closed_f = float(closed) * math.pi ** (n + 1)
    deviation = abs(numeric - closed_f) / max(1.0, abs(closed_f))
    return MomentResult(closed, closed_f, numeric, deviation)


def moment(n: int) -> MomentResult:
    """Integral of t^n / sinh(t) over the line: exact closed form vs quadrature, as
    analysis.moment computes it (its truncation, t^n as t (t^2)^((n-1)/2) over the nodes
    t > 0 for odd n, the exact 0.0 for even n), the sum by math.fsum and math.sinh."""
    if n < 1:
        raise ValueError("moment index starts at 1")
    truncation = make_quad_config((0.0,) * n + (1.0,), abs_tol=1e-10, rate=1.0)
    if n % 2 == 0:
        return _moment_result(n, 0.0)
    pts, wts = _panel_points(truncation, half_line=True)
    vals = []
    for t in pts:
        square, power = t * t, t
        for _ in range(n // 2):
            power *= square
        vals.append(power / math.sinh(t))
    return _moment_result(n, _panel_sum(wts, vals))


def ft_closed(n: int, s: float) -> float:
    """Closed-form transform of the weighted monic member, with the i^n phase factored out:
    the real v such that the transform equals i^n * v, the phase exact by construction.

    Evaluated as (n+1)!/(2^(n+1) sqrt(2 pi)) * tanh^n(s/2) * sech^2(s/2),
    the overflow-free equivalent of the sinh-quotient form.  The constant
    divisor is 2^(n+1); the 2^n variant seen in print fails the s = 0
    quadrature cross-check by a factor of 2 (see own_erratum_audit).
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    if math.isnan(s):
        raise ValueError("the transform argument s must be a number, got nan")
    half = 0.5 * s
    try:
        sech = 1.0 / math.cosh(half)
        return (math.factorial(n + 1) / (2.0 ** (n + 1) * _SQRT_2PI)
                * math.tanh(half) ** n * sech * sech)
    except OverflowError:  # (n+1)! from n = 170 on, or cosh(s/2), is past the float range
        return _ft_closed_log(n, half)


def _ft_closed_log(n: int, half: float) -> float:
    """ft_closed's product by logarithms, with log sech h = log 2 - |h| - log1p(e^(-2|h|))."""
    t, a = math.tanh(half), abs(half)
    if t == 0.0:
        return 0.0  # s = 0, where only n = 0 is nonzero
    try:
        v = math.exp(math.lgamma(n + 2) - (n - 1) * math.log(2.0) - math.log(_SQRT_2PI)
                     + n * math.log(abs(t)) - 2.0 * (a + math.log1p(math.exp(-2.0 * a))))
    except OverflowError:
        raise ValueError(f"the transform at n = {n}, s = {2.0 * half:g} exceeds "
                         f"the float range") from None
    return math.copysign(v, t) if n % 2 else v


def ft_numeric(n: int, s: float) -> float:
    """Transform by direct quadrature, as analysis.ft_numeric: ft_numeric_grid(n, (s,))."""
    return ft_numeric_grid(n, (s,))[0]


def ft_numeric_grid(n: int, ss: Sequence[float]) -> list[float]:
    """The quadrature of p_n(t) w(t) e^(ist)/sqrt(2 pi) for each s of ss, with the i^n phase
    factored out as in ft_closed, on analysis.ft_numeric_grid's truncation: parity leaves
    the cosine form for even n and the sine form for odd n.  Where the PHI_MONIC entry's d
    vanishes at the indices p_n reads, the integrand is even and is summed over the nodes
    t > 0 with doubled weights, else over both halves; each sum is one math.fsum."""
    if n < 0:
        raise ValueError("index must be non-negative")
    norm = _coeff_norm(generate(SeqKind.PHI_MONIC, n)[n])
    truncation = make_quad_config((0.0,) * (n + 1) + (norm,), abs_tol=1e-9)
    pts, wts = _panel_points(truncation, _has_parity(SeqKind.PHI_MONIC, n))
    weighted = [v * _weight(t) for v, t in zip(_member_rows(SeqKind.PHI_MONIC, n, pts)[n], pts)]
    trig = math.cos if n % 2 == 0 else math.sin
    sign = (-1) ** (n // 2)
    return [sign * _panel_sum(wts, [v * trig(s * t) for v, t in zip(weighted, pts)]) / _SQRT_2PI
            for s in ss]


def _ft_sinh_form(n: int, s: float) -> float:
    """The sinh-quotient closed form, usable away from s = 0."""
    return (math.factorial(n + 1) * math.sqrt(2.0 / math.pi)
            * math.sinh(0.5 * s) ** (2 * n + 2) / math.sinh(s) ** (n + 2))


def own_erratum_audit() -> list[CheckReport]:
    """The three printed errata this module adjudicates; `suite.audit_suite` adds the
    derivative-expansion and Rodrigues ones.

    Each report evaluates the printed form and the derived alternative side
    by side; all carry AUDITED status because a documented inconsistency is
    expected output, not a build failure.
    """
    # 1. Sign of the base three-term recurrence: the minus-sign variant first
    #    diverges from every oracle at n = 3.
    g = RECURRENCES[SeqKind.G]
    printed = g._replace(b=-g.b).members(3)
    oracle3 = oracle_hypergeometric_g(3)
    agree = not g_oracle_mismatches(20)
    residual = printed[3] - oracle3
    sign_report = CheckReport(
        "g-recurrence-sign", (3, 3), CheckStatus.AUDITED, residual=residual,
        note=(f"printed minus-sign recurrence gives {printed[3]} at n = 3; "
              f"hypergeometric oracle gives {oracle3}; plus-sign recurrence matches "
              f"hypergeometric, Meixner and series oracles for n <= 20: {agree}"))

    # 2. Constant in the tanh/sech form of the transform: 2^(n+1) vs 2^n.
    dev_good = 0.0
    dev_printed = math.inf
    for n in range(0, 7):
        for s in (0.5, 1.0, 2.0):
            reference = _ft_sinh_form(n, s)
            good = ft_closed(n, s)
            bad = 2.0 * good  # the 2^n variant is exactly twice the 2^(n+1) one
            dev_good = max(dev_good, abs(good - reference) / abs(reference))
            dev_printed = min(dev_printed, abs(bad - reference) / abs(reference))
    quad0 = ft_numeric(0, 0.0)
    constant_report = CheckReport(
        "fourier-tanh-constant", (0, 6), CheckStatus.AUDITED, max_deviation=dev_good,
        note=(f"tanh/sech rewriting needs divisor 2^(n+1): it matches the sinh form "
              f"to {dev_good:.2e} relative and quadrature at n=0, s=0 "
              f"({quad0:.6f} vs {ft_closed(0, 0.0):.6f}); the printed 2^n "
              f"variant is high by a factor of 2 (relative error >= {dev_printed:.3f})"))

    # 3. The n = 0 display: its second expression halves the first.
    s0 = 1.3
    first = 1.0 / ((1.0 + math.cosh(s0)) * _SQRT_2PI)
    second = 0.5 * math.sqrt(2.0 / math.pi) * math.sinh(0.5 * s0) ** 2 / math.sinh(s0) ** 2
    closed0 = ft_closed(0, s0)
    return [sign_report, constant_report, CheckReport(
        "fourier-n0-display", (0, 0), CheckStatus.AUDITED,
        max_deviation=abs(first - closed0) / closed0,
        note=(f"first n=0 expression 1/((1+cosh s) sqrt(2 pi)) matches the closed form "
              f"at s = {s0} ({first:.9f} vs {closed0:.9f}); the second printed "
              f"expression gives {second:.9f}, low by a factor of "
              f"{first / second:.6f}"))]
