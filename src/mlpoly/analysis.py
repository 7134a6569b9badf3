"""Floating-point analysis: zeros, quadrature, moments, Fourier transforms.

The exact layers prove identities; this layer reproduces the numeric claims
that live outside the polynomial ring.  Zeros come from Sturm bisection on
the symmetric tridiagonal recurrence matrix, with every eigenvalue of every
requested size a numpy lane, so that one pivot sweep serves them all, run only
at the bisection steps that certified SVD estimates of the eigenvalues cannot
decide; integrals come from one fixed Gauss-Legendre panel rule
with analytically chosen truncation, and the
Fourier transform from a closed form that is compared against direct
quadrature.  The erratum audit at the bottom adjudicates three of the five
printed identities that fail their own cross-checks.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exactnum import zeta_even
from .polyfps import Poly
from .report import CheckReport, CheckStatus
from .sequences import (RECURRENCES, Recurrence, SeqKind, g_oracle_mismatches, generate,
                        oracle_hypergeometric_g)

__all__ = [
    "MomentResult",
    "zeros",
    "zeros_range",
    "member_values",
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


# Pivot rows per block of the Sturm count: a block's pivots are written into one buffer,
# and its negative pivots are counted with one comparison and one column sum.
_PIVOT_BLOCK = 32

# Half-widths of the brackets around the eigenvalue estimates that _spectra certifies, in
# units of eps times the lane's bound: every lane first tries the tight one, the lanes it
# misses the wide one, and a lane that neither certifies bisects with a count at every
# step.  The SVD estimates sit within 0.7, 3.8, 7.7 and 14.3 eps * bound of the zeros
# bisected to adjacent floats at sizes 24, 400, 1000 and 2000 (OpenBLAS on an AVX-512
# x86-64; 0.7, 5.8, 8.7 and 13.8 with its Prescott kernel), so the tight bracket
# certifies every lane up to size 400 on both kernels, and the wide one the few it
# misses above: none at 1000 and 21 of the 2000 lanes at 2000 (4 and 27 with the
# Prescott kernel).
_CERTIFICATE_HALF_WIDTHS = (8.0, 64.0)


class _SturmLanes:
    """Lanes of Sturm counts of leading blocks of J, and the one count over all of them.

    Lane i counts the negative pivots of its own size[i] x size[i] block of J, and
    rank[i] is the count its caller compares the result with (for _spectra, the index
    of the eigenvalue the lane brackets).  The lanes are sorted by
    size, largest first, so the lanes that take pivot j of the Sturm sequence
    (size >= j + 1) are a prefix, and one pass over that prefix per pivot serves
    all of them.  Each lane does the scalar count's IEEE arithmetic: its own size's
    pivmin, and the pivot -x - b_j^2/d with |d| < pivmin -> -pivmin.  A pass writes
    the pivots of _PIVOT_BLOCK consecutive rows into one buffer, where the entries
    of lanes whose size has ended read 1.0 (neither negative nor guarded), and adds
    that block's negative pivots to the count at once; the count is an integer, so
    summing it by blocks changes no bit.

    Inside a block the pivots are computed unguarded, -x - b_j^2/d (one divide,
    one subtract), and the whole block is checked once afterwards: if its smallest
    |d| is below the largest pivmin of its lanes, each lane with a pivot below its own
    pivmin is rerun with the guard, in Python floats (IEEE divide and subtract, as
    numpy's) from its carried pivot, before the block's negative pivots are counted.
    Up to a lane's first guard its unguarded pivots are its guarded ones, so a lane
    where no guard fires keeps them and one where a guard may fire is recomputed, and
    no bit changes.  No NaN can arise on the way: a pivot of exactly 0 gives b_j^2/0 =
    inf, then -inf, then -x, and the 0 is caught by the check (b_j^2 = 0 only at pivot
    0, whose divisor is 1.0); a guarded pivot is never 0, so the rerun divides by none.
    """

    def __init__(self, off: np.ndarray, size: np.ndarray, rank: np.ndarray):
        """off: the off-diagonal of J at the largest size, size[0] (see _off_diagonal);
        size: the size of each lane, falling; rank: the count each lane is judged by."""
        self.rank = rank
        lanes = rank.size
        off_sq = off * off
        # off_sq rises with k, so the largest entry of size n is its last, off_sq[n - 2]
        pivmin = np.maximum(1e-290, 2.3e-16 * np.r_[1.0, off_sq][size - 1])
        self._neg_x, buf = np.empty(lanes), np.empty(lanes)
        self._count = np.empty(lanes, dtype=np.int64)
        # row 0 of piv holds the pivot before the block, rows 1.. the block's own pivots
        self._piv = piv = np.empty((_PIVOT_BLOCK + 1, lanes))
        mag = np.empty((_PIVOT_BLOCK, lanes))  # |pivot| of a block, for its one guard check
        # summed through a uint8 view: a bool column sum would cast every entry to int64
        neg = np.empty((_PIVOT_BLOCK, lanes), dtype=bool)
        tally = np.empty(lanes, dtype=np.uint8)  # at most _PIVOT_BLOCK negative pivots
        # pivot j serves the lanes of size >= j + 1, a prefix; pivot 0 is -x alone (b_0 = 0)
        bsqs = [0.0, *off_sq.tolist()] if lanes else []  # sizes [1] alone have no lane
        # the lane sizes fall, so the lanes of size >= j + 1 end where -size passes -(j + 1)
        widths = np.searchsorted(-size, -np.arange(1, len(bsqs) + 1), side="right").tolist()
        # one view per (line, width), shared by every pivot that reads that prefix: line 0
        # is -x, line 1 the quotient buffer, line 2 + r row r of piv
        lines, prefixes = [self._neg_x, buf, *piv], {}

        def prefix(line: int, width: int) -> np.ndarray:
            view = prefixes.get((line, width))
            if view is None:
                view = prefixes[line, width] = lines[line][:width]
            return view

        self._pivmin = pivmin.tolist()  # each lane's, for its guarded rerun
        self._blocks = []
        for first in range(0, len(bsqs), _PIVOT_BLOCK):
            js = range(first, min(first + _PIVOT_BLOCK, len(bsqs)))
            wide, narrow, rows = widths[js[0]], widths[js[-1]], len(js)
            bare = []  # what each unguarded pivot reads and writes
            for r, j in enumerate(js):
                w = widths[j]
                bare.append((bsqs[j], prefix(0, w), prefix(2 + r, w), prefix(3 + r, w),
                             prefix(1, w)))
            self._blocks.append((piv[1:rows + 1, narrow:wide], bare,
                                 piv[1:rows + 1, :wide], mag[:rows, :wide],
                                 float(pivmin[:wide].max()), pivmin[:wide], neg[:rows, :wide],
                                 neg[:rows, :wide].view(np.uint8), tally[:wide],
                                 self._count[:wide], piv[0, :narrow], piv[rows, :narrow]))

    def count(self, x: np.ndarray) -> np.ndarray:
        """The Sturm count of each lane at its own point x: the number of negative
        pivots of J - x I.  The array returned is overwritten by the next count."""
        np.negative(x, out=self._neg_x)
        self._piv[0].fill(1.0)  # pivot 0 is -x - 0/1 = -x exactly
        self._count.fill(0)
        with np.errstate(divide="ignore", over="ignore"):  # unguarded pivots may reach +-inf
            for (ended, bare, block, mags, pmin, lane_pmin, negs, negs_u8, tal, cnt, carry,
                 last) in self._blocks:
                ended.fill(1.0)  # rows past a lane's size may hold an earlier block's pivots
                for bsq, nx, prev, dj, bj in bare:
                    np.divide(bsq, prev, out=bj)
                    np.subtract(nx, bj, out=dj)
                np.abs(block, out=mags)
                if mags.min() < pmin:  # a guard may fire: rerun the lanes where it may
                    for lane in np.flatnonzero((mags < lane_pmin).any(axis=0)).tolist():
                        self._guarded_lane(bare, lane)
                np.less(block, 0.0, out=negs)
                np.add.reduce(negs_u8, axis=0, dtype=np.uint8, out=tal)
                np.add(cnt, tal, out=cnt)
                np.copyto(carry, last)
        return self._count

    def _guarded_lane(self, bare: list, lane: int) -> None:
        """Rewrite one lane's pivots of a block (bare, its unguarded pivots) with the guard."""
        nx, d, guard = float(self._neg_x[lane]), float(self._piv[0, lane]), self._pivmin[lane]
        column = []
        for bsq, lanes_of_pivot, *_ in bare:
            if lanes_of_pivot.size <= lane:  # the lane's size has ended
                break
            d = nx - bsq / d
            column.append(d := -guard if abs(d) < guard else d)
        self._piv[1:len(column) + 1, lane] = column


def _bracket(n: int) -> float:
    """The half-width of the first bracket of every lane of size n.  It holds the spectrum
    of J: by Gershgorin, no eigenvalue exceeds sqrt(c_{n-2}) + sqrt(c_{n-1}) < n - 1."""
    return math.sqrt(n * (n - 1)) + 1.0 if n > 1 else 1.0


def _eigen_estimates(sizes: list[int], off: np.ndarray) -> np.ndarray:
    """The eigenvalue of every lane (see _SturmLanes), to about the float precision.

    J has a zero diagonal, so ordering its rows and columns even indices first makes it
    [[0, C], [C^T, 0]], with C[i, i] = J[2i, 2i + 1] and C[i + 1, i] = J[2i + 2, 2i + 1]
    the bidiagonal block; its eigenvalues are +- the singular values of C, and 0 once
    more for odd n.
    """
    out = []
    for n in sizes:
        block = np.zeros(((n + 1) // 2, n // 2))
        i, j = np.arange(n // 2), np.arange((n - 1) // 2)
        block[i, i] = off[0:n - 1:2]
        block[j + 1, j] = off[1:n - 1:2]
        sv = np.linalg.svd(block, compute_uv=False)  # descending
        out += [-sv, sv[::-1]]
    return np.concatenate(out)


def _certified(lanes: _SturmLanes, estimate: np.ndarray,
               half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bracket (estimate - half, estimate + half) of each lane where one count at
    each end certifies it (see _spectra), else (-inf, inf), and where it certifies."""
    lower, upper = estimate - half, estimate + half
    ok = lanes.count(lower) <= lanes.rank
    ok &= lanes.count(upper) > lanes.rank
    return np.where(ok, lower, -np.inf), np.where(ok, upper, np.inf), ok


def _spectra(sizes: Iterable[int], tol: float) -> dict[int, list[float]]:
    """Every eigenvalue of the Jacobi matrix of each size, by Sturm bisection in numpy lanes.

    Lane (n, k) brackets the k-th eigenvalue of size n, one lane of size n and rank k
    of _SturmLanes (the count they share).  The middle eigenvalue of an odd size has
    no lane: J has a zero diagonal, so its spectrum is symmetric about 0 and that
    eigenvalue is 0.0 exactly.  Each lane takes the scalar bisection's steps: from
    [-_bracket(n), _bracket(n)], the midpoint goes low when its count is <= k, and
    the lane freezes once hi - lo <= tol or after 200 steps of its own; so the spectra
    are bit-identical to bisecting each eigenvalue alone, whatever other sizes share
    the sweep.  Every lo a lane moves to has a count <= k and every hi one > k, which
    _interlaces_below reads to prove interlacing without sweeping a size.

    The computed Sturm count c(x) is monotone in x in IEEE arithmetic with the
    pivmin guard used here (Kahan, Accurate eigenvalues of a symmetric tri-diagonal
    matrix, Stanford CS41, 1966; Demmel, Dhillon & Ren, ETNA 3, 1995).  So two
    counts L < U with c(L) <= k < c(U) decide every step whose midpoint lies outside
    (L, U): a midpoint <= L has a count <= c(L) and goes low, one >= U goes high,
    just as counting it would send it.  Each lane's (L, U) is first an eigenvalue
    estimate +- 8 eps times its bound (the tight bracket), certified by one count at
    each end.  The lanes it misses get a _SturmLanes of their own (a lane's count does
    not depend on the lanes it is taken with), on which two counts certify the
    estimate +- 64 eps times the bound (the wide bracket); a lane that fails both keeps
    (-inf, inf) and so counts at every step (see _CERTIFICATE_HALF_WIDTHS).  A lane
    takes the steps its (L, U) decides without a count, and waits at the first
    midpoint strictly inside (L, U); once every live lane waits, one count decides all
    their steps (every later midpoint lies inside the bracket that count left, so it
    certifies no further step), taken on the missed lanes' own _SturmLanes once only
    they live.  The lanes do not step together, so a count runs once per undecided
    midpoint of the lane that has the most, not once per step at which some lane has
    one.  The estimates decide no step themselves: a poor one only fails its
    certificate or leaves a wide (L, U), which costs counts and never a bit.

    A lane also freezes when a step leaves both lo and hi as they were.  The step
    is a function of (lo, hi) and the lane's constants alone, so an unchanged
    state is a fixed point: every later step would repeat it, and the final
    midpoint 0.5 * (lo + hi) is the same.  This happens once the bracket spans
    adjacent floats (a tol below their spacing), and saves the steps up to 200
    that could not move it.  A step that narrows the bracket to width 0 still
    freezes on tol.
    """
    sizes = sorted(set(sizes), reverse=True)
    per_size = [n - n % 2 for n in sizes]  # lanes of each size
    off = np.array(_off_diagonal(sizes[0]))
    size = np.repeat(sizes, per_size)
    lanes = _SturmLanes(off, size,
                        np.concatenate([np.r_[:n // 2, (n + 1) // 2:n] for n in sizes]))
    rank, bound = lanes.rank, np.repeat([_bracket(n) for n in sizes], per_size)
    estimate = _eigen_estimates(sizes, off)
    eps_bound, (tight, wide) = np.finfo(float).eps * bound, _CERTIFICATE_HALF_WIDTHS
    cert_lo, cert_hi, in_tight = _certified(lanes, estimate, tight * eps_bound)
    missed = np.flatnonzero(~in_tight)
    if missed.size:  # the wide bracket, on a Sturm count of the missed lanes alone
        apart = _SturmLanes(off[:size[missed[0]] - 1], size[missed], rank[missed])
        cert_lo[missed], cert_hi[missed], _ = _certified(apart, estimate[missed],
                                                         wide * eps_bound[missed])

    lo, hi, mid = -bound, bound.copy(), np.empty_like(bound)
    steps = np.zeros(rank.size, dtype=np.int64)  # the steps each lane has taken
    live, go_lo = np.ones(rank.size, dtype=bool), np.empty(rank.size, dtype=bool)
    while True:
        live &= (hi - lo > tol) & (steps < 200)
        if not live.any():
            break
        np.add(lo, hi, out=mid)
        np.multiply(mid, 0.5, out=mid)
        np.less_equal(mid, cert_lo, out=go_lo)
        stepping = live & (go_lo | (mid >= cert_hi))
        if not stepping.any():  # every live lane waits at a midpoint inside its (L, U)
            if missed.size and not live[in_tight].any():  # only missed lanes live: count those
                go_lo[missed] = apart.count(mid[missed]) <= apart.rank
            else:
                np.less_equal(lanes.count(mid), rank, out=go_lo)
            stepping = live
        # a step that would leave lo and hi unchanged is a fixed point: freeze the lane
        moved = stepping & np.where(go_lo, mid != lo, mid != hi)
        live &= moved | ~stepping
        np.copyto(lo, mid, where=moved & go_lo)
        np.copyto(hi, mid, where=moved & ~go_lo)
        steps += moved
    np.add(lo, hi, out=mid)
    np.multiply(mid, 0.5, out=mid)
    out, start = {}, 0
    for n in sizes:
        z = mid[start:start + n - n % 2]
        start += z.size
        z = (0.5 * (z - z[::-1])).tolist()  # exact antisymmetry
        out[n] = z[:n // 2] + [0.0] * (n % 2) + z[n // 2:]
    return out


def _interlaces_below(zs: list[float], tol: float) -> bool:
    """Whether one Sturm count proves that the zeros zs of size n >= 2, as _spectra
    printed them at tol, interlace with those of size m = n - 1 without bisecting m: that
    zeros_range's chain check z_k < y_k < z_{k+1} (k < m) would pass for the zeros y
    that _spectra would print for m.  False only means unproved.

    With B = _bracket(m), u = eps/2 and D = max(tol, eps B), the points a_k = fl(z_k - d)
    and b_k = fl(z_k + d), d = 4 D, must lie in (-B, B), zs must be exactly antisymmetric
    (z_{n-1-k} = -z_k, as _spectra prints them), and the count c of J_m, taken by lanes of
    size m (so with the pivmin of size m, as _spectra's lanes of size m take it), must be k
    at a_k and at b_k for every k.  c is monotone in x (see _spectra), so:

    1. b_k < a_{k+1}, since c(b_k) = k < c(a_{k+1}).
    2. Lane (m, k) of _spectra ends at [lo, hi] with c(lo) <= k or lo = -B, and c(hi) > k
       or hi = B: a step moves lo to a midpoint whose count is <= k, counted or certified,
       and hi to one whose count is > k.  By monotonicity, lo < a_{k+1} and hi > b_k (at
       an unmoved end, -B < a_0 <= a_{k+1} and b_k <= b_{n-1} < B).
    3. hi - lo <= W = D (1 + 2^-52) + 2^-1074: the lane stops at fl(hi - lo) <= tol;
       at a fixed point, where mid = fl(0.5 fl(lo + hi)) is lo or hi, so that
       hi - lo <= u |lo + hi| + 2^-1074 <= eps B + 2^-1074; or after 200 steps, each of
       which leaves at most half the width plus u B + 2^-1075.  So the lane's midpoint
       w_k, which lies in [lo, hi], lies in I_k = (b_k - W, a_{k+1} + W).
    4. y_k = fl(0.5 fl(w_k - w_{m-1-k})).  Antisymmetry gives b_{m-1-k} = -a_{k+1} and
       a_{m-k} = -b_k, so -w_{m-1-k} lies in I_k too, and y_k lies within u B + 2^-1075
       of I_k.  As b_k >= z_k + d - 2 u B, y_k - z_k > d - W - 3 u B - 2^-1074 > 0;
       likewise z_{k+1} - y_k > 0.
    5. For odd m, y_k = 0.0 at k = (m - 1) / 2 has no lane.  There z_{k+1} = -z_k gives
       a_{k+1} = -b_k, so b_k < 0 by step 1, and z_k < -d < 0 < d < z_{k+1}.
    """
    n, m = len(zs), len(zs) - 1
    z, bracket = np.array(zs), _bracket(m)
    d = 4.0 * max(tol, np.finfo(float).eps * bracket)
    points = np.concatenate([z - d, z + d])
    if not (np.array_equal(z, -z[::-1]) and np.all(np.abs(points) < bracket)):
        return False
    lanes = _SturmLanes(np.array(_off_diagonal(m)), np.full(2 * n, m), np.tile(np.arange(n), 2))
    return bool(np.array_equal(lanes.count(points), lanes.rank))


def zeros_range(lo: int, hi: int, tol: float = 1e-12) -> dict[int, list[float]]:
    """The zeros of every size lo..hi, sorted ascending, each bracketed to width tol.

    One sweep bisects sizes lo .. hi.  The spectrum of the zero-diagonal
    matrix is symmetric under reflection, so the bisection output is
    antisymmetrized exactly; the middle zero of an odd size is exactly 0.0.
    Before returning, every size n >= 2 is verified against the known bound
    max|zero| < sqrt(n(n-1)) and strict interlacing with the size n - 1 zeros:
    by comparing the two, except for n = lo, where one Sturm count of size lo - 1
    proves it (_interlaces_below) without bisecting that size.  Where the count does
    not (a tol too coarse, a broken sweep), size lo - 1 is bisected and compared as
    the others are, so a failed check raises what it would raise if lo - 1 were swept.
    """
    if lo < 1:
        raise ValueError("need at least one zero")
    if hi < lo:
        raise ValueError(f"empty size range {lo}..{hi}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be positive and finite")
    found = _spectra(range(lo, hi + 1), tol)
    for n in range(max(lo, 2), hi + 1):
        out = found[n]
        if max(abs(z) for z in out) >= math.sqrt(n * (n - 1)):
            raise RuntimeError(f"zero bound sqrt(n(n-1)) violated at n = {n}")
        if n == lo and _interlaces_below(out, tol):
            continue
        prev = found[n - 1] if n > lo else _spectra([n - 1], tol)[n - 1]
        chain = [z for pair in zip(out, prev) for z in pair] + [out[-1]]
        gaps = [b - a for a, b in zip(chain, chain[1:])]
        if min(gaps) <= 0:
            if tol >= min(map(abs, gaps)):  # the tolerance cannot resolve the spacing
                raise ValueError(f"tolerance {tol:g} cannot separate the zeros of sizes {n - 1}"
                                 f" and {n} (smallest gap {min(map(abs, gaps)):.3g})")
            raise RuntimeError(f"interlacing violated between sizes {n - 1} and {n}")
    return {n: found[n] for n in range(lo, hi + 1)}


def zeros(n: int, tol: float = 1e-12) -> list[float]:
    """All n zeros of the monic reduced member, checked as zeros_range checks them.

    Each (n, tol) is bisected once per process for each PHI_MONIC entry, while it is
    among the _ZEROS_KEPT most recently asked; every call gets a list of its own."""
    return list(_zeros(RECURRENCES[SeqKind.PHI_MONIC], n, tol))


# Zero sets zeros() keeps: tol is any float a caller passes, so the memo is bounded by
# memory, about 4 MB at 64 sets of the 2000 zeros of the CLI's largest size.
_ZEROS_KEPT = 64


@functools.lru_cache(maxsize=_ZEROS_KEPT)
def _zeros(entry: Recurrence, n: int, tol: float) -> tuple[float, ...]:
    """zeros() for one PHI_MONIC entry, which _off_diagonal reads.  The entry is only
    a key: a Recurrence hashes by its fields, so a patched family gets its own.

    The key is (entry, n, tol) only, so a kept zero set does not see code of this module
    replaced at run time (the Sturm counts, say); tests that replace it clear the memo."""
    return tuple(zeros_range(n, n, tol)[n])


def _weight_array(t: np.ndarray) -> np.ndarray:
    # sinh overflows to inf for |t| > ~226, where t/inf = 0 is the right weight
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return np.where(t == 0.0, 1.0 / math.pi, t / np.sinh(math.pi * t))


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


def member_values(kind: SeqKind, n_max: int, t: np.ndarray) -> np.ndarray:
    """Rows p_0(t) .. p_{n_max}(t) of a RECURRENCES family, by its recurrence in floats:
    the stable route (Gautschi 2004, sec. 2.1), where power-basis sums cancel badly."""
    rec = RECURRENCES[kind]
    # each int/int quotient is correctly rounded, as float(Fraction) is
    a, b, d = (list(map(operator.truediv, *r.terms(n_max))) for r in (rec.a, rec.b, rec.d))
    out = np.empty((n_max + 2, t.size))
    out[0], out[1] = 0.0, rec.p0  # row 0 is p_{-1}
    tail = np.empty(t.size)
    # each row written in place, in the operation order of (a t + d) p_n + b p_{n-1}
    for n in range(n_max):
        row = out[n + 2]
        np.multiply(a[n], t, out=row)
        np.add(row, d[n], out=row)
        np.multiply(row, out[n + 1], out=row)
        np.multiply(b[n], out[n], out=tail)
        np.add(row, tail, out=row)
    return out[1:]


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


@functools.cache
def _unit_panel() -> tuple[np.ndarray, np.ndarray]:
    """The one panel rule: 20-node Gauss-Legendre on [-1/2, 1/2], ascending nodes."""
    nodes = np.array(tuple(-v for v in _HALF_NODES[::-1]) + _HALF_NODES)
    wts = np.array(_HALF_WEIGHTS[::-1] + _HALF_WEIGHTS)
    for a in (nodes, wts):
        a.setflags(write=False)  # the cache hands the same arrays to every caller
    return nodes, wts


def _panel_points(truncation: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the unit panels centred at -T + 1/2, ..., T - 1/2."""
    nodes, wts = _unit_panel()
    mids = np.arange(-truncation, truncation) + 0.5
    return (mids[:, None] + nodes).ravel(), np.tile(wts, mids.size)


def _panel_sum(allw: np.ndarray, vals: np.ndarray) -> float:
    """The rule's sum of integrand values at the panel nodes, refused where one is not finite."""
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand produced a non-finite value inside the panel range")
    # einsum, unlike BLAS dot, sums in an order that does not depend on the thread count
    return float(np.einsum("k,k->", allw, vals))


def _half_line_points(truncation: float) -> tuple[np.ndarray, np.ndarray]:
    """The panel nodes t > 0 of [-T, T], the second half, with their weights doubled: the
    nodes are exactly antisymmetric, their weights exactly symmetric and no node is 0, so an
    even integrand's terms at -t and t are equal (Gautschi 2004, symmetric weights)."""
    pts, allw = _panel_points(truncation)
    half = pts.size // 2
    return pts[half:], 2.0 * allw[half:]


def orthogonality_matrix(n_max: int) -> np.ndarray:
    """Gram matrix of the reduced family under t/sinh(pi t); target diag 2/(n+1).

    Read-only: each size is integrated once per process for each PHI entry."""
    return _gram(RECURRENCES[SeqKind.PHI], n_max)


@functools.cache  # every size from 114 is refused and raises: at most 114 matrices, 4.0 MB
def _gram(entry: Recurrence, n_max: int) -> np.ndarray:
    """orthogonality_matrix for one PHI entry, which generate and member_values read.  The
    entry is only a key: a Recurrence hashes by its fields, so a patched family
    gets its own.

    The key is (entry, n_max) only, so a kept matrix does not see code of this module
    replaced at run time (the weight, say); tests that replace it clear the memo.

    Where the entry's d vanishes at 0 .. n_max - 1, the indices p_0 .. p_n_max read, each
    member has the parity p_i(-t) = (-1)^i p_i(t), bit for bit in floats too: member_values
    then computes (a t + 0) p_n + b p_(n-1), and IEEE negation is exact.  The weight is
    even, the panel nodes are exactly antisymmetric and their weights exactly symmetric, so
    the rule's sum is exactly 0 for i + j odd and exactly twice the sum over the nodes t > 0
    for i + j even (see _half_line_points).  There, only the even pairs are summed, over
    the second half of the nodes with doubled weights, and the odd entries stay 0.0: that they vanish is phi-parity's exact proof, not the quadrature's.
    An entry with a d term (a fault row) is summed over both halves, every pair."""
    if n_max < 0:
        raise ValueError("size must be non-negative")
    truncation = make_quad_config(_gram_envelope(n_max), abs_tol=1e-10)
    if any(entry.d.terms(n_max)[0]):
        (pts, allw), stride = _panel_points(truncation), 1
    else:
        (pts, allw), stride = _half_line_points(truncation), 2
    wts = allw * _weight_array(pts)
    out = np.zeros((n_max + 1, n_max + 1))
    # blocks of at most 2048 nodes keep the member values held at once small (1.3 MB at
    # n = 80, not 2.9); the lower triangle is summed and mirrored, so out is exactly symmetric
    for lo in range(0, pts.size, 2048):
        block = slice(lo, lo + 2048)
        phi = member_values(SeqKind.PHI, n_max, pts[block])
        for i in range(n_max + 1):
            pairs = slice(i % stride, i + 1, stride)  # j <= i, and j = i mod 2 under parity
            out[i, pairs] += np.einsum("k,jk->j", phi[i] * wts[block], phi[pairs])
    upper = np.triu_indices(n_max + 1, 1)
    out[upper] = out.T[upper]
    out.setflags(write=False)  # the cache hands the same array to every caller
    return out


def _gram_envelope(n_max: int) -> tuple[float, ...]:
    """The tail envelope of the Gram integrands t p_i(t) p_j(t) / sinh(pi t), i, j <= n_max:
    a_k = max_i |c_ik| bounds the t^k coefficient of every PHI member, so the coefficients
    of t A(t)^2, A(t) = sum_k a_k t^k, bound those of each polynomial factor t p_i p_j.

    Refused where a product a_j a_k would fall below the normal floats, whose rounding to
    fewer bits could make the bound undercount: from n = 114, where the square of the
    smallest a_k, the leading coefficient 2^(n+1)/(n+1)!, is 2.0e-308."""
    coeffs = np.zeros(n_max + 1)
    for p in generate(SeqKind.PHI, n_max):
        head = coeffs[: p.degree + 1]
        np.maximum(head, _abs_coeffs(p), out=head)
    if coeffs.min() ** 2 < sys.float_info.min:
        raise ValueError(f"the tail envelope of the Gram matrix at max_n = {n_max} "
                         f"leaves the float range")
    return (0.0, *np.convolve(coeffs, coeffs).tolist())


def gram_deviation(mat: np.ndarray) -> float:
    """Largest entrywise distance of a Gram matrix from its target diag(2/(n+1))."""
    target = np.diag(2.0 / np.arange(1.0, mat.shape[0] + 1.0))
    return float(np.max(np.abs(mat - target)))


class MomentResult(NamedTuple):
    closed: Fraction  # the exact coefficient of pi^(n+1)
    closed_float: float
    numeric: float
    deviation: float


@functools.cache  # a pure function of n, refused from 63 on: at most 62 frozen results
def moment(n: int) -> MomentResult:
    """Integral of t^n / sinh(t) over the line: exact closed form vs quadrature.

    Closed form: (1 - (-1)^n) (2^(n+1) - 1)/2^n * n! * zeta(n+1), which is 0
    for even n and a rational multiple of pi^(n+1) for odd n; the result carries
    that rational as ``closed`` and float(closed) * pi^(n+1) as ``closed_float``.
    Every n takes the one-term tail bound's truncation, which refuses n >= 63.  For odd n
    the integrand is even and is summed over the nodes t > 0 alone (_half_line_points),
    t^n = t (t^2)^((n-1)/2) by (n - 1)/2 multiplications after the one rounding of t^2:
    within about n - 1 units of rounding, and no np.power, whose last bit depends on the
    CPU.  For even n it is odd, and ``numeric`` is the symmetric rule's exact 0.0, as for
    quad's odd pairs: its match with the closed form 0 is the parity's proof, not the rule's.
    Each n is integrated once per process: moments --max-n reports every odd index up
    to its size.  The key is n only, so a kept result does not see code of this module
    replaced at run time (the quadrature rule, say); tests that replace it clear the memo.
    """
    if n < 1:
        raise ValueError("moment index starts at 1")
    truncation = make_quad_config((0.0,) * n + (1.0,), abs_tol=1e-10, rate=1.0)
    if n % 2 == 0:
        closed, numeric = Fraction(0), 0.0
    else:
        closed = zeta_even(n + 1) * Fraction(2 * (2 ** (n + 1) - 1) * math.factorial(n), 2**n)
        pts, allw = _half_line_points(truncation)
        square, power = pts * pts, pts.copy()
        for _ in range(n // 2):
            np.multiply(power, square, out=power)
        numeric = _panel_sum(allw, np.divide(power, np.sinh(pts), out=power))
    closed_f = float(closed) * math.pi ** (n + 1)
    deviation = abs(numeric - closed_f) / max(1.0, abs(closed_f))
    return MomentResult(closed, closed_f, numeric, deviation)


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
    """Transform by direct quadrature of p_n(t) w(t) e^(ist)/sqrt(2 pi), with the i^n
    phase factored out as in ft_closed.

    Parity collapses the integral to a cosine (even n) or sine (odd n) form;
    the residual phase is folded into the factored-out i^n convention so the
    value compares directly against ft_closed.
    """
    return ft_numeric_grid(n, (s,))[0]


def ft_numeric_grid(n: int, ss: Sequence[float]) -> list[float]:
    """ft_numeric(n, s) for each s of ss, bit for bit, from one evaluation of the weighted
    member p_n(t) w(t) at the panel nodes, which does not depend on s."""
    if n < 0:
        raise ValueError("index must be non-negative")
    norm = _coeff_norm(generate(SeqKind.PHI_MONIC, n)[n])
    pts, allw = _panel_points(make_quad_config((0.0,) * (n + 1) + (norm,), abs_tol=1e-9))
    trig = np.cos if n % 2 == 0 else np.sin
    sign = (-1) ** (n // 2)
    # s * t overflows for huge |s|; _panel_sum rejects the non-finite values
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = member_values(SeqKind.PHI_MONIC, n, pts)[n] * _weight_array(pts)
        return [sign * _panel_sum(allw, weighted * trig(s * pts)) / _SQRT_2PI for s in ss]


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
