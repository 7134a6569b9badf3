"""Polynomial family generation and the independent oracles that confirm it.

Five families share one ancestry: the base sequence g_n (coefficients of t^n
in ((1+t)/(1-t))^x), its monic rescaling, the reduced real sequence phi_n
obtained by evaluating g_{n+1} on the imaginary axis, the monic reduced
sequence, and the half-sum shift family connected to Pidduck polynomials.

Every family is generated by its three-term recurrence, defined once in
RECURRENCES, and every exact or float route that runs a recurrence reads that
entry; every oracle rebuilds the same polynomials by a structurally different
route (terminating hypergeometric sums, a shifted Meixner sum, exact series
extraction, the monic rescaling and the unit-shift average of g_n) so that
agreement is meaningful.  The base recurrence is used with +(n-1) g_{n-1} on
the right-hand side: the minus-sign variant seen in print contradicts all
three oracles and is adjudicated separately by the erratum audit rather than
silently rewritten.

Every polynomial here is real.  The imaginary-axis reduction is a sign pattern on
integer numerators.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from enum import Enum
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import NamedTuple

from .polyfps import Poly, X, combine, divide_by_x, elementary, horner, series_exp
from .report import CheckReport, CheckStatus, aggregate

__all__ = [
    "SeqKind",
    "Ratio",
    "Recurrence",
    "RECURRENCES",
    "shared_run",
    "generate",
    "oracle_hypergeometric_g",
    "generating_series",
    "g_oracle_mismatches",
    "monic_egf",
    "reduce_from_g",
    "difference_relation_checks",
    "rodrigues_audit",
]


class SeqKind(Enum):
    G = "G"
    PHI = "PHI"
    PHI_MONIC = "PHI_MONIC"
    G_MONIC = "G_MONIC"
    PIDDUCK = "PIDDUCK"

    @classmethod
    def from_token(cls, token: str) -> "SeqKind":
        try:
            return _KIND_TOKENS[token]
        except KeyError:
            raise ValueError(f"unknown sequence kind: {token!r}") from None

    @property
    def token(self) -> str:
        return self.value.lower().replace("_", "-")


_KIND_TOKENS = {kind.token: kind for kind in SeqKind}


def _values(coeffs: Sequence[int], count: int) -> list[int]:
    """c(0) .. c(count - 1) for the integer polynomial c in n with these ascending
    coefficients, by forward differences: c(0) .. c(deg) by Horner, then each value is deg
    additions, one itertools.accumulate per order of difference.  Up to 4 values per
    coefficient are each one Horner: below that the table's fixed cost is the larger."""
    if len(coeffs) < 2:
        return [coeffs[0] if coeffs else 0] * count
    if count <= 4 * len(coeffs):
        return [horner(coeffs, k, 1) for k in range(count)]
    diffs = [horner(coeffs, k, 1) for k in range(len(coeffs))]
    for j in range(1, len(diffs)):  # diffs[i] becomes (delta^i c)(0), the last constant in n
        for i in range(len(diffs) - 1, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    values = repeat(diffs[-1])
    for start in diffs[-2::-1]:
        values = accumulate(values, initial=start)
    return list(islice(values, count))


class Ratio(NamedTuple):
    """num(n) / den(n), two integer polynomials in n given by their ascending coefficients.

    A tuple, so two Ratios with the same coefficient tuples are equal and hash alike.  A
    call at one n returns the Fraction, for readers at the edges; a recurrence steps on
    the integers of terms.
    """

    num: tuple[int, ...]
    den: tuple[int, ...] = (1,)

    def __call__(self, n: int) -> Fraction:
        return Fraction(horner(self.num, n, 1), horner(self.den, n, 1))

    def __neg__(self) -> "Ratio":
        return Ratio(tuple(-c for c in self.num), self.den)

    def terms(self, count: int) -> tuple[list[int], list[int]]:
        """(nums, dens) with nums[k] / dens[k] = num(k) / den(k) and dens[k] > 0 for
        k = 0 .. count - 1, in one pass each; ZeroDivisionError where den vanishes."""
        nums, dens = _values(self.num, count), _values(self.den, count)
        if dens and min(dens) <= 0:
            if 0 in dens:
                raise ZeroDivisionError(f"{self} has a zero denominator at n = {dens.index(0)}")
            nums = [-c if d < 0 else c for c, d in zip(nums, dens)]
            dens = list(map(abs, dens))
        return nums, dens


class Recurrence(NamedTuple):
    """p_{n+1} = (a(n) x + d(n)) p_n + b(n) p_{n-1} for n >= 0, from p_{-1} = 0 and the
    constant p_0.

    a, b and d are the Ratios of the step coefficients, d zero unless given;
    p_1 = (a(0) x + d(0)) p_0.  A tuple, so two equal entries are one memo key.
    """

    p0: int
    a: Ratio
    b: Ratio
    d: Ratio = Ratio(())

    def members(self, n_max: int, head: Sequence[Poly] = ()) -> list[Poly]:
        """p_0 .. p_{n_max}, exactly, continuing from head = p_0 .. p_k when given."""
        polys = [Poly(), *(head or [Poly([self.p0])])]  # p_{-1}, p_0 ..
        (an, ad), (bn, bd), (dn, dd) = (r.terms(n_max) for r in (self.a, self.b, self.d))
        for n in range(len(polys) - 2, n_max):
            p, q = polys[-1], polys[-2]
            m = math.lcm(ad[n], bd[n], dd[n])  # the step's coefficients over one denominator
            polys.append(combine(((an[n] * (m // ad[n]), X, p), (dn[n] * (m // dd[n]), p),
                                  (bn[n] * (m // bd[n]), q)), m))
        return polys[1:]

    def value(self, n: int, x: Fraction) -> Fraction:
        """p_n(x) at one rational point, by the step of members run on values: O(n)
        steps where the table members(n) builds holds O(n^2) coefficients."""
        if n < 0:
            raise ValueError("table length must be non-negative")
        # p_{k-1}(x) and p_k(x) as integer numerators over one denominator, reduced once
        prev, cur, den = 0, self.p0, 1
        xn, xd = x.numerator, x.denominator
        for an, ad, bn, bd, dn, dd in zip(*self.a.terms(n), *self.b.terms(n), *self.d.terms(n)):
            # s = a x + d in lowest terms, so that m is the least common denominator of s and b
            sn = an * xn * dd + dn * ad * xd
            sd = ad * xd * dd
            g = math.gcd(sn, sd)
            sn, sd = sn // g, sd // g
            m = math.lcm(sd, bd)
            prev, cur = cur * m, sn * (m // sd) * cur + bn * (m // bd) * prev
            den *= m
        return Fraction(cur, den)


# The one definition of each family, read by generate, the exact point evaluator of
# mlpoly eval, the float evaluator and Jacobi matrix of the analysis layer, and the
# erratum audit's printed variant.  A Ratio's tuples are the coefficients of n^0, n^1, ..
RECURRENCES = {
    # (n+1) g_{n+1} = 2x g_n + (n-1) g_{n-1};  g_0 = 1, g_1 = 2x
    SeqKind.G: Recurrence(1, Ratio((2,), (1, 1)), Ratio((-1, 1), (1, 1))),
    # (n+2) phi_{n+1} = 2x phi_n - n phi_{n-1};  phi_0 = 2, phi_1 = 2x
    SeqKind.PHI: Recurrence(2, Ratio((2,), (2, 1)), Ratio((0, -1), (2, 1))),
    # p_{n+1} = x p_n - c_n p_{n-1}, c_n = n(n+1)/4;  p_0 = 1, p_1 = x
    SeqKind.PHI_MONIC: Recurrence(1, Ratio((1,)), Ratio((0, -1, -1), (4,))),
    # q_{n+1} = x q_n + n(n-1)/4 q_{n-1};  q_0 = 1, q_1 = x  (q_n = n!/2^n g_n)
    SeqKind.G_MONIC: Recurrence(1, Ratio((1,)), Ratio((0, -1, 1), (4,))),
    # (n+1) P_{n+1} = (2x+1) P_n + n P_{n-1};  P_0 = 1, P_1 = 2x + 1
    # (P_n = (g_n(x+1) + g_n(x))/2)
    SeqKind.PIDDUCK: Recurrence(1, Ratio((2,), (1, 1)), Ratio((0, 1), (1, 1)),
                                d=Ratio((1,), (1, 1))),
}


# Each family's longest table so far, with the RECURRENCES entry it was built from: one
# table per family for the process (five at most, each as long as the largest n asked
# for).  An equal entry shares it; a changed one, a patch of the data, replaces it.
_tables: dict[SeqKind, tuple[Recurrence, tuple[Poly, ...]]] = {}

# The open run's memo, None outside one: each family's longest series under its kind, and
# the G oracles' verdicts under (G entry, n_max).  Both read module code besides the
# RECURRENCES data, so neither outlives the run.
_run: dict | None = None


@contextmanager
def shared_run() -> Iterator[None]:
    """Keep what generating_series and g_oracle_mismatches build until exit and serve it to
    their later calls; neither outlives the run (generate keeps its tables regardless)."""
    global _run
    _run = {}
    try:
        yield
    finally:
        _run = None


def _memo() -> dict:  # outside a run a new dict each call, so nothing is kept
    return {} if _run is None else _run


def generate(kind: SeqKind, n_max: int) -> tuple[Poly, ...]:
    """Exact members p_0 .. p_n_max of one family, by its RECURRENCES entry.

    Serves a prefix of the family's kept tuple, or extends it, while the entry it was built
    from equals the current one; otherwise builds afresh and keeps that table instead.
    """
    if n_max < 0:
        raise ValueError("table length must be non-negative")
    entry = RECURRENCES[kind]
    held, kept = _tables.get(kind, (entry, ()))
    if held != entry:
        kept = ()
    if n_max < len(kept):
        return kept[: n_max + 1]  # the kept tuple itself when n_max is its last index
    kept = tuple(entry.members(n_max, kept))
    _tables[kind] = entry, kept
    return kept


def _pochhammer(start: int, count: int) -> list[Poly]:
    """(start - x)_j for j = 0 .. count - 1, each one product by (start + j - 1 - x) from
    the one before."""
    basis = [Poly([1])]
    for j in range(count - 1):
        basis.append(basis[-1] * Poly([start + j, -1]))
    return basis


# The parameters of the two sum routes: g_n = 2x 2F1(1-n, 1-x; 2; z) at z = 2, and
# g_n(x) = 2x M_{n-1}(x-1; beta, c) at beta = 2, c = -1.
_HYPERGEOMETRIC_Z = 2
_MEIXNER_BETA, _MEIXNER_C = Fraction(2), Fraction(-1)


def _over_one_denominator(ratios: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """(m, den) with m[j] / den = r_0 r_1 ... r_{j-1} for the ratios r_i = num_i / den_i
    (den_i != 0), all on integers and den the least common denominator of these products:
    m[j] carries the numerators before j and the denominators from j on, over the product
    of every den_i, and one gcd reduces them all."""
    m, num = [], 1
    for r_num, _ in ratios:
        m.append(num)
        num *= r_num
    m.append(num)
    cofactor = 1
    for j in range(len(ratios) - 1, -1, -1):
        cofactor *= ratios[j][1]
        m[j] *= cofactor
    g = math.gcd(cofactor, *m)
    return [c // g for c in m], cofactor // g


def _hypergeometric_g(n: int, poch_x: Sequence[Poly]) -> Poly:
    """g_n = 2x * sum_{j=0}^{n-1} (1-n)_j (1-x)_j z^j / ((2)_j j!), poch_x[j] = (1-x)_j.

    The scalar (1-n)_j z^j / ((2)_j j!) of term j is the product of the term ratios
    z (1-n+i) / ((2+i)(i+1)), i < j, carried as an integer over one common denominator."""
    scalars, den = _over_one_denominator(
        [(_HYPERGEOMETRIC_Z * (1 - n + i), (2 + i) * (i + 1)) for i in range(n - 1)])
    return combine(((2, X, combine(zip(scalars, poch_x))),), den)


def _meixner_g(n: int, poch_y: Sequence[Poly]) -> Poly:
    """g_n = 2x * M_{n-1}(x-1; beta, c), poch_y[j] = (-y)_j.

    The Meixner sum M_k(y; beta, c) = sum_{j=0}^{k} (-k)_j (-y)_j z^j / ((beta)_j j!),
    z = 1 - 1/c, is built in its own variable y and only then shifted to x - 1, which
    keeps this route structurally distinct from the hypergeometric one.  Its scalars are
    products of the term ratios (-k+i) z / ((beta+i)(i+1)), i < j, carried as an integer
    over one common denominator.
    """
    k, beta = n - 1, _MEIXNER_BETA
    z = 1 - 1 / _MEIXNER_C
    # (-k+i) z / ((beta+i)(i+1)) on integers: z = zn/zd and beta + i = (bn + i bd)/bd
    zn, zd, bn, bd = z.numerator, z.denominator, beta.numerator, beta.denominator
    scalars, den = _over_one_denominator(
        [((-k + i) * zn * bd, zd * (bn + i * bd) * (i + 1)) for i in range(k)])
    return combine(((2, X, combine(zip(scalars, poch_y)).shift(-1)),), den)


def oracle_hypergeometric_g(n: int) -> Poly:
    """g_n rebuilt from the terminating hypergeometric sum, over a Pochhammer basis of its
    own: g_n = 2x 2F1(1-n, 1-x; 2; 2)."""
    if n < 1:
        raise ValueError("the hypergeometric form starts at n = 1")
    return _hypergeometric_g(n, _pochhammer(1, n))


# The t^2 coefficient of the denominator 1 + t^2/4 of the monic series.
_MONIC_DENOMINATOR_T2 = Fraction(1, 4)


def monic_egf(order: int) -> tuple[Poly, ...]:
    """Exponential generating series of the monic reduced family.

    exp(2x*arctan(t/2)) / (1 + t^2/4), truncated at the given order; the
    t^n coefficient is phi-hat_n / n!.  The division is the recurrence
    f_n = e_n - f_{n-2}/4 on the coefficients e_n of the exponential.
    """
    numerator = series_exp([c * X for c in elementary("arctan_half", order)])
    out: list[Poly] = []
    for n, e in enumerate(numerator):
        out.append(combine(((1, e), (-_MONIC_DENOMINATOR_T2, out[n - 2]))) if n > 1 else e)
    return tuple(out)


def generating_series(kind: SeqKind, order: int) -> tuple[Poly, ...]:
    """The exact generating series of one family, truncated at order.

    G comes from exp(x * log((1+t)/(1-t))), with t^n coefficient g_n; PHI
    from (exp(2x*arctan t) - 1)/(tx), with t^n coefficient phi_n: the exponential's
    t^0 coefficient, 1, is dropped and every other one divided by x, a division
    verified exact; PHI_MONIC is the exponential series monic_egf;
    PIDDUCK is G's series times 1/(1-t), whose t^n coefficient g_0 + ... + g_n
    is the Pidduck member P_n.

    Inside a run, serves a truncation of the family's kept series, as PIDDUCK's reads G's.
    """
    if order < 1:
        raise ValueError("series order must be at least 1")
    memo = _memo()
    kept = memo.get(kind)
    if kept is not None and order <= len(kept):
        return kept[:order]  # the kept tuple itself when order is its length
    if kind is SeqKind.G:
        series = series_exp([c * X for c in elementary("log_ratio", order)])
    elif kind is SeqKind.PHI:
        # exp(2x arctan t), whose t^0 coefficient is 1: 2 arctan t is 2 arctan(t/2) at 2t
        expanded = series_exp([combine(((2 ** m, c, X),))
                               for m, c in enumerate(elementary("arctan_half", order + 1))])
        series = tuple(map(divide_by_x, expanded[1:]))
    elif kind is SeqKind.PHI_MONIC:
        series = monic_egf(order)
    elif kind is SeqKind.PIDDUCK:
        series = tuple(accumulate(generating_series(SeqKind.G, order)))
    else:
        raise ValueError(f"no generating-series oracle for kind {kind.value}")
    memo[kind] = series
    return series


def g_oracle_mismatches(n_max: int) -> tuple[int, ...]:
    """Indices 1..n_max where g_n differs from its hypergeometric, Meixner or series oracle;
    kept for the run, as the exact suite and the erratum audit both check n_max = 20."""
    memo, key = _memo(), (RECURRENCES[SeqKind.G], n_max)
    if key in memo:
        return memo[key]
    g = generate(SeqKind.G, n_max)
    series = generating_series(SeqKind.G, n_max + 1)
    # each sum route's basis once for the call: (1-x)_j for j < n <= n_max, (-y)_j for j <= n-1
    poch_x, poch_y = _pochhammer(1, n_max), _pochhammer(0, n_max)
    memo[key] = tuple(n for n in range(1, n_max + 1)
                      if not (g[n] == _hypergeometric_g(n, poch_x) == _meixner_g(n, poch_y)
                              == series[n]))
    return memo[key]


def reduce_from_g(n: int) -> Poly:
    """phi_n built from g_{n+1} evaluated on the imaginary axis.

    Maps coefficient a_k of g_{n+1} to a_k * i^(k-n-1) with the division by x
    realized as an index shift; on g_{n+1}'s integer numerators that map is a
    sign pattern.  The result must come out exactly real with a vanishing
    source constant term; anything else means the sign conventions have been
    broken and is raised rather than returned.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    g = generate(SeqKind.G, n + 1)[n + 1]
    num = g.numerators
    if num and num[0]:
        raise ValueError("source polynomial has a nonzero constant term; cannot divide by x")
    # i^e for e = k - n - 1 is +-1 for even e, (-1)^(e/2), and imaginary for odd e
    out = []
    for k in range(1, len(num)):
        e = k - n - 1
        if e % 2:
            if num[k]:
                raise ValueError("imaginary residue in the reduction; sign convention broken")
            out.append(0)
        else:
            out.append(-num[k] if e % 4 else num[k])
    return Poly(out) / g.denominator


def difference_relation_checks(n_max: int) -> list[CheckReport]:
    """Exactly verify the two shift relations of g_n.

    1. x g_n(x+1) - 2n g_n(x) - x g_n(x-1) = 0
    2. g_n(x+1) - g_{n-1}(x+1) = g_n(x) + g_{n-1}(x)

    Both are zero-polynomial contracts; one report per relation, which on failure lists
    every n with a nonzero residual.  The difference equation of the monic reduced family
    is 2i times its trig-operator residual, so `identities.trig_operator_eigencheck`
    reports it.
    """
    if n_max < 1:
        raise ValueError("need at least n = 1 to check the relations")
    g = generate(SeqKind.G, n_max)
    g_up = [q.shift(1) for q in g]  # g_n(x+1), each once: relations 1 and 2 read it
    return [
        aggregate(
            "difference-relation-g", 1, n_max,
            lambda n: combine(((1, X, g_up[n]), (-2 * n, g[n]),
                               (-1, X, g[n].shift(-1)))).is_zero(),
            "x g_n(x+1) - 2n g_n(x) - x g_n(x-1) = 0; exact for all n in range"),
        aggregate(
            "recurrence-difference-g", 1, n_max,
            lambda n: combine(((1, g_up[n]), (-1, g_up[n - 1]), (-1, g[n]),
                               (-1, g[n - 1]))).is_zero(),
            "g_n(x+1) - g_{n-1}(x+1) = g_n(x) + g_{n-1}(x); exact for all n in range"),
    ]


def _gamma_pair(half: float, x: float) -> float:
    """Gamma(half - x) * Gamma(half + x), via log-Gamma when both args are positive."""
    u, v = half - x, half + x
    if u > 0 and v > 0:
        return math.exp(math.lgamma(u) + math.lgamma(v))
    # math.gamma raises at the poles, which is the contract for bad samples
    return math.gamma(u) * math.gamma(v)


# Where the suites and the erratum audit sample the Rodrigues formula.
RODRIGUES_POINTS = (0.1, 0.2, 0.3, 0.4)


def rodrigues_audit(n: int) -> CheckReport:
    """Numerically adjudicate the printed Rodrigues-type formula for g_n.

    Evaluates the printed right-hand side (2/n!) (x / w(x,1)) delta^n w(x,n),
    where w(x,m) = Gamma((m+1)/2 - x) Gamma((m+1)/2 + x) and delta is the
    central difference with unit step, against the recurrence polynomial at
    each of RODRIGUES_POINTS.  The verdict (MATCH within 1e-9 relative, else
    MISMATCH) is reported, never assumed: the formula fails a desk check at
    n = 1 and no corrected normalization is guessed.
    """
    if n < 1:
        raise ValueError("the audit starts at n = 1")
    g_n = generate(SeqKind.G, n)[n]
    half = (n + 1) / 2.0
    scale = 2.0 / math.factorial(n)
    details = []
    max_dev = 0.0
    for x in RODRIGUES_POINTS:
        delta_n = 0.0
        for j in range(n + 1):
            delta_n += (-1) ** j * math.comb(n, j) * _gamma_pair(half, x + n / 2.0 - j)
        rhs = scale * (x / _gamma_pair(1.0, x)) * delta_n
        lhs = g_n(float(x))
        dev = abs(rhs - lhs) / max(abs(lhs), abs(rhs), 1.0)
        max_dev = max(max_dev, dev)
        details.append(f"x={x:.6g}: rhs={rhs:.9g}, poly={lhs:.9g}, rel_dev={dev:.3e}")
    verdict = "MATCH" if max_dev < 1e-9 else "MISMATCH"
    note = (f"printed difference-Rodrigues form at n = {n}: {verdict}; "
            + "; ".join(details))
    return CheckReport("rodrigues-formula", (n, n), CheckStatus.AUDITED,
                       max_deviation=max_dev, note=note)
