"""Polynomial family generation and the independent oracles that confirm it.

Five families share one ancestry: the base sequence g_n (coefficients of t^n
in ((1+t)/(1-t))^x), its monic rescaling, the reduced real sequence phi_n
obtained by evaluating g_{n+1} on the imaginary axis, the monic reduced
sequence, and the half-sum shift family connected to Pidduck polynomials.

The three recurrence families are defined once, in RECURRENCES, and every
exact or float route that runs them reads that entry; every oracle rebuilds
the same polynomials by a structurally different route (terminating
hypergeometric sums, a shifted Meixner sum, exact series extraction) so that
agreement is meaningful.  The base recurrence is used with +(n-1) g_{n-1} on
the right-hand side: the minus-sign variant seen in print contradicts all
three oracles and is adjudicated separately by the erratum audit rather than
silently rewritten.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exactnum import GaussRational
from .polyfps import Poly, PolySeries, X, elementary
from .report import CheckReport, CheckStatus

__all__ = [
    "SeqKind",
    "SeqTable",
    "Recurrence",
    "RECURRENCES",
    "generate",
    "oracle_hypergeometric_g",
    "oracle_meixner_g",
    "oracle_gf",
    "generating_series",
    "g_oracle_mismatches",
    "monic_egf",
    "reduce_from_g",
    "difference_relation_checks",
    "RODRIGUES_POINTS",
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


@dataclass(frozen=True)
class SeqTable:
    kind: SeqKind
    polys: tuple[Poly, ...]

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, n: int) -> Poly:
        return self.polys[n]

    @property
    def max_n(self) -> int:
        return len(self.polys) - 1

    def to_json_rows(self) -> list[dict]:
        return [
            {"kind": self.kind.value, "n": n, "coeffs": p.to_strings()}
            for n, p in enumerate(self.polys)
        ]


@dataclass(frozen=True)
class Recurrence:
    """p_{n+1} = a(n) x p_n + b(n) p_{n-1} for n >= 0, from p_{-1} = 0 and the constant p_0.

    a and b return the exact step coefficients; p_1 = a(0) p_0 x.
    """

    p0: int
    a: Callable[[int], Fraction]
    b: Callable[[int], Fraction]

    def members(self, n_max: int) -> list[Poly]:
        """p_0 .. p_{n_max}, exactly."""
        polys = [Poly(), Poly([self.p0])]  # p_{-1}, p_0
        for n in range(n_max):
            polys.append(self.a(n) * X * polys[-1] + self.b(n) * polys[-2])
        return polys[1:]


# The one definition of each recurrence family, read by generate, the float evaluator
# and Jacobi matrix of the analysis layer, and the erratum audit's printed variant.
RECURRENCES = {
    # (n+1) g_{n+1} = 2x g_n + (n-1) g_{n-1};  g_0 = 1, g_1 = 2x
    SeqKind.G: Recurrence(1, lambda n: Fraction(2, n + 1), lambda n: Fraction(n - 1, n + 1)),
    # (n+2) phi_{n+1} = 2x phi_n - n phi_{n-1};  phi_0 = 2, phi_1 = 2x
    SeqKind.PHI: Recurrence(2, lambda n: Fraction(2, n + 2), lambda n: Fraction(-n, n + 2)),
    # p_{n+1} = x p_n - c_n p_{n-1}, c_n = n(n+1)/4;  p_0 = 1, p_1 = x
    SeqKind.PHI_MONIC: Recurrence(1, lambda n: Fraction(1), lambda n: Fraction(-n * (n + 1), 4)),
}


# One weak entry per family, its last and so longest table built: a table is shared
# only while some caller still holds it, so none outlives the query or suite that built it.
_LIVE: weakref.WeakValueDictionary[SeqKind, SeqTable] = weakref.WeakValueDictionary()


def generate(kind: SeqKind, n_max: int) -> SeqTable:
    """Exact table of polynomials 0..n_max for one family.

    G, PHI, PHI_MONIC:  their RECURRENCES entry
    G_MONIC:    n!/2^n * g_n
    PIDDUCK:    (g_n(x+1) + g_n(x))/2, the unit shift read off exactly

    While a long enough table of the family is alive, returns it or its prefix.
    """
    if n_max < 0:
        raise ValueError("table length must be non-negative")
    live = _LIVE.get(kind)
    if live is not None and n_max <= live.max_n:
        return live if n_max == live.max_n else SeqTable(kind, live.polys[: n_max + 1])
    if kind in RECURRENCES:
        polys = RECURRENCES[kind].members(n_max)
    elif kind is SeqKind.G_MONIC:
        base = generate(SeqKind.G, n_max)
        polys = [Fraction(math.factorial(n), 2**n) * base[n] for n in range(n_max + 1)]
    elif kind is SeqKind.PIDDUCK:
        base = generate(SeqKind.G, n_max)
        polys = [(base[n].shift(1) + base[n]) / Fraction(2) for n in range(n_max + 1)]
    else:
        raise ValueError(f"unknown sequence kind: {kind!r}")
    table = SeqTable(kind, tuple(polys))
    _LIVE[kind] = table
    return table


def oracle_hypergeometric_g(n: int) -> Poly:
    """g_n rebuilt from the terminating hypergeometric sum.

    g_n = 2x * sum_{j=0}^{n-1} (1-n)_j (1-x)_j 2^j / ((2)_j j!), with the
    Pochhammer factor in x expanded as exact polynomial algebra.
    """
    if n < 1:
        raise ValueError("the hypergeometric form starts at n = 1")
    acc = Poly()
    scalar = Fraction(1)           # (1-n)_j 2^j / ((2)_j j!)
    poch_x = Poly([1])             # (1-x)_j
    for j in range(n):
        acc = acc + scalar * poch_x
        scalar = scalar * Fraction(2 * (1 - n + j), (2 + j) * (j + 1))
        poch_x = poch_x * Poly([1 + j, -1])
    return 2 * X * acc


def _meixner(k: int, beta: Fraction, c: Fraction) -> Poly:
    """Meixner polynomial M_k(y; beta, c) as an exact Poly in y."""
    z = 1 - 1 / Fraction(c)
    acc = Poly()
    scalar = Fraction(1)           # (-k)_j z^j / ((beta)_j j!)
    poch_y = Poly([1])             # (-y)_j
    for j in range(k + 1):
        acc = acc + scalar * poch_y
        scalar = scalar * (-k + j) * z / ((beta + j) * (j + 1))
        poch_y = poch_y * Poly([j, -1])
    return acc


def oracle_meixner_g(n: int) -> Poly:
    """g_n via the Meixner connection: g_n(x) = 2x * M_{n-1}(x-1; 2, -1).

    The Meixner sum is built in its own variable and only then shifted to
    x - 1, which keeps this route structurally distinct from the
    hypergeometric oracle.
    """
    if n < 1:
        raise ValueError("the Meixner form starts at n = 1")
    m = _meixner(n - 1, Fraction(2), Fraction(-1))
    return 2 * X * m.shift(-1)


def monic_egf(order: int) -> PolySeries:
    """Exponential generating series of the monic reduced family.

    exp(2x*arctan(t/2)) / (1 + t^2/4), truncated at the given order; the
    t^n coefficient is phi-hat_n / n!.
    """
    numerator = (elementary("arctan_half", order) * X).exp()
    denom_coeffs = [Poly([1]), Poly(), Poly([Fraction(1, 4)])]
    denominator = PolySeries(order, denom_coeffs[:order])
    return numerator / denominator


def generating_series(kind: SeqKind, order: int) -> PolySeries:
    """The exact generating series of one family, truncated at order.

    G comes from exp(x * log((1+t)/(1-t))), with t^n coefficient g_n; PHI
    from (exp(2x*arctan t) - 1)/(tx) with both divisions verified exact, with
    t^n coefficient phi_n; PHI_MONIC is the exponential series monic_egf.
    """
    if kind is SeqKind.G:
        return (elementary("log_ratio", order) * X).exp()
    if kind is SeqKind.PHI:
        two_arctan = elementary("arctan_half", order + 1).scale_t(Fraction(2))
        expanded = (two_arctan * X).exp() - PolySeries.one(order + 1)
        return expanded.divide_by_t().divide_coeffs_by_x()
    if kind is SeqKind.PHI_MONIC:
        return monic_egf(order)
    raise ValueError(f"no generating-series oracle for kind {kind.value}")


def oracle_gf(kind: SeqKind, n: int, order: int | None = None) -> Poly:
    """Extract one polynomial from the exact generating series of its family."""
    if order is None:
        order = n + 2
    if order <= n:
        raise ValueError("truncation order must exceed the target index")
    coeff = generating_series(kind, order).coeff(n)
    return coeff * Fraction(math.factorial(n)) if kind is SeqKind.PHI_MONIC else coeff


@functools.cache
def g_oracle_mismatches(n_max: int) -> tuple[int, ...]:
    """Indices 1..n_max where g_n differs from its hypergeometric, Meixner or series oracle.

    Memoized, because the exact suite and the erratum audit both check n_max = 20.
    """
    g = generate(SeqKind.G, n_max)
    series = generating_series(SeqKind.G, n_max + 1)
    return tuple(n for n in range(1, n_max + 1)
                 if not (g[n] == oracle_hypergeometric_g(n) == oracle_meixner_g(n)
                         == series.coeff(n)))


def reduce_from_g(n: int) -> Poly:
    """phi_n built from g_{n+1} evaluated on the imaginary axis.

    Maps coefficient a_k of g_{n+1} to a_k * i^(k-n-1) with the division by x
    realized as an index shift.  The result must come out exactly real with a
    vanishing source constant term; anything else means the sign conventions
    have been broken and is raised rather than returned.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    g = generate(SeqKind.G, n + 1)[n + 1]
    if g.coefficient(0):
        raise ValueError("source polynomial has a nonzero constant term; cannot divide by x")
    out = []
    for k in range(1, g.degree + 1):
        z = GaussRational.i_power(k - n - 1) * g.coefficient(k)
        if not z.is_real:
            raise ValueError("imaginary residue in the reduction; sign convention broken")
        out.append(z.re)
    return Poly(out)


def difference_relation_checks(n_max: int) -> list[CheckReport]:
    """Exactly verify the three shift relations of the families.

    1. x g_n(x+1) - 2n g_n(x) - x g_n(x-1) = 0
    2. g_n(x+1) - g_{n-1}(x+1) = g_n(x) + g_{n-1}(x)
    3. (x+i) p_n(x+i) - 2(n+1)i p_n(x) - (x-i) p_n(x-i) = 0 for monic reduced p_n

    All three are zero-polynomial contracts; one report per relation, with
    the first nonzero residual recorded on failure.
    """
    if n_max < 1:
        raise ValueError("need at least n = 1 to check the relations")
    g = generate(SeqKind.G, n_max)
    p = generate(SeqKind.PHI_MONIC, n_max)
    i = GaussRational.i_power(1)
    return [
        _zero_contract_report(
            "difference-relation-g", (1, n_max),
            lambda n: X * g[n].shift(1) - 2 * n * g[n] - X * g[n].shift(-1),
            "x g_n(x+1) - 2n g_n(x) - x g_n(x-1) = 0"),
        _zero_contract_report(
            "recurrence-difference-g", (1, n_max),
            lambda n: g[n].shift(1) - g[n - 1].shift(1) - g[n] - g[n - 1],
            "g_n(x+1) - g_{n-1}(x+1) = g_n(x) + g_{n-1}(x)"),
        _zero_contract_report(
            "difference-relation-phi-monic-complex", (0, n_max),
            lambda n: (Poly([i, 1]) * p[n].shift(i)
                       - GaussRational(Fraction(0), Fraction(2 * (n + 1))) * p[n]
                       - Poly([-i, 1]) * p[n].shift(-i)),
            "(x+i) p_n(x+i) - 2(n+1)i p_n(x) - (x-i) p_n(x-i) = 0, Gaussian-exact"),
    ]


def _zero_contract_report(identity: str, n_range: tuple[int, int],
                          residual_of: Callable[[int], Poly],
                          statement: str) -> CheckReport:
    """PASS when residual_of(n) is zero for every n in range, else FAIL at the first nonzero."""
    for n in range(n_range[0], n_range[1] + 1):
        residual = residual_of(n)
        if not residual.is_zero():
            note = f"{statement}; first nonzero residual at n = {n}: {residual}"
            stored = residual if residual.is_real() else None
            return CheckReport(identity, n_range, CheckStatus.FAIL, residual=stored, note=note)
    return CheckReport(identity, n_range, CheckStatus.PASS,
                       note=f"{statement}; exact for all n in range")


def _gamma_pair(half: float, x: float) -> float:
    """Gamma(half - x) * Gamma(half + x), via log-Gamma when both args are positive."""
    u, v = half - x, half + x
    if u > 0 and v > 0:
        return math.exp(math.lgamma(u) + math.lgamma(v))
    # math.gamma raises at the poles, which is the contract for bad samples
    return math.gamma(u) * math.gamma(v)


# Where the suites and the erratum audit sample the Rodrigues formula.
RODRIGUES_POINTS = (0.1, 0.2, 0.3, 0.4)


def rodrigues_audit(n: int, sample_points: Sequence[float]) -> CheckReport:
    """Numerically adjudicate the printed Rodrigues-type formula for g_n.

    Evaluates the printed right-hand side (2/n!) (x / w(x,1)) delta^n w(x,n),
    where w(x,m) = Gamma((m+1)/2 - x) Gamma((m+1)/2 + x) and delta is the
    central difference with unit step, against the recurrence polynomial at
    each sample point.  The verdict (MATCH within 1e-9 relative, else
    MISMATCH) is reported, never assumed: the formula fails a desk check at
    n = 1 and no corrected normalization is guessed.
    """
    if n < 1:
        raise ValueError("the audit starts at n = 1")
    if not sample_points:
        raise ValueError("at least one sample point is required")
    g_n = generate(SeqKind.G, n)[n]
    half = (n + 1) / 2.0
    scale = 2.0 / math.factorial(n)
    details = []
    max_dev = 0.0
    for x in sample_points:
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
