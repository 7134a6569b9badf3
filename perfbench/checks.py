"""Output checks.  They read only the bytes `mlpoly` printed and its exit code,
and never import `mlpoly`, so a defect in the package cannot hide itself.

Every check returns a list of problems; an empty list means the output
passed.  A problem that is one of the package's known defects, inside the
region and size measured on the seed, is marked `known`; it still fails the
operation, but does not make the run's output incorrect.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

QUAD_TOL = 1e-8
FT_TOL = 1e-6
MOMENT_TOL = 1e-8

# Known defects of the seed, from evaluating power-basis coefficients in
# floats (ROADMAP item 4), and the most each may deviate and still count as
# that defect.  Measured on the seed over the stream's ranges:
# - quad breaks its 1e-8 bound from --max-n 59 (1.18e-8 at 59, 1.8e-5 at 80);
# - ft breaks 1e-6 from n = 18 at small s, growing about tenfold per n
#   (worst over s in [0.25, 4]: 4.4e-6 at n = 18, 7.3 at n = 24);
# - eval of the monic families at n = 200 leaves double range at every x != 0
#   and crashes with OverflowError.
QUAD_DEFECT_MIN_N = 59
QUAD_DEFECT_CEILING = 1e-4
FT_DEFECT_MIN_N = 18
EVAL_OVERFLOW_SHAPES = frozenset({("g-monic", 200), ("phi-monic", 200)})


def ft_defect_ceiling(n: int) -> float:
    """Largest ft deviation excused at n: 1e-4 at n = 18, tenfold per n."""
    return 10.0 ** (n - 22)


class Problem(NamedTuple):
    check: str
    message: str
    known: bool = False


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: bytes):
    """Parse JSON, rejecting NaN and Infinity as the JSON standard does."""
    return json.loads(text, parse_constant=_reject_constant)


def _parse(rc: int, stdout: bytes):
    if rc != 0:
        return None, [Problem("exit-code", f"exit code {rc}")]
    try:
        return strict_json(stdout), []
    except ValueError as exc:
        return None, [Problem("strict-json", str(exc).splitlines()[0][:200])]


def verify_problems(rc: int, stdout: bytes, reference: bytes | None) -> list[Problem]:
    """Checks on one `mlpoly verify` run.

    `reference` is the stdout of the first run of the same invocation, so
    runs are compared with each other rather than with a frozen digest.
    """
    payload, problems = _parse(rc, stdout)
    if reference is not None and stdout != reference:
        problems.append(Problem("determinism", "stdout differs from the first run"))
    if payload is not None and payload.get("summary", {}).get("fail") != 0:
        problems.append(Problem("summary", f"summary is {payload.get('summary')}"))
    return problems


def _opt(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _check_zeros(argv, payload) -> list:
    n = _opt(argv, "--n")
    zs = payload["zeros"]
    if len(zs) != n:
        return [Problem("zeros-count", f"{len(zs)} zeros for n = {n}")]
    problems = []
    if any(not a < b for a, b in zip(zs, zs[1:])):
        problems.append(Problem("zeros-sorted", "zeros are not strictly ascending"))
    if any(zs[k] != -zs[n - 1 - k] for k in range(n)):
        problems.append(Problem("zeros-antisymmetric", "zeros are not antisymmetric"))
    if n >= 2 and max(abs(z) for z in zs) >= math.sqrt(n * (n - 1)):
        problems.append(Problem("zeros-bound", "a zero lies outside sqrt(n(n-1))"))
    return problems


def _check_quad(argv, payload) -> list:
    size = _opt(argv, "--max-n") + 1
    mat = payload["matrix"]
    if len(mat) != size or any(len(row) != size for row in mat):
        return [Problem("quad-shape", f"matrix is not {size}x{size}")]
    dev = max(abs(mat[i][j] - (2.0 / (i + 1.0) if i == j else 0.0))
              for i in range(size) for j in range(size))
    if not dev <= QUAD_TOL:
        known = size - 1 >= QUAD_DEFECT_MIN_N and dev <= QUAD_DEFECT_CEILING
        return [Problem("quad-bound", f"deviation {dev:.3g} > {QUAD_TOL:g}", known)]
    return []


def _check_ft(argv, payload) -> list:
    closed, numeric = payload["closed"], payload["numeric"]
    dev = abs(closed - numeric) / max(1.0, abs(closed))
    if not dev <= FT_TOL:
        n = _opt(argv, "--n")
        known = n >= FT_DEFECT_MIN_N and dev <= ft_defect_ceiling(n)
        return [Problem("ft-bound", f"deviation {dev:.3g} > {FT_TOL:g}", known)]
    return []


def _check_moments(argv, payload) -> list:
    want = list(range(1, _opt(argv, "--max-n") + 1, 2))
    if [row["n"] for row in payload] != want:
        return [Problem("moments-rows", "rows are not the odd n up to --max-n")]
    dev = max(abs(row["numeric"] - row["closed_float"]) / abs(row["closed_float"])
              for row in payload)
    if not dev <= MOMENT_TOL:
        return [Problem("moments-bound", f"relative deviation {dev:.3g} > {MOMENT_TOL:g}")]
    return []


def _check_coeffs(argv, payload) -> list:
    rows = [payload] if "--n" in argv else payload
    if "--seq" not in argv or argv[argv.index("--seq") + 1] != "phi-monic":
        return []
    problems = []
    for row in rows:
        n = row["n"]
        coeffs = [Fraction(c) for c in row["coeffs"]]
        if len(coeffs) != n + 1 or coeffs[-1] != 1:
            problems.append(Problem("phi-monic-leading", f"n = {n} is not monic of degree n"))
        if any(c for k, c in enumerate(coeffs) if (n - k) % 2):
            problems.append(Problem("phi-monic-parity", f"n = {n} breaks p(-x) = (-1)^n p(x)"))
    return problems


_QUERY_CHECKS = {
    "zeros": _check_zeros,
    "quad": _check_quad,
    "ft": _check_ft,
    "moments": _check_moments,
    "coeffs": _check_coeffs,
}


def query_problems(argv: list[str], rc: int, stdout: bytes, error: str = "") -> list[Problem]:
    """Checks on one CLI query: no exception, exit 0, strict JSON, then the
    subcommand's own.  `error` is the exception the query raised, if any."""
    if error:
        opts = dict(zip(argv[1::2], argv[2::2]))
        known = (argv[0] == "eval" and error.startswith("OverflowError")
                 and (opts.get("--seq"), int(opts.get("--n", -1))) in EVAL_OVERFLOW_SHAPES)
        return [Problem("exception", error, known)]
    payload, problems = _parse(rc, stdout)
    if payload is None:
        return problems
    check = _QUERY_CHECKS.get(argv[0])
    if check is None:
        return []
    try:
        return check(argv, payload)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [Problem("structure", f"{type(exc).__name__}: {exc}"[:200])]


def is_known_defect(problems: list[Problem]) -> bool:
    """True when an operation failed only by known defects."""
    return bool(problems) and all(p.known for p in problems)
