"""Structured verdict records shared by every verification layer, and the two verdicts.

Every PASS or FAIL is decided here: `aggregate` for an exact contract that must hold
at each index of a range, `bounded` for a numeric deviation under its tolerance.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum
from typing import NamedTuple

from .polyfps import Poly

__all__ = ["CheckStatus", "CheckReport", "aggregate", "bounded"]


class CheckStatus(Enum):
    """PASS/FAIL for contract checks; AUDITED for adjudicated printed errata.

    An AUDITED report documents a known inconsistency in the source identity
    set.  It is expected output, not a failure, and never affects exit codes.
    """

    PASS = "PASS"
    FAIL = "FAIL"
    AUDITED = "AUDITED"


class CheckReport(NamedTuple):
    identity: str
    n_range: tuple[int, int]
    status: CheckStatus
    residual: Poly | None = None
    max_deviation: float | None = None
    note: str = ""

    def to_json_dict(self) -> dict:
        residual = None if self.residual is None else self.residual.to_strings()
        d = {
            "identity": self.identity,
            "n_range": [self.n_range[0], self.n_range[1]],
            "status": self.status.value,
            "residual": residual,
            "note": self.note,
        }
        if self.max_deviation is not None:
            d["max_deviation"] = self.max_deviation
        return d


def aggregate(identity: str, lo: int, hi: int, holds: Callable[[int], bool],
              pass_note: str) -> CheckReport:
    """PASS with pass_note when holds(n) for every n in lo..hi, else FAIL listing each n
    where it does not."""
    failures = [n for n in range(lo, hi + 1) if not holds(n)]
    if not failures:
        return CheckReport(identity, (lo, hi), CheckStatus.PASS, note=pass_note)
    return CheckReport(identity, (lo, hi), CheckStatus.FAIL,
                       note=f"failing indices: {failures}")


def bounded(identity: str, n_range: tuple[int, int], dev: float, tol: float,
            note: str) -> CheckReport:
    """PASS when the deviation is below the tolerance; the deviation is reported either way,
    as none where it is not finite (nothing was measured), so the JSON stays strict."""
    status = CheckStatus.PASS if dev < tol else CheckStatus.FAIL
    return CheckReport(identity, n_range, status,
                       max_deviation=dev if math.isfinite(dev) else None, note=note)
