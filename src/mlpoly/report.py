"""Structured verdict records shared by every verification layer."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .polyfps import Poly

__all__ = ["CheckStatus", "CheckReport"]


class CheckStatus(Enum):
    """PASS/FAIL for contract checks; AUDITED for adjudicated printed errata.

    An AUDITED report documents a known inconsistency in the source identity
    set.  It is expected output, not a failure, and never affects exit codes.
    """

    PASS = "PASS"
    FAIL = "FAIL"
    AUDITED = "AUDITED"


@dataclass(frozen=True)
class CheckReport:
    identity: str
    n_range: tuple[int, int]
    status: CheckStatus
    residual: Poly | None = None
    max_deviation: float | None = None
    note: str = ""

    def to_json_dict(self) -> dict:
        # residual polynomials with Gaussian coefficients are described in
        # the note instead; the serialized residual field stays rational
        residual = None
        if self.residual is not None and self.residual.is_real():
            residual = self.residual.to_strings()
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
