"""Shared fixtures."""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

from mlpoly import analysis, sequences


@pytest.fixture(autouse=True)
def fresh_memos():
    """Every test starts from an empty per-process memo: no family table, no Gram matrix,
    zeros or moment kept from an earlier test, which may have patched what built them."""
    sequences._tables.clear()
    for memo in (analysis._gram, analysis._zeros, analysis.moment):
        memo.cache_clear()


@pytest.fixture
def members_built(monkeypatch):
    """Counts the members each `Recurrence.members` call computes, by family (a kind for a
    `RECURRENCES` entry, else the entry itself); a continued table counts only its new
    members."""
    built = Counter()
    members = sequences.Recurrence.members

    def counted(entry, n_max, head=()):
        out = members(entry, n_max, head)
        kinds = {e: kind for kind, e in sequences.RECURRENCES.items()}
        built[kinds.get(entry, entry)] += len(out) - len(head)
        return out

    monkeypatch.setattr(sequences.Recurrence, "members", counted)
    return built


@dataclass(frozen=True)
class _Bumped:
    """ratio(n) + by at n = at, or at every n when at is None: a recurrence coefficient
    off at one index, stated as data and stepped through the `terms` of its Ratio."""

    ratio: sequences.Ratio
    by: Fraction
    at: int | None = None

    def __call__(self, n: int) -> Fraction:
        return self.ratio(n) + (self.by if self.at in (None, n) else 0)

    def __neg__(self) -> "_Bumped":
        return _Bumped(-self.ratio, -self.by, self.at)

    def terms(self, count: int) -> tuple[list[int], list[int]]:
        nums, dens = self.ratio.terms(count)
        p, q = self.by.numerator, self.by.denominator
        for k in range(count) if self.at is None else range(self.at, min(self.at + 1, count)):
            nums[k], dens[k] = nums[k] * q + p * dens[k], dens[k] * q
        return nums, dens


@pytest.fixture
def perturb(monkeypatch):
    """perturb(kind, field, by, at=None) replaces the `RECURRENCES` entry of kind by one
    whose p0 is off by the integer by, or whose coefficient a, b or d is off by the rational
    by at n = at (at every n when at is None), and returns it; monkeypatch.undo() restores
    the entry."""
    def perturbed(kind, field, by, at=None):
        rec = sequences.RECURRENCES[kind]
        if field == "p0":
            entry = rec._replace(p0=rec.p0 + by)
        else:
            entry = rec._replace(**{field: _Bumped(getattr(rec, field), Fraction(by), at)})
        monkeypatch.setitem(sequences.RECURRENCES, kind, entry)
        return entry

    return perturbed
