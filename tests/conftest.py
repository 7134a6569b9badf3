"""Shared fixtures."""

from collections import Counter

import pytest

from mlpoly import sequences


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
