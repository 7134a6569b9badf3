"""Verification suites: one plan of checks, each check run once.

The runner drops repeated steps before calling any, so a check that two
layers share runs once under `all`.  The checks share each family's table,
which `sequences.generate` keeps for the process, and run in one shared run of
`sequences`, so they share each series and verdict too, and neither is kept
past the run.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import _Bumped
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpoly import analysis, exactnum, floats, identities, polyfps, sequences, suite
from mlpoly.cli import main
from mlpoly.polyfps import Poly, X
from mlpoly.report import CheckStatus, aggregate
from mlpoly.sequences import SeqKind


def _per_family(built):
    """The members computed for each family, without the erratum audit's printed variant."""
    return Counter({kind: built[kind] for kind in SeqKind if built[kind]})


def _count_calls(monkeypatch, calls, name):
    # every module that holds the name by import, so a call through any of them counts
    for module in (m for m in (suite, floats, analysis) if hasattr(m, name)):
        original = getattr(module, name)

        def counted(*args, _original=original):
            calls[name, args[0]] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)


# Members p_0 .. p_m of each family computed by one run, m the largest index it reads:
# p_{max_n + 1} of G and PHI, p_{max_n + 2} of PHI_MONIC, p_{max_n} of the other two.
def _each_member_once(max_n):
    return Counter({SeqKind.G: max_n + 2, SeqKind.PHI: max_n + 2, SeqKind.PHI_MONIC: max_n + 3,
                    SeqKind.G_MONIC: max_n + 1, SeqKind.PIDDUCK: max_n + 1})


def test_all_runs_each_shared_check_once(monkeypatch, members_built):
    calls = Counter()
    _count_calls(monkeypatch, calls, "derivative_expansion_reduced_audit")
    _count_calls(monkeypatch, calls, "rodrigues_audit")
    reports = suite.run_suite("all")
    assert len(reports) == 27
    assert calls["derivative_expansion_reduced_audit", 20] == 1
    assert calls["rodrigues_audit", 1] == 1
    assert _per_family(members_built) == _each_member_once(20)


def test_numeric_suite_builds_phi_monic_at_most_once(members_built):
    # the Fourier loop reads p_n for n <= 8, Rodrigues g_n for n <= 3, the Gram matrix
    # phi_n for n <= 12
    suite.run_suite("numeric")
    assert _per_family(members_built) == Counter(
        {SeqKind.PHI_MONIC: 9, SeqKind.G: 4, SeqKind.PHI: 13})


def test_all_at_small_max_n_builds_each_table_once(members_built):
    # the audit reads g_n and phi_n to n = 20 and 21, the Fourier loop p_n to n = 8
    suite.run_suite("all", 3)
    assert _per_family(members_built) == Counter(
        {SeqKind.G: 21, SeqKind.PHI: 22, SeqKind.PHI_MONIC: 9, SeqKind.G_MONIC: 4,
         SeqKind.PIDDUCK: 4})


def test_all_refuses_a_size_past_the_quadrature_before_any_exact_step(monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, calls, "orthogonality_matrix")
    original = suite.difference_relation_checks

    def counted(n_max):
        calls["difference_relation_checks", n_max] += 1
        return original(n_max)

    monkeypatch.setattr(suite, "difference_relation_checks", counted)
    with pytest.raises(ValueError, match="the tail envelope of the Gram matrix"):
        suite.run_suite("all", 140)
    assert calls == Counter({("orthogonality_matrix", 140): 1})


def test_generating_the_shifted_and_rescaled_families_builds_one_table_each(members_built):
    for kind in (SeqKind.G_MONIC, SeqKind.PIDDUCK):
        members_built.clear()
        sequences.generate(kind, 30)
        assert members_built == Counter({kind: 31})


def test_oracle_reports_catch_a_broken_recurrence(monkeypatch, perturb):
    # the routes read G's table and series, never the entry of the family they check
    for kind, identity in ((SeqKind.G_MONIC, "g-monic-oracle-equivalence"),
                           (SeqKind.PIDDUCK, "pidduck-oracle-equivalence")):
        perturb(kind, "b", 1)
        status = {r.identity: r.status for r in suite._table_checks(6)}
        assert status[identity] is CheckStatus.FAIL
        assert list(status.values()).count(CheckStatus.FAIL) == 1
        monkeypatch.undo()


# The exact reports that read each family's table: with its b(3) off by one, each fails.
_READS_TABLE = {
    SeqKind.PHI_MONIC: {"convolution-identity", "derivative-expansion-monic",
                        "difference-relation-phi-monic-complex", "lowering-operator",
                        "ode-residual", "phi-oracle-equivalence",
                        "trig-operator-eigenrelation", "turan-recurrence"},
    SeqKind.G: {"difference-relation-g", "g-monic-oracle-equivalence",
                "g-oracle-equivalence", "g-special-values", "phi-oracle-equivalence",
                "pidduck-oracle-equivalence", "recurrence-difference-g"},
}


def test_a_broken_recurrence_fails_every_route_that_reads_it(monkeypatch, perturb):
    # b(3) off by one: each check that reads the broken table from p_4 on fails, and lists
    # every failing index; parity and the series route (egf-pde) never see it
    for kind, failing in _READS_TABLE.items():
        perturb(kind, "b", 1, 3)
        try:
            reports = suite.run_suite("exact", 8)
        finally:
            monkeypatch.undo()
        status = {r.identity: r.status for r in reports}
        assert {i for i, s in status.items() if s is CheckStatus.FAIL} == failing, kind
        assert all(r.note.startswith("failing indices: [") and r.residual is None
                   for r in reports if r.status is CheckStatus.FAIL), kind
        assert status["egf-pde"] is status["phi-parity"] is CheckStatus.PASS, kind


def _verify(capsys, suite_name):
    code = main(["verify", "--suite", suite_name, "--max-n", "8"])
    out = capsys.readouterr().out
    # strict JSON: a non-finite deviation would parse as Infinity or NaN
    return code, json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in the JSON"))


@pytest.mark.parametrize("kind, field, breaks, numeric_fails", [
    # g_n gains a constant term from n = 3 (n = 0): the imaginary-axis route cannot reduce it
    (SeqKind.G, "d", lambda bump: bump(Fraction(1, 7), 3), set()),
    (SeqKind.G, "d", lambda bump: bump(Fraction(1, 7), 0), set()),
    # -b(3) < 0: no real Jacobi matrix, so no zeros; the Fourier route reads members n <= 8
    (SeqKind.PHI_MONIC, "b", lambda bump: bump(7, 3),
     {"zeros-reference", "fourier-closed-vs-quadrature"}),
])
def test_a_family_a_route_cannot_be_built_from_is_a_fail_report(
        perturb, capsys, kind, field, breaks, numeric_fails):
    def listed(payload):
        return {(r["identity"], tuple(r["n_range"])) for r in payload["reports"]}

    intact = {name: listed(_verify(capsys, name)[1]) for name in ("exact", "all")}
    breaks(functools.partial(perturb, kind, field))
    for name, failing in (("exact", _READS_TABLE[kind]),
                          ("all", _READS_TABLE[kind] | numeric_fails)):
        code, payload = _verify(capsys, name)
        assert code == 1, name
        assert listed(payload) == intact[name]  # every report is printed
        assert {r["identity"] for r in payload["reports"]
                if r["status"] == "FAIL"} == failing, name


def test_a_recurrence_changed_after_the_oracle_memo_still_fails_its_routes(perturb):
    # a verdict kept by a run, or computed outside one, serves no later run
    assert sequences.g_oracle_mismatches(8) == ()
    perturb(SeqKind.G, "b", Fraction(1, 7), 3)
    status = {r.identity: r.status for r in suite.run_suite("exact", 8)}
    assert {i for i, s in status.items() if s is CheckStatus.FAIL} == _READS_TABLE[SeqKind.G]


def _elementary_off(kind, k):
    """polyfps.elementary with the t^k coefficient of the series kind off by 1/7."""
    def broken(name, order, _original=polyfps.elementary):
        series = _original(name, order)
        return tuple(c + Poly([Fraction(1, 7)]) if name == kind and j == k else c
                     for j, c in enumerate(series))
    return broken


def _zeta_even_off(n):
    """exactnum.zeta_even with zeta(n)/pi^n off by a factor 1 + 1e-6."""
    def broken(m):
        return exactnum.zeta_even(m) * (Fraction(1000001, 1000000) if m == n else 1)
    return broken


# egf-pde is reached by no row: G G_xx - G_x^2 vanishes for every G = f(t) e^(x u(t)),
# whatever the series f and u, so only a bug in series_exp, the division by 1 + t^2/4 or the
# residual itself fails it (see egf_pde_check)
@pytest.mark.parametrize("piece, broken, failing", [
    # the scalar z^j of the hypergeometric sum, at z = 3 for 2, and the Meixner c: one route
    # of the G oracles each, so only their report fails
    ("_HYPERGEOMETRIC_Z", 3, {"g-oracle-equivalence"}),
    ("_MEIXNER_C", Fraction(-2), {"g-oracle-equivalence"}),
    # the 1/4 of the monic series' denominator 1 + t^2/4: the PHI_MONIC series route fails,
    # while G G_xx = (G_x)^2 holds for any denominator that does not depend on x
    ("_MONIC_DENOMINATOR_T2", Fraction(1, 3), {"phi-oracle-equivalence"}),
    # the Meixner beta, 2 -> 3: the same route as c
    ("_MEIXNER_BETA", Fraction(3), {"g-oracle-equivalence"}),
    # cos(3 pi/2) + x sin(3 pi/2) = -x turned to x: the one residual of the three equations
    ("_CYCLE", (*identities._CYCLE[:3], X),
     {"ode-residual", "trig-operator-eigenrelation", "difference-relation-phi-monic-complex"}),
    # a wrong theta fails the expansion and the PHI_MONIC series, and proves no premise, so
    # the two identities it implies are checked directly and pass; wrong weights of 2 tan(D/2)
    # fail their equation, so the operator is applied at every n
    *(("elementary", _elementary_off(kind, k), failing) for kind, failing in (
        ("arctan_half", {"derivative-expansion-monic", "phi-oracle-equivalence"}),
        ("log_ratio", {"g-oracle-equivalence", "g-monic-oracle-equivalence",
                       "pidduck-oracle-equivalence"}),
        ("tan_half", {"lowering-operator"})) for k in (3, 5)),
    ("zeta_even", _zeta_even_off(6), {"zeta-moments"}),
    ("_ZERO_REFS", {**suite._ZERO_REFS, 5: 2.950}, {"zeros-reference"}),
    # one weight of the panel rule: every quadrature against its closed form
    ("_HALF_WEIGHTS", (floats._HALF_WEIGHTS[0] * (1 + 1e-6), *floats._HALF_WEIGHTS[1:]),
     {"orthogonality-matrix", "zeta-moments", "fourier-closed-vs-quadrature"}),
])
def test_a_broken_piece_of_a_route_fails_the_reports_that_read_it(
        monkeypatch, piece, broken, failing):
    # every module that holds the name, by definition or by import; the numpy panel rule is
    # kept for the process, and fresh_memos does not clear it, so it is cleared on both
    # sides, though verify sums every quadrature in Python floats, on the panel rule of floats
    for module in (m for m in (sequences, identities, floats, analysis, suite)
                   if hasattr(m, piece)):
        monkeypatch.setattr(module, piece, broken)
    analysis._unit_panel.cache_clear()
    try:
        status = {r.identity: r.status for r in suite.run_suite("all", 8)}
    finally:
        analysis._unit_panel.cache_clear()
    assert {i for i, s in status.items() if s is CheckStatus.FAIL} == failing


def test_a_route_broken_after_a_run_fails_the_next_run(monkeypatch):
    # one process, no memo touched: the G oracles' verdict of the first run, for the same
    # G entry and size, must not serve the runs after a sum route is broken
    assert not [r for r in suite.run_suite("exact", 8) if r.status is CheckStatus.FAIL]
    for piece, broken in (("_HYPERGEOMETRIC_Z", 3), ("_MEIXNER_C", Fraction(-2))):
        monkeypatch.setattr(sequences, piece, broken)
        status = {r.identity: r.status for r in suite.run_suite("exact", 8)}
        monkeypatch.undo()
        assert status["g-oracle-equivalence"] is CheckStatus.FAIL, piece


# The FAIL reports of run_suite("all", 8) with one RECURRENCES entry perturbed: p0 by 1, or
# a, b or d by 1/7 at n = 0 or n = 3.  Each report maps to its first failing index, the
# failures then running to max_n = 8; to its failing indices where they do not; or to None
# for a numeric report.  b(0) multiplies p_{-1} = 0, so changing it is inert in every family.
_G_FROM_4 = {"difference-relation-g": 4, "g-monic-oracle-equivalence": 4,
             "g-oracle-equivalence": 4, "g-special-values": 4, "phi-oracle-equivalence": 3,
             "pidduck-oracle-equivalence": 4, "recurrence-difference-g": 4}
_PHI_MONIC_FROM_4 = {"convolution-identity": 4, "derivative-expansion-monic": 3,
                     "difference-relation-phi-monic-complex": 4, "lowering-operator": 4,
                     "ode-residual": 4, "phi-oracle-equivalence": 4,
                     "trig-operator-eigenrelation": 4, "turan-recurrence": (2, 3)}
_FAULT_MATRIX = {
    (SeqKind.G, "p0", None): {"g-monic-oracle-equivalence": 0, "g-oracle-equivalence": 1,
                              "g-special-values": 1, "phi-oracle-equivalence": 0,
                              "pidduck-oracle-equivalence": 0},
    (SeqKind.G, "a", 0): {"g-monic-oracle-equivalence": 1, "g-oracle-equivalence": 1,
                          "g-special-values": 1, "phi-oracle-equivalence": 0,
                          "pidduck-oracle-equivalence": 1, "recurrence-difference-g": (1,)},
    (SeqKind.G, "a", 3): _G_FROM_4,
    (SeqKind.G, "b", 0): {},
    (SeqKind.G, "b", 3): _G_FROM_4,
    (SeqKind.G, "d", 0): {"difference-relation-g": 1, "g-monic-oracle-equivalence": 1,
                          "g-oracle-equivalence": 1, "g-special-values": 1,
                          "phi-oracle-equivalence": 0, "pidduck-oracle-equivalence": 1,
                          "recurrence-difference-g": 2},
    (SeqKind.G, "d", 3): _G_FROM_4,
    (SeqKind.PHI, "p0", None): {"orthogonality-matrix": None, "phi-oracle-equivalence": 0},
    (SeqKind.PHI, "a", 0): {"orthogonality-matrix": None, "phi-oracle-equivalence": 1},
    (SeqKind.PHI, "a", 3): {"orthogonality-matrix": None, "phi-oracle-equivalence": 4},
    (SeqKind.PHI, "b", 0): {},
    (SeqKind.PHI, "b", 3): {"orthogonality-matrix": None, "phi-oracle-equivalence": 4},
    (SeqKind.PHI, "d", 0): {"orthogonality-matrix": None, "phi-oracle-equivalence": 1,
                            "phi-parity": 1},
    (SeqKind.PHI, "d", 3): {"orthogonality-matrix": None, "phi-oracle-equivalence": 4,
                            "phi-parity": 4},
    (SeqKind.PHI_MONIC, "p0", None): {"fourier-closed-vs-quadrature": None,
                                      "phi-oracle-equivalence": 0, "turan-recurrence": (1,)},
    (SeqKind.PHI_MONIC, "a", 0): {"convolution-identity": 2,
                                  "derivative-expansion-monic": (0, 2, 3, 4, 5, 6, 7, 8),
                                  "difference-relation-phi-monic-complex": 2,
                                  "fourier-closed-vs-quadrature": None,
                                  "lowering-operator": (1, 3, 4, 5, 6, 7, 8), "ode-residual": 2,
                                  "phi-oracle-equivalence": 1, "trig-operator-eigenrelation": 2,
                                  "turan-recurrence": (1,)},
    (SeqKind.PHI_MONIC, "a", 3): {**_PHI_MONIC_FROM_4, "fourier-closed-vs-quadrature": None},
    (SeqKind.PHI_MONIC, "b", 0): {},
    (SeqKind.PHI_MONIC, "b", 3): {**_PHI_MONIC_FROM_4, "fourier-closed-vs-quadrature": None,
                                  "zeros-reference": None},
    (SeqKind.PHI_MONIC, "d", 0): {"convolution-identity": 3, "derivative-expansion-monic": 1,
                                  "difference-relation-phi-monic-complex": 1,
                                  "lowering-operator": 2, "ode-residual": 1,
                                  "phi-oracle-equivalence": 1, "phi-parity": 1,
                                  "trig-operator-eigenrelation": 1, "turan-recurrence": (1,)},
    (SeqKind.PHI_MONIC, "d", 3): {**_PHI_MONIC_FROM_4, "phi-parity": 4},
    **{(kind, field, at): {identity: 0 if field == "p0" else 1 if at == 0 else 4}
       for kind, identity in ((SeqKind.G_MONIC, "g-monic-oracle-equivalence"),
                              (SeqKind.PIDDUCK, "pidduck-oracle-equivalence"))
       for field, at in (("p0", None), ("a", 0), ("a", 3), ("b", 3), ("d", 0), ("d", 3))},
    (SeqKind.G_MONIC, "b", 0): {},
    (SeqKind.PIDDUCK, "b", 0): {},
}


def test_each_perturbed_entry_fails_exactly_the_reports_that_read_it(monkeypatch, perturb):
    # one process, no memo cleared between the runs: each memo is keyed by the entry it reads
    assert not [r for r in suite.run_suite("all", 8) if r.status is CheckStatus.FAIL]
    assert len(_FAULT_MATRIX) == 5 * 7
    for (kind, field, at), expected in _FAULT_MATRIX.items():
        row = kind, field, at
        perturb(kind, field, 1 if field == "p0" else Fraction(1, 7), at)
        try:
            reports = suite.run_suite("all", 8)
        finally:
            monkeypatch.undo()
        failing = {r.identity: r.note for r in reports if r.status is CheckStatus.FAIL}
        assert failing.keys() == expected.keys(), row
        for identity, first in expected.items():
            if first is not None:
                indices = list(range(first, 9)) if isinstance(first, int) else list(first)
                assert failing[identity] == f"failing indices: {indices}", (row, identity)


def test_the_implied_verdicts_equal_the_direct_checks(monkeypatch, perturb):
    # convolution-identity and lowering-operator rest on the residuals of the derivative
    # expansion up to its first failing index m: a defect that made those read zero would
    # pass all three, so each report must equal the direct check's over the whole range, for
    # every fault row and for the intact table
    premises = {}
    convolution_check = identities.convolution_check

    def recorded(n_max, premise=0):
        premises[n_max] = premise
        return convolution_check(n_max, premise)

    def compare(max_n):
        with monkeypatch.context() as patch:
            patch.setattr(identities, "convolution_check", recorded)
            implied = identities.derivative_expansion_checks(max_n)
        direct = [convolution_check(max_n), identities.lowering_check(max_n)]
        assert implied[1:] == direct, max_n
        return implied, premises.pop(max_n)

    for max_n in (1, 2, 3, 40):
        reports, premise = compare(max_n)
        assert premise == max_n + 1 and {r.status for r in reports} == {CheckStatus.PASS}
    implied_to = {}
    for kind, field, at in _FAULT_MATRIX:
        perturb(kind, field, 1 if field == "p0" else Fraction(1, 7), at)
        try:
            reports, implied_to[kind, field, at] = compare(8)
        finally:
            monkeypatch.undo()
    # the expansion first fails at 1: the premise serves n = 1, the direct checks the rest
    assert implied_to[SeqKind.PHI_MONIC, "d", 0] == 1
    assert implied_to[SeqKind.PHI_MONIC, "a", 0] == 0  # fails at 0: every n direct
    assert implied_to[SeqKind.PHI_MONIC, "b", 3] == 3
    assert {m for (kind, *_), m in implied_to.items() if kind is not SeqKind.PHI_MONIC} == {9}


@given(st.sampled_from(list(sequences.RECURRENCES)), st.sampled_from(["p0", "a", "b", "d"]),
       st.integers(0, 12), st.fractions(-2, 2, max_denominator=9).filter(bool),
       st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_a_drawn_fault_leaves_the_implied_verdicts_equal_to_the_direct_checks(
        kind, field, at, by, max_n):
    # the invariant the fault matrix pins row by row, over drawn rows; fixtures are not reset
    # between examples, so each example patches RECURRENCES in a context of its own
    rec = sequences.RECURRENCES[kind]
    entry = (rec._replace(p0=rec.p0 + by) if field == "p0"
             else rec._replace(**{field: _Bumped(getattr(rec, field), by, at)}))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sequences.RECURRENCES, kind, entry)
        assert identities.derivative_expansion_checks(max_n)[1:] == [
            identities.convolution_check(max_n), identities.lowering_check(max_n)]


def test_aggregate_keeps_the_pass_note_and_lists_every_failing_index():
    ok = aggregate("some-check", 0, 5, lambda n: True, "holds exactly")
    assert (ok.status, ok.n_range, ok.note, ok.residual) == (
        CheckStatus.PASS, (0, 5), "holds exactly", None)
    bad = aggregate("some-check", 1, 9, lambda n: n % 3 != 0, "holds exactly")
    assert (bad.status, bad.n_range, bad.note) == (
        CheckStatus.FAIL, (1, 9), "failing indices: [3, 6, 9]")


def test_all_is_the_union_of_the_three_suites():
    union = suite.run_suite("exact", 3) + suite.run_suite("numeric", 3) + suite.audit_suite()
    key = lambda r: (r.identity, r.n_range, r.note)
    assert suite.run_suite("all", 3) == sorted(set(union), key=key)


def test_the_numeric_suite_lists_its_reports():
    # float bytes vary by platform, so the list pins what the numeric plan runs
    assert [(r.identity, r.n_range, r.status.value) for r in suite.run_suite("numeric")] == [
        ("fourier-closed-vs-quadrature", (0, 8), "PASS"),
        ("orthogonality-matrix", (0, 12), "PASS"),
        ("rodrigues-formula", (1, 1), "AUDITED"),
        ("rodrigues-formula", (2, 2), "AUDITED"),
        ("rodrigues-formula", (3, 3), "AUDITED"),
        ("zeros-reference", (2, 24), "PASS"),
        ("zeta-moments", (1, 9), "PASS"),
    ]


def _statuses(max_n):
    return {r.identity: r.status for r in suite._bounded_checks(max_n)}


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_a_wrong_largest_zero_of_each_reference_size_fails_zeros_reference(monkeypatch, size):
    zeros_range = floats.zeros_range

    def moved(lo, hi, tol=1e-12):
        found = zeros_range(lo, hi, tol)
        found[size] = [*found[size][:-1], found[size][-1] + 0.01]
        return found

    monkeypatch.setattr(floats, "zeros_range", moved)
    status = _statuses(4)
    assert status["zeros-reference"] is CheckStatus.FAIL
    assert list(status.values()).count(CheckStatus.FAIL) == 1


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_a_wrong_moment_of_each_odd_index_fails_zeta_moments(monkeypatch, n):
    moment = floats.moment

    def moved(k):
        return moment(k)._replace(deviation=1.0) if k == n else moment(k)

    monkeypatch.setattr(floats, "moment", moved)
    status = _statuses(4)
    assert status["zeta-moments"] is CheckStatus.FAIL
    assert list(status.values()).count(CheckStatus.FAIL) == 1


def test_import_mlpoly_loads_no_submodule_and_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, mlpoly; print(mlpoly.__version__, "
            "sorted(m for m in sys.modules if m.startswith(('mlpoly.', 'numpy'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True).stdout
    assert out == "0.1.0 []\n"


def test_exact_suite_holds_through_n_40(members_built):
    reports = suite.run_suite("exact", 40)
    assert reports
    assert [r.identity for r in reports if r.status.value == "FAIL"] == []
    assert members_built == _each_member_once(40)


def test_the_finite_and_infinite_equations_share_one_residual_per_n(monkeypatch):
    # one operator sum per n for both equations and the difference equation (n = 0..8); the
    # lowering operator follows from the derivative expansion and applies none on an intact
    # table, and a residual of its own for the finite equation would add 8
    applied = []
    apply = identities._apply

    def counted(p, weights):
        applied.append(p)
        return apply(p, weights)

    monkeypatch.setattr(identities, "_apply", counted)
    reports = suite.run_suite("exact", 8)
    assert len(applied) == 9
    assert {(r.identity, r.n_range, r.status) for r in reports
            if r.identity in ("ode-residual", "trig-operator-eigenrelation",
                              "difference-relation-phi-monic-complex")} == {
        ("ode-residual", (1, 8), CheckStatus.PASS),
        ("trig-operator-eigenrelation", (0, 8), CheckStatus.PASS),
        ("difference-relation-phi-monic-complex", (0, 8), CheckStatus.PASS)}


def test_every_public_name_is_reached_from_the_package():
    # each name a module lists in __all__ is read by some module of the package, not only
    # defined and listed: a name that only tests call belongs in the tests
    src = Path(suite.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    unread = {}
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                unread[name] = [n for n in ast.literal_eval(node.value) if n not in read]
    assert {"identities.py", "sequences.py", "suite.py", "polyfps.py"} <= unread.keys()
    assert {name: names for name, names in unread.items() if names} == {}
