"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stream  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_pass_prints_every_metric_with_its_unit(workload, trace):
    res = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert f"{m['name']} {value:.6g} {m['unit']}" in lines
    assert any(line.startswith("fail_ratio ") for line in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench(tmp_path, "--workload", "query-mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        (0.0, 10.0, -1),   # 0: root
        (1.0, 4.0, 0),     # 1: child
        (3.0, 6.0, 0),     # 2: child overlapping 1; together they cover [1, 6]
        (2.0, 3.0, 1),     # 3: grandchild, inside 1
        (8.0, 12.0, 0),    # 4: child running past the root; only [8, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])

    dump = {"names": ["operation", "polyfps.mul"],
            "spans": [[0, -1, 0.0, 10.0, 0], [1, 0, 1.0, 4.0, 0], [1, 1, 2.0, 3.0, 0]]}
    totals = tracing.layer_totals(dump)
    assert totals["operation"] == (1, pytest.approx(7.0))
    assert totals["polyfps.mul"] == (2, pytest.approx(3.0))
    assert sum(own for _, own in totals.values()) <= 10.0


def test_operation_times_are_scaled_to_the_reference_speed_and_nothing_else_is():
    assert speed.factor([speed.REFERENCE_S] * 3) == pytest.approx(1.0)
    # a machine running the kernel at half the reference speed
    scale = speed.factor([2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S, 9.0])
    assert scale == pytest.approx(0.5)
    result = run.Run(ops=[run.Op(["q"], s, [], 0) for s in (1.0, 2.0, 3.0)], rss_mb=[40.0])
    measured = run.end_to_end(result, 0.25)
    scaled = run.end_to_end(result, 0.25, scale)
    assert scaled["setup_s"] == measured["setup_s"] == 0.25
    assert scaled["query_p50_ms"] == pytest.approx(measured["query_p50_ms"] / 2)
    assert scaled["query_p90_ms"] == pytest.approx(measured["query_p90_ms"] / 2)
    assert scaled["queries_per_s"] == pytest.approx(measured["queries_per_s"] * 2)
    assert scaled["peak_rss_mb"] == measured["peak_rss_mb"] == 40.0


def test_percentiles_are_harrell_davis_estimates():
    one_to_ten = [float(v) for v in range(10, 0, -1)]
    assert run.percentile(one_to_ten, 50) == pytest.approx(5.5)
    assert run.percentile(one_to_ten, 90) == pytest.approx(9.4351, abs=1e-3)  # scipy: 9.43512
    assert run.percentile([3.0], 90) == 3.0
    # a gap at the median: the estimate lies between the two classes, not on one
    gap = [40.0] * 50 + [60.0] * 50
    assert 45.0 < run.percentile(gap, 50) < 55.0


def test_query_stream_is_fixed_by_the_seed():
    assert stream.first(7, 400) == stream.first(7, 400)
    assert stream.first(7, 400) != stream.first(8, 400)
    # every cycle has the same composition, and at least 100 queries so that
    # query_p90_ms has ten samples beyond it
    one, two = (stream.cycle(random.Random(seed)) for seed in (7, 8))
    assert len(one) >= 100
    assert one != two

    def shapes(cycle):  # drop the drawn evaluation point and transform argument
        return sorted(q[:-1] if q[0] in ("eval", "ft") else q for q in cycle)
    assert shapes(one) == shapes(two)
    assert 0.0 < stream.repeat_share(one) < 1.0


def test_every_subcommand_gets_the_same_share_over_its_whole_range():
    batch = stream.cycle(random.Random(1))
    counts = Counter(q[0] for q in batch)
    assert set(counts.values()) == {stream.PER_COMMAND}
    sizes = {cmd: sorted(int(q[q.index(flag) + 1]) for q in batch if q[0] == cmd)
             for cmd, flag in (("zeros", "--n"), ("quad", "--max-n"), ("ft", "--n"),
                               ("series", "--order"))}
    assert (sizes["zeros"][0], sizes["zeros"][-1]) == stream.FULL.zeros_n
    assert (sizes["quad"][0], sizes["quad"][-1]) == stream.FULL.quad_max_n
    assert (sizes["ft"][0], sizes["ft"][-1]) == stream.FULL.ft_n
    assert (sizes["series"][0], sizes["series"][-1]) == stream.FULL.series_order
    evals = {(q[2], int(q[4])) for q in batch if q[0] == "eval"}
    assert {family for family, _ in evals} == set(stream.FAMILIES)
    assert ("pidduck", 80) in evals and ("g", 200) in evals


def _quad_output(size: int, excess: float) -> bytes:
    return json.dumps({"matrix": [[(2.0 / (i + 1) if i == j else 0.0)
                                   + (excess if i == j == 0 else 0.0)
                                   for j in range(size)] for i in range(size)]}).encode()


def _ft_output(deviation: float) -> bytes:
    return json.dumps({"closed": 0.5, "numeric": 0.5 + deviation}).encode()


def test_checks_reject_nan():
    problems = checks.query_problems(["zeros", "--n", "1"], 0, b'{"tol": NaN}')
    assert [p.check for p in problems] == ["strict-json"]
    assert not checks.is_known_defect(problems)


@pytest.mark.parametrize("argv, out, known", [
    # quad: the seed breaks 1e-8 from --max-n 59, by at most 1.8e-5
    (["quad", "--max-n", "59"], _quad_output(60, 1.2e-8), True),
    (["quad", "--max-n", "80"], _quad_output(81, 1.8e-5), True),
    (["quad", "--max-n", "58"], _quad_output(59, 1.2e-8), False),
    (["quad", "--max-n", "80"], _quad_output(81, 1e-3), False),
    # ft: the seed breaks 1e-6 from n = 18, by at most 7.3 at n = 24
    (["ft", "--n", "18", "--s", "0.4"], _ft_output(4.4e-6), True),
    (["ft", "--n", "24", "--s", "0.4"], _ft_output(7.3), True),
    (["ft", "--n", "16", "--s", "0.4"], _ft_output(2e-6), False),
    (["ft", "--n", "17", "--s", "0.4"], _ft_output(2e-6), False),
    (["ft", "--n", "18", "--s", "0.4"], _ft_output(1e-3), False),
    (["ft", "--n", "24", "--s", "0.4"], _ft_output(1e3), False),
])
def test_known_defects_are_excused_only_where_and_as_far_as_the_seed_shows_them(
        argv, out, known):
    problems = checks.query_problems(argv, 0, out)
    assert [p.check for p in problems] == [f"{argv[0]}-bound"]
    assert checks.is_known_defect(problems) is known


@pytest.mark.parametrize("family, n, error, known", [
    ("phi-monic", 200, "OverflowError: integer division result too large", True),
    ("g-monic", 200, "OverflowError: integer division result too large", True),
    ("g-monic", 140, "OverflowError: integer division result too large", False),
    ("phi", 200, "OverflowError: integer division result too large", False),
    ("phi-monic", 200, "ZeroDivisionError: division by zero", False),
])
def test_eval_overflow_is_excused_only_on_the_shapes_that_overflow_on_the_seed(
        family, n, error, known):
    argv = ["eval", "--seq", family, "--n", str(n), "--x=7/3"]
    problems = checks.query_problems(argv, 1, b"", error)
    assert [p.check for p in problems] == ["exception"]
    assert checks.is_known_defect(problems) is known


def test_a_verify_failure_is_never_excused():
    problems = checks.verify_problems(0, b'{"summary": {"fail": 1}}', None)
    assert [p.check for p in problems] == ["summary"]
    assert not checks.is_known_defect(problems)


def test_a_traced_child_writes_its_spans_also_when_the_call_fails(tmp_path):
    trace_out = tmp_path / "trace.json"
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "verify", "--trace-out",
         str(trace_out), "--", "verify", "--suite", "no-such-suite"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert res.returncode != 0
    dump = json.loads(trace_out.read_text())
    assert any(dump["names"][n] == tracing.OPERATION for n, *_ in dump["spans"])
