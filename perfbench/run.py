"""Benchmark runner for mlpoly.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports `mlpoly` from `src/` and
refuses to run (exit 2) where there is none.  One client, closed loop: each
operation starts only after the previous one has ended, and at most one child
process runs at a time.

Workloads (the reasons are in BENCHMARK.json and perfbench/README.md):
  verify-default  `mlpoly verify --suite all`, a fresh process per operation
  query-mix       a seeded stream of CLI queries, run in one worker process
                  through `mlpoly.cli.main`

With --trace 0 the last line holds the end-to-end metrics, their operation
times scaled to the reference machine speed of speed.py; with --trace 1 it
holds the per-layer metrics of a traced run, printed above it as a table
next to the tracing overhead.  Every output is checked (see checks.py);
failures are counted, never fatal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import speed
import stream
import tracing

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0    # a run must end within 180 s
SETUP_REPEATS = 25
CYCLE_S = 20.0          # one query-mix cycle on a 2-core Xeon virtual machine
SPEED_EVERY = 5         # query-mix times the speed kernel before every 5th query

E2E_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metrics are per operation, except the ratio and bit counts
LAYER_UNITS = {
    "polyfps.mul.calls": "count",
    "polyfps.mul.self_s": "s",
    "polyfps.shift.calls": "count",
    "polyfps.shift.self_s": "s",
    "polyfps.series_exp.self_s": "s",
    "sequences.generate.calls": "count",
    "sequences.generate.self_s": "s",
    "sequences.generate.max_coeff_bits": "bits",
    "sequences.generate.distinct_ratio": "ratio",
    "sequences.oracles.calls": "count",
    "sequences.oracles.self_s": "s",
    "sequences.difference_relations.self_s": "s",
    "identities.calls": "count",
    "identities.self_s": "s",
    "analysis.zeros.calls": "count",
    "analysis.zeros.self_s": "s",
    "analysis.quadrature.self_s": "s",
    "analysis.audit.self_s": "s",
    "suite.self_s": "s",
    "cli.serialize_s": "s",
    "cli.stdout_bytes": "bytes",
    "exactnum.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...] = ()        # the verify invocation; empty for the stream
    tiny_argv: tuple[str, ...] = ()


WORKLOADS = {
    "verify-default": Workload(("verify", "--suite", "all"),
                               ("verify", "--suite", "all", "--max-n", "3")),
    "query-mix": Workload(),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    argv: list[str]
    latency_s: float
    problems: list
    stdout_bytes: int
    known_defect: bool = False


@dataclass
class Run:
    ops: list[Op] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    dumps: list[dict] = field(default_factory=list)
    traced_ops: list[Op] = field(default_factory=list)
    overhead_ratio: float | None = None
    repeat_share: float | None = None


@dataclass(frozen=True)
class Child:
    wall_s: float
    rc: int
    stdout: bytes
    stderr: bytes
    rss_mb: float


class Bench:
    """Runs child processes from the checkout root, with its src/ first on
    PYTHONPATH, and stops them at the run's hard time limit."""

    def __init__(self, root: Path, scratch: Path, seconds: float, tiny: bool) -> None:
        self.root = root
        self.scratch = scratch
        self.seconds = seconds
        self.tiny = tiny
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.kernel: list[float] = []   # speed kernel times of the untraced run
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + ([path] if path else [])))

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, cmd: list[str]) -> Child:
        """Run one child to its end; wall time is spawn to exit."""
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            pid = 0
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if self.remaining() <= 0:
                        raise BenchError(f"time limit reached while running {cmd[1:4]}")
                    time.sleep(0.001)
            finally:
                if not pid:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                     usage.ru_maxrss / 1024.0)

    def python(self, *args: str) -> Child:
        return self.child([sys.executable, *args])

    def probe(self) -> dict:
        """Import mlpoly once (this also compiles it) and report versions."""
        code = ("import json, sys, numpy, mlpoly; print(json.dumps({'file': mlpoly.__file__, "
                "'python': sys.version.split()[0], 'numpy': numpy.__version__}))")
        res = self.python("-c", code)
        if res.rc != 0:
            raise BenchError("cannot import mlpoly: " + res.stderr.decode()[-300:])
        info = json.loads(res.stdout)
        if not Path(info["file"]).resolve().is_relative_to(self.root / "src"):
            raise BenchError(f"mlpoly imported from {info['file']}, not from src/")
        return info

    def setup_samples(self, count: int) -> list[float]:
        return [self.python("-c", "import mlpoly").wall_s for _ in range(count)]

    # -- verify workload ----------------------------------------------------

    def verify(self, workload: Workload, trace: bool) -> Run:
        argv = list(workload.tiny_argv if self.tiny else workload.argv)
        trace_out = self.scratch / "trace.json"
        run = Run()
        reference = None
        untraced_s = traced_s = 0.0
        start = time.monotonic()
        last = 0.0   # another operation starts only while it would end in time
        while not run.ops or (time.monotonic() - start + last <= self.seconds
                              and self.remaining() > 2 * last):
            began = time.monotonic()
            if not trace:
                self.kernel.append(speed.kernel_s())
            res = self.python("-m", "mlpoly", *argv)
            run.ops.append(self._verify_op(argv, res, reference))
            run.rss_mb.append(res.rss_mb)
            reference = reference or res.stdout
            untraced_s += res.wall_s
            if trace:
                trace_out.unlink(missing_ok=True)
                res = self.python(str(HERE / "child.py"), "verify", "--trace-out",
                                  str(trace_out), "--", *argv)
                op = self._verify_op(argv, res, reference)
                if trace_out.exists():
                    run.dumps.append(json.loads(trace_out.read_text()))
                else:
                    op.problems.append(checks.Problem("trace", "the child wrote no spans"))
                run.traced_ops.append(op)
                traced_s += res.wall_s
            last = time.monotonic() - began
        if trace:
            if not run.dumps:
                raise BenchError("no traced verify wrote its spans")
            run.overhead_ratio = traced_s / untraced_s - 1.0
        return run

    @staticmethod
    def _verify_op(argv, res: Child, reference) -> Op:
        problems = checks.verify_problems(res.rc, res.stdout, reference)
        return Op(argv, res.wall_s, problems, len(res.stdout))

    # -- query stream -------------------------------------------------------

    def worker(self, seed: int, cycles: int, trace_out: Path | None = None,
               speed_every: int = 0) -> tuple[list[Op], Child, dict | None]:
        spool, results = self.scratch / "spool", self.scratch / "results.json"
        cmd = [str(HERE / "child.py"), "stream", "--seed", str(seed), "--cycles", str(cycles),
               "--deadline", repr(max(1.0, self.remaining() - 15)),
               "--spool", str(spool), "--results", str(results),
               "--speed-every", str(speed_every)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        if self.tiny:
            cmd.append("--tiny")
        res = self.python(*cmd)
        if res.rc != 0 or not results.exists():
            raise BenchError("query worker failed: " + res.stderr.decode()[-300:])
        ops = []
        results_json = json.loads(results.read_text())
        self.kernel += results_json["speed"]
        with open(spool, "rb") as fh:
            for rec in results_json["queries"]:
                fh.seek(rec["offset"])
                out = fh.read(rec["length"])
                problems = checks.query_problems(rec["argv"], rec["rc"], out, rec["error"])
                ops.append(Op(rec["argv"], rec["latency_s"], problems, rec["length"],
                              checks.is_known_defect(problems)))
        results.unlink()
        dump = json.loads(trace_out.read_text()) if trace_out is not None else None
        return ops, res, dump

    def query_mix(self, seed: int, trace: bool) -> Run:
        # The cycle count follows --seconds, not the measured speed, so every
        # run holds the same queries: the first cycle in a fresh worker also
        # pays one-time costs (the Bernoulli memo is filled once per process),
        # and a count that grew whenever the machine was fast would change
        # their share of the run.
        run = Run()
        if not trace:
            run.ops, res, _ = self.worker(seed, max(1, round(self.seconds / CYCLE_S)),
                                          speed_every=SPEED_EVERY)
            run.rss_mb.append(res.rss_mb)
        else:
            # the same cycles twice, in two fresh workers, so that the traced
            # pass starts from the same cold state as the plain one
            cycles = max(1, round(self.seconds / 2 / CYCLE_S))
            run.ops, _, _ = self.worker(seed, cycles)
            run.traced_ops, _, dump = self.worker(seed, cycles, self.scratch / "trace.json")
            run.dumps.append(dump)
            k = len(run.traced_ops)
            run.overhead_ratio = (sum(op.latency_s for op in run.traced_ops)
                                  / sum(op.latency_s for op in run.ops[:k]) - 1.0)
        run.repeat_share = stream.repeat_share([op.argv for op in run.ops])
        return run


def percentile(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: the mean of all order
    statistics, each weighted by the mass of Beta((n+1)p, (n+1)(1-p)) over
    its 1/n slice.  The query mix has gaps between classes of query (the
    median of a run can fall between 47 ms and 61 ms), and the two samples
    next to the percentile jump across such a gap from run to run; this
    estimate moves smoothly."""
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64   # midpoint rule inside each slice

    def density(t: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def end_to_end(run: Run, setup_s: float, scale: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics, operation times multiplied by `scale`.  Set-up
    time is not scaled: it did not follow the speed kernel (speed.py)."""
    lat = [op.latency_s for op in run.ops]
    return {
        "setup_s": setup_s,
        "query_p50_ms": scale * 1000 * statistics.median(lat),
        "query_p90_ms": scale * 1000 * percentile(lat, 90),
        "queries_per_s": len(lat) / sum(lat) / scale,
        "peak_rss_mb": statistics.median(run.rss_mb),
    }


def per_layer(run: Run) -> tuple[dict[str, float], list[tuple]]:
    """Per-operation layer metrics and the rows of the printed table."""
    totals: dict[str, list] = {}
    wall = 0.0
    for dump in run.dumps:
        for name, (calls, own) in tracing.layer_totals(dump).items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += own
        wall += sum(e - s for _, p, s, e, _ in dump["spans"] if p < 0)
    # operations whose spans were written out (a traced child that died
    # before writing them is a failed operation, and is not counted here)
    ops = max(1, sum(1 for dump in run.dumps for n, p, *_ in dump["spans"]
                     if p < 0 and dump["names"][n] == tracing.OPERATION))

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / ops

    def own(name):
        return totals.get(name, (0, 0.0))[1] / ops

    generate = [d["generate"] for d in run.dumps]
    metrics = {
        "sequences.generate.max_coeff_bits": max(g["max_coeff_bits"] for g in generate),
        "sequences.generate.distinct_ratio": statistics.mean(
            g["distinct"] / g["calls"] if g["calls"] else 0.0 for g in generate),
        "cli.serialize_s": own("cli.serialize"),
        "cli.stdout_bytes": statistics.mean(op.stdout_bytes for op in run.traced_ops),
        "trace.overhead_ratio": run.overhead_ratio,
    }
    for name in LAYER_UNITS:
        layer, _, what = name.rpartition(".")
        if name not in metrics:
            metrics[name] = calls(layer) if what == "calls" else own(layer)
    rows = [(name, c / ops, s / ops, s / wall) for name, (c, s) in sorted(totals.items())]
    rows.append(("total (operation wall)", 1.0, wall / ops, 1.0))
    return metrics, rows


def environment(info: dict, seed: int, run: Run, root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": info["python"], "numpy": info["numpy"], "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit(root), "seed": seed,
            "repeat_share": run.repeat_share}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "mlpoly" / "__init__.py").is_file():
        print("perfbench: no src/mlpoly here; run from the root of an mlpoly checkout",
              file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    try:
        bench = Bench(root, scratch, args.seconds, args.tiny)
        info = bench.probe()
        # set-up is timed half before and half after the workload, so that its
        # median spans the run rather than one moment of the machine's speed
        setup = [] if args.trace else bench.setup_samples(SETUP_REPEATS // 2)
        workload = WORKLOADS[args.workload]
        if workload.argv:
            run = bench.verify(workload, bool(args.trace))
        else:
            run = bench.query_mix(args.seed, bool(args.trace))
        if not args.trace:
            setup += bench.setup_samples(SETUP_REPEATS - len(setup))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = run.ops + run.traced_ops
    failed = [op for op in ops if op.problems]
    known = sum(op.known_defect for op in failed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(environment(info, args.seed, run, root)))
    print(f"fail_ratio {len(failed) / len(ops):.4f} ({len(failed)} failed of "
          f"{len(ops)} attempted; {known} of them known defects)")
    for op in failed[:10]:
        print(f"  failed: {' '.join(op.argv)}: "
              + "; ".join(f"{p.check}: {p.message}" for p in op.problems))

    if args.trace:
        values, rows = per_layer(run)
        units = LAYER_UNITS
        print(f"{'layer':34} {'calls/op':>12} {'self s/op':>12} {'share':>8}")
        for name, calls, own, share in rows:
            print(f"{name:34} {calls:12.1f} {own:12.6f} {share:8.2%}")
        print(f"tracing overhead {run.overhead_ratio:+.2%} of the untraced wall time "
              f"over {len(run.traced_ops)} operations")
        missing = sorted({t for dump in run.dumps for t in dump["missing"]})
        if missing:
            print("not traced (target not found): " + ", ".join(missing))
    else:
        scale = speed.factor(bench.kernel)
        measured = end_to_end(run, statistics.median(setup))
        print(f"speed kernel median {statistics.median(bench.kernel):.6f} s over "
              f"{len(bench.kernel)} passes; operation times below are scaled by "
              f"{scale:.4f} to the reference {speed.REFERENCE_S} s")
        print("measured, unscaled: " + ", ".join(
            f"{name} {measured[name]:.6g} {unit}" for name, unit in E2E_UNITS.items()))
        values = end_to_end(run, statistics.median(setup), scale)
        units = E2E_UNITS
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": all(op.known_defect for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
