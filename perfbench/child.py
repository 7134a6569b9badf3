"""Child process of the benchmark: one traced `mlpoly` CLI call, or a stream
of in-process CLI queries.

    python3 perfbench/child.py verify --trace-out F -- verify --suite all
    python3 perfbench/child.py stream --seed S --cycles N --spool F --results F
                                      [--speed-every K] [--trace-out F] [--tiny]

`verify` mode prints exactly what `mlpoly` prints, so its output is checked
like that of an untraced `python -m mlpoly` process.  `stream` mode writes the
stdout of every query to the spool file and a JSON record of each query to
the results file, with the times of the speed kernel (speed.py) it ran
before every K-th query; run.py checks the outputs after the child has ended,
so the checks cost this process no time and no memory.  Either mode writes
its spans to --trace-out when it ends, also when the call raised.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from itertools import islice
from time import perf_counter

import speed
import stream
import tracing


def _call(main, argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, error text)."""
    try:
        return int(main(argv)), ""
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return code, ""
    except Exception as exc:  # a traceback is a failed query, not a dead run
        return 1, f"{type(exc).__name__}: {exc}"[:300]


def _verify(args, tracer) -> int:
    from mlpoly.cli import main
    return tracer.span(tracing.OPERATION, main, args.argv)


def _planned(args):
    """--cycles whole cycles of the query stream; only --deadline cuts one short."""
    grids = stream.TINY if args.tiny else stream.FULL
    start = perf_counter()
    for queries in islice(stream.cycles(args.seed, grids), args.cycles):
        for argv in queries:
            if perf_counter() - start >= args.deadline:
                return
            yield argv


def _stream(args, tracer) -> int:
    from mlpoly.cli import main
    run = tracer.span if tracer else (lambda _name, fn, *a: fn(*a))
    records = []
    kernel = []
    with open(args.spool, "wb") as spool:
        for argv in _planned(args):
            if args.speed_every and len(records) % args.speed_every == 0:
                kernel.append(speed.kernel_s())
            if tracer:
                tracer.op = len(records)
            buf = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf):
                rc, error = run(tracing.OPERATION, _call, main, argv)
            latency = perf_counter() - t0
            out = buf.getvalue().encode()
            records.append({"argv": argv, "rc": rc, "error": error, "latency_s": latency,
                            "offset": spool.tell(), "length": len(out)})
            spool.write(out)
    with open(args.results, "w") as fh:
        json.dump({"queries": records, "speed": kernel}, fh)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("verify", "stream"))
    parser.add_argument("--trace-out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--deadline", type=float, default=float("inf"))
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spool")
    parser.add_argument("--results")
    parser.add_argument("--speed-every", type=int, default=0)
    own = sys.argv[1:]
    split = own.index("--") if "--" in own else len(own)
    args = parser.parse_args(own[:split])
    args.argv = own[split + 1:]   # the mlpoly command line after "--"
    if args.mode == "verify" and not args.trace_out:
        parser.error("verify mode is the traced call; it needs --trace-out")

    tracer = None
    missing: list[str] = []
    if args.trace_out:
        tracer = tracing.Tracer()
        if args.mode == "verify":  # a cold process pays for the import
            tracer.span(tracing.IMPORT, __import__, "mlpoly.cli")
        missing = tracing.install(tracer)
    try:
        return (_verify if args.mode == "verify" else _stream)(args, tracer)
    finally:
        if tracer:   # also when the call raised, so no operation loses its spans
            dump = tracer.dump()
            dump["missing"] = missing
            with open(args.trace_out, "w") as fh:
                json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(main())
