"""The seeded query stream of the `query-mix` workload.

The mix is synthetic: no record of real usage exists, so it follows one
rule, fixed before any timing was taken.  Every subcommand gets the same
number of queries in a cycle, `PER_COMMAND`.  Query i of a subcommand with V
families or kinds takes the (i mod V)-th of them and the (i div V)-th of
ceil(PER_COMMAND / V) sizes spaced evenly over that family's range (see
`Scale`).  `coeffs` asks for one member and for the whole table in turn.

The seed shuffles each cycle and draws the evaluation points and transform
arguments.  A run is made of whole cycles, so two seeds give runs of the same
composition in a different order; latencies range from about 1 ms to 2 s,
and a run that ended part way through a cycle would move its median by
whichever queries it happened to reach.

Families and sizes repeat within a run (`coeffs` and `eval` of one family and
size build the same table, and every cycle after the first repeats the
first), so a per-process table cache would be hit by a measurable share of
the queries (see `table_key` and `repeat_share`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

FAMILIES = ("g", "g-monic", "phi", "phi-monic", "pidduck")
SERIES_KINDS = ("g", "g-monic", "phi", "phi-monic",
                "arctan-half", "artanh", "tan-half", "log-ratio")
PER_COMMAND = 15


@dataclass(frozen=True)
class Scale:
    """Size ranges (smallest, largest) of one scale of the stream."""

    per_command: int
    table_n: tuple[int, int]      # coeffs and eval, every family but pidduck
    pidduck_n: tuple[int, int]    # coeffs and eval on the pidduck family
    zeros_n: tuple[int, int]
    quad_max_n: tuple[int, int]
    ft_n: tuple[int, int]
    moments_max_n: tuple[int, int]
    series_order: tuple[int, int]


# Known defects stay in range and count as failures (checks.is_known_defect):
# quad misses its own 1e-8 bound from --max-n 59, ft misses 1e-6 from n = 18
# at small s, and eval overflows a float for the monic families at n = 200.
# moments --max-n stops at 61: from 63 on the CLI refuses the input with
# exit 2 (no quadrature truncation meets the tail bound).
FULL = Scale(
    per_command=PER_COMMAND,
    table_n=(20, 200),
    pidduck_n=(20, 80),
    zeros_n=(24, 400),
    quad_max_n=(12, 80),
    ft_n=(0, 24),
    moments_max_n=(9, 61),
    series_order=(8, 40),
)

TINY = Scale(
    per_command=5,
    table_n=(2, 6),
    pidduck_n=(2, 3),
    zeros_n=(3, 5),
    quad_max_n=(4, 6),
    ft_n=(0, 2),
    moments_max_n=(3, 5),
    series_order=(4, 6),
)

_FT_S = (0.25, 4.0)


def spaced(lo: int, hi: int, count: int) -> list[int]:
    """`count` integers spaced evenly from `lo` to `hi`, both included."""
    if count == 1:
        return [hi]
    return [round(lo + (hi - lo) * k / (count - 1)) for k in range(count)]


def shapes(count: int, variants: tuple, ranges) -> list[tuple]:
    """(variant, size) of the `count` queries of one subcommand: query i takes
    variant i mod V and the (i div V)-th size of its range.  `ranges` maps a
    variant to its (smallest, largest) size."""
    per_variant = -(-count // len(variants))
    grid = {v: spaced(*ranges(v), per_variant) for v in variants}
    return [(variants[i % len(variants)], grid[variants[i % len(variants)]][i // len(variants)])
            for i in range(count)]


def cycle(rng: random.Random, scale: Scale = FULL) -> list[list[str]]:
    """`per_command` queries of every subcommand, in a seeded order; the argv
    lists of `mlpoly`."""
    k = scale.per_command

    def table_range(family):
        return scale.pidduck_n if family == "pidduck" else scale.table_n

    def single(lo_hi):
        return shapes(k, (None,), lambda _: lo_hi)

    batch = []
    for i, (family, n) in enumerate(shapes(k, FAMILIES, table_range)):
        batch.append(["coeffs", "--seq", family, ("--n", "--max-n")[i % 2], str(n)])
    for family, n in shapes(k, FAMILIES, table_range):
        x = f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
        batch.append(["eval", "--seq", family, "--n", str(n), f"--x={x}"])
    batch += [["zeros", "--n", str(n)] for _, n in single(scale.zeros_n)]
    batch += [["quad", "--max-n", str(n)] for _, n in single(scale.quad_max_n)]
    batch += [["ft", "--n", str(n), "--s", repr(round(rng.uniform(*_FT_S), 3))]
              for _, n in single(scale.ft_n)]
    # moments reports the odd n up to --max-n, so an even size is raised by one
    batch += [["moments", "--max-n", str(n | 1)] for _, n in single(scale.moments_max_n)]
    batch += [["series", "--kind", kind, "--order", str(order)]
              for kind, order in shapes(k, SERIES_KINDS, lambda _: scale.series_order)]
    rng.shuffle(batch)
    return batch


def cycles(seed: int, scale: Scale = FULL):
    """Endless sequence of cycles, fixed by `seed`."""
    rng = random.Random(seed)
    while True:
        yield cycle(rng, scale)


def first(seed: int, count: int, scale: Scale = FULL) -> list[list[str]]:
    """The first `count` queries of the stream."""
    return list(islice((q for c in cycles(seed, scale) for q in c), count))


def table_key(argv: list[str]) -> tuple:
    """The table a query builds: coeffs and eval share generate(family, n)."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    cmd = argv[0]
    if cmd in ("coeffs", "eval"):
        return ("table", opts["--seq"], int(opts.get("--n", opts.get("--max-n"))))
    if cmd == "series":
        return ("series", opts["--kind"], int(opts["--order"]))
    if cmd == "ft":
        return ("table", "phi-monic", int(opts["--n"]))
    size = opts.get("--n", opts.get("--max-n"))
    return (cmd, int(size))


def repeat_share(stream: list[list[str]]) -> float:
    """Share of queries whose table was already built earlier in the run."""
    seen: set = set()
    repeats = 0
    for argv in stream:
        key = table_key(argv)
        repeats += key in seen
        seen.add(key)
    return repeats / len(stream) if stream else 0.0
