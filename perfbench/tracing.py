"""Spans around the public calls of each `mlpoly` layer, recorded from outside.

`install` replaces each target function or method with a wrapper that
records a span: layer name, start, end, parent span and operation id.  Spans
stay in memory and are written out once, when the process ends.  Self time
is a span's duration minus the part of it that its children cover.

The benchmark only wraps; no file of the package changes.  A target that a
later version of the package renames or removes is reported as missing and
its layer reads zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (layer, module, attribute).  Module-level functions are rebound in every
# loaded mlpoly module that imported them by name.
TARGETS = (
    ("polyfps.mul", "mlpoly.polyfps", "Poly.__mul__"),
    ("polyfps.mul", "mlpoly.polyfps", "Poly.__rmul__"),
    ("polyfps.shift", "mlpoly.polyfps", "Poly.shift"),
    ("polyfps.series_exp", "mlpoly.polyfps", "PolySeries.exp"),
    ("sequences.generate", "mlpoly.sequences", "generate"),
    ("sequences.oracles", "mlpoly.sequences", "oracle_hypergeometric_g"),
    ("sequences.oracles", "mlpoly.sequences", "oracle_meixner_g"),
    ("sequences.oracles", "mlpoly.sequences", "oracle_gf"),
    ("sequences.oracles", "mlpoly.sequences", "monic_egf"),
    ("sequences.oracles", "mlpoly.sequences", "reduce_from_g"),
    ("sequences.difference_relations", "mlpoly.sequences", "difference_relation_checks"),
    ("sequences.rodrigues_audit", "mlpoly.sequences", "rodrigues_audit"),
    ("identities", "mlpoly.identities", "ode_coeffs"),
    ("identities", "mlpoly.identities", "ode_residual"),
    ("identities", "mlpoly.identities", "trig_operator_apply"),
    ("identities", "mlpoly.identities", "trig_operator_eigencheck"),
    ("identities", "mlpoly.identities", "derivative_expansion_monic"),
    ("identities", "mlpoly.identities", "derivative_expansion_reduced_audit"),
    ("identities", "mlpoly.identities", "convolution_residual"),
    ("identities", "mlpoly.identities", "egf_pde_residual"),
    ("identities", "mlpoly.identities", "turan"),
    ("identities", "mlpoly.identities", "turan_recurrence_check"),
    ("identities", "mlpoly.identities", "lowering_apply"),
    ("identities", "mlpoly.identities", "lowering_check"),
    ("analysis.zeros", "mlpoly.analysis", "zeros"),
    ("analysis.quadrature", "mlpoly.analysis", "orthogonality_matrix"),
    ("analysis.quadrature", "mlpoly.analysis", "moment"),
    ("analysis.quadrature", "mlpoly.analysis", "ft_numeric"),
    ("analysis.quadrature", "mlpoly.analysis", "integrate"),
    ("analysis.quadrature", "mlpoly.analysis", "make_quad_config"),
    ("analysis.transforms", "mlpoly.analysis", "ft_closed"),
    ("analysis.audit", "mlpoly.analysis", "erratum_audit"),
    ("suite", "mlpoly.suite", "exact_suite"),
    ("suite", "mlpoly.suite", "numeric_suite"),
    ("suite", "mlpoly.suite", "audit_suite"),
    ("suite", "mlpoly.suite", "run_suite"),
    ("suite", "mlpoly.suite", "summarize"),
    # serialization: exact values to strings, then the CLI's two private
    # writers, which every payload passes through
    ("cli.serialize", "mlpoly.polyfps", "Poly.to_strings"),
    ("cli.serialize", "mlpoly.sequences", "SeqTable.to_json_rows"),
    ("cli.serialize", "mlpoly.report", "CheckReport.to_json_dict"),
    ("cli.serialize", "mlpoly.cli", "_emit_json"),
    ("cli.serialize", "mlpoly.cli", "_emit_csv"),
    ("exactnum", "mlpoly.exactnum", "bernoulli"),
    ("exactnum", "mlpoly.exactnum", "zeta_even"),
)

OPERATION = "operation"   # root span of one CLI call
IMPORT = "import"         # `import mlpoly` in a traced child


class Tracer:
    """In-memory span recorder.  A span is (name, start, end, parent, op)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op = 0
        self._stack = [-1]
        self.tables: dict = {}   # (kind, n_max) -> last member, for coefficient bits
        self.generate_calls = 0

    def wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        return self.wrap(name, fn)(*args, **kwargs)

    def record_table(self, fn):
        """Wrap `generate` so calls and distinct (kind, n) tables are counted."""
        tracer = self

        @functools.wraps(fn)
        def counted(kind, n_max, *args, **kwargs):
            table = fn(kind, n_max, *args, **kwargs)
            tracer.generate_calls += 1
            tracer.tables.setdefault((str(kind), n_max), table[len(table) - 1])
            return table
        return counted

    def dump(self) -> dict:
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        return {
            "names": list(index),
            "spans": [[index[n], p, s, e, o] for n, s, e, p, o in
                      zip(self.names, self.starts, self.ends, self.parents, self.ops)],
            "generate": {"calls": self.generate_calls, "distinct": len(self.tables),
                         "max_coeff_bits": max(map(coeff_bits, self.tables.values()),
                                               default=0)},
        }


def coeff_bits(poly) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    bits = 0
    for k in range(poly.degree + 1):
        c = poly.coefficient(k)
        bits = max(bits, getattr(c, "numerator", 0).bit_length(),
                   getattr(c, "denominator", 1).bit_length())
    return bits


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets that could not be found."""
    missing = []
    for layer, module_name, attr in TARGETS:
        try:
            owner, leaf, original = _resolve(module_name, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            continue
        wrapped = tracer.wrap(layer, original)
        if layer == "sequences.generate":
            wrapped = tracer.record_table(wrapped)
        if isinstance(owner, type):
            setattr(owner, leaf, wrapped)
            continue
        for name, module in list(sys.modules.items()):
            if name == "mlpoly" or name.startswith("mlpoly."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    return missing


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children's
    intervals, clipped to the span.  `spans` holds (start, end, parent)."""
    children: dict[int, list] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_totals(dump: dict) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name."""
    spans = dump["spans"]
    selfs = self_times([(s, e, p) for _, p, s, e, _ in spans])
    totals: dict[str, list] = {name: [0, 0.0] for name in dump["names"]}
    for (name_idx, *_), own in zip(spans, selfs):
        entry = totals[dump["names"][name_idx]]
        entry[0] += 1
        entry[1] += own
    return {name: (calls, own) for name, (calls, own) in totals.items()}
