"""In-memory span tracing of dgsym's public functions.

The tracer replaces selected public functions of the dgsym modules with thin
wrappers that record one span per call: name, start, end, parent span and
the op it belongs to.  Spans stay in memory; ``dump`` writes them out once the
run has ended.  Nothing inside dgsym is edited: the wrappers are installed by
rebinding module attributes (every dgsym module that imported the function by
name gets the wrapper too), and ``uninstall`` restores the originals, so an
untraced op runs the original code with no wrapper at all.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from time import perf_counter

# (module, attribute, span name).  A callable span name receives the call's
# positional and keyword arguments.
TRACED = (
    ("dgsym.cli", "cmd_classify", "cli.classify"),
    ("dgsym.cli", "cmd_verify", "cli.verify"),
    ("dgsym.cli", "cmd_linearize", "cli.linearize"),
    ("dgsym.cli", "cmd_simulate", "cli.simulate"),
    ("dgsym.params", "DGParams.load", "params.load"),
    ("dgsym.params", "classify", "params.classify"),
    ("dgsym.params", "compute_invariants", "params.compute_invariants"),
    ("dgsym.params", "canonical_gauge", "params.canonical_gauge"),
    ("dgsym.symexpr", "lie_bracket", "symexpr.lie_bracket"),
    ("dgsym.symmetry", "basis_generator", "symmetry.basis_generator"),
    ("dgsym.symmetry", "verify_commutator_table",
     lambda a, kw: f"symmetry.commutator_table_n{kw.get('n') or a[0].n}"),
    ("dgsym.symmetry", "determining_residuals", "symmetry.determining_residuals"),
    ("dgsym.symmetry", "verify_infinite_relations", "symmetry.infinite_relations"),
    ("dgsym.flows", "verify_symmetry_flow", "flows.verify_symmetry_flow"),
    ("dgsym.linearize", "linearization_data", "linearize.linearization_data"),
    ("dgsym.linearize", "gauge_act_field", "linearize.gauge_act_field"),
    ("dgsym.fields", "sample_evaluator", "fields.sample_evaluator"),
    ("dgsym.fields", "write_trajectory", "fields.write_trajectory"),
    ("dgsym.fields", "read_trajectory", "fields.read_trajectory"),
    ("dgsym.kernels", "evolution_rhs", "kernels.evolution_rhs"),
    ("dgsym.pde", "evolve", "pde.evolve"),
    ("dgsym.pde", "residual", "pde.residual"),
)

# Per-layer metrics: (metric, unit, kind, span name).  Kinds: "call" is the
# median inclusive time per call, "self" the median self time per call
# (duration minus the time its child spans cover), "count" the median number
# of spans per op, "bytes" and "snapshots" the median per op of what
# write_trajectory wrote.
LAYER_METRICS = (
    ("params.load_us", "us", "call", "params.load"),
    ("params.classify_us", "us", "call", "params.classify"),
    ("params.compute_invariants_us", "us", "call", "params.compute_invariants"),
    ("params.canonical_gauge_us", "us", "call", "params.canonical_gauge"),
    ("params.classify_calls", "count", "count", "params.classify"),
    ("cli.classify_self_ms", "ms", "self", "cli.classify"),
    ("linearize.linearization_data_us", "us", "call", "linearize.linearization_data"),
    ("symexpr.lie_bracket_us", "us", "call", "symexpr.lie_bracket"),
    ("symexpr.lie_bracket_calls", "count", "count", "symexpr.lie_bracket"),
    ("symmetry.basis_generator_us", "us", "call", "symmetry.basis_generator"),
    ("symmetry.commutator_table_n1_ms", "ms", "call", "symmetry.commutator_table_n1"),
    ("symmetry.commutator_table_n2_ms", "ms", "call", "symmetry.commutator_table_n2"),
    ("symmetry.commutator_table_n3_ms", "ms", "call", "symmetry.commutator_table_n3"),
    ("symmetry.determining_residuals_ms", "ms", "call", "symmetry.determining_residuals"),
    ("symmetry.infinite_relations_ms", "ms", "call", "symmetry.infinite_relations"),
    ("flows.verify_symmetry_flow_ms", "ms", "call", "flows.verify_symmetry_flow"),
    ("cli.linearize_ms", "ms", "call", "cli.linearize"),
    ("linearize.gauge_act_field_us", "us", "call", "linearize.gauge_act_field"),
    ("fields.sample_evaluator_ms", "ms", "call", "fields.sample_evaluator"),
    ("kernels.evolution_rhs_us", "us", "call", "kernels.evolution_rhs"),
    ("kernels.rhs_calls", "count", "count", "kernels.evolution_rhs"),
    ("pde.evolve_ms", "ms", "call", "pde.evolve"),
    ("pde.evolve_self_ms", "ms", "self", "pde.evolve"),
    ("pde.bc_values_ms", "ms", "call", "pde.bc_values"),
    ("pde.residual_ms", "ms", "call", "pde.residual"),
    ("fields.write_trajectory_ms", "ms", "call", "fields.write_trajectory"),
    ("fields.read_trajectory_ms", "ms", "call", "fields.read_trajectory"),
    ("fields.bytes_written", "bytes", "bytes", "fields.write_trajectory"),
    ("fields.snapshots", "count", "snapshots", "fields.write_trajectory"),
)

_SCALE = {"us": 1e6, "ms": 1e3}


def _dir_bytes(path) -> int:
    total = 0
    for entry in os.scandir(path):
        if entry.is_file():
            total += entry.stat().st_size
    return total


class Tracer:
    """Span recorder plus the install/uninstall of the wrappers."""

    def __init__(self):
        # one list per span: [name, start, end, parent, op, attrs]
        self.spans = []
        self._stack = []
        self.op = None
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    attrs(args, kwargs) if attrs else None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    # -- installing --------------------------------------------------------

    def _build(self):
        """Resolve every traced target to (owner, attribute, original, wrapper)."""
        mods = [m for key, m in sys.modules.items()
                if m is not None and (key == "dgsym" or key.startswith("dgsym."))]
        for modname, attr, name in TRACED:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                wrapped = classmethod(self.wrap(name, orig.__func__))
                self._patches.append((cls, meth, orig, wrapped))
                continue
            orig = getattr(mod, attr)
            attrs = _write_attrs if attr == "write_trajectory" else None
            wrapped = self.wrap(name, orig, attrs)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig, wrapped))

    def install(self):
        if not self._patches:
            self._build()
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, orig, _ in self._patches:
            setattr(owner, key, orig)

    def originals_restored(self) -> bool:
        return all(vars(owner)[key] is orig for owner, key, orig, _ in self._patches)

    def annotate_writes(self, op):
        """Record the bytes each of this op's trajectory writes left on disk.

        Called after the op's timed interval, before its outputs are removed;
        the op's spans are the last ones recorded.
        """
        for span in reversed(self.spans):
            if span[4] != op:
                break
            if span[0] == "fields.write_trajectory":
                span[5]["bytes"] = _dir_bytes(span[5]["outdir"])

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, own_ops, fallback_ops):
        """Every per-layer metric, from the spans of ``own_ops``.

        A time metric whose span never occurred in ``own_ops`` (the workload
        does not reach that layer) is taken from the first group of
        ``fallback_ops`` that has it, so that every metric is a measured
        time.  Counts always come from ``own_ops`` and may be zero.
        """
        selfs = self.self_times()
        by_op = {}
        for i, span in enumerate(self.spans):
            by_op.setdefault(span[4], []).append(i)

        def samples(name, kind, ops):
            idx = [i for op in ops for i in by_op.get(op, ())
                   if self.spans[i][0] == name]
            if kind == "self":
                return [selfs[i] for i in idx]
            return [self.spans[i][2] - self.spans[i][1] for i in idx]

        def per_op(name, ops, value):
            return statistics.median(
                sum(value(self.spans[i]) for i in by_op.get(op, ())
                    if self.spans[i][0] == name)
                for op in ops)

        out = {}
        for metric, unit, kind, name in LAYER_METRICS:
            if kind == "count":
                val = per_op(name, own_ops, lambda s: 1)
            elif kind == "bytes":
                val = per_op(name, own_ops, lambda s: s[5]["bytes"])
            elif kind == "snapshots":
                val = per_op(name, own_ops, lambda s: s[5]["snapshots"])
            else:
                xs = samples(name, kind, own_ops)
                for group in fallback_ops:
                    if xs:
                        break
                    xs = samples(name, kind, group)
                if not xs:
                    raise RuntimeError(f"no span {name!r} was recorded")
                val = statistics.median(xs) * _SCALE[unit]
            out[metric] = {"value": val, "unit": unit}
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "attrs": attrs}) + "\n")


def _write_attrs(args, kwargs):
    traj = args[0]
    outdir = args[1] if len(args) > 1 else kwargs["outdir"]
    return {"outdir": str(outdir), "snapshots": len(traj)}
