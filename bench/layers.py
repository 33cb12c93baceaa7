"""Tracing for the per-layer run: spans around calls into each package
layer, counters at the same boundaries, and the per-layer metrics derived
from them.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the index of the timed
operation that caused it.  Spans stay in memory and are written once the
run ends.  A span's self time is its duration minus the durations of its
direct children.

Wrappers are installed only for the traced run.  For the CLI workloads
they replace the module-level names ``cavityphase.analysis`` and
``cavityphase.cli`` look up at call time, and ``propagate`` is handed a
``TimeDependentHamiltonian`` whose builder is wrapped, so every Hamiltonian
evaluation is a span and the exponentials are counted where they happen.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from cavityphase import analysis, cli

H_EVAL = "analysis.h_eval"
PROPAGATE = "integrator.propagate"

#: Names ``analysis`` resolves at call time, with the span name of the
#: layer that defines each.
ANALYSIS_WRAPS = {
    "step_hamiltonian": "analysis.step_hamiltonian",
    "schedule_channel": "analysis.schedule_channel",
    "channel_fidelity": "hilbert.channel_fidelity",
    "top_level_population": "analysis.top_level_population",
    "solve_parameters": "protocol.solve_parameters",
    "schedule_method_a": "protocol.schedule_method_a",
    "schedule_method_b": "protocol.schedule_method_b",
    "combined_evolution": "effective.combined_evolution",
    "ideal_ntcp": "effective.ideal_ntcp",
    "gate_fidelity": "hilbert.gate_fidelity",
}
CLI_WRAPS = {"run_experiment": "analysis.run_experiment"}

REDUCE_SPANS = (
    "analysis.schedule_channel",
    "hilbert.channel_fidelity",
    "analysis.top_level_population",
)
CLOSED_FORM_SPANS = (
    "effective.combined_evolution",
    "effective.three_step_composition",
    "effective.ideal_ntcp",
)
SERIALIZE_SPANS = ("protocol.Schedule.dumps", "protocol.Schedule.loads")

#: (name, unit) of every per-layer metric.  Times and counts are means per
#: timed operation.
PER_LAYER = (
    ("integrator.propagate.self_s", "s"),
    ("integrator.us_per_expm", "us"),
    ("integrator.expm.step1", "count"),
    ("integrator.expm.step2", "count"),
    ("integrator.expm.step3", "count"),
    ("integrator.accepted_steps", "count"),
    ("integrator.accept_ratio", "ratio"),
    ("analysis.h_eval.count", "count"),
    ("analysis.h_eval_s", "s"),
    ("analysis.step_hamiltonian.build_s", "s"),
    ("analysis.reduce_s", "s"),
    ("analysis.reduce.calls", "count"),
    ("analysis.run_experiment.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("protocol.solve_s", "s"),
    ("protocol.schedule_s", "s"),
    ("protocol.timing_budget_s", "s"),
    ("protocol.serialize_s", "s"),
    ("effective.closed_form_s", "s"),
    ("hilbert.fidelity_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """In-memory spans and counters of one traced run.

    Span fields live in flat arrays, which the garbage collector does not
    scan, so a run with 10^5 spans per operation is not slowed by them."""

    def __init__(self):
        self.op = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._op = array("q")
        self._stack: list[int] = []
        self._counts: defaultdict[int, Counter] = defaultdict(Counter)

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    @property
    def spans(self) -> list[tuple]:
        names = self._names
        return [
            (names[n], s, e, p, o)
            for n, s, e, p, o in zip(self._name, self._start, self._end, self._parent, self._op)
        ]

    def count(self, name: str, value: float) -> None:
        self._counts[self.op][name] += value

    def op_counts(self) -> dict[int, Counter]:
        """Counters of each operation, with the Hamiltonian evaluations
        read off the spans."""
        out = {op: Counter(c) for op, c in self._counts.items()}
        h_eval = self._name_ids.get(H_EVAL)
        for name_id, op in zip(self._name, self._op):
            if name_id == h_eval:
                out.setdefault(op, Counter())[H_EVAL] += 1
        return out

    def totals(self) -> Counter:
        out = Counter()
        for counts in self._counts.values():
            out.update(counts)
        return out

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def wrap_propagate(self, fn):
        """``propagate`` with its Hamiltonian's builder traced.  The builder
        runs once per matrix exponential plus one Hermiticity spot check per
        call; ``propagate_schedule`` propagates a schedule's three steps in
        order, so the call's position within the op names its step."""
        calls_in_op = defaultdict(int)

        @functools.wraps(fn)
        def traced(h, *args, **kwargs):
            step = calls_in_op[self.op] % 3 + 1
            calls_in_op[self.op] += 1
            first = len(self._start)
            with self.span(PROPAGATE):
                traced_h = dataclasses.replace(h, builder=self.wrap(H_EVAL, h.builder))
                result = fn(traced_h, *args, **kwargs)
            evals = self._name[first:].count(self._name_ids.get(H_EVAL, -1))
            self.count(f"integrator.expm.step{step}", evals - 1)
            self.count("integrator.accepted_steps", result.step_count)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace the package calls the CLI workloads make; restores the
        original names on exit."""
        saved = [(analysis, "propagate", analysis.propagate)]
        saved += [(analysis, attr, getattr(analysis, attr)) for attr in ANALYSIS_WRAPS]
        saved += [(cli, attr, getattr(cli, attr)) for attr in CLI_WRAPS]
        try:
            analysis.propagate = self.wrap_propagate(analysis.propagate)
            for attr, name in ANALYSIS_WRAPS.items():
                setattr(analysis, attr, self.wrap(name, getattr(analysis, attr)))
            for attr, name in CLI_WRAPS.items():
                setattr(cli, attr, self.wrap(name, getattr(cli, attr)))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def span_totals(spans: list[tuple]) -> tuple[dict, dict, dict]:
    """Per span name: (total duration, total self time, call count)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: defaultdict[str, float] = defaultdict(float)
    self_time: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for (name, start, end, _, _), children in zip(spans, child_time):
        total[name] += end - start
        self_time[name] += end - start - children
        calls[name] += 1
    return total, self_time, calls


def per_layer_metrics(tracer: Tracer, ops: int, overhead_ratio: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric, per timed operation."""
    total, self_time, calls = span_totals(tracer.spans)
    c = tracer.totals()
    expm = sum(c[f"integrator.expm.step{k}"] for k in (1, 2, 3))

    def tot(*names):
        return sum(total[n] for n in names) / ops

    values = {
        "integrator.propagate.self_s": self_time[PROPAGATE] / ops,
        "integrator.us_per_expm": 1e6 * self_time[PROPAGATE] / expm if expm else 0.0,
        "integrator.expm.step1": c["integrator.expm.step1"] / ops,
        "integrator.expm.step2": c["integrator.expm.step2"] / ops,
        "integrator.expm.step3": c["integrator.expm.step3"] / ops,
        "integrator.accepted_steps": c["integrator.accepted_steps"] / ops,
        "integrator.accept_ratio": c["integrator.accepted_steps"] / expm if expm else 0.0,
        "analysis.h_eval.count": calls[H_EVAL] / ops,
        "analysis.h_eval_s": tot(H_EVAL),
        "analysis.step_hamiltonian.build_s": tot("analysis.step_hamiltonian"),
        "analysis.reduce_s": tot(*REDUCE_SPANS),
        "analysis.reduce.calls": sum(calls[n] for n in REDUCE_SPANS) / ops,
        "analysis.run_experiment.self_s": self_time["analysis.run_experiment"] / ops,
        "cli.self_s": self_time["cli.main"] / ops,
        "cli.report_bytes": c["cli.report_bytes"] / ops,
        "protocol.solve_s": tot("protocol.solve_parameters"),
        "protocol.schedule_s": tot(*(n for n in total if n.startswith("protocol.schedule_"))),
        "protocol.timing_budget_s": tot("protocol.timing_budget"),
        "protocol.serialize_s": tot(*SERIALIZE_SPANS),
        "effective.closed_form_s": tot(*CLOSED_FORM_SPANS),
        "hilbert.fidelity_s": tot("hilbert.gate_fidelity"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
