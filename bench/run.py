"""cavityphase benchmark: one command, named workloads, every metric by
name and unit, outputs checked.

    python3 bench/run.py --workload gate-report --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` times operations with no
instrumentation of the package, in units of a reference kernel timed on
the same core while they run (``hostspeed``), and prints the end-to-end
metrics; ``--trace 1`` runs the
same operations untraced for half the time, replays them traced, and
prints the per-layer metrics.  The last line of standard output is the
result object; the line before it records the environment.  The exit
status is 0 only when every check passed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import env

env.prepare()

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

OUT_ROOT = env.ROOT / ".bench_out"

#: Set-ups timed per run; ``setup_s`` is their median.  One runs before
#: the first operation and one after each operation until all have run, so
#: they sample the host over the whole run, not one moment of it.
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 60

#: (name, unit) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_kref", "1/kref"),
    ("op_kref.p50", "kref"),
    ("fidelity_err.mean", "abs"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Outcome:
    """Checked result of one operation.  ``values`` are the raw results
    compared between the untraced and traced passes."""

    values: tuple = ()
    deviations: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    report_bytes: int = 0


class CliWorkload:
    """``cavityphase simulate`` in process on one generated config."""

    kernel = staticmethod(hostspeed.reference_kernel)
    #: Operations after which the inputs repeat.
    cycle = 1

    def __init__(self, name: str, seed: int, out_dir: Path):
        self.name = name
        self.out_dir = out_dir
        self.config_path = out_dir / "config.json"
        self.config_path.write_text(json.dumps(workloads.CLI_CONFIGS[name](seed)) + "\n")
        self.refs = workloads.load_references()

    def op(self, index: int, tracer: layers.Tracer | None):
        if tracer is None:
            return workloads.cli_op(self.config_path, self.out_dir)
        with tracer.span("cli.main"):
            return workloads.cli_op(self.config_path, self.out_dir)

    def check(self, rc) -> Outcome:
        text = workloads.read_report(self.out_dir)
        fids, devs, size, failures = workloads.check_cli(self.name, rc, text, self.refs)
        return Outcome(tuple(sorted(fids.items())), devs, failures, size)

    def traced(self, tracer: layers.Tracer):
        return tracer.installed()


class DesignWorkload:
    """Scans of closed-form design points; the traced pass calls through
    wrappers."""

    kernel = staticmethod(hostspeed.design_kernel)
    cycle = workloads.DESIGN_POINTS // workloads.SCAN_POINTS

    def __init__(self, name: str, seed: int, out_dir: Path):
        self.name = name
        self.out_dir = out_dir
        self.points = workloads.design_points(seed)
        self.api = workloads.design_api()

    def op(self, index: int, tracer: layers.Tracer | None):
        api = self.api if tracer is None else self.traced_api
        start = index * workloads.SCAN_POINTS % len(self.points)
        return workloads.design_scan(api, self.points[start:start + workloads.SCAN_POINTS])

    def check(self, result) -> Outcome:
        devs, failures = workloads.check_design(result)
        return Outcome(tuple(result), devs, failures)

    def traced(self, tracer: layers.Tracer):
        self.traced_api = workloads.design_api(tracer.wrap)
        return nullcontext()


def set_up(name: str, seed: int):
    out_dir = OUT_ROOT / f"{name}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = CliWorkload if name in workloads.CLI_WORKLOADS else DesignWorkload
    return kind(name, seed, out_dir)


class SetupProbe:
    """Wall time of fresh processes that import the package and generate
    this run's inputs, i.e. process start to the first timed op."""

    def __init__(self, name: str, seed: int):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", name, "--seed", str(seed)]
        self.times: list[float] = []

    def __call__(self) -> None:
        if len(self.times) >= SETUP_PROBES:
            return
        start = time.perf_counter()
        subprocess.run(self.cmd, cwd=env.ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - start)


def timed_pass(workload, seconds: float | None = None, count: int | None = None,
               tracer: layers.Tracer | None = None,
               sampler: hostspeed.Sampler | None = None, between=None):
    """Run operations back to back (a closed loop, one client) until
    ``count`` operations ran or, without a count, until the next operation
    would most likely end past ``seconds`` of operation and check time (the
    run ends within half an operation of ``seconds``).  Each operation is
    checked after its timing stops; ``between()``, if given, runs after
    each check and is not counted.  With a sampler, each operation runs
    with its timer armed, and its time excludes the kernel's.  Returns the
    operation times and outcomes, and the (start, end) of each operation."""
    times: list[float] = []
    spans: list[tuple[float, float]] = []
    outcomes: list[Outcome] = []
    busy = 0.0
    while True:
        index = len(times)
        if tracer is not None:
            tracer.op = index
        with sampler or nullcontext():
            t0 = time.perf_counter()
            try:
                raw = workload.op(index, tracer)
                error = None
            except Exception as exc:  # a failed op is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                raw, error = None, exc
            t1 = time.perf_counter()
        kernel = 0.0 if sampler is None else hostspeed.kernel_time(t0, t1, sampler.samples)
        times.append(t1 - t0 - kernel)
        spans.append((t0, t1))
        outcomes.append(Outcome(failures=[f"exception: {error!r}"]) if error else workload.check(raw))
        busy += time.perf_counter() - t0
        if between is not None:
            between()
        if (count is not None and len(times) >= count) or (
            count is None and busy + 0.5 * times[-1] >= seconds
        ):
            return times, outcomes, spans


def untraced_metrics(workload, seconds: float, setup: SetupProbe):
    """End-to-end metrics.  Operation times are in kernel units (see
    ``hostspeed``); the wall times are kept in the run's record."""
    setup()
    sampler = hostspeed.Sampler(kernel=workload.kernel)
    times, outcomes, spans = timed_pass(workload, seconds=seconds, sampler=sampler,
                                        between=setup)
    while len(setup.times) < SETUP_PROBES:
        setup()
    krefs = [hostspeed.in_reference_units(t0, t1, sampler.samples) / 1000.0
             for t0, t1 in spans]
    # every distinct input once: later operations repeat the first cycle's
    devs = [d for o in outcomes[:workload.cycle] for d in o.deviations]
    failed = sum(1 for o in outcomes if o.failures)
    metrics = {
        "setup_s": statistics.median(setup.times),
        "ops_per_kref": len(krefs) / sum(krefs),
        "op_kref.p50": statistics.median(krefs),
        # a run that produced no fidelity at all reads as the worst error
        "fidelity_err.mean": statistics.fmean(devs) if devs else 1.0,
        "success_ratio": (len(times) - failed) / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {"fidelity_err.max": max(devs, default=1.0), "setup_times_s": setup.times, "op_times_s": times, "op_kref": krefs,
              "kernel_s.p50": hostspeed.median_kernel_s(sampler.samples),
              "kernel_samples": len(sampler.samples)}
    return metrics, outcomes, record


def traced_metrics(workload, seconds: float):
    """Untraced for half the time, then the same operations traced.  The
    traced results must be bit-identical to the untraced ones, and on the
    CLI workloads, whose operations are identical, the work counts must
    repeat exactly."""
    base_times, base, _ = timed_pass(workload, seconds=seconds / 2.0)
    tracer = layers.Tracer()
    with workload.traced(tracer):
        traced_times, traced, _ = timed_pass(workload, count=len(base_times), tracer=tracer)
    tracer.write(workload.out_dir / "spans.jsonl.gz")
    for index, (a, b) in enumerate(zip(base, traced)):
        tracer.op = index
        tracer.count("cli.report_bytes", b.report_bytes)
        if a.values != b.values:
            b.failures.append(f"op {index}: traced result differs from untraced")
    if workload.name in workloads.CLI_WORKLOADS:
        per_op = tracer.op_counts()
        if len({tuple(sorted(c.items())) for c in per_op.values()}) > 1:
            traced[-1].failures.append(f"work counts differ between identical ops: {per_op}")
    overhead = sum(traced_times) / sum(base_times)
    metrics = layers.per_layer_metrics(tracer, len(traced_times), overhead)
    return metrics, base + traced, {"op_times_s": base_times + traced_times}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="generate the inputs and exit (times set-up)")
    args = parser.parse_args(argv)
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0
    if args.seconds is None or args.seconds < 1:
        parser.error("--seconds must be a positive whole number")

    workload = set_up(args.workload, args.seed)
    if args.trace:
        metrics, outcomes, record = traced_metrics(workload, args.seconds)
        units = dict(layers.PER_LAYER)
    else:
        setup = SetupProbe(args.workload, args.seed)
        metrics, outcomes, record = untraced_metrics(workload, args.seconds, setup)
        units = dict(END_TO_END)

    failed = sum(1 for o in outcomes if o.failures)
    for message in [f for o in outcomes for f in o.failures][:10]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"environment": env.environment(args.workload, args.seed), **record,
              "result": result}
    (workload.out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
