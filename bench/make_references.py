"""Regenerate ``references.json``: the fidelities the CLI workloads are
checked against.

Each reference comes from ``run_experiment`` on the workload's own config
with the integrator tolerance tightened 100x, so a timed run at the
workload tolerance must land within the acceptance window of it.  Run from
the repository root (takes a few minutes):

    python3 bench/make_references.py
"""

from __future__ import annotations

import json
import sys
import time

import env

env.prepare()

from cavityphase.analysis import ExperimentConfig, run_experiment  # noqa: E402

import workloads  # noqa: E402

COMMAND = "python3 bench/make_references.py"
TOL_FACTOR = 1e-2

#: Fidelity checks pass within the frozen acceptance-test window.
WINDOW = 1e-4

#: tests/test_acceptance.py CRITERION7_FROZEN[15]: method A, n = 1, omega
#: = 15 g, cutoff 5, vacuum; fidelity is independent of the scale of g.
CRITERION7_FROZEN_15 = 0.9860137038853212


def main() -> int:
    out = {
        "command": COMMAND,
        "window": WINDOW,
        "criterion7_frozen": {
            "value": CRITERION7_FROZEN_15,
            "window": WINDOW,
            "source": "tests/test_acceptance.py CRITERION7_FROZEN[15]",
        },
        "environment": env.environment("references", 0),
        "workloads": {},
    }
    for name in workloads.CLI_WORKLOADS:
        config = ExperimentConfig.from_dict(workloads.CLI_CONFIGS[name](0))
        tol = config.tol * TOL_FACTOR
        start = time.perf_counter()
        report = run_experiment(config.replace(tol=tol)).to_json_dict()
        seconds = time.perf_counter() - start
        out["workloads"][name] = {
            "tol": tol,
            "seconds": seconds,
            "step_count": report["diagnostics"]["step_count"],
            "fidelities": workloads.report_fidelities(report),
        }
        print(f"{name}: tol {tol:g}, {seconds:.1f} s", file=sys.stderr)
    workloads.REFERENCES_PATH.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCES_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
