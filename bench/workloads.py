"""Workload inputs, timed operations and correctness checks.

Three workloads, each a closed loop of one client in one process:

``gate-report``      ``cavityphase simulate`` in process on the README default
                     question (method A, n = 1, cutoff 5, tol 1e-5, three
                     cavity states); integrator-bound on 24x24 matrices.
``detuned-targets``  the same CLI path on method B, n = 2, cutoff 3, a
                     finite decoupling detuning and tol 1e-3; the step count
                     is set by the spectator detuning, matrices are 32x32.
``design-scan``      a scan of seeded random design points through the
                     closed-form layers only (protocol, effective,
                     hilbert); never touches the integrator.

Inputs depend only on the seed.  The package receives the generated
configs or points and nothing else.
"""

from __future__ import annotations

import io
import json
import math
import random
import types
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
from scipy.constants import e as E_CHARGE
from scipy.constants import h as PLANCK
from scipy.constants import hbar as HBAR

from cavityphase import cli, effective, hilbert, protocol
from cavityphase.hamiltonians import CircuitParams, charge_qubit_map, quantum_voltage

TWO_PI = 2.0 * math.pi

GATE_REPORT = "gate-report"
DETUNED_TARGETS = "detuned-targets"
DESIGN_SCAN = "design-scan"
WORKLOADS = (GATE_REPORT, DETUNED_TARGETS, DESIGN_SCAN)
CLI_WORKLOADS = (GATE_REPORT, DETUNED_TARGETS)

REFERENCES_PATH = Path(__file__).with_name("references.json")

#: Largest 1 - F accepted from a closed form against the ideal gate.
CLOSED_FORM_WINDOW = 1e-12

#: Design points a seed draws, and per scan.  One scan is one timed
#: operation, what a user of the design workflow waits for; scans take the
#: seed's points a block at a time, in turn, so the first
#: ``DESIGN_POINTS // SCAN_POINTS`` operations of a run cover each of them
#: once, and ``fidelity_err.mean`` is taken over those.
DESIGN_POINTS = 1024
SCAN_POINTS = 256


# ---------------------------------------------------------------------------
# CLI workloads


def gate_report_config(seed: int) -> dict:
    """The README/CLI default question.  The seed orders the cavity states
    and fills the config seed; the physics is the same for every seed, so
    one set of references applies."""
    states = ["vacuum", "fock:1", "coherent:1"]
    random.Random(seed).shuffle(states)
    return {
        "realization": "method-a",
        "n": 1,
        "g_hz": 22e6,
        "omega_ratio": 15,
        "k": 0,
        "fock_cutoff": 5,
        "tol": 1e-5,
        "cavity_states": states,
        "seed": seed,
    }


def detuned_targets_config(seed: int) -> dict:
    """Finite decoupling on the cavity-tuned realization: in step ii the
    control stays coupled, undriven, at Delta = 50 g.  The cutoff-3 report
    carries a truncation warning, which is expected."""
    return {
        "realization": "method-b",
        "n": 2,
        "g_hz": 22e6,
        "omega_ratio": 15,
        "k": 0,
        "fock_cutoff": 3,
        "decouple_factor": 50,
        "cavity_freq_hz": 6e9,
        "tol": 1e-3,
        "cavity_states": ["vacuum"],
        "seed": seed,
    }


CLI_CONFIGS = {GATE_REPORT: gate_report_config, DETUNED_TARGETS: detuned_targets_config}


def load_references() -> dict:
    return json.loads(REFERENCES_PATH.read_text())


def report_fidelities(report: dict) -> dict[str, float]:
    """Every fidelity a gate report carries, by reference key."""
    fids = {"effective": float(report["effective_fidelity"])}
    for label, value in report["full_fidelities"].items():
        fids[f"full:{label}"] = float(value)
    return fids


def cli_op(config_path: Path, out_dir: Path) -> int:
    """One timed operation: ``cavityphase simulate`` in process.  The CLI's
    console summary is captured so it does not mix with the result line."""
    with redirect_stdout(io.StringIO()):
        return cli.main(
            ["simulate", "--config", str(config_path), "--out", str(out_dir)]
        )


def read_report(out_dir: Path) -> str | None:
    try:
        return (out_dir / "report.json").read_text()
    except OSError:
        return None


def check_cli(workload: str, rc: int, text: str | None, refs: dict):
    """Check one CLI operation from its exit code and the text of the
    report it wrote.  Returns (fidelities, deviations from the references,
    report size in bytes, failures)."""
    if rc != 0:
        return {}, [], 0, [f"cli exit code {rc}"]
    if text is None:
        return {}, [], 0, ["no report.json written"]
    try:
        report = json.loads(text)
        fids = report_fidelities(report)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return {}, [], 0, [f"report.json unreadable: {exc!r}"]
    expected = refs["workloads"][workload]
    failures = []
    if set(fids) != set(expected["fidelities"]):
        failures.append(
            f"fidelity keys {sorted(fids)} != references {sorted(expected['fidelities'])}"
        )
    deviations = []
    window = refs["window"]
    for key, value in sorted(fids.items()):
        ref = expected["fidelities"].get(key)
        if ref is None:
            continue
        dev = abs(value - ref)
        deviations.append(dev)
        if not dev <= window:
            failures.append(f"{key}: |{value!r} - {ref!r}| = {dev:.3e} > {window:g}")
    if workload == GATE_REPORT:
        frozen = refs["criterion7_frozen"]
        vac = fids.get("full:vacuum")
        if vac is None or not abs(vac - frozen["value"]) <= frozen["window"]:
            failures.append(f"vacuum fidelity {vac!r} outside the criterion-7 window")
    if workload == DETUNED_TARGETS:
        defect = report.get("diagnostics", {}).get("max_unitarity_defect")
        tol = report.get("diagnostics", {}).get("integrator_tol")
        if defect is None or tol is None or not defect <= 10.0 * tol:
            failures.append(f"unitarity defect {defect!r} exceeds 10 x tol ({tol!r})")
    return fids, deviations, len(text.encode()), failures


# ---------------------------------------------------------------------------
# Design scan


def _charge_circuit() -> tuple[CircuitParams, float, float]:
    """The reference charge-qubit design of demos/04_charge_circuit.py: a
    10 mm, 10 GHz resonator whose gate capacitance gives g/2pi = 22 MHz."""
    cavity_freq = TWO_PI * 10e9
    e_c = PLANCK * 32e9
    length, cap_per_length = 0.010, 1.6e-10
    v0_qu = quantum_voltage(cavity_freq, length, cap_per_length)
    c_g = TWO_PI * 22e6 * HBAR * E_CHARGE / (2.0 * e_c * v0_qu)
    circuit = CircuitParams(
        e_j0=PLANCK * 5e9,
        e_c=e_c,
        c_g=c_g,
        v0=1e-3,
        flux_ratio=0.0,
        length=length,
        cap_per_length=cap_per_length,
    )
    _, _, g = charge_qubit_map(circuit, cavity_freq)
    return circuit, cavity_freq, g


CHARGE_CIRCUIT, CHARGE_CAVITY_FREQ, CHARGE_G = _charge_circuit()

DESIGN_REALIZATIONS = ("method-a", "method-b", "atomic", "charge")

#: (attribute, span name, function) of every call a design point makes.
DESIGN_API = (
    ("solve_parameters", "protocol.solve_parameters", protocol.solve_parameters),
    ("schedule_method_a", "protocol.schedule_method_a", protocol.schedule_method_a),
    ("schedule_method_b", "protocol.schedule_method_b", protocol.schedule_method_b),
    ("schedule_atoms", "protocol.schedule_atoms", protocol.schedule_atoms),
    ("schedule_charge", "protocol.schedule_charge", protocol.schedule_charge),
    ("timing_budget", "protocol.timing_budget", protocol.timing_budget),
    ("dumps", "protocol.Schedule.dumps", protocol.Schedule.dumps),
    ("loads", "protocol.Schedule.loads", protocol.Schedule.loads),
    ("combined_evolution", "effective.combined_evolution", effective.combined_evolution),
    (
        "three_step_composition",
        "effective.three_step_composition",
        effective.three_step_composition,
    ),
    ("ideal_ntcp", "effective.ideal_ntcp", effective.ideal_ntcp),
    ("qubit_space", "hilbert.qubit_space", hilbert.qubit_space),
    ("gate_fidelity", "hilbert.gate_fidelity", hilbert.gate_fidelity),
)


def design_api(wrap=None) -> types.SimpleNamespace:
    """The calls a design point makes, optionally each passed through
    ``wrap(span_name, function)``."""
    return types.SimpleNamespace(
        **{
            attr: fn if wrap is None else wrap(name, fn)
            for attr, name, fn in DESIGN_API
        }
    )


def design_points(seed: int, count: int = DESIGN_POINTS) -> list[tuple]:
    """Seeded design points: n in 1..5, k in 0..2, omega/g in [8, 60],
    g/2pi in [5, 50] MHz (the charge circuit fixes its own g), cavity
    frequency in [6, 10] GHz, T1 in [5, 50] us, T2 in [1, 20] us and
    Q in [1e4, 1e6].  Realizations cycle in a fixed order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = rng.integers(1, 6, count)
    k = rng.integers(0, 3, count)
    ratio = rng.uniform(8.0, 60.0, count)
    g_hz = rng.uniform(5e6, 50e6, count)
    wc_hz = rng.uniform(6e9, 10e9, count)
    t1 = rng.uniform(5e-6, 50e-6, count)
    t2 = rng.uniform(1e-6, 20e-6, count)
    q = 10.0 ** rng.uniform(4.0, 6.0, count)
    return [
        (
            DESIGN_REALIZATIONS[i % len(DESIGN_REALIZATIONS)],
            int(n[i]),
            int(k[i]),
            float(ratio[i]),
            float(g_hz[i]),
            float(wc_hz[i]),
            float(t1[i]),
            float(t2[i]),
            float(q[i]),
        )
        for i in range(count)
    ]


def design_point(api: types.SimpleNamespace, point: tuple) -> tuple[float, float, bool]:
    """One design point: solve, schedule, both closed forms against the
    ideal gate, timing budget, schedule JSON round trip.  Returns
    (F combined, F literal three-step, round trip exact)."""
    realization, n, k, ratio, g_hz, wc_hz, t1, t2, q = point
    wc = TWO_PI * wc_hz
    if realization == "charge":
        params = api.solve_parameters(CHARGE_G, k, ratio, n)
        wc = CHARGE_CAVITY_FREQ
        schedule = api.schedule_charge(params, CHARGE_CIRCUIT, wc, 50.0)
    else:
        params = api.solve_parameters(TWO_PI * g_hz, k, ratio, n)
        if realization == "method-a":
            schedule = api.schedule_method_a(params, None, wc)
        elif realization == "method-b":
            schedule = api.schedule_method_b(params, 50.0, wc)
        else:
            schedule = api.schedule_atoms(params, 1e-6, 1e-6)
    qspace = api.qubit_space(n + 1)
    ideal = api.ideal_ntcp(n).matrix
    f_combined = api.gate_fidelity(api.combined_evolution(qspace, params).matrix, ideal)
    f_literal = api.gate_fidelity(api.three_step_composition(qspace, params).matrix, ideal)
    api.timing_budget(schedule, t1, t2, q, wc)
    text = api.dumps(schedule)
    exact = api.dumps(api.loads(text)) == text
    return f_combined, f_literal, exact


def design_scan(api: types.SimpleNamespace, points: list[tuple]) -> list[tuple]:
    """One timed operation: every point of the scan, in order."""
    return [design_point(api, point) for point in points]


def check_design(results: list[tuple[float, float, bool]]):
    """Returns (deviations 1 - F, failures) over a scan."""
    deviations, failures = [], []
    for index, (f_combined, f_literal, exact) in enumerate(results):
        for name, f in (("combined", f_combined), ("three-step", f_literal)):
            dev = abs(1.0 - f)
            deviations.append(dev)
            if not dev <= CLOSED_FORM_WINDOW:
                failures.append(f"point {index} {name}: 1 - F = {dev:.3e} > {CLOSED_FORM_WINDOW:g}")
        if not exact:
            failures.append(f"point {index}: Schedule dumps/loads round trip is not exact")
    return deviations, failures
