"""Batch command-line front end.

Subcommands
-----------

``solve``     print the solved parameter table with condition tags and
              write it as JSON.
``simulate``  run one experiment and write a JSON gate report.
``sweep``     run a parameter grid and write a CSV, one row per point.
``report``    pretty-print a stored JSON gate report.

Common flags: ``--config PATH`` (JSON, required except for ``report``),
``--out DIR`` (output directory, created if missing, default ``./out``),
``--jobs N`` (parallel sweep points), ``--seed N`` and ``--tol X``
(override the config).

Exit codes: 0 success, 1 usage or parse failure, 2 violated protocol
conditions, 3 integration step budget exceeded.

Config file schema (flat JSON, frequencies in Hz)
-------------------------------------------------

=======================  ==========================================================
key                      meaning (default)
=======================  ==========================================================
realization              method-a | method-b | charge | atomic  (method-a)
n                        number of target qubits (1)
g_hz                     qubit-cavity coupling g/2pi (2.2e7)
omega_ratio              drive strength omega/g (15)
k                        phase parity index, detuning = -2g/sqrt(2k+1)  (0)
g_prime_hz               second-step coupling, defaults to g_hz
fock_cutoff              retained cavity levels minus one (5)
tol                      integrator tolerance (1e-6)
cavity_states            list of labels: vacuum, fock:M, coherent:A, thermal:N
decouple_factor          null for ideal decoupling, or Delta/g (null)
seed                     seed for randomized analyses (0)
cavity_freq_hz           resonator frequency (null; required for charge)
q_factor                 loaded resonator quality factor (null)
t1_s, t2_s               qubit relaxation/dephasing times (null)
circuit                  charge-circuit parameters (null), keys: e_j0, e_c,
                         c_g, v0, flux_ratio, v0_qu, length, cap_per_length
tau_a_s, tau_m_s         atomic retune / shuttle times (1e-6 each)
rabi_deviation_fraction  per-qubit Rabi spread for sensitivity stats (0)
rabi_deviation_trials    sensitivity sample count (0 = skip)
leakage_case             L or S (L)
leakage_detuning_ratio   leakage estimate detuning over g (10)
sweep                    list of axes: {"parameter", "values"} or
                         {"parameter", "start", "stop", "count"}
=======================  ==========================================================

The timing budget is computed when t1_s, t2_s, q_factor and cavity_freq_hz
are all present.  Sweepable parameters: omega_ratio, k, n, g_hz,
fock_cutoff.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

from .analysis import ConfigError, ExperimentConfig, run_experiment, run_sweep
from .errors import (
    CavityPhaseError,
    InconsistentParametersError,
    StepBudgetExceededError,
)
from .protocol import TWO_PI, solve_parameters

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONDITIONS = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every
    ``main`` call in the process (parsing leaves it unchanged)."""
    parser = _Parser(prog="cavityphase", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        p.add_argument("--config", required=needs_config, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--tol", type=float, default=None, help="override config tol")

    p_solve = sub.add_parser("solve", help="solve protocol parameters")
    add_common(p_solve)

    p_sim = sub.add_parser("simulate", help="run one experiment, write report JSON")
    add_common(p_sim)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid, write CSV")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="concurrent grid points (default 1)"
    )

    p_report = sub.add_parser("report", help="pretty-print a stored report")
    p_report.add_argument("path", help="report JSON file")
    return parser


def _load_config(args) -> ExperimentConfig:
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    config = ExperimentConfig.from_dict(data)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tol is not None:
        overrides["tol"] = args.tol
    return config.replace(**overrides) if overrides else config


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(value) -> str:
    """Deterministic scalar formatting for CSV cells."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _print_param_table(params) -> None:
    d = params.to_dict()
    rows = [
        ("n (targets)", str(d["n"])),
        ("k (parity index)", str(d["k"])),
        ("g/2pi", f"{d['g_hz'] / 1e6:.6g} MHz"),
        ("g'/2pi", f"{d['g_prime_hz'] / 1e6:.6g} MHz"),
        ("delta/2pi", f"{d['delta_rad_s'] / TWO_PI / 1e6:.6g} MHz"),
        ("delta'/2pi", f"{d['delta_prime_rad_s'] / TWO_PI / 1e6:.6g} MHz"),
        ("omega/2pi", f"{d['omega_hz'] / 1e6:.6g} MHz"),
        ("omega'/2pi", f"{d['omega_prime_hz'] / 1e6:.6g} MHz"),
        ("omega1/2pi", f"{d['omega1_hz'] / 1e6:.6g} MHz"),
        ("omega_r/2pi", f"{d['omega_r_hz'] / 1e6:.6g} MHz"),
        ("tau", f"{d['tau_s'] * 1e9:.6g} ns"),
        ("tau'", f"{d['tau_prime_s'] * 1e9:.6g} ns"),
        ("t_op = 2 tau + tau'", f"{d['t_op_s'] * 1e9:.6g} ns"),
        ("lambda/2pi", f"{d['lambda_rad_s'] / TWO_PI / 1e6:.6g} MHz"),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    print()
    for check in d["conditions"]:
        mark = "ok " if check["satisfied"] else "VIOLATED"
        print(f"[{mark}] {check['tag']}: {check['detail']}")


def _cmd_solve(args) -> int:
    config = _load_config(args)
    g = TWO_PI * config.g_hz
    g_prime = None if config.g_prime_hz is None else TWO_PI * config.g_prime_hz
    params = solve_parameters(g, config.k, config.omega_ratio, config.n, g_prime)
    _print_param_table(params)
    out = _out_dir(args)
    path = out / "params.json"
    path.write_text(json.dumps(params.to_dict(), indent=2) + "\n")
    print(f"\nwrote {path}")
    return EXIT_CONDITIONS if params.violated_tags else EXIT_OK


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    report = run_experiment(config)
    out = _out_dir(args)
    path = out / "report.json"
    path.write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    print(f"effective fidelity: {report.effective_fidelity:.12f}")
    for label, fid in report.full_fidelities.items():
        print(f"full fidelity [{label}]: {fid:.12f}")
    print(f"fidelity spread: {report.fidelity_spread:.3e}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    print(f"wrote {path}")
    violated = [
        c["tag"] for c in report.params["conditions"] if not c["satisfied"]
    ]
    return EXIT_CONDITIONS if violated else EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    header, rows = run_sweep(config, jobs=max(1, args.jobs))
    out = _out_dir(args)
    path = out / "sweep.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_report(args) -> int:
    path = Path(args.path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"report {path} is not valid JSON: {exc.msg}") from exc
    print(f"report: {path}")
    params = data.get("params", {})
    print(f"  targets n = {params.get('n')}, parity k = {params.get('k')}")
    print(f"  g/2pi = {params.get('g_hz', 0) / 1e6:.6g} MHz")
    print(f"  t_op = {params.get('t_op_s', 0) * 1e9:.6g} ns")
    print(f"  effective fidelity = {data.get('effective_fidelity'):.12f}")
    for label, fid in sorted(data.get("full_fidelities", {}).items()):
        print(f"  full fidelity [{label}] = {fid:.12f}")
    print(f"  spread = {data.get('fidelity_spread'):.3e}")
    leak = data.get("leakage", {})
    p3 = leak.get("p3")
    p3_text = "-" if p3 is None else f"{p3:.4g}"
    print(f"  leakage ({leak.get('kind')}, case {leak.get('case')}): p2 = {leak.get('p2'):.4g}, p3 = {p3_text}")
    timing = data.get("timing")
    if timing:
        print(f"  t_op = {timing['t_op_s']:.4g} s, kappa^-1 = {timing['kappa_inv_s']:.4g} s")
        for name, value in sorted(timing.get("margins", {}).items()):
            print(f"  margin {name}: {value:.3g}")
    for warning in data.get("warnings", ()):
        print(f"  warning: {warning}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "report":
            return _cmd_report(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        field = f" (field: {exc.field_name})" if getattr(exc, "field_name", None) else ""
        print(f"config error: {exc}{field}", file=sys.stderr)
        return EXIT_USAGE
    except StepBudgetExceededError as exc:
        print(f"integration budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InconsistentParametersError as exc:
        print(f"violated conditions: {exc}", file=sys.stderr)
        return EXIT_CONDITIONS
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CavityPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
