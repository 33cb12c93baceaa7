"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Derived regression numbers were produced by ``scripts/freeze_regressions.py``
on the first verified run and are asserted within an absolute window of
1e-4, far below the physical effects under test but wide enough to absorb
BLAS variation across builds; the last test keeps that script importable.
Criteria 7-9 propagate schedules on the exact rotating-frame path;
criterion 6 integrates adaptively and takes most of the module's few
seconds.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_circuit, rwa_hamiltonian

from cavityphase.analysis import (
    LeakageSpec,
    cavity_robustness,
    leakage_probabilities,
    make_cavity_state,
    propagate_schedule,
    schedule_channel,
)
from cavityphase.effective import (
    combined_evolution,
    factorized_propagator,
    ideal_ntcnot,
    ideal_ntcp,
)
from cavityphase.hamiltonians import charge_qubit_map
from cavityphase.hilbert import (
    HADAMARD,
    SIGMA_X,
    OperatorMatrix,
    channel_fidelity,
    embed_qubit_op,
    gate_fidelity,
    make_space,
    qubit_space,
)
from cavityphase.integrator import propagate
from cavityphase.protocol import (
    schedule_atoms,
    schedule_charge,
    schedule_method_a,
    schedule_method_b,
    solve_parameters,
)

TWO_PI = 2.0 * math.pi


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num:02d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_parameter_reproduction():
    """Reference drive/timing numbers from g/2pi = 22 MHz, k = 0,
    omega = 15 g, n = 2, each within 1%."""
    params = solve_parameters(TWO_PI * 22e6, 0, 15, 2)
    got = {
        "omega_prime_mhz": params.omega_prime / TWO_PI / 1e6,
        "omega1_mhz": params.omega1 / TWO_PI / 1e6,
        "omega_r_mhz": params.omega_r / TWO_PI / 1e6,
        "t_op_ns": params.t_op * 1e9,
    }
    want = {
        "omega_prime_mhz": 330.0,
        "omega1_mhz": 352.0,
        "omega_r_mhz": 11.0,
        "t_op_ns": 68.2,
    }
    ok = all(abs(got[k] - want[k]) <= 0.01 * want[k] for k in want)
    _report(
        1,
        "parameter reproduction",
        ok,
        ", ".join(f"{k} = {got[k]:.4g} (want {want[k]:g} +- 1%)" for k in want),
    )


def test_criterion_02_flux_endpoints():
    """Transition frequency exactly zero at half flux quantum and
    4 E_J0 / h = 20 GHz at zero flux."""
    wc = TWO_PI * 10e9
    w0_half, _, _ = charge_qubit_map(reference_circuit(flux_ratio=0.5), wc)
    w0_zero, _, _ = charge_qubit_map(reference_circuit(flux_ratio=0.0), wc)
    nu0 = w0_zero / TWO_PI
    # "exact" up to float rounding of the h/hbar arithmetic (a few ulp)
    ok = w0_half == 0.0 and abs(nu0 - 20e9) <= 1e-12 * 20e9
    _report(
        2,
        "flux endpoints",
        ok,
        f"nu0(1/2) = {w0_half / TWO_PI!r} Hz, nu0(0) = {nu0!r} Hz",
    )


def test_criterion_03_atom_lifetime_and_flags():
    """Photon lifetime Q / omega_c = 622 us within 0.5% for Q = 2e8 at
    51.2 GHz; the quoted 65 us and 794 ns figures are flagged as
    documented discrepancies, not matched."""
    kappa_inv = 2e8 / (TWO_PI * 51.2e9)
    lifetime_ok = abs(kappa_inv - 622e-6) <= 0.005 * 622e-6

    params = solve_parameters(TWO_PI * 50e3, 0, 15, 2)
    atomic = schedule_atoms(params, tau_a=1e-6, tau_m=1e-6)
    atom_flagged = any("65" in w for w in atomic.warnings)
    # the computed wall time is 35 us, i.e. the 65 us figure is not matched
    not_matched = abs(atomic.wall_time - 65e-6) > 0.2 * 65e-6

    charge_params = solve_parameters(TWO_PI * 22e6, 0, 15, 2)
    charge = schedule_charge(charge_params, reference_circuit(), TWO_PI * 10e9)
    charge_flagged = any("794" in w for w in charge.warnings)
    # Q/omega_c at Q = 1e5, 10 GHz is 1.59 us, not 794 ns
    alt = 1e5 / (TWO_PI * 10e9)
    inconsistent = abs(alt - 794e-9) > 0.5 * 794e-9

    ok = lifetime_ok and atom_flagged and not_matched and charge_flagged and inconsistent
    _report(
        3,
        "atom-case lifetime",
        ok,
        f"kappa^-1 = {kappa_inv * 1e6:.2f} us (want 622 +- 0.5%), wall time "
        f"{atomic.wall_time * 1e6:.1f} us flagged = {atom_flagged}, charge "
        f"lifetime flag = {charge_flagged}",
    )


def test_criterion_04_leakage_formula():
    """Detuning ten times the coupling puts 4/104 of the population in the
    upper level, for both level-structure cases."""
    p2_l, p3_l = leakage_probabilities(LeakageSpec(case="L", g12=1.0, delta2=10.0))
    p2_s, p3_s = leakage_probabilities(
        LeakageSpec(case="S", g12=1.0, g13=1.0, delta2=10.0, delta3=10.0)
    )
    want = 4.0 / 104.0
    ok = (
        p2_l == pytest.approx(want, abs=1e-15)
        and p3_l is None
        and p2_s == pytest.approx(want, abs=1e-15)
        and p3_s == pytest.approx(want, abs=1e-15)
    )
    _report(4, "leakage formula", ok, f"p = {p2_l!r} (want 4/104 = {want!r})")


def test_criterion_05_effective_gate_identity():
    """Combined closed-form evolution equals the ideal gate to 1e-10 for
    n in 1..3 and k in 0..1."""
    worst = 0.0
    for n in (1, 2, 3):
        for k in (0, 1):
            params = solve_parameters(1.0, k, 15, n)
            comb = combined_evolution(qubit_space(n + 1), params)
            f = gate_fidelity(comb.matrix, ideal_ntcp(n).matrix)
            worst = max(worst, abs(f - 1.0))
    ok = worst < 1e-10
    _report(5, "effective-model gate identity", ok, f"worst |1 - F| = {worst:.2e}")


def test_criterion_06_factorization_oracle():
    """Time-ordered integration of the strong-drive rotated-frame
    Hamiltonian over one revival period matches the closed-form
    three-factor propagator within 1e-6 in operator max-norm (one qubit,
    comparison space cutoff 6, g = 0.1 |delta|).

    The integration oracle must be converged in the cavity truncation: at
    a shared cutoff the truncated ladder commutator puts an anomalous
    phase ~(cutoff+1) * lam * tau on the top Fock level (about 0.11 here),
    which measures the truncation wall rather than the factorization.  The
    oracle therefore runs at reference cutoff 12 - verified against cutoff
    16 - and is compared on the photon-number <= 6 block, where the
    closed form lives.
    """
    g, delta = 0.1, -1.0
    tau = TWO_PI / abs(delta)
    closed = factorized_propagator(make_space(1, 6), g, delta, tau)
    blocks = {}
    for ref_cutoff in (12, 16):
        big = make_space(1, ref_cutoff)
        r = propagate(rwa_hamiltonian(big, g, delta), 0.0, tau, 2e-7)
        cd = ref_cutoff + 1
        keep = (np.arange(big.dim) % cd) <= 6
        blocks[ref_cutoff] = r.propagator.entries[np.ix_(keep, keep)]
    converged = np.max(np.abs(blocks[12] - blocks[16]))
    residual = np.max(np.abs(blocks[12] - closed.entries))
    ok = residual < 1e-6 and converged < 1e-8
    _report(
        6,
        "factorization oracle",
        ok,
        f"max|integrated - closed| = {residual:.3e} (want < 1e-6), "
        f"cutoff 12 vs 16 agreement = {converged:.3e}",
    )


# Frozen on the first verified run (scripts/freeze_regressions.py):
# full-dynamics gate fidelities for n = 1, vacuum, cutoff 5, tol 1e-6.
CRITERION7_FROZEN = {
    10: 0.9810472408570098,
    15: 0.9860137038853212,
    50: 0.9995964497446741,
}


def test_criterion_07_strong_drive_convergence():
    """Full-dynamics gate fidelity improves monotonically with the drive
    strength (residual error is the dropped fast-oscillating coupling)."""
    ideal = ideal_ntcp(1)
    space = make_space(2, 5)
    vacuum, _ = make_cavity_state("vacuum", 5)
    fids = {}
    for ratio in (10, 15, 50):
        schedule = schedule_method_a(solve_parameters(1.0, 0, ratio, 1))
        prop = propagate_schedule(space, schedule, tol=1e-6)
        fids[ratio] = channel_fidelity(
            schedule_channel(prop.propagator, vacuum), ideal.matrix
        )
    monotone = fids[10] < fids[15] < fids[50]
    reproduced = all(
        abs(fids[r] - CRITERION7_FROZEN[r]) < 1e-4 for r in CRITERION7_FROZEN
    )
    ok = monotone and reproduced
    _report(
        7,
        "strong-drive convergence",
        ok,
        "fidelities " + ", ".join(f"{r}: {fids[r]:.7f}" for r in (10, 15, 50)),
    )


# Frozen on the first verified run: n = 1, ratio 50, cutoff 6, tol 1e-6.
CRITERION8_FROZEN = {
    "vacuum": 0.999594774039112,
    "fock:1": 0.9987911755782416,
    "coherent:1": 0.9994413443896866,
}
CRITERION8_SPREAD_BOUND = 1.2e-3  # measured 8.04e-4, frozen with headroom


def test_criterion_08_cavity_state_insensitivity():
    """Strongly driven gate fidelity is nearly independent of the initial
    cavity state; the spread is bounded by the frozen regression value."""
    schedule = schedule_method_a(solve_parameters(1.0, 0, 50, 1))
    result = cavity_robustness(
        schedule, ["vacuum", "fock:1", "coherent:1"], tol=1e-6, fock_cutoff=6
    )
    reproduced = all(
        abs(result.fidelities[label] - CRITERION8_FROZEN[label]) < 1e-4
        for label in CRITERION8_FROZEN
    )
    ok = reproduced and result.spread <= CRITERION8_SPREAD_BOUND
    _report(
        8,
        "cavity-state insensitivity",
        ok,
        f"spread = {result.spread:.3e} (bound {CRITERION8_SPREAD_BOUND:g}), "
        + ", ".join(f"{k}: {v:.6f}" for k, v in result.fidelities.items()),
    )


def test_criterion_09_method_equivalence():
    """Qubit-tuned and cavity-tuned schedules built from one parameter set
    produce the same full-dynamics propagator within ten times the
    integrator tolerance under ideal decoupling."""
    tol = 1e-5
    params = solve_parameters(1.0, 0, 15, 1)
    space = make_space(2, 5)
    prop_a = propagate_schedule(space, schedule_method_a(params), tol=tol)
    prop_b = propagate_schedule(space, schedule_method_b(params), tol=tol)
    diff = np.max(np.abs(prop_a.propagator.entries - prop_b.propagator.entries))
    ok = diff <= 10 * tol
    _report(
        9,
        "method equivalence",
        ok,
        f"max|U_A - U_B| = {diff:.3e} (want <= {10 * tol:g})",
    )


def test_criterion_10_ntcnot_equivalence():
    """The controlled-NOT construction equals the Hadamard sandwich of the
    phase gate exactly for n <= 4, and for one target equals the standard
    CNOT up to global phase (4x4 multiplication oracle)."""
    worst_sandwich = 0.0
    worst_independent = 0.0
    for n in (1, 2, 3, 4):
        h1 = embed_qubit_op(qubit_space(n + 1), 1, HADAMARD).entries
        sandwich = h1 @ ideal_ntcp(n).matrix.entries @ h1
        worst_sandwich = max(
            worst_sandwich, np.max(np.abs(ideal_ntcnot(n).matrix.entries - sandwich))
        )
        flip = np.array([[1.0]])
        for _ in range(n):
            flip = np.kron(flip, SIGMA_X)
        dim = 2**n
        controlled = np.zeros((2 * dim, 2 * dim), dtype=complex)
        controlled[:dim, :dim] = np.eye(dim)
        controlled[dim:, dim:] = flip
        worst_independent = max(
            worst_independent,
            np.max(np.abs(ideal_ntcnot(n).matrix.entries - controlled)),
        )
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    f_cnot = gate_fidelity(
        ideal_ntcnot(1).matrix, OperatorMatrix(qubit_space(2), cnot)
    )
    ok = worst_sandwich == 0.0 and worst_independent < 1e-12 and abs(f_cnot - 1) < 1e-12
    _report(
        10,
        "controlled-NOT equivalence",
        ok,
        f"sandwich diff = {worst_sandwich:.1e}, independent-construction "
        f"diff = {worst_independent:.1e}, CNOT fidelity = {f_cnot:.12f}",
    )


def test_freeze_script_imports_with_the_shared_rwa_builder():
    """``scripts/freeze_regressions.py`` loads without running and uses the
    suite's single strong-drive builder."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "freeze_regressions.py"
    spec = importlib.util.spec_from_file_location("freeze_regressions", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.rwa_hamiltonian is rwa_hamiltonian
    assert all(callable(getattr(module, f"criterion{i}")) for i in (6, 7, 8))
