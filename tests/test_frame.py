"""Exact rotating-frame propagation checked against the adaptive oracle.

Every step Hamiltonian a schedule produces declares its rotating frame and
is propagated exactly; ``dataclasses.replace(h, frame=None)`` sends the same
Hamiltonian through the adaptive integrator, which is the reference here.
Adaptive runs stay cheap: cutoff <= 3 and tolerance >= 1e-3.

The last test closes the chain to the closed forms: in the frame of its
own drive, the exact step-one propagator tends to the strong-drive RWA
propagator as the drive grows (criterion 6 checks that RWA propagator
against adaptive integration of the RWA Hamiltonian).
"""

import dataclasses
import math

import numpy as np
import pytest
from conftest import reference_circuit
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityphase.analysis import propagate_schedule, step_hamiltonian
from cavityphase.effective import factorized_propagator
from cavityphase.errors import DimensionMismatchError, TruncationWarning
from cavityphase.hamiltonians import collective_ops
from cavityphase.hilbert import StateVector, make_space
from cavityphase.integrator import (
    TimeDependentHamiltonian,
    evolve_state,
    propagate,
)
from cavityphase.protocol import (
    Schedule,
    schedule_atoms,
    schedule_charge,
    schedule_method_a,
    schedule_method_b,
    solve_parameters,
)

TWO_PI = 2.0 * math.pi
TOL = 1e-3


def make_schedule(realization, n, decouple_factor=None, omega_ratio=15.0, k=0):
    if realization == "charge":
        params = solve_parameters(TWO_PI * 22e6, k, omega_ratio, n)
        return schedule_charge(params, reference_circuit(), TWO_PI * 10e9, decouple_factor)
    params = solve_parameters(1.0, k, omega_ratio, n)
    if realization == "method-a":
        return schedule_method_a(params, decouple_factor)
    if realization == "method-b":
        return schedule_method_b(params, decouple_factor)
    return schedule_atoms(params, tau_a=0.0, tau_m=0.0)


def frame_vs_adaptive(h, t0, t1):
    """max|U_frame - U_adaptive| over ``[t0, t1]``, adaptive at ``TOL``."""
    exact = propagate(h, t0, t1, TOL)
    oracle = propagate(dataclasses.replace(h, frame=None), t0, t1, TOL)
    assert exact.paths == (("frame", 1),)
    assert oracle.paths[0][0] == "adaptive"
    return float(np.max(np.abs(exact.propagator.entries - oracle.propagator.entries)))


@pytest.mark.parametrize(
    "realization, n, decouple_factor, scales, cutoff",
    [
        ("method-a", 1, None, None, 3),
        ("method-a", 3, None, (1.04, 0.97, 1.02, 0.99), 1),
        ("method-b", 1, 37.5, (0.96, 1.03), 3),
        ("method-b", 2, 50, None, 2),
        ("charge", 1, 50, None, 2),
        ("charge", 2, None, (1.02, 0.98, 1.01), 2),
        ("atomic", 1, None, (1.05, 0.95), 3),
        ("atomic", 2, None, None, 2),
    ],
)
def test_frame_matches_adaptive_on_every_schedule_step(
    realization, n, decouple_factor, scales, cutoff
):
    schedule = make_schedule(realization, n, decouple_factor)
    space = make_space(n + 1, cutoff)
    for step in schedule.steps:
        h = step_hamiltonian(space, step, scales)
        assert h.frame is not None
        assert frame_vs_adaptive(h, 0.0, step.duration) <= TOL


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3),
    omega_ratio=st.floats(10.0, 50.0),
    k=st.integers(0, 2),
    decouple_factor=st.one_of(st.none(), st.floats(10.0, 50.0)),
    scales=st.lists(st.floats(0.9, 1.1), min_size=4, max_size=4),
    step_index=st.integers(0, 2),
    start=st.floats(0.0, 0.75),
    width=st.floats(0.05, 0.25),
)
def test_frame_matches_adaptive_on_any_subinterval(
    n, omega_ratio, k, decouple_factor, scales, step_index, start, width
):
    # a sub-interval away from the step start also exercises the shift
    # H(t) = exp(i G (t - t0)) H(t0) exp(-i G (t - t0)) at t0 != 0
    schedule = make_schedule("method-b", n, decouple_factor, omega_ratio, k)
    step = schedule.steps[step_index]
    space = make_space(n + 1, 2 if n < 3 else 1)
    h = step_hamiltonian(space, step, scales[: n + 1])
    t0 = start * step.duration
    assert frame_vs_adaptive(h, t0, t0 + width * step.duration) <= TOL


def test_builder_agrees_with_the_rotated_initial_hamiltonian():
    schedule = make_schedule("method-b", 2, 50)
    space = make_space(3, 2)
    for step in schedule.steps:
        h = step_hamiltonian(space, step, (1.03, 0.98, 1.0))
        for t0, t in ((0.0, 0.37 * step.duration), (0.2 * step.duration, 0.9 * step.duration)):
            phase = np.exp(1j * (t - t0) * h.frame)
            rotated = phase[:, None] * h(t0) * phase.conj()
            assert np.max(np.abs(h(t) - rotated)) <= 1e-12 * np.max(np.abs(h(t0)))


def test_frame_path_calls_the_builder_at_the_midpoint_then_the_start():
    step = make_schedule("method-a", 1).steps[0]
    h = step_hamiltonian(make_space(2, 2), step)
    calls = []

    def counted(t):
        calls.append(t)
        return h.builder(t)

    result = propagate(dataclasses.replace(h, builder=counted), 0.1, 0.9, TOL)
    assert calls == [0.5, 0.1]
    assert result.step_count == 1
    assert result.max_unitarity_defect < 1e-12


def test_evolve_state_uses_the_frame_path():
    step = make_schedule("method-b", 1, 50).steps[1]
    space = make_space(2, 2)
    h = step_hamiltonian(space, step)
    rng = np.random.default_rng(7)
    psi0 = StateVector.normalized(
        space, rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    )
    with pytest.warns(TruncationWarning):  # a random state fills the top level
        psi1 = evolve_state(h, psi0, 0.0, step.duration, TOL)
    u = propagate(h, 0.0, step.duration, TOL).propagator.entries
    assert np.max(np.abs(psi1.amplitudes - u @ psi0.amplitudes)) < 1e-12


def test_unequal_driven_detunings_fall_back_to_adaptive():
    # only a hand-edited schedule can drive coupled qubits at two detunings
    data = make_schedule("method-a", 1).to_json_dict()
    data["steps"][0]["qubits"][1]["detuning_hz"] *= 1.1
    schedule = Schedule.from_json_dict(data)
    space = make_space(2, 2)
    assert step_hamiltonian(space, schedule.steps[0]).frame is None
    assert step_hamiltonian(space, schedule.steps[1]).frame is not None
    result = propagate_schedule(space, schedule, tol=TOL)
    paths = [path for path, _ in result.paths]
    assert paths == ["adaptive", "frame", "frame"]
    assert result.step_count == result.paths[0][1] + 2
    assert result.max_unitarity_defect < 1e-9


def test_wrong_frame_is_rejected():
    step = make_schedule("method-b", 1, 50).steps[1]
    h = step_hamiltonian(make_space(2, 2), step)
    wrong = dataclasses.replace(h, frame=1.01 * h.frame)
    with pytest.raises(ValueError, match="declared frame"):
        propagate(wrong, 0.0, step.duration, TOL)
    with pytest.raises(DimensionMismatchError):
        TimeDependentHamiltonian(h.space, h.builder, h.max_frequency, h.frame[:-1])


@pytest.mark.parametrize("n", [1, 2])
def test_step_one_in_the_drive_frame_tends_to_the_rwa_closed_form(n):
    # U_rot = exp(+i H1 T) U with H1 = -(Omega/2) S_x, the phase-pi drive,
    # keeps the coupling's fast e^{+-i Omega t} terms that the RWA drops;
    # their effect falls as omega/g grows.  Compared on the photon-number
    # <= 6 block, away from the cutoff-20 truncation wall.  Step one lasts
    # T = pi/g, so Omega T / 2 = (omega/g) pi/2: at integer omega/g the
    # drive rotation is real on every S_x eigenspace of one target and
    # its sign would go unchecked; half-integer ratios keep it complex.
    space = make_space(n + 1, 20)
    _, _, _, s_x = collective_ops(space, range(1, n + 2))
    sx_vals, sx_vecs = np.linalg.eigh(s_x.entries)
    keep = (np.arange(space.dim) % space.cavity_dim) <= 6
    deviations = []
    for ratio in (10.5, 50.5, 200.5):
        step = schedule_method_a(solve_parameters(1.0, 0, ratio, n)).steps[0]
        q, tau = step.qubits[0], step.duration
        result = propagate(step_hamiltonian(space, step), 0.0, tau, TOL)
        assert result.paths == (("frame", 1),)
        undrive = (sx_vecs * np.exp(-0.5j * q.drive_rabi * tau * sx_vals)) @ sx_vecs.conj().T
        rotated = (undrive @ result.propagator.entries)[np.ix_(keep, keep)]
        closed = factorized_propagator(make_space(n + 1, 6), q.coupling, q.detuning, tau)
        deviations.append(float(np.max(np.abs(rotated - closed.entries))))
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[2] < 0.1
