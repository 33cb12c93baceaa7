"""Tests for the adaptive midpoint-exponential propagator."""

import math

import numpy as np
import pytest
from conftest import rwa_hamiltonian

from cavityphase.effective import factorized_propagator
from cavityphase.errors import (
    DimensionMismatchError,
    StepBudgetExceededError,
    TruncationWarning,
)
from cavityphase.hilbert import (
    SIGMA_X,
    OperatorMatrix,
    StateVector,
    fock_state,
    make_space,
    product_state,
    qubit_basis_state,
    qubit_space,
)
from cavityphase.integrator import (
    PropagationResult,
    TimeDependentHamiltonian,
    compose,
    evolve_state,
    propagate,
)

TWO_PI = 2.0 * math.pi


def expmi(h, dt=1.0):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * dt * w)) @ v.conj().T


class TestPropagate:
    def test_time_independent(self):
        space = qubit_space(2)
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h0 = m + m.conj().T
        h = TimeDependentHamiltonian(space, lambda t: h0, 0.0)
        r = propagate(h, 0.0, 1.3, 1e-10)
        assert np.max(np.abs(r.propagator.entries - expmi(h0, 1.3))) < 1e-10

    def test_resonant_rabi_rotation(self):
        space = qubit_space(1)
        omega = 3.0
        h = TimeDependentHamiltonian(space, lambda t: 0.5 * omega * SIGMA_X, omega)
        span = 0.8
        r = propagate(h, 0.0, span, 1e-10)
        theta = 0.5 * omega * span
        exact = np.array(
            [[np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]]
        )
        assert np.max(np.abs(r.propagator.entries - exact)) < 1e-10

    def test_matches_factorized_propagator_on_inner_block(self):
        # Strong-drive rotated frame over one revival period.  The closed
        # form uses the untruncated ladder algebra, so the comparison is
        # meaningful away from the truncation wall; the top Fock levels
        # carry an O(g^2/delta^2) anomaly checked elsewhere.
        g, delta = 0.1, -1.0
        space = make_space(1, 6)
        tau = TWO_PI / abs(delta)
        r = propagate(rwa_hamiltonian(space, g, delta), 0.0, tau, 1e-7)
        closed = factorized_propagator(space, g, delta, tau)
        diff = np.abs(r.propagator.entries - closed.entries)
        cd = space.cavity_dim
        inner = (np.arange(space.dim) % cd) <= cd - 4
        assert np.max(diff[np.ix_(inner, inner)]) < 1e-6

    def test_unitarity_defect_within_tolerance(self):
        g, delta = 0.3, -1.0
        space = make_space(1, 3)
        tol = 1e-6
        r = propagate(rwa_hamiltonian(space, g, delta), 0.0, 2.0, tol)
        assert r.max_unitarity_defect < 10 * tol

    def test_halving_tolerance_does_not_hurt(self):
        # commuting time dependence gives an exact reference free of
        # truncation artefacts: H(t) = cos(w t) sx, U = exp(-i sin(w T)/w sx)
        space = qubit_space(1)
        w = 2.0
        h = TimeDependentHamiltonian(space, lambda t: np.cos(w * t) * SIGMA_X, w)
        span = 3.0
        exact = expmi(SIGMA_X, math.sin(w * span) / w)
        devs = []
        for tol in (2e-4, 1e-4):
            r = propagate(h, 0.0, span, tol)
            devs.append(np.max(np.abs(r.propagator.entries - exact)))
        assert devs[1] <= devs[0]

    def test_tolerance_range_enforced(self):
        h = TimeDependentHamiltonian(qubit_space(1), lambda t: SIGMA_X, 0.0)
        with pytest.raises(ValueError):
            propagate(h, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            propagate(h, 1.0, 0.5, 1e-8)

    def test_step_budget_exceeded(self):
        g, delta = 0.5, -1.0
        space = make_space(1, 3)
        with pytest.raises(StepBudgetExceededError) as err:
            propagate(rwa_hamiltonian(space, g, delta), 0.0, 50.0, 1e-8, step_budget=30)
        assert err.value.partial is not None


class TestEvolveState:
    def test_zero_hamiltonian(self):
        space = make_space(1, 2)
        h = TimeDependentHamiltonian(
            space, lambda t: np.zeros((space.dim, space.dim), dtype=complex), 0.0
        )
        psi0 = product_state(qubit_basis_state(space, [0]), fock_state(2, 1))
        psi1 = evolve_state(h, psi0, 0.0, 2.0, 1e-8)
        assert np.max(np.abs(psi1.amplitudes - psi0.amplitudes)) < 1e-12

    def test_consistent_with_propagate(self):
        g, delta = 0.4, -1.0
        space = make_space(1, 3)
        h = rwa_hamiltonian(space, g, delta)
        rng = np.random.default_rng(6)
        psi0 = StateVector.normalized(
            space, rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        )
        tol = 1e-7
        with pytest.warns(TruncationWarning):
            psi1 = evolve_state(h, psi0, 0.0, 1.7, tol)
        r = propagate(h, 0.0, 1.7, tol)
        assert (
            np.max(np.abs(psi1.amplitudes - r.propagator.entries @ psi0.amplitudes))
            < 2 * tol
        )
        assert abs(psi1.norm - 1.0) < tol

    def test_top_level_start_raises_truncation_warning(self):
        g, delta = 0.4, -1.0
        space = make_space(1, 3)
        h = rwa_hamiltonian(space, g, delta)
        psi0 = product_state(qubit_basis_state(space, [0]), fock_state(3, 3))
        with pytest.warns(TruncationWarning):
            evolve_state(h, psi0, 0.0, 1.0, 1e-6)

    def test_space_mismatch(self):
        space = make_space(1, 2)
        other = make_space(1, 3)
        h = TimeDependentHamiltonian(
            space, lambda t: np.zeros((space.dim, space.dim), dtype=complex), 0.0
        )
        psi0 = product_state(qubit_basis_state(other, [0]), fock_state(3, 0))
        with pytest.raises(DimensionMismatchError):
            evolve_state(h, psi0, 0.0, 1.0, 1e-8)


class TestCompose:
    def _result(self, space, mat):
        return PropagationResult(
            propagator=OperatorMatrix(space, mat),
            step_count=1,
            max_unitarity_defect=1e-12,
            truncation_leakage=0.0,
        )

    def test_single_element(self):
        space = qubit_space(1)
        r = self._result(space, SIGMA_X)
        assert np.allclose(compose([r]).propagator.entries, SIGMA_X)

    def test_first_listed_applied_first(self):
        space = qubit_space(1)
        rng = np.random.default_rng(3)
        mats = []
        for _ in range(3):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(m)
            mats.append(q)
        total = compose([self._result(space, m) for m in mats]).propagator.entries
        assert np.max(np.abs(total - mats[2] @ mats[1] @ mats[0])) < 1e-13

    def test_inverse_pair_gives_identity(self):
        space = qubit_space(1)
        rng = np.random.default_rng(4)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(m)
        out = compose([self._result(space, q), self._result(space, q.conj().T)])
        assert np.max(np.abs(out.propagator.entries - np.eye(2))) < 1e-12
        assert out.max_unitarity_defect == pytest.approx(2e-12)

    def test_space_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(
                [
                    self._result(qubit_space(1), SIGMA_X),
                    self._result(qubit_space(2), np.eye(4)),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose([])
