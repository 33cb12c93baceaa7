"""Tests for the closed-form propagators, step gates, their combination,
and the ideal gate targets."""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from cavityphase.effective import (
    _IDEAL_CACHE_SIZE,
    _pairwise_sx,
    _sx_values,
    _xor_index,
    ab_coefficients,
    combined_evolution,
    effective_hamiltonian,
    effective_step1,
    effective_step2,
    effective_step3,
    factorized_propagator,
    ideal_ntcnot,
    ideal_ntcp,
    three_step_composition,
)
from cavityphase.errors import SingularDetuningError, WrongCaseError
from cavityphase.hilbert import (
    HADAMARD,
    SIGMA_X,
    basis_bits,
    embed_qubit_op,
    gate_fidelity,
    make_space,
    qubit_space,
    unitarity_defect,
    x_basis_transform,
)
from cavityphase.protocol import ParamSet, solve_parameters

TWO_PI = 2.0 * math.pi


def mismatched(params: ParamSet, factor: float) -> ParamSet:
    """Scale the second-step Rabi frequency, breaking the matching."""
    return ParamSet(
        g=params.g,
        g_prime=params.g_prime,
        delta=params.delta,
        delta_prime=params.delta_prime,
        omega=params.omega,
        omega_prime=factor * params.omega_prime,
        omega1=params.omega1,
        omega_r=params.omega_r,
        k=params.k,
        n=params.n,
    )


def x_diag_oracle_fidelity(p: ParamSet, n: int) -> float:
    """Scalar-arithmetic fidelity oracle: every step gate is diagonal in
    the sigma-x product basis, so the three-step phase of each basis state
    can be accumulated without any matrix algebra."""
    total = 0.0 + 0.0j
    dim = 2 ** (n + 1)
    for signs in itertools.product((1, -1), repeat=n + 1):
        m = sum(signs)
        mp = sum(signs[1:])
        s1 = signs[0]
        phase = (
            (0.5 * p.omega * p.tau * m + p.lam * p.tau * m**2)
            - (0.5 * p.omega_prime * p.tau_prime * mp + p.lam_prime * p.tau_prime * mp**2)
            - (0.5 * p.omega1 * p.tau * s1 + 0.5 * p.omega_r * p.tau * mp)
        )
        ideal = -1.0 if (s1 == -1 and signs[1:].count(-1) % 2 == 1) else 1.0
        total += ideal * np.exp(1j * phase)
    return abs(total) / dim


class TestABCoefficients:
    def test_zero_at_time_zero(self):
        c = ab_coefficients(0.7, -1.3, 0.0)
        assert c.phase == 0 and c.displacement == 0

    def test_revival_time(self):
        g, delta = 0.4, -1.1
        tau = TWO_PI / abs(delta)
        c = ab_coefficients(g, delta, tau)
        assert abs(c.displacement) < 1e-14
        assert c.phase == pytest.approx(g**2 * tau / (4 * delta), abs=1e-14)
        assert abs(c.phase.imag) < 1e-14

    def test_against_quadrature_oracle(self):
        # Frozen from adaptive quadrature of the defining integrals
        # (g/2) int e^{i delta s} ds and i int B dB*/ds ds at
        # g = 1, delta = -2, t = 1 (epsabs = epsrel = 1e-14).
        c = ab_coefficients(1.0, -2.0, 1.0)
        assert c.displacement == pytest.approx(
            0.22732435670642043 - 0.3540367091367856j, abs=1e-10
        )
        assert c.phase == pytest.approx(
            -0.0681689108233949 + 0.08850917728419641j, abs=1e-10
        )

    def test_zero_detuning_rejected(self):
        with pytest.raises(SingularDetuningError):
            ab_coefficients(1.0, 0.0, 1.0)


class TestFactorizedPropagator:
    def test_identity_at_time_zero(self):
        space = make_space(2, 3)
        u = factorized_propagator(space, 0.5, -1.0, 0.0)
        assert np.max(np.abs(u.entries - np.eye(space.dim))) < 1e-14

    def test_revival_reduces_to_qubit_phase_gate(self):
        space = make_space(2, 4)
        g, delta = 0.3, -1.2
        tau = TWO_PI / abs(delta)
        lam = -(g**2) / (4 * delta)
        u = factorized_propagator(space, g, delta, tau)
        from cavityphase.hamiltonians import collective_ops

        _, _, _, s_x = collective_ops(qubit_space(2), [1, 2])
        w, v = np.linalg.eigh(s_x.entries)
        qubit_gate = (v * np.exp(1j * lam * tau * w**2)) @ v.conj().T
        expected = np.kron(qubit_gate, np.eye(space.cavity_dim))
        assert np.max(np.abs(u.entries - expected)) < 1e-13

    def test_revival_leaves_cavity_factor_invariant(self):
        # block-scalar structure on the cavity factor: no residual
        # qubit-cavity entanglement at the revival time
        space = make_space(1, 5)
        u = factorized_propagator(space, 0.25, -0.8, TWO_PI / 0.8).entries
        cd = space.cavity_dim
        blocks = u.reshape(2, cd, 2, cd)
        for i in range(2):
            for j in range(2):
                block = blocks[i, :, j, :]
                assert np.max(np.abs(block - block[0, 0] * np.eye(cd))) < 1e-13

    def test_unitary_at_revival(self):
        space = make_space(1, 6)
        u = factorized_propagator(space, 0.1, -1.0, TWO_PI)
        assert unitarity_defect(u) < 1e-12

    def test_midtime_defect_confined_to_top_levels(self):
        # away from revival the truncated ladder algebra leaves a
        # non-unitary residue at the top Fock levels only
        space = make_space(1, 6)
        u = factorized_propagator(space, 0.1, -1.0, 0.37 * TWO_PI).entries
        d = u.conj().T @ u - np.eye(space.dim)
        cd = space.cavity_dim
        inner = (np.arange(space.dim) % cd) < cd - 2
        assert np.max(np.abs(d[np.ix_(inner, inner)])) < 1e-5
        assert np.max(np.abs(d)) > 1e-3


class TestStepGates:
    def test_step1_wrong_sign_rejected(self):
        with pytest.raises(WrongCaseError):
            effective_step1(qubit_space(2), 1.0, 0.5, 10.0)

    def test_step1_zero_coupling_is_pure_rotation(self):
        space = qubit_space(2)
        omega, delta = 4.0, -1.0
        tau = TWO_PI / abs(delta)
        gate = effective_step1(space, 0.0, delta, omega)
        from cavityphase.hamiltonians import collective_ops

        _, _, _, s_x = collective_ops(space, [1, 2])
        w, v = np.linalg.eigh(s_x.entries)
        expected = (v * np.exp(1j * 0.5 * omega * tau * w)) @ v.conj().T
        assert np.max(np.abs(gate.matrix.entries - expected)) < 1e-12

    def test_step1_x_basis_eigenphases(self):
        g, delta, omega = 1.0, -2.0, 9.0
        tau = TWO_PI / abs(delta)
        lam = -(g**2) / (4 * delta)
        gate = effective_step1(qubit_space(2), g, delta, omega)
        diag = np.diag(gate.x_basis_matrix())
        # x-basis ordering (+,+), (+,-), (-,+), (-,-) -> m = 2, 0, 0, -2
        for idx, m in enumerate((2, 0, 0, -2)):
            expected = np.exp(1j * (0.5 * omega * tau * m + lam * tau * m**2))
            assert abs(diag[idx] - expected) < 1e-12
        off = gate.x_basis_matrix() - np.diag(diag)
        assert np.max(np.abs(off)) < 1e-12

    def test_step1_parity_point(self):
        # delta = -2g makes the pairwise phase 8 lam tau equal pi
        g = 1.0
        lam = -(g**2) / (4 * -2.0)
        tau = TWO_PI / 2.0
        assert 8 * lam * tau == pytest.approx(math.pi, rel=1e-12)

    def test_step2_wrong_sign_rejected(self):
        with pytest.raises(WrongCaseError):
            effective_step2(qubit_space(2), 1.0, -0.5, 10.0)

    def test_step2_acts_trivially_on_control(self):
        gate = effective_step2(qubit_space(3), 0.8, 1.6, 7.0)
        rng = np.random.default_rng(14)
        local = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        op1 = embed_qubit_op(qubit_space(3), 1, local).entries
        m = gate.matrix.entries
        assert np.max(np.abs(m @ op1 - op1 @ m)) < 1e-12
        # explicitly: the matrix is I_2 (x) (reduced gate on the targets)
        reduced = m.reshape(2, 4, 2, 4)
        assert np.max(np.abs(reduced[0, :, 1, :])) < 1e-14
        assert np.max(np.abs(reduced[0, :, 0, :] - reduced[1, :, 1, :])) < 1e-14

    def test_step2_zero_coupling(self):
        space = qubit_space(2)
        omega_p, delta_p = 5.0, 1.3
        tau_p = TWO_PI / delta_p
        gate = effective_step2(space, 0.0, delta_p, omega_p)
        from cavityphase.hamiltonians import collective_ops

        _, _, _, s_x_p = collective_ops(space, [2])
        w, v = np.linalg.eigh(s_x_p.entries)
        expected = (v * np.exp(-1j * 0.5 * omega_p * tau_p * w)) @ v.conj().T
        assert np.max(np.abs(gate.matrix.entries - expected)) < 1e-12

    def test_step2_sign_structure_opposite_to_step1(self):
        # with identical magnitudes the second-step gate on the targets is
        # the conjugate of the first-step gate built on the same subset
        g, mag, omega = 0.9, 1.4, 6.0
        space = qubit_space(2)
        u2 = effective_step2(space, g, mag, omega).x_basis_matrix()
        # step-1 phases on the target qubit alone: exp(+i(omega tau m/2 + lam tau m^2))
        tau = TWO_PI / mag
        lam = g**2 / (4 * mag)
        for idx, m in enumerate((1, -1)):  # target qubit x states within each control block
            expected = np.exp(-1j * (0.5 * omega * tau * m + lam * tau * m**2))
            assert abs(np.diag(u2)[idx] - expected) < 1e-12

    def test_step3_identity_when_undriven(self):
        gate = effective_step3(qubit_space(2), 0.0, 0.0, 1.7)
        assert np.max(np.abs(gate.matrix.entries - np.eye(4))) < 1e-14

    def test_step3_full_control_rotation_is_sign_flip(self):
        # omega1 tau = 2 pi rotates the control by a full turn, which is
        # -1 on the spin-half factor; the modulus fidelity ignores it
        tau = 1.0
        gate = effective_step3(qubit_space(2), TWO_PI, 0.0, tau)
        assert np.max(np.abs(gate.matrix.entries + np.eye(4))) < 1e-12

    def test_step3_factors_commute(self):
        space = qubit_space(3)
        omega1, omega_r, tau = 2.1, 0.7, 0.9
        both = effective_step3(space, omega1, omega_r, tau).matrix.entries
        only1 = effective_step3(space, omega1, 0.0, tau).matrix.entries
        onlyr = effective_step3(space, 0.0, omega_r, tau).matrix.entries
        assert np.max(np.abs(both - only1 @ onlyr)) < 1e-12
        assert np.max(np.abs(both - onlyr @ only1)) < 1e-12


class TestCombinedEvolution:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1])
    def test_matches_ideal_gate(self, n, k):
        params = solve_parameters(1.0, k, 15, n)
        comb = combined_evolution(qubit_space(n + 1), params)
        assert comb.warnings == ()
        f = gate_fidelity(comb.matrix, ideal_ntcp(n).matrix)
        assert abs(f - 1.0) < 1e-10

    def test_pairwise_diagonal_for_one_target(self):
        params = solve_parameters(1.0, 0, 15, 1)
        comb = combined_evolution(qubit_space(2), params)
        lam_tau = params.lam * params.tau
        expected = np.exp(-2j * lam_tau) * np.diag([1.0, 1.0, 1.0, -1.0])
        assert np.max(np.abs(comb.x_basis_matrix() - expected)) < 1e-12

    def test_pairwise_action_two_targets(self):
        # control |-> with exactly one target in |-> flips that branch sign
        params = solve_parameters(1.0, 0, 15, 2)
        comb = combined_evolution(qubit_space(3), params)
        diag = np.diag(comb.x_basis_matrix())
        phase = np.exp(-2j * params.lam * params.tau * 2)  # one factor per target pair
        signs = []
        for idx in range(8):
            bits = [(idx >> (2 - pos)) & 1 for pos in range(3)]
            signs.append(-1.0 if bits[0] == 1 and sum(bits[1:]) % 2 == 1 else 1.0)
        assert np.max(np.abs(diag - phase * np.array(signs))) < 1e-12

    def test_global_phase_links_combined_to_literal(self):
        params = solve_parameters(1.0, 1, 12, 2)
        comb = combined_evolution(qubit_space(3), params)
        literal = three_step_composition(qubit_space(3), params)
        diff = literal.matrix.entries - comb.global_phase * comb.matrix.entries
        assert np.max(np.abs(diff)) < 1e-12

    def test_violated_matching_lowers_fidelity(self):
        # 10% second-step Rabi mismatch at n = 2.  Expected fidelity frozen
        # from the scalar x-basis phase oracle below: 0.5.
        params = mismatched(solve_parameters(1.0, 0, 15, 2), 1.1)
        assert "rabi-matching" in params.violated_tags
        comb = combined_evolution(qubit_space(3), params)
        assert comb.warnings != ()
        f = gate_fidelity(comb.matrix, ideal_ntcp(2).matrix)
        assert f < 1.0 - 1e-6
        assert f == pytest.approx(0.5, abs=1e-9)
        assert f == pytest.approx(x_diag_oracle_fidelity(params, 2), abs=1e-12)

    def test_oracle_agrees_on_consistent_sets(self):
        for n, k in ((1, 0), (2, 1)):
            params = solve_parameters(1.0, k, 15, n)
            assert x_diag_oracle_fidelity(params, n) == pytest.approx(1.0, abs=1e-9)

    def test_sign_violation_warns_instead_of_raising(self):
        # flipped detuning signs are a condition violation, not an error:
        # the literal product is still returned, tagged
        base = solve_parameters(1.0, 0, 15, 1)
        flipped = ParamSet(
            g=base.g,
            g_prime=base.g_prime,
            delta=-base.delta,
            delta_prime=-base.delta_prime,
            omega=base.omega,
            omega_prime=base.omega_prime,
            omega1=base.omega1,
            omega_r=base.omega_r,
            k=base.k,
            n=base.n,
        )
        assert "detuning-sign" in flipped.violated_tags
        comb = combined_evolution(qubit_space(2), flipped)
        assert any("detuning-sign" in w for w in comb.warnings)
        assert unitarity_defect(comb.matrix) < 1e-10

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_parity_condition_yields_sign_flip(self, k):
        # delta = -2g / sqrt(2k+1) makes exp(i 8 lam tau) = -1
        g = 1.0
        delta = -2.0 * g / math.sqrt(2 * k + 1)
        lam = -(g**2) / (4 * delta)
        tau = TWO_PI / abs(delta)
        assert abs(np.exp(8j * lam * tau) + 1.0) < 1e-10


class TestIdealGates:
    def test_two_qubit_phase_gate(self):
        gate = ideal_ntcp(1)
        assert np.allclose(gate.x_basis_matrix(), np.diag([1, 1, 1, -1]), atol=1e-12)

    def test_control_plus_does_nothing(self):
        for n in (1, 2, 3):
            mat = ideal_ntcp(n).x_basis_matrix()
            dim_targets = 2**n
            upper = mat[:dim_targets, :dim_targets]
            assert np.allclose(upper, np.eye(dim_targets), atol=1e-12)

    def test_two_minus_targets_cancel(self):
        # |- - -> picks up (-1)^2 = +1 for n = 2
        mat = ideal_ntcp(2).x_basis_matrix()
        assert mat[7, 7] == pytest.approx(1.0, abs=1e-12)
        # single minus target flips
        assert mat[5, 5] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_involution(self, n):
        m = ideal_ntcp(n).matrix.entries
        assert np.max(np.abs(m @ m - np.eye(m.shape[0]))) < 1e-12

    def test_invalid_target_count(self):
        with pytest.raises(ValueError):
            ideal_ntcp(0)
        with pytest.raises(ValueError):
            ideal_ntcnot(0)

    def test_ntcnot_is_cnot_for_one_target(self):
        # frozen 4x4 oracle: multiplying (H x I) diag(1,1,1,-1)_x (H x I)
        # by hand gives the computational-basis controlled-NOT
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.max(np.abs(ideal_ntcnot(1).matrix.entries - cnot)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ntcnot_equals_controlled_target_flips(self, n):
        # independent construction: |0><0| (x) I + |1><1| (x) X^{(x)n}
        flip = np.array([[1.0]])
        for _ in range(n):
            flip = np.kron(flip, SIGMA_X)
        dim = 2**n
        expected = np.zeros((2 * dim, 2 * dim), dtype=complex)
        expected[:dim, :dim] = np.eye(dim)
        expected[dim:, dim:] = flip
        assert np.max(np.abs(ideal_ntcnot(n).matrix.entries - expected)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ntcnot_hadamard_sandwich(self, n):
        h1 = embed_qubit_op(qubit_space(n + 1), 1, HADAMARD).entries
        sandwich = h1 @ ideal_ntcp(n).matrix.entries @ h1
        assert np.max(np.abs(ideal_ntcnot(n).matrix.entries - sandwich)) == 0.0

    def test_ntcnot_self_inverse(self):
        m = ideal_ntcnot(2).matrix.entries
        assert np.max(np.abs(m @ m - np.eye(8))) < 1e-12


class TestEffectiveHamiltonian:
    @pytest.mark.parametrize("n, k", [(1, 0), (2, 0), (3, 1)])
    def test_exponential_reproduces_combined_gate(self, n, k):
        params = solve_parameters(1.0, k, 15, n)
        h = effective_hamiltonian(qubit_space(n + 1), n, params.lam)
        w, v = np.linalg.eigh(h.entries)
        u = (v * np.exp(-1j * params.tau * w)) @ v.conj().T
        comb = combined_evolution(qubit_space(n + 1), params)
        assert np.max(np.abs(u - comb.matrix.entries)) < 1e-12

    def test_pairwise_terms_commute_exactly(self):
        space = qubit_space(3)
        sx1 = embed_qubit_op(space, 1, SIGMA_X).entries
        terms = []
        for j in (2, 3):
            sxj = embed_qubit_op(space, j, SIGMA_X).entries
            terms.append(sx1 + sxj - sx1 @ sxj)
        comm = terms[0] @ terms[1] - terms[1] @ terms[0]
        assert np.max(np.abs(comm)) == 0.0

    def test_zero_strength_gives_zero_operator(self):
        h = effective_hamiltonian(qubit_space(2), 1, 0.0)
        assert np.max(np.abs(h.entries)) == 0.0


class TestUnitarity:
    def test_all_effective_gates_unitary(self):
        params = solve_parameters(1.0, 0, 15, 2)
        space = qubit_space(3)
        gates = [
            effective_step1(space, params.g, params.delta, params.omega),
            effective_step2(space, params.g_prime, params.delta_prime, params.omega_prime),
            effective_step3(space, params.omega1, params.omega_r, params.tau),
            combined_evolution(space, params),
            ideal_ntcp(2),
            ideal_ntcnot(2),
        ]
        for gate in gates:
            assert unitarity_defect(gate.matrix) < 1e-10


def random_params(rng, n: int, hard_ok: bool) -> ParamSet:
    """A parameter set with random frequencies.  With ``hard_ok`` it is
    the solved set at a random drive strength; otherwise every frequency
    is drawn independently, so the hard conditions (and sometimes the
    detuning signs) fail."""
    if hard_ok:
        return solve_parameters(
            rng.uniform(0.5, 2.0), int(rng.integers(0, 3)), rng.uniform(8.0, 40.0), n
        )
    return ParamSet(
        g=rng.uniform(0.5, 2.0),
        g_prime=rng.uniform(0.5, 2.0),
        delta=rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0),
        delta_prime=rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0),
        omega=rng.uniform(5.0, 40.0),
        omega_prime=rng.uniform(5.0, 40.0),
        omega1=rng.uniform(5.0, 40.0),
        omega_r=rng.uniform(0.5, 5.0),
        k=0,
        n=n,
    )


def dense_sx_gate(nq: int, included, linear: float, quadratic: float) -> np.ndarray:
    """exp(i (linear S_x + quadratic S_x^2)) by expm of the dense collective
    operator."""
    from cavityphase.hamiltonians import collective_ops

    _, _, _, s_x = collective_ops(qubit_space(nq), included)
    sx = s_x.entries
    return expm(1j * (linear * sx + quadratic * sx @ sx))


def dense_step3(nq: int, omega1: float, omega_r: float, tau: float) -> np.ndarray:
    from cavityphase.hamiltonians import h_step3

    return expm(-1j * tau * h_step3(qubit_space(nq), omega1, omega_r).entries)


def dense_literal_product(p: ParamSet) -> np.ndarray:
    nq = p.n + 1
    u1 = dense_sx_gate(nq, range(1, nq + 1), 0.5 * p.omega * p.tau, p.lam * p.tau)
    u2 = dense_sx_gate(
        nq,
        range(2, nq + 1),
        -0.5 * p.omega_prime * p.tau_prime,
        -p.lam_prime * p.tau_prime,
    )
    return dense_step3(nq, p.omega1, p.omega_r, p.tau) @ u2 @ u1


class TestDiagonalClosedFormsAgainstDenseRoute:
    """Every closed form is built from its sigma-x-basis phase vector;
    the dense route exponentiates the collective operators directly."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_step_gates(self, n):
        rng = np.random.default_rng(100 + n)
        nq = n + 1
        space = qubit_space(nq)
        for _ in range(3):
            g, omega = rng.uniform(0.5, 2.0), rng.uniform(5.0, 40.0)
            delta = -rng.uniform(0.5, 3.0)
            tau, lam = TWO_PI / abs(delta), -(g**2) / (4 * delta)
            expected = dense_sx_gate(nq, range(1, nq + 1), 0.5 * omega * tau, lam * tau)
            got = effective_step1(space, g, delta, omega).matrix.entries
            assert np.max(np.abs(got - expected)) < 1e-12

            delta_p = rng.uniform(0.5, 3.0)
            tau_p, lam_p = TWO_PI / delta_p, g**2 / (4 * delta_p)
            expected = dense_sx_gate(
                nq, range(2, nq + 1), -0.5 * omega * tau_p, -lam_p * tau_p
            )
            got = effective_step2(space, g, delta_p, omega).matrix.entries
            assert np.max(np.abs(got - expected)) < 1e-12

            omega1, omega_r = rng.uniform(5.0, 40.0), rng.uniform(0.5, 5.0)
            expected = dense_step3(nq, omega1, omega_r, tau)
            got = effective_step3(space, omega1, omega_r, tau).matrix.entries
            assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("hard_ok", [True, False])
    def test_three_step_composition(self, n, hard_ok):
        rng = np.random.default_rng(200 + n)
        for _ in range(3):
            p = random_params(rng, n, hard_ok)
            got = three_step_composition(qubit_space(n + 1), p).matrix.entries
            assert np.max(np.abs(got - dense_literal_product(p))) < 1e-12

    @pytest.mark.parametrize("n", range(1, 6))
    def test_combined_evolution_when_conditions_hold(self, n):
        rng = np.random.default_rng(300 + n)
        space = qubit_space(n + 1)
        for _ in range(3):
            p = random_params(rng, n, hard_ok=True)
            assert not p.violated_tags
            h = effective_hamiltonian(space, n, p.lam).entries
            got = combined_evolution(space, p)
            assert np.max(np.abs(got.matrix.entries - expm(-1j * p.tau * h))) < 1e-12
            # the recorded global phase links it to the literal product
            literal = dense_literal_product(p)
            assert np.max(np.abs(got.matrix.entries * got.global_phase - literal)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 6))
    def test_combined_evolution_when_conditions_fail(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(3):
            p = random_params(rng, n, hard_ok=False)
            assert p.violated_tags
            got = combined_evolution(qubit_space(n + 1), p)
            assert got.warnings
            assert np.max(np.abs(got.matrix.entries - dense_literal_product(p))) < 1e-12

    @pytest.mark.parametrize("n", range(1, 6))
    def test_ideal_ntcp_is_exact(self, n):
        nq = n + 1
        diag = np.ones(2**nq)
        for idx in range(2**nq):
            bits = [(idx >> (nq - 1 - pos)) & 1 for pos in range(nq)]
            if bits[0] == 1 and sum(bits[1:]) % 2 == 1:
                diag[idx] = -1.0
        w = x_basis_transform(nq)
        got = ideal_ntcp(n).matrix.entries
        assert np.max(np.abs(got - (w * diag) @ w)) < 1e-15
        # integer multiples of 2^-nq, with no round-off
        scaled = got * 2**nq
        assert np.array_equal(scaled, np.round(scaled.real))

    @pytest.mark.parametrize("nq", range(1, 6))
    def test_xor_index_is_cached_and_read_only(self, nq):
        index = _xor_index(nq)
        assert _xor_index(nq) is index
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 1
        dim = 2**nq
        assert index.tolist() == [[i ^ k for k in range(dim)] for i in range(dim)]

    @pytest.mark.parametrize("nq", range(1, 6))
    def test_sx_tables_are_cached_and_read_only(self, nq):
        singles = [1 - 2 * basis_bits(nq, j) for j in range(1, nq + 1)]
        total = _sx_values(nq, range(1, nq + 1))
        pairwise = _pairwise_sx(nq)
        assert _sx_values(nq, range(1, nq + 1)) is total
        assert _pairwise_sx(nq) is pairwise
        for table in (total, pairwise, _sx_values(nq, (1,))):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0
        # the per-call loops the caches replace, summed in the same order
        expected = np.zeros(2**nq)
        for x in singles:
            expected += x
        assert np.array_equal(total, expected)
        expected = np.zeros(2**nq)
        for x in singles[1:]:
            expected += singles[0] + x - singles[0] * x
        assert np.array_equal(pairwise, expected)

    def test_ideal_gate_is_cached_in_a_bounded_cache(self):
        gate = ideal_ntcp(3)
        assert ideal_ntcp(3) is gate
        assert not gate.matrix.entries.flags.writeable
        with pytest.raises(ValueError):
            gate.matrix.entries[0, 0] = 0.0
        info = ideal_ntcp.cache_info()
        assert info.maxsize == _IDEAL_CACHE_SIZE == 8
        assert info.currsize <= info.maxsize
