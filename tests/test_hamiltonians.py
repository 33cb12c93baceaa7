"""Tests for collective operators, the dense third-step Hamiltonian, and
the charge-circuit mapping."""

import math

import numpy as np
import pytest
from scipy.constants import h as PLANCK

from cavityphase.hamiltonians import (
    CircuitParams,
    charge_qubit_map,
    collective_ops,
    degeneracy_deviations,
    flux_for_qubit_freq,
    h_step3,
    quantum_voltage,
)
from cavityphase.effective import effective_step3
from cavityphase.hilbert import (
    SIGMA_X,
    embed_qubit_op,
    qubit_space,
)

TWO_PI = 2.0 * math.pi


def expmi(h, dt=1.0):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * dt * w)) @ v.conj().T


class TestCollectiveOps:
    def test_single_qubit_set(self):
        space = qubit_space(3)
        _, _, _, s_x = collective_ops(space, [2])
        assert np.allclose(s_x.entries, embed_qubit_op(space, 2, SIGMA_X).entries)

    def test_full_minus_targets_is_control(self):
        space = qubit_space(3)
        _, _, _, s_x = collective_ops(space, [1, 2, 3])
        _, _, _, s_x_p = collective_ops(space, [2, 3])
        sx1 = embed_qubit_op(space, 1, SIGMA_X).entries
        assert np.allclose(s_x.entries - s_x_p.entries, sx1, atol=1e-14)

    def test_square_difference_identity(self):
        # S_x^2 - S'_x^2 = I + 2 sx_1 S'_x
        space = qubit_space(3)
        _, _, _, s_x = collective_ops(space, [1, 2, 3])
        _, _, _, s_x_p = collective_ops(space, [2, 3])
        sx1 = embed_qubit_op(space, 1, SIGMA_X).entries
        lhs = s_x.entries @ s_x.entries - s_x_p.entries @ s_x_p.entries
        rhs = np.eye(space.dim) + 2.0 * sx1 @ s_x_p.entries
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    @pytest.mark.parametrize("included", [[1], [2, 3], [1, 3], [1, 2, 3]])
    def test_commutation_relations(self, included):
        # [S_z, S_+/-] = -/+ 2 S_+/- and, with the ground-state-positive
        # sigma_z convention used here, [S_+, S_-] = -S_z.
        space = qubit_space(3)
        s_z, s_p, s_m, _ = collective_ops(space, included)
        comm_zp = s_z.entries @ s_p.entries - s_p.entries @ s_z.entries
        comm_zm = s_z.entries @ s_m.entries - s_m.entries @ s_z.entries
        comm_pm = s_p.entries @ s_m.entries - s_m.entries @ s_p.entries
        assert np.max(np.abs(comm_zp + 2 * s_p.entries)) < 1e-13
        assert np.max(np.abs(comm_zm - 2 * s_m.entries)) < 1e-13
        assert np.max(np.abs(comm_pm + s_z.entries)) < 1e-13

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            collective_ops(qubit_space(2), [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            collective_ops(qubit_space(2), [3])


class TestStepThree:
    def test_equal_rabi_is_collective_drive(self):
        space = qubit_space(3)
        h = h_step3(space, 1.8, 1.8)
        _, _, _, s_x = collective_ops(space, [1, 2, 3])
        assert np.max(np.abs(h.entries - 0.5 * 1.8 * s_x.entries)) < 1e-13

    def test_zero_target_rabi_drives_control_only(self):
        space = qubit_space(2)
        h = h_step3(space, 2.4, 0.0)
        sx1 = embed_qubit_op(space, 1, SIGMA_X).entries
        assert np.max(np.abs(h.entries - 1.2 * sx1)) < 1e-13

    def test_exponential_matches_closed_form_gate(self):
        space = qubit_space(3)
        tau = 0.9
        h = h_step3(space, 1.1, 0.4)
        gate = effective_step3(space, 1.1, 0.4, tau)
        assert np.max(np.abs(expmi(h.entries, tau) - gate.matrix.entries)) < 1e-12


from conftest import reference_circuit


class TestChargeQubitMap:
    def test_flux_half_kills_transition(self):
        circuit = reference_circuit(flux_ratio=0.5)
        w0, _, _ = charge_qubit_map(circuit, TWO_PI * 10e9)
        assert w0 == 0.0

    def test_flux_zero_gives_20_ghz(self):
        circuit = reference_circuit(flux_ratio=0.0)
        w0, _, _ = charge_qubit_map(circuit, TWO_PI * 10e9)
        assert w0 / TWO_PI == pytest.approx(20e9, rel=1e-12)

    def test_coupling_detuning_independent(self):
        # g only involves the resonator geometry, so retuning the flux (and
        # with it the detuning) cannot change it: g = g'.
        base = reference_circuit(flux_ratio=0.1)
        shifted = reference_circuit(flux_ratio=0.45)
        wc = TWO_PI * 10e9
        _, _, g1 = charge_qubit_map(base, wc)
        _, _, g2 = charge_qubit_map(shifted, wc)
        assert g1 == pytest.approx(g2, rel=1e-14)

    def test_target_coupling_reproduced(self):
        circuit = reference_circuit()
        _, _, g = charge_qubit_map(circuit, TWO_PI * 10e9)
        assert g / TWO_PI == pytest.approx(22e6, rel=1e-12)

    def test_explicit_v0_qu_agrees_with_geometry(self):
        circuit = reference_circuit()
        wc = TWO_PI * 10e9
        v0_qu = quantum_voltage(wc, circuit.length, circuit.cap_per_length)
        direct = CircuitParams(
            e_j0=circuit.e_j0,
            e_c=circuit.e_c,
            c_g=circuit.c_g,
            v0=circuit.v0,
            flux_ratio=circuit.flux_ratio,
            v0_qu=v0_qu,
        )
        assert charge_qubit_map(direct, wc) == charge_qubit_map(circuit, wc)

    def test_monotone_decreasing_in_flux(self):
        wc = TWO_PI * 10e9
        freqs = [
            charge_qubit_map(reference_circuit(flux_ratio=f), wc)[0]
            for f in np.linspace(0.0, 0.5, 11)
        ]
        assert all(a > b for a, b in zip(freqs, freqs[1:]))

    def test_flux_inversion(self):
        circuit = reference_circuit()
        # flux solving nu0 = 9.956 GHz with E_J0/h = 5 GHz
        target = TWO_PI * 9.956e9
        flux = flux_for_qubit_freq(circuit, target)
        assert flux == pytest.approx(math.acos(9.956 / 20.0) / math.pi, rel=1e-12)
        w0, _, _ = charge_qubit_map(
            reference_circuit(flux_ratio=flux), TWO_PI * 10e9
        )
        assert w0 == pytest.approx(target, rel=1e-12)

    def test_unreachable_frequency_rejected(self):
        circuit = reference_circuit()
        with pytest.raises(ValueError):
            flux_for_qubit_freq(circuit, TWO_PI * 25e9)


class TestDegeneracyDeviations:
    def test_zero_drive_zero_deviation(self):
        eps = degeneracy_deviations(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, PLANCK * 32e9)
        assert eps == (0.0, 0.0, 0.0, 0.0)

    def test_step3_ratio(self):
        eps = degeneracy_deviations(1.0, 1.0, 3.2, 0.1, 0.5, 0.5, PLANCK * 32e9)
        assert eps[3] / eps[2] == pytest.approx(0.1 / 3.2, rel=1e-12)

    def test_reference_point_values(self):
        # g/2pi = 22 MHz, omega = 15 g, n = 2, E_c/h = 32 GHz:
        # eps0 = (352 MHz) / (4 * 32 GHz) = 2.75e-3, eps3 = 11/128000 = 8.594e-5
        g = TWO_PI * 22e6
        omega = 15 * g
        omega1 = 16 * g
        omega_r = 0.5 * g
        e_c = PLANCK * 32e9
        eps0, eps1, eps2, eps3 = degeneracy_deviations(
            omega, omega, omega1, omega_r, g, g, e_c
        )
        assert eps0 == pytest.approx(2.75e-3, rel=1e-6)
        assert eps1 == pytest.approx(2.75e-3, rel=1e-6)
        assert eps2 == pytest.approx(2.75e-3, rel=1e-2)  # omega1 alone, no +g
        assert eps3 == pytest.approx(8.59e-5, rel=1e-2)
        assert eps3 / eps0 == pytest.approx(11.0 / 352.0, rel=1e-9)

    def test_positive_charging_energy_required(self):
        with pytest.raises(ValueError):
            degeneracy_deviations(1, 1, 1, 1, 1, 1, 0.0)
