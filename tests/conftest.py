"""Shared builders and reference hardware parameters."""

import math

import numpy as np
from scipy.constants import e as E_CHARGE
from scipy.constants import h as PLANCK
from scipy.constants import hbar as HBAR

from cavityphase.hamiltonians import CircuitParams, collective_ops, quantum_voltage
from cavityphase.hilbert import cavity_ops
from cavityphase.integrator import TimeDependentHamiltonian

TWO_PI = 2.0 * math.pi


def reference_circuit(
    e_j0_hz=5e9,
    e_c_hz=32e9,
    flux_ratio=0.0,
    g_target_hz=22e6,
    cavity_freq_hz=10e9,
    v0=1e-3,
):
    """Charge-qubit circuit that reproduces ``g_target_hz`` exactly.

    The gate capacitance is solved from the coupling formula using the
    zero-point voltage of a 10 mm, 0.16 nF/m coplanar-waveguide resonator;
    the energies match the reference experimental point (E_J0/h = 5 GHz,
    E_c/h = 32 GHz).
    """
    e_j0 = PLANCK * e_j0_hz
    e_c = PLANCK * e_c_hz
    length = 0.010
    cap_per_length = 1.6e-10
    v0_qu = quantum_voltage(TWO_PI * cavity_freq_hz, length, cap_per_length)
    c_g = TWO_PI * g_target_hz * HBAR * E_CHARGE / (2.0 * e_c * v0_qu)
    return CircuitParams(
        e_j0=e_j0,
        e_c=e_c,
        c_g=c_g,
        v0=v0,
        flux_ratio=flux_ratio,
        length=length,
        cap_per_length=cap_per_length,
    )


def rwa_hamiltonian(space, g, delta):
    """Strong-drive rotated-frame coupling ``(g/2)(e^{i delta t} a + h.c.) S_x``
    over every qubit, as a builder-only Hamiltonian (integrated adaptively)."""
    _, _, _, s_x = collective_ops(space, range(1, space.num_qubits + 1))
    a, _ = cavity_ops(space)
    asx = a.entries @ s_x.entries

    def builder(t):
        term = 0.5 * g * np.exp(1j * delta * t) * asx
        return term + term.conj().T

    return TimeDependentHamiltonian(space, builder, abs(delta))
