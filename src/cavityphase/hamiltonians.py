"""Collective qubit operators, the dense third-step drive Hamiltonian, and
the charge-qubit circuit mapping that produces the physical protocol
parameters.

The time-dependent Hamiltonian of every schedule step, with its rotating
frame, is built by :func:`cavityphase.analysis.step_hamiltonian`.  The
collective operators here serve the closed-form propagators of
:mod:`cavityphase.effective`, and :func:`h_step3` is the dense route the
closed-form third step is checked against.

All frequencies are angular (rad/s) and hbar is set to 1, so Hamiltonian
entries are angular frequencies and times are seconds.  Circuit parameters
keep SI units and are converted by :func:`charge_qubit_map`.

Conventions (fixed package-wide):

* ``sigma_z = |0><0| - |1><1|`` with ground state ``|0>``; the free
  Hamiltonian is ``-(w0/2) S_z + w_c a+ a``.
* ``sigma_plus = |1><0|`` raises, ``sigma_minus = |0><1|`` lowers, hence
  ``[S_plus, S_minus] = -S_z`` in this sign convention.
* Drives are resonant with each qubit's transition; the interaction-picture
  drive term is ``(rabi/2)(e^{i phase} S_- + e^{-i phase} S_+)``.
* The qubit-cavity term is ``g (e^{i delta t} a S_+ + e^{-i delta t} a+ S_-)``
  with per-qubit detuning ``delta_j = w0_j - w_c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import e as E_CHARGE
from scipy.constants import hbar as HBAR

from .hilbert import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    OperatorMatrix,
    SpaceDescriptor,
    embed_qubit_op,
)

__all__ = [
    "CircuitParams",
    "collective_ops",
    "h_step3",
    "charge_qubit_map",
    "flux_for_qubit_freq",
    "degeneracy_deviations",
]


def _validate_included(space: SpaceDescriptor, included) -> tuple[int, ...]:
    included = tuple(sorted(included))
    if not included:
        raise ValueError("included qubit set is empty")
    for j in included:
        if not 1 <= j <= space.num_qubits:
            raise ValueError(f"qubit index {j} out of range 1..{space.num_qubits}")
    return included


def collective_ops(
    space: SpaceDescriptor, included
) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Collective ``(S_z, S_plus, S_minus, S_x)`` summed over ``included``.

    The primed operators of the second protocol step are these with
    ``included = {2, ..., n+1}``.
    """
    included = _validate_included(space, included)
    d = space.dim
    s_z = np.zeros((d, d), dtype=complex)
    s_p = np.zeros((d, d), dtype=complex)
    s_m = np.zeros((d, d), dtype=complex)
    for j in included:
        s_z += embed_qubit_op(space, j, SIGMA_Z).entries
        s_p += embed_qubit_op(space, j, SIGMA_PLUS).entries
        s_m += embed_qubit_op(space, j, SIGMA_MINUS).entries
    return (
        OperatorMatrix(space, s_z, hermitian=True),
        OperatorMatrix(space, s_p),
        OperatorMatrix(space, s_m),
        OperatorMatrix(space, s_p + s_m, hermitian=True),
    )


def h_step3(space: SpaceDescriptor, omega1: float, omega_r: float) -> OperatorMatrix:
    """Third-step drive Hamiltonian ``(omega1/2) sigma_x,1 + (omega_r/2) S'_x``
    with every qubit decoupled from the cavity."""
    h = 0.5 * omega1 * embed_qubit_op(space, 1, SIGMA_X).entries
    if space.num_qubits > 1:
        _, _, _, s_x_prime = collective_ops(space, range(2, space.num_qubits + 1))
        h = h + 0.5 * omega_r * s_x_prime.entries
    return OperatorMatrix(space, h, hermitian=True)


@dataclass(frozen=True)
class CircuitParams:
    """SI-unit parameters of a flux-tunable charge qubit coupled to a
    transmission-line resonator.

    ``v0`` is the largest ac gate-voltage amplitude the wiring can deliver;
    schedules that need more raise ``InfeasibleHardwareError``.  ``v0_qu``
    (the resonator's zero-point voltage at the qubit) may be given directly
    or derived from the resonator length and capacitance per unit length.
    """

    e_j0: float  # Josephson energy [J]
    e_c: float  # charging energy [J]
    c_g: float  # gate capacitance [F]
    v0: float  # max ac gate amplitude [V]
    flux_ratio: float  # Phi / Phi_0
    v0_qu: float | None = None  # quantum gate-voltage amplitude [V]
    length: float | None = None  # resonator length [m]
    cap_per_length: float | None = None  # resonator capacitance per length [F/m]

    def __post_init__(self):
        for name in ("e_j0", "e_c", "c_g", "v0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.flux_ratio <= 1.0:
            raise ValueError(f"flux_ratio must lie in [0, 1], got {self.flux_ratio}")
        for name in ("v0_qu", "length", "cap_per_length"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ValueError(f"{name} must be positive when given")


def _cospi(x: float) -> float:
    """cos(pi x), exact at half-integer and integer arguments."""
    r = x % 2.0
    if r == 0.5 or r == 1.5:
        return 0.0
    if r == 0.0:
        return 1.0
    if r == 1.0:
        return -1.0
    return math.cos(math.pi * x)


def quantum_voltage(cavity_freq: float, length: float, cap_per_length: float) -> float:
    """Zero-point voltage amplitude of a coplanar-waveguide resonator mode,
    ``sqrt(hbar w_c / (L c0))``."""
    return math.sqrt(HBAR * cavity_freq / (length * cap_per_length))


def charge_qubit_map(
    circuit: CircuitParams, cavity_freq: float
) -> tuple[float, float, float]:
    """Map circuit parameters to protocol frequencies ``(w0, rabi, g)``.

    * ``w0 = 4 E_J0 cos(pi Phi/Phi_0) / hbar`` (the transition frequency at
      the charge degeneracy point, where twice the effective Josephson
      energy splits the charge states),
    * ``rabi = 2 E_c C_g V0 / (hbar e)`` for the ac gate voltage,
    * ``g = 2 E_c C_g V0_qu / (hbar e)`` for the resonator zero-point
      voltage, which is independent of the detuning.
    """
    w0 = 4.0 * circuit.e_j0 * _cospi(circuit.flux_ratio) / HBAR
    rabi = 2.0 * circuit.e_c * circuit.c_g * circuit.v0 / (HBAR * E_CHARGE)
    if circuit.length is not None and circuit.cap_per_length is not None:
        v0_qu = quantum_voltage(cavity_freq, circuit.length, circuit.cap_per_length)
    elif circuit.v0_qu is not None:
        v0_qu = circuit.v0_qu
    else:
        raise ValueError("need either v0_qu or (length, cap_per_length)")
    g = 2.0 * circuit.e_c * circuit.c_g * v0_qu / (HBAR * E_CHARGE)
    return w0, rabi, g


def flux_for_qubit_freq(circuit: CircuitParams, w0: float) -> float:
    """Invert the flux-to-frequency relation on the branch ``[0, 1/2]``.

    Raises ``ValueError`` when ``w0`` exceeds the maximum ``4 E_J0 / hbar``.
    """
    w_max = 4.0 * circuit.e_j0 / HBAR
    if not 0.0 <= w0 <= w_max:
        raise ValueError(
            f"transition frequency {w0:.4e} rad/s outside reachable range [0, {w_max:.4e}]"
        )
    return math.acos(w0 / w_max) / math.pi


def degeneracy_deviations(
    omega: float,
    omega_prime: float,
    omega1: float,
    omega_r: float,
    g: float,
    g_prime: float,
    e_c: float,
) -> tuple[float, float, float, float]:
    """Maximal gate-charge deviations from the degeneracy point in the three
    protocol steps:

        eps0 = hbar (omega + g) / (4 E_c)        step one, every qubit
        eps1 = hbar (omega' + g') / (4 E_c)      step two, target qubits
        eps2 = hbar omega1 / (4 E_c)             step three, control qubit
        eps3 = hbar omega_r / (4 E_c)            step three, target qubits

    ``e_c`` is in joules, the frequencies in rad/s.
    """
    if e_c <= 0:
        raise ValueError("charging energy must be positive")
    scale = HBAR / (4.0 * e_c)
    return (
        scale * (omega + g),
        scale * (omega_prime + g_prime),
        scale * omega1,
        scale * omega_r,
    )
