"""Closed-form propagators and ideal gates.

Everything here is analytic: the disentangled propagator of the
strong-drive rotated frame, the per-step qubit-space unitaries, their
combination into the multi-target controlled-phase gate, and the ideal
gates used as comparison targets.  The full-dynamics integrator is judged
against these closed forms, and these closed forms are judged against the
ideal gates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import SingularDetuningError, WrongCaseError
from .hamiltonians import collective_ops
from .hilbert import (
    HADAMARD,
    SIGMA_X,
    OperatorMatrix,
    SpaceDescriptor,
    basis_bits,
    cavity_ops,
    embed_qubit_op,
    qubit_space,
    sign_matrix,
    x_basis_transform,
)
from .protocol import ParamSet, HARD_TAGS

__all__ = [
    "ABCoefficients",
    "EffectiveGate",
    "ab_coefficients",
    "factorized_propagator",
    "effective_step1",
    "effective_step2",
    "effective_step3",
    "three_step_composition",
    "combined_evolution",
    "ideal_ntcp",
    "ideal_ntcnot",
    "effective_hamiltonian",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ABCoefficients:
    """Coefficients of the disentangled rotated-frame propagator
    ``exp(-i phase S_x^2) exp(-i displacement S_x a) exp(-i conj(displacement) S_x a+)``.

    ``displacement`` drives the S_x-conditioned coherent displacement of the
    cavity; ``phase`` multiplies the induced S_x^2 interaction.  ``phase``
    is complex at general times (its imaginary part keeps the three-factor
    product exactly unitary) and becomes real at the revival times where the
    displacement closes on itself."""

    phase: complex
    displacement: complex


def ab_coefficients(g: float, delta: float, t: float) -> ABCoefficients:
    """Closed forms of the disentangling coefficients:

        displacement(t) = (g / 2i delta) (e^{i delta t} - 1)
        phase(t)        = (g^2 / 4 delta) [t + (e^{-i delta t} - 1) / (i delta)]

    Both vanish at ``t = 0``; at ``t = 2 pi / |delta|`` the displacement is
    exactly zero and the phase is real.
    """
    if delta == 0:
        raise SingularDetuningError("detuning must be nonzero")
    displacement = g / (2j * delta) * (np.exp(1j * delta * t) - 1.0)
    phase = g**2 / (4.0 * delta) * (t + (np.exp(-1j * delta * t) - 1.0) / (1j * delta))
    return ABCoefficients(phase=complex(phase), displacement=complex(displacement))


def factorized_propagator(
    space: SpaceDescriptor, g: float, delta: float, t: float
) -> OperatorMatrix:
    """Propagator of the strong-drive rotated-frame Hamiltonian
    ``(g/2)(e^{i delta t} a + e^{-i delta t} a+) S_x`` as the three-factor
    product on the full qubits-plus-cavity space.

    At the revival time ``t = 2 pi / |delta|`` the cavity factors collapse
    and the result is ``exp(i lam t S_x^2) (x) I_cavity`` with
    ``lam = -g^2 / (4 delta)``.

    At intermediate times the product is unitary only up to the hard Fock
    truncation (the disentangling identities use the untruncated ladder
    algebra); the defect is confined to the top Fock levels.
    """
    if not space.has_cavity:
        raise ValueError("factorized propagator lives on the full space")
    coeff = ab_coefficients(g, delta, t)
    _, _, _, s_x = collective_ops(space, range(1, space.num_qubits + 1))
    a, a_dag = cavity_ops(space)
    sxa = s_x.entries @ a.entries
    sxad = s_x.entries @ a_dag.entries
    w, v = np.linalg.eigh(s_x.entries)
    phase_factor = (v * np.exp(-1j * coeff.phase * w**2)) @ v.conj().T
    u = phase_factor @ expm(-1j * coeff.displacement * sxa) @ expm(
        -1j * np.conj(coeff.displacement) * sxad
    )
    return OperatorMatrix(space, u)


@dataclass(frozen=True)
class EffectiveGate:
    """A closed-form qubit-space unitary with bookkeeping for phases that
    the analytic expressions drop.

    ``global_phase`` is the scalar by which the stored matrix differs from
    the literal step-by-step product (stored * global_phase = literal); all
    fidelity comparisons are phase-invariant, so this is diagnostic only.
    """

    matrix: OperatorMatrix
    label: str
    global_phase: complex = 1.0 + 0.0j
    warnings: tuple[str, ...] = ()

    def x_basis_matrix(self) -> np.ndarray:
        """Matrix elements in the per-qubit sigma-x product basis,
        ordered (+, -) per qubit."""
        w = x_basis_transform(self.matrix.space.num_qubits)
        return w @ self.matrix.entries @ w


@functools.cache
def _sx_values(num_qubits: int, included: tuple[int, ...] | range) -> np.ndarray:
    """Eigenvalue ``m = sum_j (1 - 2 b_j)`` of S_x over the included
    qubits on every sigma-x product basis state (bit 0 -> |+>, bit 1 ->
    |->).  Cached per argument pair; read-only."""
    m = np.zeros(2**num_qubits)
    for j in included:
        m += 1 - 2 * basis_bits(num_qubits, j)
    m.setflags(write=False)
    return m


@functools.cache
def _pairwise_sx(num_qubits: int) -> np.ndarray:
    """``sum_j (x1 + xj - x1 xj)`` over targets ``j = 2..num_qubits`` on
    every sigma-x product basis state, with ``x`` the single-qubit S_x
    eigenvalues: the generator of the combined gate over ``2 lam``.
    Cached per qubit count; read-only."""
    x1 = _sx_values(num_qubits, (1,))
    h = np.zeros(2**num_qubits)
    for j in range(2, num_qubits + 1):
        xj = _sx_values(num_qubits, (j,))
        h += x1 + xj - x1 * xj
    h.setflags(write=False)
    return h


def _x_diagonal_gate(num_qubits: int, diag: np.ndarray) -> np.ndarray:
    """Qubit-space matrix of the gate with sigma-x-basis eigenvalues
    ``diag``: ``(S * diag) @ S / 2**num_qubits`` with the exact +-1 sign
    matrix, divided once.  ``S[i, j] S[j, k] = S[i ^ k, j]``, so entry
    ``(i, k)`` is ``(S @ diag)[i ^ k] / 2**num_qubits``: one matrix-vector
    product instead of a matrix product."""
    column = sign_matrix(num_qubits) @ diag / 2**num_qubits
    return column[_xor_index(num_qubits)]


@functools.cache
def _xor_index(num_qubits: int) -> np.ndarray:
    """Read-only gather index ``i ^ k`` of every entry ``(i, k)``, cached
    per qubit count."""
    index = np.arange(2**num_qubits)
    xor = index[:, None] ^ index[None, :]
    xor.setflags(write=False)
    return xor


def _sx_phases(
    num_qubits: int, included, linear: float, quadratic: float
) -> np.ndarray:
    """Phases of exp(i (linear S_x + quadratic S_x^2)) over the included
    qubits, one per sigma-x product basis state."""
    m = _sx_values(num_qubits, included)
    return linear * m + quadratic * m**2


def _step3_phases(num_qubits: int, omega1: float, omega_r: float, tau: float) -> np.ndarray:
    """Phases of exp(-i tau (omega1 sigma_x,1 + omega_r S'_x) / 2)."""
    m1 = _sx_values(num_qubits, (1,))
    m_targets = _sx_values(num_qubits, range(2, num_qubits + 1))
    return -0.5 * tau * (omega1 * m1 + omega_r * m_targets)


def effective_step1(
    space: SpaceDescriptor, g: float, delta: float, omega: float
) -> EffectiveGate:
    """First-step qubit-space unitary
    ``exp(i omega tau S_x / 2) exp(i lam tau S_x^2)`` with
    ``tau = 2 pi / |delta|`` and ``lam = -g^2 / (4 delta) > 0``.

    Requires negative detuning; diagonal in the sigma-x product basis with
    eigenphase ``omega tau m / 2 + lam tau m^2`` on the eigenvalue-``m``
    sector.
    """
    if delta >= 0:
        raise WrongCaseError(f"first step needs delta < 0, got {delta}")
    qspace = space.qubit_subspace() if space.has_cavity else space
    nq = qspace.num_qubits
    tau = TWO_PI / abs(delta)
    lam = -(g**2) / (4.0 * delta)
    phases = _sx_phases(nq, range(1, nq + 1), 0.5 * omega * tau, lam * tau)
    mat = _x_diagonal_gate(nq, np.exp(1j * phases))
    return EffectiveGate(OperatorMatrix(qspace, mat), label="step1")


def effective_step2(
    space: SpaceDescriptor, g_prime: float, delta_prime: float, omega_prime: float
) -> EffectiveGate:
    """Second-step qubit-space unitary
    ``exp(-i omega' tau' S'_x / 2) exp(-i lam' tau' S'_x^2)`` acting only on
    the target qubits (2..n+1), with ``tau' = 2 pi / delta'`` and
    ``lam' = g'^2 / (4 delta') > 0``.  Identical sign structure to step one
    but with opposite exponent signs.  Requires positive detuning.
    """
    if delta_prime <= 0:
        raise WrongCaseError(f"second step needs delta' > 0, got {delta_prime}")
    qspace = space.qubit_subspace() if space.has_cavity else space
    nq = qspace.num_qubits
    if nq < 2:
        raise ValueError("second step needs at least one target qubit")
    tau_prime = TWO_PI / delta_prime
    lam_prime = g_prime**2 / (4.0 * delta_prime)
    phases = _sx_phases(
        nq, range(2, nq + 1), -0.5 * omega_prime * tau_prime, -lam_prime * tau_prime
    )
    mat = _x_diagonal_gate(nq, np.exp(1j * phases))
    return EffectiveGate(OperatorMatrix(qspace, mat), label="step2")


def effective_step3(
    space: SpaceDescriptor, omega1: float, omega_r: float, tau: float
) -> EffectiveGate:
    """Third-step qubit-space unitary
    ``exp(-i omega1 tau sigma_x,1 / 2) exp(-i omega_r tau S'_x / 2)``; the
    two factors commute exactly (disjoint qubit supports)."""
    if tau <= 0:
        raise ValueError(f"evolution time must be positive, got {tau}")
    qspace = space.qubit_subspace() if space.has_cavity else space
    nq = qspace.num_qubits
    mat = _x_diagonal_gate(nq, np.exp(1j * _step3_phases(nq, omega1, omega_r, tau)))
    return EffectiveGate(OperatorMatrix(qspace, mat), label="step3")


def three_step_composition(space: SpaceDescriptor, params: ParamSet) -> EffectiveGate:
    """Literal product of the three step unitaries, third applied last.

    No conditions are assumed (not even the detuning signs); this is the
    closed-form model of whatever the parameter set actually does, built
    from the stored frequencies and the derived ``tau``/``lam`` values.
    All three steps are diagonal in the sigma-x product basis, so the
    product is that of their phase vectors.
    """
    qspace = space.qubit_subspace() if space.has_cavity else space
    nq = qspace.num_qubits
    p = params
    phases1 = _sx_phases(nq, range(1, nq + 1), 0.5 * p.omega * p.tau, p.lam * p.tau)
    phases2 = _sx_phases(
        nq, range(2, nq + 1), -0.5 * p.omega_prime * p.tau_prime, -p.lam_prime * p.tau_prime
    )
    d1, d2 = np.exp(1j * phases1), np.exp(1j * phases2)
    d3 = np.exp(1j * _step3_phases(nq, p.omega1, p.omega_r, p.tau))
    mat = _x_diagonal_gate(nq, d3 * d2 * d1)
    return EffectiveGate(OperatorMatrix(qspace, mat), label="three-step")


def combined_evolution(space: SpaceDescriptor, params: ParamSet) -> EffectiveGate:
    """Combined three-step gate.

    When the hard matching conditions hold this returns the commuting
    pairwise product ``prod_j exp[-i 2 lam tau (sx_1 + sx_j - sx_1 sx_j)]``,
    which differs from the literal step product by the recorded global phase
    ``exp(i lam tau)``.  When they fail it returns the literal product with
    the violated condition tags as warnings.
    """
    qspace = space.qubit_subspace() if space.has_cavity else space
    nq = qspace.num_qubits
    if nq != params.n + 1:
        raise ValueError(
            f"space has {nq} qubits but the parameter set "
            f"expects {params.n + 1}"
        )
    violated = tuple(t for t in params.violated_tags if t in HARD_TAGS)
    if violated:
        literal = three_step_composition(qspace, params)
        return EffectiveGate(
            literal.matrix,
            label="combined",
            warnings=tuple(f"condition '{t}' violated" for t in violated),
        )
    h = _pairwise_sx(nq)
    mat = _x_diagonal_gate(nq, np.exp(-2j * params.lam * params.tau * h))
    return EffectiveGate(
        OperatorMatrix(qspace, mat),
        label="combined",
        global_phase=complex(np.exp(1j * params.lam * params.tau)),
    )


#: Ideal gates :func:`ideal_ntcp` keeps; gate ``n`` holds ``16 * 4**(n + 1)``
#: bytes (64 MiB at ``n = 10``).
_IDEAL_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_IDEAL_CACHE_SIZE)
def ideal_ntcp(n: int) -> EffectiveGate:
    """Ideal controlled-phase gate of one control (qubit 1) simultaneously
    acting on ``n`` targets (qubits 2..n+1).

    Diagonal in the per-qubit sigma-x product basis: when the control is in
    ``|->`` every target in ``|->`` contributes a sign flip, so the
    amplitude is ``(-1)^(number of targets in |->)``; nothing happens when
    the control is in ``|+>``.  The matrix entries are exact.  The gate
    is immutable and cached: repeated calls return the same object.
    """
    if n < 1:
        raise ValueError(f"target count must be >= 1, got {n}")
    nq = n + 1
    parity = np.zeros(2**nq, dtype=int)
    for j in range(2, nq + 1):
        parity ^= basis_bits(nq, j)
    diag = 1.0 - 2.0 * (basis_bits(nq, 1) & parity)
    mat = _x_diagonal_gate(nq, diag)
    return EffectiveGate(OperatorMatrix(qubit_space(nq), mat), label="ideal-ntcp")


def ideal_ntcnot(n: int) -> EffectiveGate:
    """Ideal controlled-NOT of one control simultaneously acting on ``n``
    targets: Hadamard on the control before and after the controlled-phase
    gate.  Equals the computational-basis gate that flips every target iff
    the control is ``|1>``."""
    if n < 1:
        raise ValueError(f"target count must be >= 1, got {n}")
    nq = n + 1
    h1 = embed_qubit_op(qubit_space(nq), 1, HADAMARD).entries
    mat = h1 @ ideal_ntcp(n).matrix.entries @ h1
    return EffectiveGate(OperatorMatrix(qubit_space(nq), mat), label="ideal-ntcnot")


def effective_hamiltonian(space: SpaceDescriptor, n: int, lam: float) -> OperatorMatrix:
    """Generator of the combined gate,
    ``2 lam sum_j (sx_1 + sx_j - sx_1 sx_j)`` over targets ``j = 2..n+1``.

    It couples the control to each target but never two targets to each
    other, and the per-target terms all commute, which is why the pairwise
    gates run simultaneously.
    """
    qspace = space.qubit_subspace() if space.has_cavity else space
    if n < 1:
        raise ValueError(f"target count must be >= 1, got {n}")
    if qspace.num_qubits != n + 1:
        raise ValueError(
            f"space has {qspace.num_qubits} qubits but n = {n} needs {n + 1}"
        )
    sx1 = embed_qubit_op(qspace, 1, SIGMA_X).entries
    h = np.zeros((qspace.dim, qspace.dim), dtype=complex)
    for j in range(2, n + 2):
        sxj = embed_qubit_op(qspace, j, SIGMA_X).entries
        h += sx1 + sxj - sx1 @ sxj
    return OperatorMatrix(qspace, 2.0 * lam * h, hermitian=True)
