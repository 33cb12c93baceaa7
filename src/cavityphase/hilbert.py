"""Composite Hilbert space of qubits plus one truncated cavity mode.

The factor order is fixed once and for all: qubit 1, qubit 2, ..., qubit
``num_qubits``, cavity last.  All embeddings, partial traces and basis
conventions in the package respect this order.  Qubit basis vectors are
ordered ``(|0>, |1>)`` with ``|0>`` the ground state; the Pauli-z
convention is ``sigma_z = |0><0| - |1><1|`` so the ground state has
eigenvalue +1.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "SpaceDescriptor",
    "OperatorMatrix",
    "StateVector",
    "DensityMatrix",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "HADAMARD",
    "make_space",
    "qubit_space",
    "cavity_space",
    "embed_qubit_op",
    "cavity_ops",
    "identity",
    "partial_trace_cavity",
    "gate_fidelity",
    "channel_fidelity",
    "unitarity_defect",
    "x_basis_transform",
    "sign_matrix",
    "basis_bits",
    "annihilation",
    "x_basis_product_states",
    "z_basis_product_states",
    "qubit_basis_state",
    "fock_state",
    "product_state",
    "cavity_vacuum",
    "cavity_fock",
    "cavity_coherent",
    "cavity_thermal",
]

# Single-qubit operators in the (|0>, |1>) basis, ground state first.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)  # |0><0| - |1><1|
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class SpaceDescriptor:
    """Tensor-product space of ``num_qubits`` qubits and, optionally, one
    cavity mode truncated at ``fock_cutoff`` photons.

    ``fock_cutoff is None`` describes the qubit-only subspace (used for
    reduced states and cavity-free gates).  The cavity dimension is
    ``fock_cutoff + 1`` so the retained photon numbers are 0..cutoff.
    """

    num_qubits: int
    fock_cutoff: int | None = None

    def __post_init__(self):
        if self.num_qubits < 0:
            raise ValueError(f"num_qubits must be >= 0, got {self.num_qubits}")
        if self.fock_cutoff is not None and self.fock_cutoff < 1:
            raise ValueError(
                f"fock_cutoff must be >= 1 so photon exchange is representable, "
                f"got {self.fock_cutoff}"
            )
        if self.num_qubits == 0 and self.fock_cutoff is None:
            raise ValueError("empty space: no qubits and no cavity")

    @property
    def has_cavity(self) -> bool:
        return self.fock_cutoff is not None

    @property
    def qubit_dim(self) -> int:
        return 2**self.num_qubits

    @property
    def cavity_dim(self) -> int:
        return 0 if self.fock_cutoff is None else self.fock_cutoff + 1

    @property
    def dim(self) -> int:
        return self.qubit_dim * (self.cavity_dim if self.has_cavity else 1)

    def factor_dims(self) -> tuple[int, ...]:
        dims = (2,) * self.num_qubits
        if self.has_cavity:
            dims = dims + (self.cavity_dim,)
        return dims

    def qubit_subspace(self) -> SpaceDescriptor:
        if self.num_qubits == 0:
            raise ValueError("space has no qubit factors")
        return SpaceDescriptor(self.num_qubits, None)


def make_space(num_qubits: int, fock_cutoff: int) -> SpaceDescriptor:
    """Build the full qubits-plus-cavity space.

    Requires ``num_qubits >= 1`` and ``fock_cutoff >= 1`` (at least the
    photon states ``|0>`` and ``|1>`` must be representable).
    """
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    if fock_cutoff < 1:
        raise ValueError(f"fock_cutoff must be >= 1, got {fock_cutoff}")
    return SpaceDescriptor(num_qubits, fock_cutoff)


def qubit_space(num_qubits: int) -> SpaceDescriptor:
    """Descriptor for the cavity-free qubit subspace."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    return SpaceDescriptor(num_qubits, None)


def cavity_space(fock_cutoff: int) -> SpaceDescriptor:
    """Descriptor for the cavity factor alone (used for initial cavity states)."""
    return SpaceDescriptor(0, fock_cutoff)


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class OperatorMatrix:
    """A complex matrix acting on a :class:`SpaceDescriptor`.

    When ``hermitian`` is set the constructor verifies it to 1e-12 in the
    max norm.  Instances are immutable values; the wrapped array is marked
    read-only.
    """

    space: SpaceDescriptor
    entries: np.ndarray = field(repr=False)
    hermitian: bool = False

    def __post_init__(self):
        entries = _as_readonly(self.entries)
        object.__setattr__(self, "entries", entries)
        d = self.space.dim
        if entries.shape != (d, d):
            raise DimensionMismatchError(
                f"operator shape {entries.shape} does not match space dimension {d}"
            )
        if self.hermitian:
            defect = np.max(np.abs(entries - entries.conj().T))
            if defect >= _HERMITIAN_TOL:
                raise ValueError(
                    f"operator marked Hermitian but ||M - M+||_max = {defect:.3e}"
                )

    def dagger(self) -> OperatorMatrix:
        return OperatorMatrix(self.space, self.entries.conj().T, self.hermitian)

    def __matmul__(self, other: OperatorMatrix) -> OperatorMatrix:
        if self.space != other.space:
            raise DimensionMismatchError("operator product across different spaces")
        return OperatorMatrix(self.space, self.entries @ other.entries)

    def apply(self, state: StateVector) -> StateVector:
        if state.space != self.space:
            raise DimensionMismatchError("operator applied to state on a different space")
        return StateVector(self.space, self.entries @ state.amplitudes)


@dataclass(frozen=True)
class StateVector:
    """A pure state on a :class:`SpaceDescriptor`."""

    space: SpaceDescriptor
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = _as_readonly(self.amplitudes).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.space.dim,):
            raise DimensionMismatchError(
                f"state length {amps.shape} does not match space dimension {self.space.dim}"
            )

    @classmethod
    def normalized(cls, space: SpaceDescriptor, amplitudes: np.ndarray) -> StateVector:
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(space, amps / norm)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def density_matrix(self) -> DensityMatrix:
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.space, rho, validate=False)


@dataclass(frozen=True)
class DensityMatrix:
    """A density operator on a :class:`SpaceDescriptor`.

    Validation checks Hermiticity, unit trace (1e-10) and positivity up to
    -1e-10 on the spectrum.  Channels may legitimately produce
    sub-normalized outputs (trace < 1); build those with ``validate=False``.
    """

    space: SpaceDescriptor
    entries: np.ndarray = field(repr=False)
    validate: bool = True

    def __post_init__(self):
        entries = _as_readonly(self.entries)
        object.__setattr__(self, "entries", entries)
        d = self.space.dim
        if entries.shape != (d, d):
            raise DimensionMismatchError(
                f"density matrix shape {entries.shape} does not match dimension {d}"
            )
        if self.validate:
            herm = np.max(np.abs(entries - entries.conj().T))
            if herm >= _HERMITIAN_TOL:
                raise ValueError(f"density matrix not Hermitian, defect {herm:.3e}")
            tr = np.trace(entries)
            if abs(tr - 1.0) >= 1e-10:
                raise ValueError(f"density matrix trace {tr} is not 1")
            lo = np.linalg.eigvalsh(entries).min()
            if lo < -1e-10:
                raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def mean_photon_number(self) -> float:
        """Mean photon number; requires a cavity factor."""
        if not self.space.has_cavity:
            raise ValueError("space has no cavity factor")
        qd, cd = self.space.qubit_dim, self.space.cavity_dim
        occ = np.arange(cd, dtype=float)
        r = self.entries.reshape(qd, cd, qd, cd)
        pops = np.einsum("imim->m", r).real
        return float(np.dot(occ, pops))


def identity(space: SpaceDescriptor) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.dim, dtype=complex), hermitian=True)


def embed_qubit_op(
    space: SpaceDescriptor, qubit_index: int, local: np.ndarray
) -> OperatorMatrix:
    """Embed a 2x2 operator on qubit ``qubit_index`` (1-based), identity on
    all other factors."""
    if not 1 <= qubit_index <= space.num_qubits:
        raise ValueError(
            f"qubit_index {qubit_index} out of range 1..{space.num_qubits}"
        )
    local = np.asarray(local, dtype=complex)
    if local.shape != (2, 2):
        raise DimensionMismatchError(f"local operator must be 2x2, got {local.shape}")
    left = 2 ** (qubit_index - 1)
    right = space.dim // (2 * left)
    return OperatorMatrix(space, _embed(left, local, right))


def cavity_ops(space: SpaceDescriptor) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Annihilation and creation operators on the cavity factor.

    Hard truncation: ``a|m> = sqrt(m)|m-1>`` and ``a+|m> = sqrt(m+1)|m+1>``
    for ``m < cutoff``, with ``a+|cutoff> = 0``.
    """
    if not space.has_cavity:
        raise ValueError("space has no cavity factor")
    a = _embed(space.qubit_dim, annihilation(space.fock_cutoff), 1)
    return OperatorMatrix(space, a), OperatorMatrix(space, a.conj().T)


def annihilation(fock_cutoff: int) -> np.ndarray:
    """Truncated annihilation operator on the cavity factor alone."""
    return np.diag(np.sqrt(np.arange(1, fock_cutoff + 1, dtype=float)), k=1).astype(complex)


def _embed(left: int, local: np.ndarray, right: int) -> np.ndarray:
    """``I_left (x) local (x) I_right`` as a dense matrix: ``local`` is
    written onto the block diagonal of a zero array of the tensor shape,
    so no kron product is formed."""
    k = local.shape[0]
    out = np.zeros((left, k, right, left, k, right), dtype=complex)
    np.einsum("iajibj->ijab", out)[...] = local  # writable diagonal view
    return out.reshape(left * k * right, left * k * right)


def partial_trace_cavity(rho: DensityMatrix) -> DensityMatrix:
    """Trace out the cavity factor, returning the reduced qubit state."""
    if not rho.space.has_cavity:
        raise DimensionMismatchError("state has no cavity factor to trace out")
    if rho.space.num_qubits == 0:
        raise DimensionMismatchError("state has no qubit factors to keep")
    qd, cd = rho.space.qubit_dim, rho.space.cavity_dim
    r = rho.entries.reshape(qd, cd, qd, cd)
    reduced = np.einsum("imjm->ij", r)
    return DensityMatrix(rho.space.qubit_subspace(), reduced, validate=False)


def unitarity_defect(op: OperatorMatrix) -> float:
    """Max-norm deviation of ``op+ op`` from the identity."""
    d = op.space.dim
    return float(np.max(np.abs(op.entries.conj().T @ op.entries - np.eye(d))))


def gate_fidelity(actual: OperatorMatrix, ideal: OperatorMatrix) -> float:
    """Global-phase-invariant gate overlap ``|Tr(ideal+ actual)| / d``.

    Non-unitary inputs are not rejected here; callers that care should
    check :func:`unitarity_defect` and attach a warning to their report.
    """
    if actual.space.dim != ideal.space.dim:
        raise DimensionMismatchError(
            f"gate dimensions differ: {actual.space.dim} vs {ideal.space.dim}"
        )
    d = actual.space.dim
    return float(abs(np.vdot(ideal.entries, actual.entries)) / d)


def channel_fidelity(
    actual_channel: Callable[[StateVector], DensityMatrix],
    ideal: OperatorMatrix,
    probe_set: Sequence[StateVector] | None = None,
) -> float:
    """Probe-averaged state fidelity of a channel against an ideal unitary.

    For each probe ``psi`` the score is ``<psi_ideal| rho |psi_ideal>`` with
    ``psi_ideal = ideal @ psi`` and ``rho`` the channel output.  The default
    probe set is all product states in the per-qubit sigma-x eigenbasis.

    The ideal controlled-phase gate is diagonal in that basis, so with the
    default probes this scores sigma-x-basis populations only and is blind
    to the gate's phases: the identity channel scores 1.0 against
    ``ideal_ntcp(1)``, whose :func:`gate_fidelity` with the identity is 0.5.
    Pass other probes (e.g. :func:`z_basis_product_states`) to see phases.
    """
    if probe_set is None:
        probe_set = x_basis_product_states(ideal.space.num_qubits)
    if len(probe_set) == 0:
        raise ValueError("probe set is empty")
    total = 0.0
    for probe in probe_set:
        target = ideal.entries @ probe.amplitudes
        rho = actual_channel(probe)
        total += float((target.conj() @ rho.entries @ target).real)
    return total / len(probe_set)


@functools.cache
def basis_bits(num_qubits: int, qubit_index: int) -> np.ndarray:
    """Bit of qubit ``qubit_index`` (1-based, qubit 1 most significant) in
    every basis index ``0 .. 2**num_qubits - 1`` of the qubit factors.
    Cached per argument pair; the array is read-only."""
    if not 1 <= qubit_index <= num_qubits:
        raise ValueError(f"qubit_index {qubit_index} out of range 1..{num_qubits}")
    bits = (np.arange(2**num_qubits) >> (num_qubits - qubit_index)) & 1
    bits.setflags(write=False)
    return bits


@functools.cache
def sign_matrix(num_qubits: int) -> np.ndarray:
    """Sylvester-Hadamard sign matrix ``S[i, k] = (-1)^popcount(i & k)``
    with exact +-1 entries, built by doubling.  ``S / 2**(num_qubits/2)``
    is the Hadamard on every qubit and ``S @ S = 2**num_qubits I``, so a
    gate with sigma-x-basis phases ``d`` is ``(S * d) @ S / 2**num_qubits``.
    Cached per qubit count; the array is read-only."""
    dim = 2**num_qubits
    out = np.empty((dim, dim))
    out[0, 0] = 1.0
    size = 1
    while size < dim:
        block = out[:size, :size]
        out[:size, size : 2 * size] = block
        out[size : 2 * size, :size] = block
        np.negative(block, out=out[size : 2 * size, size : 2 * size])
        size *= 2
    out.setflags(write=False)
    return out


def x_basis_transform(num_qubits: int) -> np.ndarray:
    """Unitary mapping computational basis index bits to sigma-x eigenstates,
    bit 0 -> |+> and bit 1 -> |->.  Equals the Hadamard on every qubit and
    is its own inverse."""
    return (sign_matrix(num_qubits) * 2.0 ** (-0.5 * num_qubits)).astype(complex)


def x_basis_product_states(num_qubits: int) -> list[StateVector]:
    """All sigma-x-eigenbasis product states ``|s1 s2 ...>, s in {+,-}``,
    ordered with + before - per qubit."""
    space = qubit_space(num_qubits)
    w = x_basis_transform(num_qubits)
    return [StateVector(space, w[:, i]) for i in range(space.dim)]


def z_basis_product_states(num_qubits: int) -> list[StateVector]:
    """All computational (sigma-z) basis product states."""
    space = qubit_space(num_qubits)
    eye = np.eye(space.dim, dtype=complex)
    return [StateVector(space, eye[:, i]) for i in range(space.dim)]


def qubit_basis_state(space: SpaceDescriptor, bits: Sequence[int]) -> StateVector:
    """Computational basis state of the qubit factors of ``space``.

    The result lives on the qubit subspace; attach a cavity state with
    :func:`product_state` when a full-space vector is needed.
    """
    if len(bits) != space.num_qubits:
        raise DimensionMismatchError(
            f"expected {space.num_qubits} bits, got {len(bits)}"
        )
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b}")
        index = 2 * index + b
    amps = np.zeros(2 ** space.num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(qubit_space(space.num_qubits), amps)


def fock_state(fock_cutoff: int, m: int) -> StateVector:
    """Cavity Fock state ``|m>`` on the truncated cavity factor."""
    if not 0 <= m <= fock_cutoff:
        raise ValueError(f"Fock index {m} outside 0..{fock_cutoff}")
    amps = np.zeros(fock_cutoff + 1, dtype=complex)
    amps[m] = 1.0
    return StateVector(cavity_space(fock_cutoff), amps)


def product_state(qubit_part: StateVector, cavity_part: StateVector) -> StateVector:
    """Tensor a qubit-subspace state with a cavity state, qubits first."""
    if qubit_part.space.has_cavity or cavity_part.space.num_qubits != 0:
        raise DimensionMismatchError("expected a qubit-only state and a cavity-only state")
    space = SpaceDescriptor(qubit_part.space.num_qubits, cavity_part.space.fock_cutoff)
    return StateVector(space, np.kron(qubit_part.amplitudes, cavity_part.amplitudes))


def cavity_vacuum(fock_cutoff: int) -> DensityMatrix:
    return fock_state(fock_cutoff, 0).density_matrix()


def cavity_fock(fock_cutoff: int, m: int) -> DensityMatrix:
    return fock_state(fock_cutoff, m).density_matrix()


def cavity_coherent(fock_cutoff: int, alpha: complex) -> tuple[DensityMatrix, float]:
    """Truncated, renormalized coherent state.

    Returns the state and the truncated probability weight (population that
    would sit above the cutoff in the untruncated state).  The magnitudes
    ``|alpha|^m / sqrt(m!)`` are built as a running sum of logarithms and
    scaled by their largest value, so no amplitude overflows and the
    retained amplitudes never all underflow: the state is finite for every
    finite ``alpha`` and cutoff, and a state the cutoff cannot hold shows
    as a truncated weight near 1.
    """
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha}")
    if alpha == 0:
        return cavity_vacuum(fock_cutoff), 0.0
    m = np.arange(fock_cutoff + 1)
    log_mag = np.concatenate(([0.0], np.cumsum(math.log(abs(alpha)) - 0.5 * np.log(m[1:]))))
    peak = log_mag.max()
    scaled = np.exp(log_mag - peak)
    # kept = exp(-|alpha|^2) sum_m |alpha|^(2m) / m!; the product form of
    # |alpha|^2 gives inf rather than OverflowError for huge amplitudes
    kept = float(np.exp(2.0 * peak - abs(alpha) * abs(alpha)) * np.sum(scaled**2))
    amps = scaled * np.exp(1j * cmath.phase(alpha) * m)
    psi = StateVector.normalized(cavity_space(fock_cutoff), amps)
    return psi.density_matrix(), 1.0 - kept


def cavity_thermal(fock_cutoff: int, nbar: float) -> tuple[DensityMatrix, float]:
    """Truncated, renormalized thermal state with mean photon number ``nbar``.

    Returns the state and the truncated probability weight.
    """
    if nbar < 0:
        raise ValueError(f"mean photon number must be >= 0, got {nbar}")
    m = np.arange(fock_cutoff + 1)
    if nbar == 0:
        probs = np.zeros(fock_cutoff + 1)
        probs[0] = 1.0
    else:
        probs = (nbar / (1.0 + nbar)) ** m / (1.0 + nbar)
    kept = float(probs.sum())
    truncated_weight = 1.0 - kept
    rho = np.diag(probs / kept).astype(complex)
    return DensityMatrix(cavity_space(fock_cutoff), rho), truncated_weight
