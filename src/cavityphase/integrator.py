"""Time-ordered propagation of time-dependent Hermitian Hamiltonians.

A Hamiltonian that declares a rotating frame ``Gamma`` (diagonal, with
``H(t) = exp(i Gamma (t - t0)) H(t0) exp(-i Gamma (t - t0))``) is propagated
exactly: ``U = exp(i Gamma T) exp(-i (H(t0) + Gamma) T)``, one
eigendecomposition per interval.  Every other Hamiltonian goes through the
adaptive integrator below, which is also the oracle the frame path is
tested against.

The adaptive scheme is second-order midpoint exponential stepping: each
sub-interval contributes ``exp(-i h H(midpoint))``, so every factor is
exactly unitary and the product cannot drift off the unitary group.
Accuracy is controlled by comparing one full step against two half steps
(a Richardson-style error estimate) and bisecting intervals until the
local error fits its share of the global tolerance.  The initial grid
resolves the fastest known oscillation of the Hamiltonian at
``oversample`` points per period.

Propagation is deterministic: identical inputs produce identical outputs
within one build.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, StepBudgetExceededError, TruncationWarning
from .hilbert import OperatorMatrix, SpaceDescriptor, StateVector

__all__ = [
    "TimeDependentHamiltonian",
    "PropagationResult",
    "propagate",
    "evolve_state",
    "compose",
    "TRUNCATION_FLAG_THRESHOLD",
]

#: Top-Fock-level population above which results are flagged.
TRUNCATION_FLAG_THRESHOLD = 1e-6

#: Largest disagreement, relative to the max-norm of H(t0), between the
#: builder and the frame-rotated H(t0) at the interval midpoint.
_FRAME_CHECK_RTOL = 1e-10

_DEFAULT_OVERSAMPLE = 20
_DEFAULT_STEP_BUDGET = 2_000_000


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    """A builder ``t -> H(t)`` (dense Hermitian matrix, angular-frequency
    units) together with the largest oscillation frequency appearing in its
    time dependence (rad/s; 0 for a constant Hamiltonian).  The hint only
    sets the initial step size, adaptivity does the rest.

    ``frame``, when set, is the diagonal of a real ``Gamma`` with
    ``H(t) = exp(i Gamma (t - t0)) H(t0) exp(-i Gamma (t - t0))`` for every
    ``t0``; propagation then uses the exact frame propagator instead of
    adaptive stepping."""

    space: SpaceDescriptor
    builder: Callable[[float], np.ndarray]
    max_frequency: float = 0.0
    frame: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.frame is not None:
            frame = np.array(self.frame, dtype=float)
            if frame.shape != (self.space.dim,):
                raise DimensionMismatchError(
                    f"frame needs {self.space.dim} diagonal entries, got shape {frame.shape}"
                )
            frame.flags.writeable = False
            object.__setattr__(self, "frame", frame)

    def __call__(self, t: float) -> np.ndarray:
        return self.builder(t)


@dataclass(frozen=True)
class PropagationResult:
    """A unitary propagator plus integration diagnostics.

    ``truncation_leakage`` bounds the population an initially-below-cutoff
    state can acquire at the top Fock level (operator norm of the top-level
    block of the propagator restricted to lower levels); 0 for cavity-free
    spaces.  ``paths`` holds ``(path, step_count)`` for each propagated
    interval in order, ``path`` being ``"frame"`` or ``"adaptive"``.
    """

    propagator: OperatorMatrix
    step_count: int
    max_unitarity_defect: float
    truncation_leakage: float
    paths: tuple[tuple[str, int], ...] = ()

    @property
    def space(self) -> SpaceDescriptor:
        return self.propagator.space


# Below this value of |dt| * ||h||_1 a sixth-order Taylor product has
# backward error under 1e-12, so the cheap polynomial replaces the
# eigendecomposition on the (dominant) small sub-steps.
_TAYLOR_THETA = 0.05
_TAYLOR_ORDER = 6


def _expmi(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt h) for Hermitian h: Horner-evaluated Taylor for small
    steps, eigendecomposition otherwise."""
    theta = abs(dt) * np.linalg.norm(h, 1)
    if theta < _TAYLOR_THETA:
        x = (-1j * dt) * h
        eye = np.eye(h.shape[0], dtype=complex)
        out = eye + x / _TAYLOR_ORDER
        for k in range(_TAYLOR_ORDER - 1, 0, -1):
            out = eye + (x / k) @ out
        return out
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * dt * w)) @ v.conj().T


def _initial_grid(t0: float, t1: float, max_frequency: float, oversample: int) -> int:
    span = t1 - t0
    if max_frequency > 0:
        h0 = (2.0 * math.pi / max_frequency) / oversample
        return max(1, math.ceil(span / h0))
    return 1


def _top_level_leakage(u: np.ndarray, space: SpaceDescriptor) -> float:
    if not space.has_cavity:
        return 0.0
    cd = space.cavity_dim
    idx = np.arange(space.dim)
    top = (idx % cd) == cd - 1
    block = u[np.ix_(top, ~top)]
    if block.size == 0:
        return 0.0
    smax = np.linalg.svd(block, compute_uv=False)[0]
    return float(smax**2)


def _frame_propagator(
    h: TimeDependentHamiltonian, t0: float, t1: float, mid_sample: np.ndarray
) -> np.ndarray:
    """Exact propagator ``exp(i Gamma T) exp(-i (H(t0) + Gamma) T)`` of a
    Hamiltonian with a declared frame, after checking the builder's value
    at the midpoint against the frame-rotated ``H(t0)``."""
    gamma = h.frame
    h0 = h(t0)
    mid = 0.5 * (t0 + t1)
    phase = np.exp(1j * (mid - t0) * gamma)
    rotated = phase[:, None] * h0 * phase.conj()
    mismatch = float(np.max(np.abs(mid_sample - rotated)))
    if mismatch > _FRAME_CHECK_RTOL * float(np.max(np.abs(h0))):
        raise ValueError(
            f"builder disagrees with its declared frame at t = {mid:.6g} "
            f"(max deviation {mismatch:.3e})"
        )
    span = t1 - t0
    w, v = np.linalg.eigh(h0 + np.diag(gamma))
    return np.exp(1j * span * gamma)[:, None] * ((v * np.exp(-1j * span * w)) @ v.conj().T)


def _adaptive_sweep(
    h: TimeDependentHamiltonian,
    t0: float,
    t1: float,
    tol: float,
    oversample: int,
    step_budget: int,
    start: np.ndarray,
):
    """Adaptive driver for propagators (``start`` a matrix) and states
    (``start`` a vector).  Each interval is accepted when its two
    half-steps agree with the single midpoint step within the interval's
    share of the tolerance, otherwise it is bisected; the half-step
    exponentials are handed down as the children's coarse candidates.
    Returns (accumulator, accepted_step_count)."""
    acc_is_matrix = start.ndim == 2
    span = t1 - t0
    n0 = _initial_grid(t0, t1, h.max_frequency, oversample)
    edges = np.linspace(t0, t1, n0 + 1)
    stack = [(edges[i], edges[i + 1], None) for i in range(n0 - 1, -1, -1)]
    acc = start
    accepted = 0
    expm_calls = 0
    min_width = span * 1e-14
    while stack:
        a, b, coarse = stack.pop()
        width = b - a
        mid = 0.5 * (a + b)
        if coarse is None:
            coarse = _expmi(h(mid), width)
            expm_calls += 1
        left = _expmi(h(0.5 * (a + mid)), 0.5 * width)
        right = _expmi(h(0.5 * (mid + b)), 0.5 * width)
        expm_calls += 2
        if expm_calls > step_budget:
            raise StepBudgetExceededError(
                f"exceeded {step_budget} matrix exponentials at t = {a:.6g} "
                f"(interval width {width:.3g}, {accepted} accepted steps)",
                partial={"t_reached": a, "accepted_steps": accepted},
            )
        if acc_is_matrix:
            fine = right @ left
            err = float(np.max(np.abs(fine - coarse)))
        else:
            fine = right @ (left @ acc)
            err = float(np.max(np.abs(fine - coarse @ acc)))
        if err <= 0.9 * tol * (width / span) or width <= min_width:
            acc = fine @ acc if acc_is_matrix else fine
            accepted += 2
        else:
            stack.append((mid, b, right))
            stack.append((a, mid, left))
    return acc, accepted


def _sweep(
    h: TimeDependentHamiltonian,
    t0: float,
    t1: float,
    tol: float,
    oversample: int,
    step_budget: int,
    start: np.ndarray,
):
    """Shared driver of :func:`propagate` and :func:`evolve_state`: apply
    the propagator over ``[t0, t1]`` to ``start``, on the frame path when
    ``h`` declares a frame and adaptively otherwise.  Returns
    (accumulator, path, step_count)."""
    if t1 <= t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    if not 0.0 < tol <= 1e-2:
        raise ValueError(f"tolerance must lie in (0, 1e-2], got {tol}")
    # spot-check the Hermiticity contract once; every step assumes it
    sample = h(0.5 * (t0 + t1))
    herm_defect = float(np.max(np.abs(sample - sample.conj().T)))
    if herm_defect > 1e-10:
        raise ValueError(
            f"builder returned a non-Hermitian matrix (defect {herm_defect:.3e})"
        )
    if h.frame is not None:
        return _frame_propagator(h, t0, t1, sample) @ start, "frame", 1
    acc, accepted = _adaptive_sweep(h, t0, t1, tol, oversample, step_budget, start)
    return acc, "adaptive", accepted


def propagate(
    h: TimeDependentHamiltonian,
    t0: float,
    t1: float,
    tol: float = 1e-8,
    oversample: int = _DEFAULT_OVERSAMPLE,
    step_budget: int = _DEFAULT_STEP_BUDGET,
) -> PropagationResult:
    """Time-ordered propagator of ``h`` over ``[t0, t1]`` to accuracy
    ``tol`` (max-norm, accumulated over the interval).  Exact up to
    round-off when ``h`` declares a frame."""
    dim = h.space.dim
    u, path, steps = _sweep(
        h, t0, t1, tol, oversample, step_budget, start=np.eye(dim, dtype=complex)
    )
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
    return PropagationResult(
        propagator=OperatorMatrix(h.space, u),
        step_count=steps,
        max_unitarity_defect=defect,
        truncation_leakage=_top_level_leakage(u, h.space),
        paths=((path, steps),),
    )


def evolve_state(
    h: TimeDependentHamiltonian,
    psi0: StateVector,
    t0: float,
    t1: float,
    tol: float = 1e-8,
    oversample: int = _DEFAULT_OVERSAMPLE,
    step_budget: int = _DEFAULT_STEP_BUDGET,
) -> StateVector:
    """Evolve a state with the same driver as :func:`propagate`.

    Warns with :class:`TruncationWarning` when the final population of the
    top Fock level exceeds the flag threshold.
    """
    if psi0.space != h.space:
        raise DimensionMismatchError("initial state lives on a different space")
    amps, _, _ = _sweep(
        h, t0, t1, tol, oversample, step_budget, start=psi0.amplitudes.copy()
    )
    if h.space.has_cavity:
        cd = h.space.cavity_dim
        idx = np.arange(h.space.dim)
        top_pop = float(np.sum(np.abs(amps[(idx % cd) == cd - 1]) ** 2))
        if top_pop > TRUNCATION_FLAG_THRESHOLD:
            _warnings.warn(
                f"final top-Fock-level population {top_pop:.3e} exceeds "
                f"{TRUNCATION_FLAG_THRESHOLD:g}; increase the cutoff",
                TruncationWarning,
                stacklevel=2,
            )
    return StateVector(h.space, amps)


def compose(results: Sequence[PropagationResult]) -> PropagationResult:
    """Ordered product of step propagators, first result applied first.

    Unitarity defects accumulate additively; the truncation bound is the
    worst single-step bound (leakage can also interfere destructively, so
    this is a diagnostic, not a rigorous sum).
    """
    if not results:
        raise ValueError("nothing to compose")
    space = results[0].space
    for r in results[1:]:
        if r.space != space:
            raise DimensionMismatchError("propagators live on different spaces")
    u = np.eye(space.dim, dtype=complex)
    for r in results:
        u = r.propagator.entries @ u
    return PropagationResult(
        propagator=OperatorMatrix(space, u),
        step_count=sum(r.step_count for r in results),
        max_unitarity_defect=sum(r.max_unitarity_defect for r in results),
        truncation_leakage=max(r.truncation_leakage for r in results),
        paths=tuple(p for r in results for p in r.paths),
    )
