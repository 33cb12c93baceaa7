"""Three-step protocol encoding: parameter solving, schedules for the four
realizations, and timing budgets.

A consistent parameter set ties together the two dispersive steps and the
final resonant-drive step:

* step one couples every qubit at negative detuning ``delta`` under a
  phase-pi drive of Rabi frequency ``omega`` for ``tau = 2 pi / |delta|``,
* step two couples only the target qubits at positive detuning
  ``delta_prime`` under a phase-zero drive ``omega_prime`` for
  ``tau_prime = 2 pi / delta_prime`` with the control decoupled,
* step three drives the decoupled qubits resonantly (``omega1`` on the
  control, ``omega_r`` on the targets) for another ``tau``.

The hard consistency conditions are the matching equalities
``omega tau = omega_prime tau_prime`` and ``lam tau = lam_prime tau_prime``,
the step-three choices ``omega1 = 4 lam n + omega`` and ``omega_r = 4 lam``,
and the phase parity ``4 g^2 / delta^2 = 2k + 1``.  The strong-drive regime
``omega >= 5 max(|delta|, g)`` is tracked as a soft condition: violating it
degrades the approximation but still defines a valid experiment.

Frequency switches between steps are treated as instantaneous, and each
step's propagator lives in the interaction picture of that step's own free
Hamiltonian; compositions multiply the step propagators directly.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from scipy.constants import e as E_CHARGE
from scipy.constants import hbar as HBAR

from .errors import InconsistentParametersError, InfeasibleHardwareError
from .hamiltonians import CircuitParams, charge_qubit_map, flux_for_qubit_freq

__all__ = [
    "ConditionCheck",
    "ParamSet",
    "QubitStepSettings",
    "ScheduleStep",
    "Schedule",
    "TimingBudget",
    "solve_parameters",
    "schedule_method_a",
    "schedule_method_b",
    "schedule_charge",
    "schedule_atoms",
    "timing_budget",
    "DEFAULT_DECOUPLE_FACTOR",
    "REGIME_FACTOR",
]

TWO_PI = 2.0 * math.pi

#: Detuning-to-coupling ratio used for finite-decoupling studies.
DEFAULT_DECOUPLE_FACTOR = 50.0

#: Operational cutoff for the strong-drive regime condition.
REGIME_FACTOR = 5.0

_MATCH_RTOL = 1e-12

HARD_TAGS = ("detuning-sign", "rabi-matching", "lambda-matching", "step3-drive", "parity")
SOFT_TAGS = ("regime",)


@dataclass(frozen=True)
class ConditionCheck:
    tag: str
    satisfied: bool
    detail: str


def _close(x: float, y: float, rtol: float = _MATCH_RTOL) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


@dataclass(frozen=True)
class ParamSet:
    """All protocol frequencies (rad/s) plus the derived times and
    nonlinear strengths.  The consistency flags are recomputed at
    construction, so hand-edited sets always carry up-to-date diagnostics;
    their detail text is formatted on first read of :attr:`consistency`."""

    g: float
    g_prime: float
    delta: float
    delta_prime: float
    omega: float
    omega_prime: float
    omega1: float
    omega_r: float
    k: int
    n: int

    def __post_init__(self):
        if self.g <= 0 or self.g_prime <= 0:
            raise ValueError("couplings must be positive")
        if self.delta == 0 or self.delta_prime == 0:
            raise ValueError("detunings must be nonzero (dispersive regime)")
        if self.n < 1:
            raise ValueError(f"target count must be >= 1, got {self.n}")
        object.__setattr__(self, "_flags", self._check_flags())

    # Derived quantities; always recomputed from the stored frequencies.
    @property
    def tau(self) -> float:
        return TWO_PI / abs(self.delta)

    @property
    def tau_prime(self) -> float:
        return TWO_PI / abs(self.delta_prime)

    @property
    def lam(self) -> float:
        return -self.g**2 / (4.0 * self.delta)

    @property
    def lam_prime(self) -> float:
        return self.g_prime**2 / (4.0 * self.delta_prime)

    @property
    def t_op(self) -> float:
        """Total dynamical time ``2 tau + tau_prime``."""
        return 2.0 * self.tau + self.tau_prime

    def _check_flags(self) -> tuple[tuple[str, bool], ...]:
        """``(tag, satisfied)`` of every condition, hard tags first."""
        step3_ok = _close(self.omega1, 4.0 * self.lam * self.n + self.omega) and _close(
            self.omega_r, 4.0 * self.lam
        )
        regime_ok = self.omega >= REGIME_FACTOR * max(
            abs(self.delta), self.g
        ) and self.omega_prime >= REGIME_FACTOR * max(abs(self.delta_prime), self.g_prime)
        return (
            ("detuning-sign", self.delta < 0 < self.delta_prime),
            ("rabi-matching", _close(self.omega * self.tau, self.omega_prime * self.tau_prime)),
            ("lambda-matching", _close(self.lam * self.tau, self.lam_prime * self.tau_prime)),
            ("step3-drive", step3_ok),
            ("parity", _close(4.0 * self.g**2 / self.delta**2, 2.0 * self.k + 1.0)),
            ("regime", regime_ok),
        )

    def _detail(self, tag: str) -> str:
        """Human-readable numbers behind one condition."""
        if tag == "detuning-sign":
            return (
                f"delta = {self.delta:.6g} (needs < 0), "
                f"delta' = {self.delta_prime:.6g} (needs > 0)"
            )
        if tag == "rabi-matching":
            return (
                f"omega*tau = {self.omega * self.tau:.12g} vs omega'*tau' = "
                f"{self.omega_prime * self.tau_prime:.12g}"
            )
        if tag == "lambda-matching":
            return (
                f"lam*tau = {self.lam * self.tau:.12g} vs lam'*tau' = "
                f"{self.lam_prime * self.tau_prime:.12g}"
            )
        if tag == "step3-drive":
            return (
                f"omega1 = {self.omega1:.12g} vs 4*lam*n + omega = "
                f"{4.0 * self.lam * self.n + self.omega:.12g}; omega_r = "
                f"{self.omega_r:.12g} vs 4*lam = {4.0 * self.lam:.12g}"
            )
        if tag == "parity":
            return (
                f"4 g^2/delta^2 = {4.0 * self.g**2 / self.delta**2:.12g} "
                f"vs 2k+1 = {2 * self.k + 1}"
            )
        return (
            f"strong-drive regime wants omega >= {REGIME_FACTOR:g} * max(|delta|, g); "
            f"omega/max = {self.omega / max(abs(self.delta), self.g):.3g}, "
            f"omega'/max = {self.omega_prime / max(abs(self.delta_prime), self.g_prime):.3g}"
        )

    @functools.cached_property
    def consistency(self) -> tuple[ConditionCheck, ...]:
        """Every condition with its numbers, in the order of the flags."""
        return tuple(ConditionCheck(tag, ok, self._detail(tag)) for tag, ok in self._flags)

    @property
    def violated_tags(self) -> tuple[str, ...]:
        return tuple(tag for tag, ok in self._flags if not ok)

    @property
    def is_consistent(self) -> bool:
        """True when every hard condition holds (regime is advisory)."""
        return not any(t in HARD_TAGS for t in self.violated_tags)

    def to_dict(self) -> dict:
        """Plain-scalar summary, frequencies both in rad/s and Hz."""
        out = {
            "n": self.n,
            "k": self.k,
            "g_rad_s": float(self.g),
            "g_prime_rad_s": float(self.g_prime),
            "delta_rad_s": float(self.delta),
            "delta_prime_rad_s": float(self.delta_prime),
            "omega_rad_s": float(self.omega),
            "omega_prime_rad_s": float(self.omega_prime),
            "omega1_rad_s": float(self.omega1),
            "omega_r_rad_s": float(self.omega_r),
            "tau_s": float(self.tau),
            "tau_prime_s": float(self.tau_prime),
            "lambda_rad_s": float(self.lam),
            "lambda_prime_rad_s": float(self.lam_prime),
            "t_op_s": float(self.t_op),
            "conditions": [
                {"tag": c.tag, "satisfied": c.satisfied, "detail": c.detail}
                for c in self.consistency
            ],
        }
        for key in ("g", "g_prime", "omega", "omega_prime", "omega1", "omega_r"):
            out[key + "_hz"] = float(getattr(self, key) / TWO_PI)
        return out


def solve_parameters(
    g: float,
    k: int,
    omega_ratio: float,
    n: int,
    g_prime: float | None = None,
) -> ParamSet:
    """Solve the protocol conditions for a coupling ``g`` (rad/s), phase
    parity index ``k`` and drive strength ``omega = omega_ratio * g``.

    The detuning follows from the parity condition,
    ``delta = -2 g / sqrt(2k+1)``; the second-step quantities follow from
    the matching conditions with ``g' = g`` unless specified.  The returned
    set satisfies all hard conditions by construction; a weak drive only
    trips the advisory ``regime`` tag.
    """
    if g <= 0:
        raise ValueError(f"coupling must be positive, got {g}")
    if k < 0 or int(k) != k:
        raise ValueError(f"parity index must be a non-negative integer, got {k}")
    if n < 1 or int(n) != n:
        raise ValueError(f"target count must be a positive integer, got {n}")
    if omega_ratio <= 0:
        raise ValueError(f"omega_ratio must be positive, got {omega_ratio}")
    if g_prime is None:
        g_prime = g
    elif g_prime <= 0:
        raise ValueError(f"g_prime must be positive, got {g_prime}")

    delta = -2.0 * g / math.sqrt(2.0 * k + 1.0)
    delta_prime = -delta * g_prime / g
    omega = omega_ratio * g
    tau = TWO_PI / abs(delta)
    tau_prime = TWO_PI / delta_prime
    omega_prime = omega * tau / tau_prime
    lam = -(g**2) / (4.0 * delta)
    omega1 = 4.0 * lam * n + omega
    omega_r = 4.0 * lam
    return ParamSet(
        g=g,
        g_prime=g_prime,
        delta=delta,
        delta_prime=delta_prime,
        omega=omega,
        omega_prime=omega_prime,
        omega1=omega1,
        omega_r=omega_r,
        k=int(k),
        n=int(n),
    )


@dataclass(frozen=True)
class QubitStepSettings:
    """What one qubit experiences during one step."""

    drive_rabi: float
    drive_phase: float
    coupled: bool
    detuning: float | None  # rad/s when coupled, None when ideally decoupled
    coupling: float = 0.0  # rad/s; 0 when ideally decoupled
    drive_freq: float | None = None  # rad/s, populated when a cavity frequency is known

    def __post_init__(self):
        if self.coupled and self.detuning is None:
            raise ValueError("coupled qubit needs a detuning value")
        if self.coupled and self.coupling <= 0:
            raise ValueError("coupled qubit needs a positive coupling strength")


@dataclass(frozen=True)
class ScheduleStep:
    label: str
    duration: float
    qubits: tuple[QubitStepSettings, ...]
    realization: str
    annotations: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"step duration must be positive, got {self.duration}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "annotations", MappingProxyType(dict(self.annotations)))


def _hz(x: float | None) -> float | None:
    """Angular frequency (rad/s) as cyclic Hz; ``None`` stays ``None``."""
    return None if x is None else float(x / TWO_PI)


def _rad(x: float | None) -> float | None:
    """Cyclic Hz as angular frequency (rad/s); ``None`` stays ``None``."""
    return None if x is None else float(x * TWO_PI)


@dataclass(frozen=True)
class Schedule:
    """Three dynamical steps plus any non-dynamical overhead times."""

    realization: str
    num_qubits: int
    steps: tuple[ScheduleStep, ...]
    extra_times: Mapping[str, float] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "extra_times", MappingProxyType(dict(self.extra_times)))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if len(self.steps) != 3:
            raise ValueError(f"a schedule has exactly three dynamical steps, got {len(self.steps)}")
        for step in self.steps:
            if len(step.qubits) != self.num_qubits:
                raise ValueError("every step must configure every qubit")

    @property
    def dynamical_time(self) -> float:
        return sum(s.duration for s in self.steps)

    @property
    def wall_time(self) -> float:
        return self.dynamical_time + sum(self.extra_times.values())

    def to_json_dict(self) -> dict:
        """Serialize to the documented interchange shape (frequencies in Hz)."""
        return {
            "format": "cavityphase-schedule-v1",
            "realization": self.realization,
            "num_qubits": self.num_qubits,
            "steps": [
                {
                    "label": s.label,
                    "duration_s": float(s.duration),
                    "qubits": [
                        {
                            "index": j + 1,
                            "drive": {
                                "rabi_hz": _hz(q.drive_rabi),
                                "phase_rad": float(q.drive_phase),
                                "freq_hz": _hz(q.drive_freq),
                            },
                            "coupled": q.coupled,
                            "detuning_hz": _hz(q.detuning),
                            "coupling_hz": _hz(q.coupling),
                        }
                        for j, q in enumerate(s.qubits)
                    ],
                    "annotations": {k: v for k, v in sorted(s.annotations.items())},
                }
                for s in self.steps
            ],
            "extra_times_s": {k: float(v) for k, v in sorted(self.extra_times.items())},
            "warnings": list(self.warnings),
        }

    def dumps(self) -> str:
        """The :meth:`to_json_dict` shape as compact one-line JSON.

        No ``indent``: any indent sends ``json`` through its pure-Python
        encoder, several times slower than the C one.  :meth:`loads` reads
        any whitespace, and ``python -m json.tool`` pretty-prints the text."""
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> Schedule:
        steps = []
        for s in data["steps"]:
            qubits = []
            for q in sorted(s["qubits"], key=lambda q: q["index"]):
                drive = q["drive"]
                qubits.append(
                    QubitStepSettings(
                        drive_rabi=_rad(drive["rabi_hz"]) or 0.0,
                        drive_phase=float(drive["phase_rad"]),
                        coupled=bool(q["coupled"]),
                        detuning=_rad(q["detuning_hz"]),
                        coupling=_rad(q.get("coupling_hz")) or 0.0,
                        drive_freq=_rad(drive["freq_hz"]),
                    )
                )
            steps.append(
                ScheduleStep(
                    label=s["label"],
                    duration=float(s["duration_s"]),
                    qubits=tuple(qubits),
                    realization=data["realization"],
                    annotations=s.get("annotations", {}),
                )
            )
        return cls(
            realization=data["realization"],
            num_qubits=int(data["num_qubits"]),
            steps=tuple(steps),
            extra_times=data.get("extra_times_s", {}),
            warnings=tuple(data.get("warnings", ())),
        )

    @classmethod
    def loads(cls, text: str) -> Schedule:
        return cls.from_json_dict(json.loads(text))


def _require_consistent(params: ParamSet):
    hard = tuple(t for t in params.violated_tags if t in HARD_TAGS)
    if hard:
        raise InconsistentParametersError(
            f"parameter set violates hard conditions: {', '.join(hard)}", tags=hard
        )


def _decoupled(finite_detuning: float | None) -> tuple[bool, float | None]:
    """(coupled, detuning) for a decoupled qubit; None means ideal
    decoupling, i.e. the coupling term is removed outright."""
    if finite_detuning is None:
        return False, None
    return True, finite_detuning


def _three_steps(
    params: ParamSet,
    realization: str,
    decouple_factor: float | None,
    annotations: tuple[dict, dict, dict] | None = None,
    drive_freqs: tuple[tuple[float | None, ...], ...] | None = None,
) -> tuple[ScheduleStep, ScheduleStep, ScheduleStep]:
    nq = params.n + 1
    big = None if decouple_factor is None else decouple_factor * params.g
    ann = annotations or ({}, {}, {})
    freqs = drive_freqs or ((None,) * nq,) * 3

    step1 = ScheduleStep(
        label="i",
        duration=params.tau,
        qubits=tuple(
            QubitStepSettings(
                drive_rabi=params.omega,
                drive_phase=math.pi,
                coupled=True,
                detuning=params.delta,
                coupling=params.g,
                drive_freq=freqs[0][j],
            )
            for j in range(nq)
        ),
        realization=realization,
        annotations=ann[0],
    )
    coupled_off, det_off = _decoupled(big)
    g_off = params.g if coupled_off else 0.0
    step2 = ScheduleStep(
        label="ii",
        duration=params.tau_prime,
        qubits=(
            QubitStepSettings(
                drive_rabi=0.0,
                drive_phase=0.0,
                coupled=coupled_off,
                detuning=det_off,
                coupling=g_off,
                drive_freq=freqs[1][0],
            ),
        )
        + tuple(
            QubitStepSettings(
                drive_rabi=params.omega_prime,
                drive_phase=0.0,
                coupled=True,
                detuning=params.delta_prime,
                coupling=params.g_prime,
                drive_freq=freqs[1][j],
            )
            for j in range(1, nq)
        ),
        realization=realization,
        annotations=ann[1],
    )
    step3 = ScheduleStep(
        label="iii",
        duration=params.tau,
        qubits=(
            QubitStepSettings(
                drive_rabi=params.omega1,
                drive_phase=0.0,
                coupled=coupled_off,
                detuning=det_off,
                coupling=g_off,
                drive_freq=freqs[2][0],
            ),
        )
        + tuple(
            QubitStepSettings(
                drive_rabi=params.omega_r,
                drive_phase=0.0,
                coupled=coupled_off,
                detuning=det_off,
                coupling=g_off,
                drive_freq=freqs[2][j],
            )
            for j in range(1, nq)
        ),
        realization=realization,
        annotations=ann[2],
    )
    return step1, step2, step3


def _retuned_qubit_freqs(
    params: ParamSet, cavity_freq: float, decouple_factor: float | None
) -> tuple[tuple[float, ...], ...]:
    """Per-step qubit transition frequencies when the cavity stays at
    ``cavity_freq`` and the qubits retune: every qubit at
    ``cavity_freq + delta`` in step one; in step two the control parked at
    ``cavity_freq + factor * g`` and the targets at
    ``cavity_freq + delta_prime``; every qubit parked in step three.
    Decoupled qubits are parked even when the dynamics treat them as
    ideally decoupled; that is the frequency a real device would park at."""
    nq = params.n + 1
    factor = DEFAULT_DECOUPLE_FACTOR if decouple_factor is None else decouple_factor
    parked = cavity_freq + factor * params.g
    return (
        (cavity_freq + params.delta,) * nq,
        (parked,) + (cavity_freq + params.delta_prime,) * (nq - 1),
        (parked,) * nq,
    )


def _frequency_annotations(
    cavity_freqs: tuple[float, float, float], qubit_freqs: tuple[tuple[float, ...], ...]
) -> tuple[dict, dict, dict]:
    """Per-step annotations ``cavity_freq_hz`` and ``qubit_freq_hz_q{j}``
    from the step's cavity and qubit transition frequencies (rad/s).  The
    qubit frequencies are also the steps' drive frequencies."""
    return tuple(
        {"cavity_freq_hz": wc / TWO_PI}
        | {f"qubit_freq_hz_q{j}": w0 / TWO_PI for j, w0 in enumerate(row, start=1)}
        for wc, row in zip(cavity_freqs, qubit_freqs)
    )


def schedule_method_a(
    params: ParamSet,
    decouple_factor: float | None = None,
    cavity_freq: float | None = None,
) -> Schedule:
    """Three-step schedule that retunes qubit transition frequencies while
    the cavity frequency stays fixed.

    ``decouple_factor=None`` removes decoupled qubits from the interaction
    entirely (ideal decoupling); a number keeps them coupled at the large
    detuning ``factor * g``.
    """
    _require_consistent(params)
    annotations = drive_freqs = None
    if cavity_freq is not None:
        drive_freqs = _retuned_qubit_freqs(params, cavity_freq, decouple_factor)
        annotations = _frequency_annotations((cavity_freq,) * 3, drive_freqs)
    steps = _three_steps(params, "method-a", decouple_factor, annotations, drive_freqs)
    return Schedule(
        realization="method-a",
        num_qubits=params.n + 1,
        steps=steps,
        warnings=_regime_warnings(params),
    )


def schedule_method_b(
    params: ParamSet,
    decouple_factor: float | None = None,
    cavity_freq: float | None = None,
) -> Schedule:
    """Three-step schedule that retunes the cavity frequency while the
    target-qubit transition frequencies stay fixed.

    The step detunings (and hence the dynamics) are identical to method A;
    only the frequency bookkeeping differs: the targets sit at
    ``w_c + delta`` throughout, the cavity moves to realize ``delta_prime``
    in step two and a large detuning in step three, and the control qubit
    is parked in step two and restored in step three.
    """
    _require_consistent(params)
    annotations = drive_freqs = None
    if cavity_freq is not None:
        factor = DEFAULT_DECOUPLE_FACTOR if decouple_factor is None else decouple_factor
        big = factor * params.g
        w_target = cavity_freq + params.delta
        cavity_freqs = (cavity_freq, w_target - params.delta_prime, w_target - big)
        targets = (w_target,) * params.n
        drive_freqs = (
            (w_target,) + targets,
            (cavity_freqs[1] + big,) + targets,
            (w_target,) + targets,
        )
        annotations = _frequency_annotations(cavity_freqs, drive_freqs)
    steps = _three_steps(params, "method-b", decouple_factor, annotations, drive_freqs)
    return Schedule(
        realization="method-b",
        num_qubits=params.n + 1,
        steps=steps,
        warnings=_regime_warnings(params),
    )


#: Attached to charge schedules: the resonator lifetime quoted for these
#: reference parameters does not follow from kappa^-1 = Q / omega_c.
CHARGE_LIFETIME_NOTE = (
    "quoted-estimate check (charge): kappa^-1 = Q/omega_c gives ~1.59 us for "
    "Q = 1e5 at 10 GHz; the often-quoted ~794 ns is inconsistent with that "
    "formula and is not reproduced"
)

#: Attached to atomic schedules: the often-quoted ~65 us total for the
#: reference atomic parameters exceeds the schedule arithmetic.
ATOM_WALLTIME_NOTE = (
    "quoted-estimate check (atomic): computed wall time {computed:.4g} s from "
    "step durations plus retune/shuttle overhead; the often-quoted ~65 us "
    "total for the reference atomic parameters is inconsistent and is not "
    "reproduced"
)


def schedule_charge(
    params: ParamSet,
    circuit: CircuitParams,
    cavity_freq: float,
    decouple_factor: float | None = None,
) -> Schedule:
    """Method-A schedule annotated with the gate-voltage amplitudes and flux
    values that realize each step on flux-tunable charge qubits.

    The resonator frequency is fixed for the whole operation.  The circuit
    must reproduce the parameter set's coupling within 1%; each required ac
    amplitude must not exceed ``circuit.v0`` and each transition frequency
    must be reachable by flux tuning, otherwise
    :class:`InfeasibleHardwareError` is raised.
    """
    _require_consistent(params)
    _, _, g_circuit = charge_qubit_map(circuit, cavity_freq)
    if abs(g_circuit - params.g) > 0.01 * params.g:
        raise InconsistentParametersError(
            f"circuit coupling {g_circuit:.6g} rad/s does not reproduce the "
            f"parameter set's g = {params.g:.6g} rad/s within 1%",
            tags=("circuit-g-mismatch",),
        )

    nq = params.n + 1

    def volts(rabi: float) -> float:
        v = rabi * HBAR * E_CHARGE / (2.0 * circuit.e_c * circuit.c_g)
        if v > circuit.v0:
            raise InfeasibleHardwareError(
                f"step needs ac amplitude {v:.3e} V, above the available {circuit.v0:.3e} V"
            )
        return v

    def flux(w0: float) -> float:
        try:
            return flux_for_qubit_freq(circuit, w0)
        except ValueError as exc:
            raise InfeasibleHardwareError(str(exc)) from exc

    rabis = (
        (params.omega,) * nq,
        (0.0,) + (params.omega_prime,) * (nq - 1),
        (params.omega1,) + (params.omega_r,) * (nq - 1),
    )
    drive_freqs = _retuned_qubit_freqs(params, cavity_freq, decouple_factor)
    annotations = _frequency_annotations((cavity_freq,) * 3, drive_freqs)
    for ann, freq_row, rabi_row in zip(annotations, drive_freqs, rabis):
        for j, (w0, rabi) in enumerate(zip(freq_row, rabi_row), start=1):
            ann[f"flux_ratio_q{j}"] = flux(w0)
            ann[f"v0_volts_q{j}"] = volts(rabi)

    steps = _three_steps(params, "charge", decouple_factor, annotations, drive_freqs)
    return Schedule(
        realization="charge",
        num_qubits=nq,
        steps=steps,
        warnings=_regime_warnings(params) + (CHARGE_LIFETIME_NOTE,),
    )


def schedule_atoms(params: ParamSet, tau_a: float, tau_m: float) -> Schedule:
    """Atomic realization: decoupling happens by shuttling atoms out of the
    cavity, so it is ideal by construction.  ``tau_a`` is the cavity retune
    time between steps one and two, ``tau_m`` the single-shuttle time (four
    shuttles are needed)."""
    _require_consistent(params)
    if tau_a < 0 or tau_m < 0:
        raise ValueError("overhead times must be >= 0")
    steps = _three_steps(params, "atomic", None)
    extra = {"cavity_retune": tau_a, "atom_shuttle_total": 4.0 * tau_m}
    wall = sum(s.duration for s in steps) + tau_a + 4.0 * tau_m
    return Schedule(
        realization="atomic",
        num_qubits=params.n + 1,
        steps=steps,
        extra_times=extra,
        warnings=_regime_warnings(params) + (ATOM_WALLTIME_NOTE.format(computed=wall),),
    )


def _regime_warnings(params: ParamSet) -> tuple[str, ...]:
    return tuple(
        f"condition '{tag}' violated: {params._detail(tag)}"
        for tag in params.violated_tags
        if tag in SOFT_TAGS
    )


@dataclass(frozen=True)
class TimingBudget:
    """Operation time against the available coherence and photon lifetimes.

    Margins are ratios that should stay well below one; anything above 0.1
    raises a warning.
    """

    t_op: float
    t1: float
    t2: float
    kappa_inv: float
    margins: Mapping[str, float] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "margins", MappingProxyType(dict(self.margins)))
        object.__setattr__(self, "warnings", tuple(self.warnings))

    def to_dict(self) -> dict:
        return {
            "t_op_s": float(self.t_op),
            "t1_s": float(self.t1),
            "t2_s": float(self.t2),
            "kappa_inv_s": float(self.kappa_inv),
            "margins": {k: float(v) for k, v in sorted(self.margins.items())},
            "warnings": list(self.warnings),
        }


def timing_budget(
    schedule: Schedule, t1: float, t2: float, q: float, cavity_freq: float
) -> TimingBudget:
    """Compare the schedule's wall time with the qubit coherence times and
    the resonator photon lifetime ``kappa^-1 = Q / omega_c``."""
    if min(t1, t2, q, cavity_freq) <= 0:
        raise ValueError("budget inputs must be positive")
    t_op = schedule.wall_time
    kappa_inv = q / cavity_freq
    margins = {
        "t1": t_op / t1,
        "t2": t_op / t2,
        "cavity": t_op / kappa_inv,
    }
    warnings = tuple(
        f"timing margin '{name}' = {value:.3g} exceeds 0.1"
        for name, value in sorted(margins.items())
        if value > 0.1
    )
    return TimingBudget(
        t_op=t_op, t1=t1, t2=t2, kappa_inv=kappa_inv, margins=margins, warnings=warnings
    )
