"""Gate-quality analysis: full-dynamics runs of a schedule, leakage
estimates for multi-level qubits, cavity-initial-state robustness, Rabi
inhomogeneity sensitivity, and consolidated experiment reports.

The full dynamics of one schedule is a single propagator on the
qubits-plus-cavity space; all per-cavity-state fidelities reuse it.  The
leakage numbers are closed-form estimates and are labelled as such in
reports; they are never multiplied into fidelities.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import product as _grid_product
from types import MappingProxyType

import numpy as np

from .effective import (
    EffectiveGate,
    combined_evolution,
    effective_step1,
    effective_step2,
    effective_step3,
    ideal_ntcp,
)
from .hamiltonians import CircuitParams
from .hilbert import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    DensityMatrix,
    OperatorMatrix,
    SpaceDescriptor,
    StateVector,
    cavity_coherent,
    cavity_fock,
    cavity_ops,
    cavity_thermal,
    cavity_vacuum,
    channel_fidelity,
    embed_qubit_op,
    gate_fidelity,
    make_space,
    qubit_space,
    z_basis_product_states,
)
from .integrator import (
    TRUNCATION_FLAG_THRESHOLD,
    PropagationResult,
    TimeDependentHamiltonian,
    compose,
    propagate,
)
from .protocol import (
    ParamSet,
    Schedule,
    ScheduleStep,
    schedule_atoms,
    schedule_charge,
    schedule_method_a,
    schedule_method_b,
    solve_parameters,
    timing_budget,
)

__all__ = [
    "LeakageSpec",
    "leakage_probabilities",
    "step_hamiltonian",
    "propagate_schedule",
    "schedule_channel",
    "effective_gates_from_schedule",
    "make_cavity_state",
    "RobustnessResult",
    "cavity_robustness",
    "SensitivityStats",
    "rabi_deviation_sensitivity",
    "SweepAxis",
    "ExperimentConfig",
    "GateReport",
    "run_experiment",
    "run_sweep",
    "top_level_population",
    "SWEEPABLE_PARAMETERS",
    "MAX_STATE_TRUNCATION_WEIGHT",
]

TWO_PI = 2.0 * math.pi

#: Initial cavity states whose truncated weight exceeds this are rejected.
MAX_STATE_TRUNCATION_WEIGHT = 1e-3


@dataclass(frozen=True)
class LeakageSpec:
    """Inputs of the closed-form leakage estimates.

    Case ``L``: the next level above the qubit pair is further away than
    the qubit splitting, so only the 1-2 transition matters.  Case ``S``:
    the cavity sits between two nearby upper transitions and both the 1-2
    and 1-3 detunings must be large.
    """

    case: str
    g12: float
    g13: float = 0.0
    delta2: float = 0.0
    delta3: float | None = None

    def __post_init__(self):
        if self.case not in ("L", "S"):
            raise ValueError(f"case must be 'L' or 'S', got {self.case!r}")
        if self.g12 <= 0 or self.delta2 <= 0:
            raise ValueError("g12 and delta2 must be positive")
        if self.case == "S":
            if self.delta3 is None:
                raise ValueError("case S needs the 1-3 detuning delta3")
            if self.g13 <= 0 or self.delta3 <= 0:
                raise ValueError("case S needs positive g13 and delta3")


def leakage_probabilities(spec: LeakageSpec) -> tuple[float, float | None]:
    """Occupation estimates for the levels above the computational pair
    when the cavity holds one photon:

        p2 = 4 g12^2 / (4 g12^2 + delta2^2)
        p3 = 4 g13^2 / (4 g13^2 + delta3^2)   (case S only)

    These are order-of-magnitude estimates, strictly decreasing in the
    detunings.
    """
    p2 = 4.0 * spec.g12**2 / (4.0 * spec.g12**2 + spec.delta2**2)
    if spec.case == "L":
        return p2, None
    p3 = 4.0 * spec.g13**2 / (4.0 * spec.g13**2 + spec.delta3**2)
    return p2, p3


def step_hamiltonian(
    space: SpaceDescriptor,
    step: ScheduleStep,
    rabi_scales: Sequence[float] | None = None,
) -> TimeDependentHamiltonian:
    """Interaction-picture Hamiltonian of one schedule step.

    Local step time starts at zero.  ``rabi_scales`` multiplies each
    qubit's drive amplitude (used for inhomogeneity studies).

    The step also declares its rotating frame
    ``Gamma = c_cav a+a + sum_j c_j |1><1|_j``, which makes it static:
    driven qubits stay put (``c_j = 0``), so every driven coupled qubit
    must see one shared detuning ``delta`` and ``c_cav = -delta`` (0 when
    none is driven and coupled); an undriven coupled qubit rotates at
    ``c_j = delta_j + c_cav``.  Driven coupled qubits at unequal detunings
    admit no such frame; the step then carries none and is integrated
    adaptively.
    """
    nq = space.num_qubits
    if len(step.qubits) != nq:
        raise ValueError(f"step configures {len(step.qubits)} qubits, space has {nq}")
    scales = np.ones(nq) if rabi_scales is None else np.asarray(rabi_scales, dtype=float)
    if scales.shape != (nq,):
        raise ValueError(f"need one Rabi scale per qubit, got shape {scales.shape}")

    dim = space.dim
    static = np.zeros((dim, dim), dtype=complex)
    oscillators: list[tuple[float, np.ndarray]] = []
    max_freq = 0.0
    if space.has_cavity:
        a, _ = cavity_ops(space)
    driven_detunings: set[float] = set()
    undriven_coupled: list[tuple[int, float]] = []
    for j, q in enumerate(step.qubits, start=1):
        if q.coupled:
            if q.drive_rabi > 0:
                driven_detunings.add(q.detuning)
            else:
                undriven_coupled.append((j, q.detuning))
        if q.drive_rabi > 0:
            rabi = q.drive_rabi * scales[j - 1]
            sm = embed_qubit_op(space, j, SIGMA_MINUS).entries
            sp = embed_qubit_op(space, j, SIGMA_PLUS).entries
            static += 0.5 * rabi * (
                np.exp(1j * q.drive_phase) * sm + np.exp(-1j * q.drive_phase) * sp
            )
            max_freq = max(max_freq, rabi)
        if q.coupled:
            if not space.has_cavity:
                raise ValueError("coupled step needs a cavity factor in the space")
            sp = embed_qubit_op(space, j, SIGMA_PLUS).entries
            oscillators.append((q.detuning, q.coupling * (a.entries @ sp)))
            max_freq = max(max_freq, abs(q.detuning))

    def builder(t: float) -> np.ndarray:
        h = static.copy()
        for delta, term in oscillators:
            rot = np.exp(1j * delta * t) * term
            h += rot + rot.conj().T
        return h

    frame = None
    if len(driven_detunings) <= 1:
        c_cav = -driven_detunings.pop() if driven_detunings else 0.0
        frame = np.zeros(dim)
        if space.has_cavity:  # photon number of each basis state, cavity last
            frame += c_cav * np.tile(np.arange(space.cavity_dim, dtype=float), space.qubit_dim)
        excited = np.diag([0.0, 1.0])
        for j, delta in undriven_coupled:
            frame += (delta + c_cav) * embed_qubit_op(space, j, excited).entries.diagonal().real
    return TimeDependentHamiltonian(
        space=space, builder=builder, max_frequency=max_freq, frame=frame
    )


def propagate_schedule(
    space: SpaceDescriptor,
    schedule: Schedule,
    tol: float = 1e-6,
    rabi_scales: Sequence[float] | None = None,
) -> PropagationResult:
    """Propagate all three steps and compose them, first step applied first.

    Each step runs in the interaction picture of its own free Hamiltonian;
    the composition multiplies the step propagators directly.  The
    per-step tolerance is ``tol / 3`` so the composition meets ``tol``.
    """
    if space.num_qubits != schedule.num_qubits:
        raise ValueError(
            f"space has {space.num_qubits} qubits, schedule {schedule.num_qubits}"
        )
    results = []
    for step in schedule.steps:
        h = step_hamiltonian(space, step, rabi_scales)
        results.append(propagate(h, 0.0, step.duration, tol / 3.0))
    return compose(results)


def schedule_channel(
    propagator: OperatorMatrix, cavity_state: DensityMatrix
):
    """Qubit-space channel induced by a full-space propagator with the
    cavity prepared in ``cavity_state``: evolve, then trace out the cavity."""
    space = propagator.space
    if not space.has_cavity:
        raise ValueError("propagator must act on a qubits-plus-cavity space")
    if cavity_state.space.fock_cutoff != space.fock_cutoff:
        raise ValueError("cavity state cutoff does not match the propagator space")
    weights, vecs = np.linalg.eigh(cavity_state.entries)
    keep = weights > 1e-14
    weights, vecs = weights[keep], vecs[:, keep]
    u = propagator.entries
    qd, cd = space.qubit_dim, space.cavity_dim
    qspace = space.qubit_subspace()

    def channel(psi_q: StateVector) -> DensityMatrix:
        rho = np.zeros((qd, qd), dtype=complex)
        for w, chi in zip(weights, vecs.T):
            full = u @ np.kron(psi_q.amplitudes, chi)
            m = full.reshape(qd, cd)
            rho += w * (m @ m.conj().T)
        return DensityMatrix(qspace, rho, validate=False)

    return channel


def top_level_population(
    propagator: OperatorMatrix,
    cavity_state: DensityMatrix,
    probes: Sequence[StateVector] | None = None,
) -> float:
    """Largest final population of the top retained Fock level over the
    probe states, for the given initial cavity state.

    This is the physically meaningful cutoff diagnostic: the worst-case
    operator-norm bound in :class:`PropagationResult` also counts inputs
    that start next to the truncation wall and is far more pessimistic.
    """
    space = propagator.space
    qd, cd = space.qubit_dim, space.cavity_dim
    if probes is None:
        from .hilbert import x_basis_product_states

        probes = x_basis_product_states(space.num_qubits)
    weights, vecs = np.linalg.eigh(cavity_state.entries)
    keep = weights > 1e-14
    weights, vecs = weights[keep], vecs[:, keep]
    worst = 0.0
    for psi in probes:
        pop = 0.0
        for w, chi in zip(weights, vecs.T):
            out = propagator.entries @ np.kron(psi.amplitudes, chi)
            pop += w * float(np.sum(np.abs(out.reshape(qd, cd)[:, -1]) ** 2))
        worst = max(worst, pop)
    return worst


def effective_gates_from_schedule(schedule: Schedule) -> tuple[EffectiveGate, ...]:
    """Closed-form qubit-space unitaries of the three steps, read off the
    schedule's own drive/coupling settings."""
    qspace = qubit_space(schedule.num_qubits)
    s1, s2, s3 = schedule.steps
    g1 = effective_step1(qspace, s1.qubits[0].coupling, s1.qubits[0].detuning, s1.qubits[0].drive_rabi)
    g2 = effective_step2(qspace, s2.qubits[1].coupling, s2.qubits[1].detuning, s2.qubits[1].drive_rabi)
    g3 = effective_step3(qspace, s3.qubits[0].drive_rabi, s3.qubits[1].drive_rabi, s3.duration)
    return g1, g2, g3


def make_cavity_state(label: str, fock_cutoff: int) -> tuple[DensityMatrix, float]:
    """Build a cavity initial state from a label and report its truncated
    weight.

    Labels: ``vacuum``, ``fock:<m>``, ``coherent:<alpha>``,
    ``thermal:<nbar>``.  States whose truncated weight exceeds
    ``MAX_STATE_TRUNCATION_WEIGHT`` are rejected.
    """
    kind, _, arg = label.partition(":")
    if kind == "vacuum":
        state, weight = cavity_vacuum(fock_cutoff), 0.0
    elif kind == "fock":
        state, weight = cavity_fock(fock_cutoff, int(arg)), 0.0
    elif kind == "coherent":
        state, weight = cavity_coherent(fock_cutoff, complex(arg))
    elif kind == "thermal":
        state, weight = cavity_thermal(fock_cutoff, float(arg))
    else:
        raise ValueError(f"unknown cavity state label {label!r}")
    if weight > MAX_STATE_TRUNCATION_WEIGHT:
        raise ValueError(
            f"cavity state {label!r} leaves weight {weight:.3g} above the "
            f"cutoff {fock_cutoff}; increase the cutoff"
        )
    return state, weight


@dataclass(frozen=True)
class RobustnessResult:
    fidelities: Mapping[str, float]
    spread: float
    truncated_weights: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "fidelities", MappingProxyType(dict(self.fidelities)))
        object.__setattr__(
            self, "truncated_weights", MappingProxyType(dict(self.truncated_weights))
        )


def cavity_robustness(
    schedule: Schedule,
    cavity_states: Sequence[str] | Mapping[str, DensityMatrix],
    tol: float = 1e-6,
    fock_cutoff: int = 5,
    model: str = "full",
) -> RobustnessResult:
    """Gate fidelity for several initial cavity states, plus the spread
    (max minus min).

    ``cavity_states`` is either a list of labels (states built at
    ``fock_cutoff`` with truncation checks) or prebuilt states keyed by
    label.  ``model='effective'`` uses the cavity-free closed forms, whose
    fidelity is by construction identical for every initial state.
    """
    if model not in ("full", "effective"):
        raise ValueError(f"model must be 'full' or 'effective', got {model!r}")
    weights: dict[str, float] = {}
    if isinstance(cavity_states, Mapping):
        states = dict(cavity_states)
        for label, state in states.items():
            if state.space.fock_cutoff != fock_cutoff:
                raise ValueError(f"state {label!r} does not match fock_cutoff {fock_cutoff}")
            weights[label] = 0.0
    else:
        states = {}
        for label in cavity_states:
            states[label], weights[label] = make_cavity_state(label, fock_cutoff)
    if not states:
        raise ValueError("no cavity states given")

    ideal = ideal_ntcp(schedule.num_qubits - 1)
    if model == "effective":
        g1, g2, g3 = effective_gates_from_schedule(schedule)
        composed = g3.matrix.entries @ g2.matrix.entries @ g1.matrix.entries
        f_eff = gate_fidelity(OperatorMatrix(ideal.matrix.space, composed), ideal.matrix)
        fids = {label: f_eff for label in states}
    else:
        space = make_space(schedule.num_qubits, fock_cutoff)
        prop = propagate_schedule(space, schedule, tol)
        fids = {
            label: channel_fidelity(
                schedule_channel(prop.propagator, state), ideal.matrix
            )
            for label, state in states.items()
        }
    values = list(fids.values())
    return RobustnessResult(
        fidelities=fids, spread=max(values) - min(values), truncated_weights=weights
    )


@dataclass(frozen=True)
class SensitivityStats:
    mean_fidelity: float
    min_fidelity: float
    fidelities: tuple[float, ...]


def rabi_deviation_sensitivity(
    schedule: Schedule,
    deviation_fraction: float,
    trials: int,
    seed: int,
    tol: float = 1e-6,
    fock_cutoff: int = 5,
    cavity_state: str = "vacuum",
) -> SensitivityStats:
    """Fidelity statistics when each qubit's Rabi frequency is off by a
    random fraction, the same fraction in every step (a per-qubit amplitude
    miscalibration).

    Perturbations are uniform on ``[-f, +f]`` from a counter-based Philox
    generator, so results are reproducible from the seed alone.  Fidelity
    uses computational-basis probes: Rabi errors mostly produce extra
    rotations that are diagonal in the sigma-x basis, which sigma-x probes
    cannot see.
    """
    if not 0.0 <= deviation_fraction <= 0.2:
        raise ValueError(
            f"deviation fraction must lie in [0, 0.2], got {deviation_fraction}"
        )
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = np.random.Generator(np.random.Philox(seed))
    space = make_space(schedule.num_qubits, fock_cutoff)
    state, _ = make_cavity_state(cavity_state, fock_cutoff)
    ideal = ideal_ntcp(schedule.num_qubits - 1)
    probes = z_basis_product_states(schedule.num_qubits)
    fids = []
    for _ in range(trials):
        scales = 1.0 + rng.uniform(
            -deviation_fraction, deviation_fraction, schedule.num_qubits
        )
        prop = propagate_schedule(space, schedule, tol, rabi_scales=scales)
        fids.append(
            channel_fidelity(schedule_channel(prop.propagator, state), ideal.matrix, probes)
        )
    return SensitivityStats(
        mean_fidelity=float(np.mean(fids)),
        min_fidelity=float(min(fids)),
        fidelities=tuple(float(f) for f in fids),
    )


# --------------------------------------------------------------------------
# Experiment configuration and consolidated reports.

SWEEPABLE_PARAMETERS = ("omega_ratio", "k", "n", "g_hz", "fock_cutoff")

REALIZATIONS = ("method-a", "method-b", "charge", "atomic")


class ConfigError(ValueError):
    """A configuration field is missing, unknown, or malformed."""

    def __init__(self, message: str, field_name: str | None = None):
        super().__init__(message)
        self.field_name = field_name


@dataclass(frozen=True)
class SweepAxis:
    parameter: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ConfigError(
                f"cannot sweep {self.parameter!r}; allowed: {', '.join(SWEEPABLE_PARAMETERS)}",
                field_name="sweep",
            )
        if len(self.values) == 0:
            raise ConfigError(f"sweep axis {self.parameter!r} has no values", "sweep")
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; the CLI reads this from JSON.

    Frequencies at this boundary are cyclic (Hz); everything internal is
    angular.  See the ``cli`` module docstring for the key-by-key schema.
    """

    realization: str = "method-a"
    n: int = 1
    g_hz: float = 22e6
    omega_ratio: float = 15.0
    k: int = 0
    g_prime_hz: float | None = None
    fock_cutoff: int = 5
    tol: float = 1e-6
    cavity_states: tuple[str, ...] = ("vacuum",)
    decouple_factor: float | None = None
    seed: int = 0
    cavity_freq_hz: float | None = None
    q_factor: float | None = None
    t1_s: float | None = None
    t2_s: float | None = None
    circuit: CircuitParams | None = None
    tau_a_s: float = 1e-6
    tau_m_s: float = 1e-6
    rabi_deviation_fraction: float = 0.0
    rabi_deviation_trials: int = 0
    leakage_case: str = "L"
    leakage_detuning_ratio: float = 10.0
    sweep: tuple[SweepAxis, ...] = ()

    @classmethod
    def from_dict(cls, data: dict) -> ExperimentConfig:
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(sorted(unknown))}",
                field_name=sorted(unknown)[0],
            )
        kwargs = dict(data)
        if "realization" in kwargs and kwargs["realization"] not in REALIZATIONS:
            raise ConfigError(
                f"realization must be one of {', '.join(REALIZATIONS)}", "realization"
            )
        if "cavity_states" in kwargs:
            kwargs["cavity_states"] = tuple(kwargs["cavity_states"])
        if "circuit" in kwargs and kwargs["circuit"] is not None:
            try:
                kwargs["circuit"] = CircuitParams(**kwargs["circuit"])
            except TypeError as exc:
                raise ConfigError(f"bad circuit parameters: {exc}", "circuit") from exc
        if "sweep" in kwargs:
            kwargs["sweep"] = tuple(_parse_axis(ax) for ax in kwargs["sweep"])
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    def replace(self, **changes) -> ExperimentConfig:
        return dataclasses.replace(self, **changes)


def _parse_axis(raw: dict) -> SweepAxis:
    if not isinstance(raw, dict) or "parameter" not in raw:
        raise ConfigError("each sweep axis needs a 'parameter' key", "sweep")
    param = raw["parameter"]
    if "values" in raw:
        values = tuple(float(v) for v in raw["values"])
    elif {"start", "stop", "count"} <= set(raw):
        count = int(raw["count"])
        if count < 1:
            raise ConfigError(f"sweep axis {param!r} count must be >= 1", "sweep")
        values = tuple(float(v) for v in np.linspace(raw["start"], raw["stop"], count))
    else:
        raise ConfigError(
            f"sweep axis {param!r} needs 'values' or 'start'/'stop'/'count'", "sweep"
        )
    return SweepAxis(parameter=param, values=values)


@dataclass(frozen=True)
class GateReport:
    """Everything one experiment produced, JSON-serializable."""

    params: dict
    schedule: dict
    effective_fidelity: float
    full_fidelities: Mapping[str, float]
    fidelity_spread: float
    leakage: dict
    timing: dict | None
    sensitivity: dict | None
    warnings: tuple[str, ...]
    diagnostics: dict

    def __post_init__(self):
        object.__setattr__(
            self, "full_fidelities", MappingProxyType(dict(self.full_fidelities))
        )
        object.__setattr__(self, "warnings", tuple(self.warnings))
        bad = [
            (label, f)
            for label, f in self.full_fidelities.items()
            if not 0.0 <= f <= 1.0 + 1e-9
        ]
        if bad or not 0.0 <= self.effective_fidelity <= 1.0 + 1e-9:
            raise ValueError(f"fidelities outside [0, 1]: {bad}")

    def to_json_dict(self) -> dict:
        return {
            "params": self.params,
            "schedule": self.schedule,
            "effective_fidelity": float(self.effective_fidelity),
            "full_fidelities": {k: float(v) for k, v in self.full_fidelities.items()},
            "fidelity_spread": float(self.fidelity_spread),
            "leakage": self.leakage,
            "timing": self.timing,
            "sensitivity": self.sensitivity,
            "warnings": list(self.warnings),
            "diagnostics": self.diagnostics,
        }


def _build_schedule(config: ExperimentConfig, params: ParamSet) -> Schedule:
    wc = None if config.cavity_freq_hz is None else TWO_PI * config.cavity_freq_hz
    if config.realization == "method-a":
        return schedule_method_a(params, config.decouple_factor, wc)
    if config.realization == "method-b":
        return schedule_method_b(params, config.decouple_factor, wc)
    if config.realization == "charge":
        if config.circuit is None or wc is None:
            raise ConfigError(
                "charge realization needs 'circuit' and 'cavity_freq_hz'",
                "circuit" if config.circuit is None else "cavity_freq_hz",
            )
        return schedule_charge(params, config.circuit, wc, config.decouple_factor)
    if config.realization == "atomic":
        return schedule_atoms(params, config.tau_a_s, config.tau_m_s)
    raise ConfigError(f"unknown realization {config.realization!r}", "realization")


def run_experiment(config: ExperimentConfig) -> GateReport:
    """Solve parameters, build the schedule, compare effective and full
    dynamics against the ideal gate, and attach leakage estimates and the
    timing budget."""
    g = TWO_PI * config.g_hz
    g_prime = None if config.g_prime_hz is None else TWO_PI * config.g_prime_hz
    params = solve_parameters(g, config.k, config.omega_ratio, config.n, g_prime)
    schedule = _build_schedule(config, params)
    warnings: list[str] = list(schedule.warnings)

    ideal = ideal_ntcp(params.n)
    effective = combined_evolution(qubit_space(params.n + 1), params)
    effective_fidelity = gate_fidelity(effective.matrix, ideal.matrix)
    warnings.extend(effective.warnings)

    space = make_space(params.n + 1, config.fock_cutoff)
    prop = propagate_schedule(space, schedule, config.tol)
    defect = prop.max_unitarity_defect
    if defect > 10.0 * config.tol:
        warnings.append(
            f"propagator unitarity defect {defect:.3e} exceeds 10x tolerance"
        )

    full_fidelities: dict[str, float] = {}
    truncated_weights: dict[str, float] = {}
    mean_photons: dict[str, float] = {}
    top_populations: dict[str, float] = {}
    for label in config.cavity_states:
        state, weight = make_cavity_state(label, config.fock_cutoff)
        truncated_weights[label] = weight
        mean_photons[label] = state.mean_photon_number()
        full_fidelities[label] = channel_fidelity(
            schedule_channel(prop.propagator, state), ideal.matrix
        )
        top_populations[label] = top_level_population(prop.propagator, state)
    worst_top = max(top_populations.values()) if top_populations else 0.0
    if worst_top > TRUNCATION_FLAG_THRESHOLD:
        warnings.append(
            f"final top-Fock-level population reaches {worst_top:.3e} "
            f"(> {TRUNCATION_FLAG_THRESHOLD:g}); consider a larger fock_cutoff"
        )
    values = list(full_fidelities.values())
    spread = max(values) - min(values) if values else 0.0

    delta_leak = config.leakage_detuning_ratio * params.g
    leak_spec = LeakageSpec(
        case=config.leakage_case,
        g12=params.g,
        g13=params.g if config.leakage_case == "S" else 0.0,
        delta2=delta_leak,
        delta3=delta_leak if config.leakage_case == "S" else None,
    )
    p2, p3 = leakage_probabilities(leak_spec)
    leakage = {
        "kind": "ESTIMATE",
        "case": config.leakage_case,
        "p2": float(p2),
        "p3": None if p3 is None else float(p3),
        "detuning_over_g": float(config.leakage_detuning_ratio),
    }

    timing = None
    if all(
        v is not None
        for v in (config.t1_s, config.t2_s, config.q_factor, config.cavity_freq_hz)
    ):
        budget = timing_budget(
            schedule,
            config.t1_s,
            config.t2_s,
            config.q_factor,
            TWO_PI * config.cavity_freq_hz,
        )
        timing = budget.to_dict()
        warnings.extend(budget.warnings)

    sensitivity = None
    if config.rabi_deviation_trials > 0 and config.rabi_deviation_fraction > 0:
        stats = rabi_deviation_sensitivity(
            schedule,
            config.rabi_deviation_fraction,
            config.rabi_deviation_trials,
            config.seed,
            tol=config.tol,
            fock_cutoff=config.fock_cutoff,
        )
        sensitivity = {
            "fraction": float(config.rabi_deviation_fraction),
            "trials": int(config.rabi_deviation_trials),
            "seed": int(config.seed),
            "mean_fidelity": stats.mean_fidelity,
            "min_fidelity": stats.min_fidelity,
            "fidelities": list(stats.fidelities),
        }

    diagnostics = {
        "integrator_tol": float(config.tol),
        "fock_cutoff": int(config.fock_cutoff),
        "step_count": int(prop.step_count),
        "propagation": [
            {"step": step.label, "path": path, "step_count": int(count)}
            for step, (path, count) in zip(schedule.steps, prop.paths)
        ],
        "max_unitarity_defect": float(defect),
        "worst_case_top_level_bound": float(prop.truncation_leakage),
        "top_level_population": {k: float(v) for k, v in top_populations.items()},
        "t_op_s": float(schedule.wall_time),
        "cavity_state_truncated_weight": truncated_weights,
        "cavity_state_mean_photon": mean_photons,
        "seed": int(config.seed),
    }
    return GateReport(
        params=params.to_dict(),
        schedule=schedule.to_json_dict(),
        effective_fidelity=effective_fidelity,
        full_fidelities=full_fidelities,
        fidelity_spread=spread,
        leakage=leakage,
        timing=timing,
        sensitivity=sensitivity,
        warnings=tuple(warnings),
        diagnostics=diagnostics,
    )


def _sweep_point(args: tuple[ExperimentConfig, tuple[tuple[str, float], ...]]) -> dict:
    config, assignment = args
    changes: dict = {}
    for name, value in assignment:
        if name in ("k", "n", "fock_cutoff"):
            changes[name] = int(value)
        else:
            changes[name] = float(value)
    # plain dict so the result pickles across process boundaries
    return run_experiment(config.replace(**changes, sweep=())).to_json_dict()


def run_sweep(
    config: ExperimentConfig, jobs: int = 1
) -> tuple[list[str], list[list]]:
    """Run the grid defined by the config's sweep axes.

    Returns the CSV header and rows, in deterministic grid order (product
    of the axes in config order, each axis in its given value order).
    Rows hold the swept values followed by the effective fidelity, one full
    fidelity per cavity state, the spread, the leakage estimates and the
    operation time.
    """
    if not config.sweep:
        raise ConfigError("sweep needs at least one axis", "sweep")
    names = [ax.parameter for ax in config.sweep]
    header = (
        names
        + ["effective_fidelity"]
        + [f"fidelity_{label}" for label in config.cavity_states]
        + ["spread", "p2", "p3", "t_op_s"]
    )
    assignments = [
        tuple(zip(names, values))
        for values in _grid_product(*(ax.values for ax in config.sweep))
    ]
    tasks = [(config, assignment) for assignment in assignments]
    if jobs > 1:
        # imported here: only parallel sweeps need multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_sweep_point, tasks))
    else:
        reports = [_sweep_point(t) for t in tasks]
    rows = []
    for assignment, report in zip(assignments, reports):
        row: list = [value for _, value in assignment]
        row.append(report["effective_fidelity"])
        row.extend(report["full_fidelities"][label] for label in config.cavity_states)
        row.append(report["fidelity_spread"])
        row.append(report["leakage"]["p2"])
        row.append(report["leakage"]["p3"])
        row.append(report["diagnostics"]["t_op_s"])
        rows.append(row)
    return header, rows
