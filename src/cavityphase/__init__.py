"""Simulation of a three-step controlled-phase gate in which one control
qubit simultaneously phase-flips n target qubits sharing a single cavity
mode.

The package provides exact truncated-Hilbert-space dynamics, the
closed-form effective propagators of the strong-drive regime, ideal-gate
targets, protocol parameter solving and scheduling for qubit-tuned,
cavity-tuned, charge-circuit and atomic realizations, and batch analysis
with JSON/CSV reporting.
"""

from .effective import (
    ABCoefficients,
    EffectiveGate,
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
from .analysis import (
    ExperimentConfig,
    GateReport,
    LeakageSpec,
    RobustnessResult,
    SensitivityStats,
    cavity_robustness,
    effective_gates_from_schedule,
    leakage_probabilities,
    make_cavity_state,
    propagate_schedule,
    rabi_deviation_sensitivity,
    run_experiment,
    run_sweep,
    schedule_channel,
    step_hamiltonian,
)
from .errors import (
    CavityPhaseError,
    DimensionMismatchError,
    InconsistentParametersError,
    InfeasibleHardwareError,
    SingularDetuningError,
    StepBudgetExceededError,
    TruncationWarning,
    WrongCaseError,
)
from .hamiltonians import (
    CircuitParams,
    charge_qubit_map,
    collective_ops,
    degeneracy_deviations,
    flux_for_qubit_freq,
    h_step3,
)
from .hilbert import (
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
    partial_trace_cavity,
    qubit_space,
    unitarity_defect,
    x_basis_product_states,
    x_basis_transform,
    z_basis_product_states,
)
from .integrator import (
    PropagationResult,
    TimeDependentHamiltonian,
    compose,
    evolve_state,
    propagate,
)
from .protocol import (
    ParamSet,
    Schedule,
    ScheduleStep,
    TimingBudget,
    schedule_atoms,
    schedule_charge,
    schedule_method_a,
    schedule_method_b,
    solve_parameters,
    timing_budget,
)

__version__ = "0.1.0"
