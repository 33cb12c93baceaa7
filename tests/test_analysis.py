"""Tests for leakage estimates, robustness/sensitivity analyses and the
experiment orchestration."""

import math

import numpy as np
import pytest
from conftest import reference_circuit

from cavityphase.analysis import (
    ConfigError,
    ExperimentConfig,
    LeakageSpec,
    cavity_robustness,
    leakage_probabilities,
    make_cavity_state,
    propagate_schedule,
    rabi_deviation_sensitivity,
    run_experiment,
    run_sweep,
    schedule_channel,
    step_hamiltonian,
)
from cavityphase.effective import ideal_ntcp
from cavityphase.hilbert import channel_fidelity, make_space
from cavityphase.protocol import schedule_method_a, solve_parameters

TWO_PI = 2.0 * math.pi


class TestLeakage:
    def test_reference_detuning_point(self):
        # Delta = 10 g on both transitions: p = 4/104 for each level
        spec = LeakageSpec(case="S", g12=1.0, g13=1.0, delta2=10.0, delta3=10.0)
        p2, p3 = leakage_probabilities(spec)
        assert p2 == pytest.approx(4.0 / 104.0, abs=1e-15)
        assert p3 == pytest.approx(4.0 / 104.0, abs=1e-15)

    def test_large_detuning_limit(self):
        spec = LeakageSpec(case="L", g12=1.0, delta2=1e8)
        p2, p3 = leakage_probabilities(spec)
        assert p2 < 1e-15 and p3 is None

    def test_equal_scales_give_half(self):
        spec = LeakageSpec(case="L", g12=1.0, delta2=2.0)
        p2, _ = leakage_probabilities(spec)
        assert p2 == pytest.approx(0.5, abs=1e-15)

    def test_case_s_requires_delta3(self):
        with pytest.raises(ValueError):
            LeakageSpec(case="S", g12=1.0, g13=1.0, delta2=10.0)

    def test_bounded_and_decreasing_in_detuning(self):
        values = []
        for delta in (2.0, 5.0, 10.0, 50.0):
            p2, _ = leakage_probabilities(LeakageSpec(case="L", g12=1.0, delta2=delta))
            assert 0.0 < p2 < 1.0
            values.append(p2)
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCavityStates:
    def test_vacuum_and_fock(self):
        state, weight = make_cavity_state("vacuum", 4)
        assert weight == 0.0 and state.entries[0, 0] == 1.0
        state, weight = make_cavity_state("fock:2", 4)
        assert weight == 0.0 and state.entries[2, 2] == 1.0

    def test_coherent_alpha_one_accepted_at_cutoff_eight(self):
        state, weight = make_cavity_state("coherent:1", 8)
        assert weight < 1e-3
        assert state.mean_photon_number() == pytest.approx(1.0, abs=5e-3)

    def test_coherent_alpha_three_rejected_at_cutoff_five(self):
        with pytest.raises(ValueError):
            make_cavity_state("coherent:3", 5)

    def test_thermal_state(self):
        state, weight = make_cavity_state("thermal:0.2", 6)
        assert weight < 1e-3
        assert state.mean_photon_number() == pytest.approx(0.2, abs=2e-3)
        assert np.all(np.diag(state.entries).real > 0)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            make_cavity_state("squeezed:1", 5)


def quick_schedule(n=1, ratio=10.0, g=1.0, k=0):
    return schedule_method_a(solve_parameters(g, k, ratio, n))


class TestScheduleDynamics:
    def test_step_hamiltonian_shapes_and_hermiticity(self):
        space = make_space(2, 2)
        sched = quick_schedule(n=1)
        for step in sched.steps:
            h = step_hamiltonian(space, step)
            for t in (0.0, 0.3, 1.1):
                m = h(t)
                assert m.shape == (space.dim, space.dim)
                assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_drive_only_step_is_time_independent(self):
        space = make_space(2, 2)
        sched = quick_schedule(n=1)
        h = step_hamiltonian(space, sched.steps[2])
        assert np.max(np.abs(h(0.0) - h(5.0))) < 1e-14

    def test_full_dynamics_close_to_ideal_gate(self):
        # coarse but end-to-end: the three-step propagator at modest drive
        # strength already realizes the gate to a few percent
        sched = quick_schedule(n=1, ratio=10.0)
        space = make_space(2, 3)
        prop = propagate_schedule(space, sched, tol=1e-4)
        assert prop.max_unitarity_defect < 1e-3
        state, _ = make_cavity_state("vacuum", 3)
        f = channel_fidelity(
            schedule_channel(prop.propagator, state), ideal_ntcp(1).matrix
        )
        assert f > 0.95

    def test_rabi_scales_change_the_propagator(self):
        sched = quick_schedule(n=1)
        space = make_space(2, 2)
        base = propagate_schedule(space, sched, tol=1e-4)
        scaled = propagate_schedule(space, sched, tol=1e-4, rabi_scales=[1.05, 1.0])
        assert (
            np.max(np.abs(base.propagator.entries - scaled.propagator.entries)) > 1e-3
        )


class TestCavityRobustness:
    def test_effective_model_has_exactly_zero_spread(self):
        sched = quick_schedule(n=1, ratio=15.0)
        result = cavity_robustness(
            sched, ["vacuum", "fock:1", "coherent:1"], fock_cutoff=8, model="effective"
        )
        assert result.spread == 0.0
        assert len(result.fidelities) == 3

    def test_full_model_reports_spread_and_weights(self):
        sched = quick_schedule(n=1, ratio=10.0)
        result = cavity_robustness(
            sched, ["vacuum", "fock:1"], tol=1e-4, fock_cutoff=3, model="full"
        )
        assert set(result.fidelities) == {"vacuum", "fock:1"}
        assert all(0.0 <= f <= 1.0 for f in result.fidelities.values())
        assert result.spread >= 0.0
        assert result.truncated_weights["vacuum"] == 0.0

    def test_spread_shrinks_with_drive_strength(self):
        # two-point monotone check of the rotating-frame approximation:
        # the initial-state dependence is a residual of the dropped fast
        # terms, so it must shrink as the drive grows.  Frozen values from
        # the first verified run: 2.95e-2 at ratio 15, 7.9e-4 at ratio 50.
        spreads = {}
        for ratio in (15, 50):
            sched = quick_schedule(n=1, ratio=ratio)
            result = cavity_robustness(
                sched, ["vacuum", "fock:1"], tol=1e-5, fock_cutoff=5
            )
            spreads[ratio] = result.spread
        assert spreads[50] < spreads[15]
        assert spreads[15] == pytest.approx(2.95e-2, abs=2e-3)
        assert spreads[50] == pytest.approx(7.9e-4, abs=2e-4)

    def test_oversized_state_rejected(self):
        sched = quick_schedule(n=1)
        with pytest.raises(ValueError):
            cavity_robustness(sched, ["coherent:3"], fock_cutoff=5)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            cavity_robustness(quick_schedule(), ["vacuum"], model="approximate")


class TestRabiSensitivity:
    def test_zero_fraction_gives_identical_trials(self):
        sched = quick_schedule(n=1)
        stats = rabi_deviation_sensitivity(
            sched, 0.0, trials=3, seed=7, tol=1e-3, fock_cutoff=2
        )
        assert len(set(stats.fidelities)) == 1
        assert stats.mean_fidelity == pytest.approx(stats.min_fidelity)

    def test_deterministic_given_seed(self):
        sched = quick_schedule(n=1)
        a = rabi_deviation_sensitivity(sched, 0.05, 3, seed=11, tol=1e-3, fock_cutoff=2)
        b = rabi_deviation_sensitivity(sched, 0.05, 3, seed=11, tol=1e-3, fock_cutoff=2)
        assert a.fidelities == b.fidelities
        c = rabi_deviation_sensitivity(sched, 0.05, 3, seed=12, tol=1e-3, fock_cutoff=2)
        assert a.fidelities != c.fidelities

    def test_mean_fidelity_non_increasing_in_fraction(self):
        sched = quick_schedule(n=1)
        f0 = rabi_deviation_sensitivity(sched, 0.0, 4, seed=3, tol=1e-3, fock_cutoff=2)
        f1 = rabi_deviation_sensitivity(sched, 0.1, 4, seed=3, tol=1e-3, fock_cutoff=2)
        assert f1.mean_fidelity <= f0.mean_fidelity

    def test_fraction_range_enforced(self):
        with pytest.raises(ValueError):
            rabi_deviation_sensitivity(quick_schedule(), 0.5, 2, seed=0)
        with pytest.raises(ValueError):
            rabi_deviation_sensitivity(quick_schedule(), 0.1, 0, seed=0)

    def test_two_target_ensemble_regression(self):
        # frozen ensemble statistics: n = 2, 5% spread, 16 Philox trials at
        # seed 20260810 (coarse settings: cutoff 3, tol 1e-3); first
        # verified run gave mean 0.83428, min 0.81761
        sched = quick_schedule(n=2, ratio=10.0)
        stats = rabi_deviation_sensitivity(
            sched, 0.05, trials=16, seed=20260810, tol=1e-3, fock_cutoff=3
        )
        assert stats.mean_fidelity == pytest.approx(0.8342809668311393, abs=5e-3)
        assert stats.min_fidelity == pytest.approx(0.8176121491065831, abs=5e-3)
        assert stats.min_fidelity <= stats.mean_fidelity


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"realisation": "charge"})
        assert "realisation" in str(err.value)

    def test_unknown_realization_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"realization": "trapped-ion"})

    def test_sweep_axis_parsing(self):
        config = ExperimentConfig.from_dict(
            {
                "sweep": [
                    {"parameter": "omega_ratio", "values": [10, 20]},
                    {"parameter": "k", "start": 0, "stop": 2, "count": 3},
                ]
            }
        )
        assert config.sweep[0].values == (10.0, 20.0)
        assert config.sweep[1].values == (0.0, 1.0, 2.0)

    def test_unknown_sweep_parameter(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"sweep": [{"parameter": "temperature", "values": [1]}]}
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"sweep": [{"parameter": "k", "values": []}]}
            )

    def test_circuit_parsing(self):
        circ = reference_circuit()
        config = ExperimentConfig.from_dict(
            {
                "realization": "charge",
                "circuit": {
                    "e_j0": circ.e_j0,
                    "e_c": circ.e_c,
                    "c_g": circ.c_g,
                    "v0": circ.v0,
                    "flux_ratio": circ.flux_ratio,
                    "length": circ.length,
                    "cap_per_length": circ.cap_per_length,
                },
            }
        )
        assert config.circuit.e_j0 == circ.e_j0


class TestRunExperiment:
    def test_reference_charge_report(self):
        circ = reference_circuit()
        config = ExperimentConfig(
            realization="charge",
            n=2,
            g_hz=22e6,
            omega_ratio=15,
            k=0,
            fock_cutoff=3,
            tol=1e-3,
            cavity_states=("vacuum",),
            cavity_freq_hz=10e9,
            q_factor=1e5,
            t1_s=5e-6,
            t2_s=1e-6,
            circuit=circ,
        )
        report = run_experiment(config)
        assert report.params["omega_prime_hz"] == pytest.approx(330e6, rel=1e-9)
        assert report.params["omega1_hz"] == pytest.approx(352e6, rel=1e-9)
        assert report.params["omega_r_hz"] == pytest.approx(11e6, rel=1e-9)
        assert report.params["t_op_s"] == pytest.approx(68.18e-9, rel=1e-3)
        assert report.effective_fidelity == pytest.approx(1.0, abs=1e-10)
        assert 0.9 < report.full_fidelities["vacuum"] <= 1.0
        assert any("794" in w for w in report.warnings)
        assert report.timing is not None
        assert report.leakage["kind"] == "ESTIMATE"
        assert report.leakage["p2"] == pytest.approx(4.0 / 104.0, rel=1e-12)

    def test_minimal_effective_path(self):
        config = ExperimentConfig(
            n=1, g_hz=1.0, omega_ratio=15, fock_cutoff=2, tol=1e-3
        )
        report = run_experiment(config)
        assert report.effective_fidelity == pytest.approx(1.0, abs=1e-10)
        assert report.timing is None

    def test_atomic_report_flags_walltime(self):
        config = ExperimentConfig(
            realization="atomic",
            n=2,
            g_hz=50e3,
            omega_ratio=15,
            fock_cutoff=2,
            tol=1e-3,
            tau_a_s=1e-6,
            tau_m_s=1e-6,
        )
        report = run_experiment(config)
        assert any("65" in w for w in report.warnings)
        assert report.diagnostics["t_op_s"] == pytest.approx(35e-6, rel=1e-6)

    def test_invalid_parity_index_named_in_error(self):
        config = ExperimentConfig(k=-2, fock_cutoff=2, tol=1e-3)
        with pytest.raises(ValueError, match="parity index"):
            run_experiment(config)

    def test_charge_without_circuit_rejected(self):
        config = ExperimentConfig(realization="charge", cavity_freq_hz=10e9)
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_report_names_the_propagation_path_of_each_step(self):
        config = ExperimentConfig(n=1, g_hz=1.0, fock_cutoff=2, tol=1e-3)
        report = run_experiment(config)
        assert report.diagnostics["propagation"] == [
            {"step": label, "path": "frame", "step_count": 1}
            for label in ("i", "ii", "iii")
        ]
        assert report.diagnostics["step_count"] == 3

    def test_report_serializes_to_plain_json(self):
        import json

        config = ExperimentConfig(n=1, g_hz=1.0, fock_cutoff=2, tol=1e-3)
        report = run_experiment(config)
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        assert "effective_fidelity" in text


class TestRunSweep:
    def test_parity_sweep_keeps_effective_fidelity_one(self):
        config = ExperimentConfig(
            n=1,
            g_hz=1.0,
            omega_ratio=12,
            fock_cutoff=2,
            tol=1e-3,
            sweep=(
                ExperimentConfig.from_dict(
                    {"sweep": [{"parameter": "k", "values": [0, 1, 2]}]}
                ).sweep[0],
            ),
        )
        header, rows = run_sweep(config)
        assert header[0] == "k"
        assert [row[0] for row in rows] == [0.0, 1.0, 2.0]
        col = header.index("effective_fidelity")
        for row in rows:
            assert row[col] == pytest.approx(1.0, abs=1e-10)

    def test_grid_order_and_columns(self):
        config = ExperimentConfig(
            n=1,
            g_hz=1.0,
            fock_cutoff=2,
            tol=1e-3,
            cavity_states=("vacuum",),
            sweep=ExperimentConfig.from_dict(
                {
                    "sweep": [
                        {"parameter": "k", "values": [0, 1]},
                        {"parameter": "omega_ratio", "values": [10, 15]},
                    ]
                }
            ).sweep,
        )
        header, rows = run_sweep(config)
        assert header[:2] == ["k", "omega_ratio"]
        assert [tuple(r[:2]) for r in rows] == [
            (0.0, 10.0),
            (0.0, 15.0),
            (1.0, 10.0),
            (1.0, 15.0),
        ]
        assert header[2:] == [
            "effective_fidelity",
            "fidelity_vacuum",
            "spread",
            "p2",
            "p3",
            "t_op_s",
        ]

    def test_sweep_without_axes_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(ExperimentConfig())
