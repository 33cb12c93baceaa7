"""Tests for parameter solving, schedules, serialization and budgets."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_circuit
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import e as E_CHARGE
from scipy.constants import hbar as HBAR

from cavityphase.analysis import effective_gates_from_schedule
from cavityphase.effective import ideal_ntcp
from cavityphase.errors import InconsistentParametersError, InfeasibleHardwareError
from cavityphase.hamiltonians import flux_for_qubit_freq
from cavityphase.hilbert import OperatorMatrix, gate_fidelity, qubit_space
from cavityphase.protocol import (
    CHARGE_LIFETIME_NOTE,
    DEFAULT_DECOUPLE_FACTOR,
    ParamSet,
    Schedule,
    schedule_atoms,
    schedule_charge,
    schedule_method_a,
    schedule_method_b,
    solve_parameters,
    timing_budget,
)

TWO_PI = 2.0 * math.pi

GOLDEN = Path(__file__).with_name("golden")


class TestSolveParameters:
    def test_reference_point(self):
        # g/2pi = 22 MHz, k = 0, omega = 15 g, n = 2
        p = solve_parameters(TWO_PI * 22e6, 0, 15, 2)
        assert p.delta == pytest.approx(-2 * p.g, rel=1e-14)
        assert p.delta_prime == pytest.approx(2 * p.g, rel=1e-14)
        assert p.omega_prime / TWO_PI == pytest.approx(330e6, rel=1e-12)
        assert p.omega1 / TWO_PI == pytest.approx(352e6, rel=1e-12)
        assert p.omega_r / TWO_PI == pytest.approx(11e6, rel=1e-12)
        assert p.t_op == pytest.approx(68.18e-9, rel=1e-3)
        assert p.is_consistent and p.violated_tags == ()

    def test_higher_parity_index(self):
        p = solve_parameters(1.0, 1, 15, 1)
        assert p.delta == pytest.approx(-2.0 / math.sqrt(3.0), rel=1e-14)
        # pairwise phase stays a sign flip
        assert abs(np.exp(8j * p.lam * p.tau) + 1) < 1e-10

    def test_matching_conditions_hold_to_relative_1e12(self):
        for k in (0, 1, 3):
            for ratio in (8, 15, 50):
                p = solve_parameters(2.0, k, ratio, 2)
                lhs, rhs = p.omega * p.tau, p.omega_prime * p.tau_prime
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
                lhs, rhs = p.lam * p.tau, p.lam_prime * p.tau_prime
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
                parity = 4 * p.g**2 / p.delta**2
                assert abs(parity - (2 * k + 1)) <= 1e-12 * (2 * k + 1)

    def test_weak_drive_flags_regime_only(self):
        p = solve_parameters(1.0, 0, 3, 1)
        assert p.violated_tags == ("regime",)
        assert p.is_consistent  # soft condition does not block schedules

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_parameters(1.0, -1, 15, 1)
        with pytest.raises(ValueError):
            solve_parameters(-1.0, 0, 15, 1)
        with pytest.raises(ValueError):
            solve_parameters(1.0, 0, 15, 0)

    def test_distinct_second_coupling(self):
        p = solve_parameters(1.0, 0, 15, 1, g_prime=0.5)
        assert p.delta_prime == pytest.approx(1.0, rel=1e-14)  # -delta * g'/g
        assert p.is_consistent

    def test_derived_quantities_recomputed(self):
        p = solve_parameters(1.0, 0, 15, 1)
        assert p.tau == TWO_PI / abs(p.delta)
        assert p.tau_prime == TWO_PI / p.delta_prime
        assert p.lam == pytest.approx(-p.g**2 / (4 * p.delta), rel=1e-14)
        assert p.lam_prime == pytest.approx(p.g_prime**2 / (4 * p.delta_prime), rel=1e-14)


def hand_built_inconsistent(n=1):
    base = solve_parameters(1.0, 0, 15, n)
    return ParamSet(
        g=base.g,
        g_prime=base.g_prime,
        delta=base.delta,
        delta_prime=base.delta_prime,
        omega=base.omega,
        omega_prime=1.2 * base.omega_prime,
        omega1=base.omega1,
        omega_r=base.omega_r,
        k=base.k,
        n=base.n,
    )


class TestConditionText:
    """The detail text of every condition, formatted on first read, and the
    flags the schedules and the CLI read without it."""

    CONSISTENT = (
        ("detuning-sign", True, "delta = -2.7646e+08 (needs < 0), delta' = 2.7646e+08 (needs > 0)"),
        ("rabi-matching", True, "omega*tau = 47.1238898038 vs omega'*tau' = 47.1238898038"),
        ("lambda-matching", True, "lam*tau = 0.392699081699 vs lam'*tau' = 0.392699081699"),
        (
            "step3-drive",
            True,
            "omega1 = 2211681228.13 vs 4*lam*n + omega = 2211681228.13; "
            "omega_r = 69115038.379 vs 4*lam = 69115038.379",
        ),
        ("parity", True, "4 g^2/delta^2 = 1 vs 2k+1 = 1"),
        (
            "regime",
            True,
            "strong-drive regime wants omega >= 5 * max(|delta|, g); "
            "omega/max = 7.5, omega'/max = 7.5",
        ),
    )
    WEAK_DRIVE = (
        ("detuning-sign", True, "delta = -1.59614e+08 (needs < 0), delta' = 1.59614e+08 (needs > 0)"),
        ("rabi-matching", True, "omega*tau = 10.8827961854 vs omega'*tau' = 10.8827961854"),
        ("lambda-matching", True, "lam*tau = 1.1780972451 vs lam'*tau' = 1.1780972451"),
        (
            "step3-drive",
            True,
            "omega1 = 396170911.555 vs 4*lam*n + omega = 396170911.555; "
            "omega_r = 119710758.039 vs 4*lam = 119710758.039",
        ),
        ("parity", True, "4 g^2/delta^2 = 3 vs 2k+1 = 3"),
        (
            "regime",
            False,
            "strong-drive regime wants omega >= 5 * max(|delta|, g); "
            "omega/max = 1.73, omega'/max = 1.73",
        ),
    )

    def test_consistent_set(self):
        p = solve_parameters(TWO_PI * 22e6, 0, 15, 2)
        assert [(c.tag, c.satisfied, c.detail) for c in p.consistency] == list(self.CONSISTENT)
        assert p.consistency is p.consistency
        assert schedule_method_a(p).warnings == ()

    def test_regime_violating_set(self):
        p = solve_parameters(TWO_PI * 22e6, 1, 2, 1)
        assert [(c.tag, c.satisfied, c.detail) for c in p.consistency] == list(self.WEAK_DRIVE)
        assert p.violated_tags == ("regime",)
        assert schedule_method_a(p).warnings == (
            f"condition 'regime' violated: {self.WEAK_DRIVE[-1][2]}",
        )
        assert p.to_dict()["conditions"][-1] == {
            "tag": "regime", "satisfied": False, "detail": self.WEAK_DRIVE[-1][2]
        }

    def test_replaced_field_recomputes_the_flags(self):
        p = solve_parameters(TWO_PI * 22e6, 0, 15, 2)
        assert p.consistency  # a cached text must not leak into the copy
        bad = dataclasses.replace(p, omega_prime=1.1 * p.omega_prime)
        assert bad.violated_tags == ("rabi-matching",)
        assert not bad.is_consistent
        assert [c.detail for c in bad.consistency if not c.satisfied] == [
            "omega*tau = 47.1238898038 vs omega'*tau' = 51.8362787842"
        ]
        with pytest.raises(InconsistentParametersError):
            schedule_method_a(bad)

    def test_consistency_is_not_a_constructor_argument(self):
        p = solve_parameters(1.0, 0, 15, 1)
        fields = {f.name: getattr(p, f.name) for f in dataclasses.fields(p)}
        assert "consistency" not in fields
        with pytest.raises(TypeError):
            ParamSet(**fields, consistency=())


class TestSchedules:
    def test_step_durations(self):
        p = solve_parameters(1.0, 0, 15, 2)
        s = schedule_method_a(p)
        assert [st.label for st in s.steps] == ["i", "ii", "iii"]
        assert s.steps[0].duration == pytest.approx(p.tau)
        assert s.steps[1].duration == pytest.approx(p.tau_prime)
        assert s.steps[2].duration == pytest.approx(p.tau)

    def test_step_one_drives_all_with_phase_pi(self):
        p = solve_parameters(1.0, 0, 15, 2)
        s = schedule_method_a(p)
        for q in s.steps[0].qubits:
            assert q.drive_rabi == p.omega and q.drive_phase == math.pi
            assert q.coupled and q.detuning == p.delta

    def test_control_undriven_and_decoupled_in_step_two(self):
        p = solve_parameters(1.0, 0, 15, 2)
        s = schedule_method_a(p)
        control = s.steps[1].qubits[0]
        assert control.drive_rabi == 0.0
        assert not control.coupled and control.detuning is None
        for q in s.steps[1].qubits[1:]:
            assert q.drive_rabi == p.omega_prime and q.drive_phase == 0.0
            assert q.coupled and q.detuning == p.delta_prime

    def test_step_three_rabi_split(self):
        p = solve_parameters(1.0, 0, 15, 2)
        s = schedule_method_a(p)
        assert s.steps[2].qubits[0].drive_rabi == p.omega1
        for q in s.steps[2].qubits[1:]:
            assert q.drive_rabi == p.omega_r
        assert all(not q.coupled for q in s.steps[2].qubits)

    def test_finite_decoupling_keeps_coupling_at_large_detuning(self):
        p = solve_parameters(1.0, 0, 15, 1)
        s = schedule_method_a(p, decouple_factor=50.0)
        control = s.steps[1].qubits[0]
        assert control.coupled and control.detuning == pytest.approx(50.0 * p.g)
        assert all(q.coupled for q in s.steps[2].qubits)

    def test_method_a_keeps_cavity_fixed(self):
        p = solve_parameters(TWO_PI * 22e6, 0, 15, 1)
        wc = TWO_PI * 10e9
        s = schedule_method_a(p, cavity_freq=wc)
        freqs = {st.annotations["cavity_freq_hz"] for st in s.steps}
        assert freqs == {10e9}

    def test_method_b_keeps_target_frequency_fixed(self):
        p = solve_parameters(TWO_PI * 22e6, 0, 15, 2)
        wc = TWO_PI * 10e9
        s = schedule_method_b(p, cavity_freq=wc)
        target_freqs = {
            st.annotations["qubit_freq_hz_q2"] for st in s.steps
        } | {st.annotations["qubit_freq_hz_q3"] for st in s.steps}
        assert len(target_freqs) == 1
        cavity = [st.annotations["cavity_freq_hz"] for st in s.steps]
        assert cavity[0] != cavity[1] and cavity[1] != cavity[2]
        # control parked in step two, restored in step three
        q1 = [st.annotations["qubit_freq_hz_q1"] for st in s.steps]
        assert q1[0] == q1[2] != q1[1]

    def test_methods_share_dynamics_fields(self):
        p = solve_parameters(1.0, 0, 15, 2)
        sa = schedule_method_a(p)
        sb = schedule_method_b(p)
        for step_a, step_b in zip(sa.steps, sb.steps):
            for qa, qb in zip(step_a.qubits, step_b.qubits):
                assert qa.drive_rabi == qb.drive_rabi
                assert qa.drive_phase == qb.drive_phase
                assert qa.coupled == qb.coupled
                assert qa.detuning == qb.detuning
                assert qa.coupling == qb.coupling

    def test_inconsistent_params_refused_with_tags(self):
        with pytest.raises(InconsistentParametersError) as err:
            schedule_method_a(hand_built_inconsistent())
        assert "rabi-matching" in err.value.tags

    @pytest.mark.parametrize("n, k", [(1, 0), (2, 0), (2, 1)])
    def test_effective_composition_realizes_ideal_gate(self, n, k):
        # the three closed-form step gates of any produced schedule compose
        # to the ideal gate up to global phase
        p = solve_parameters(1.0, k, 15, n)
        for build in (schedule_method_a, schedule_method_b):
            s = build(p)
            g1, g2, g3 = effective_gates_from_schedule(s)
            composed = g3.matrix.entries @ g2.matrix.entries @ g1.matrix.entries
            f = gate_fidelity(
                OperatorMatrix(qubit_space(n + 1), composed), ideal_ntcp(n).matrix
            )
            assert abs(f - 1.0) < 1e-10


REALIZATIONS = ("method-a", "method-b", "charge", "atomic")

#: The documented interchange keys, in their serialized order.
TOP_KEYS = ["format", "realization", "num_qubits", "steps", "extra_times_s", "warnings"]
STEP_KEYS = ["label", "duration_s", "qubits", "annotations"]
QUBIT_KEYS = ["index", "drive", "coupled", "detuning_hz", "coupling_hz"]
DRIVE_KEYS = ["rabi_hz", "phase_rad", "freq_hz"]


def build_schedule(realization, n, k, omega_ratio, cavity_freq_hz, decouple_factor):
    """A schedule of any realization; the charge circuit is solved for its
    cavity frequency and fixes g/2pi = 22 MHz."""
    wc = TWO_PI * cavity_freq_hz
    if realization == "charge":
        params = solve_parameters(TWO_PI * 22e6, k, omega_ratio, n)
        circuit = reference_circuit(cavity_freq_hz=cavity_freq_hz)
        return schedule_charge(params, circuit, wc, decouple_factor)
    params = solve_parameters(TWO_PI * 10e6, k, omega_ratio, n)
    if realization == "method-a":
        return schedule_method_a(params, decouple_factor, wc)
    if realization == "method-b":
        return schedule_method_b(params, decouple_factor, wc)
    return schedule_atoms(params, tau_a=1e-6, tau_m=2e-6)


def same_within(a, b, rel=1e-15):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(abs(a), abs(b))


class TestScheduleSerialization:
    def test_round_trip(self):
        p = solve_parameters(TWO_PI * 22e6, 0, 15, 2)
        s = schedule_method_a(p, cavity_freq=TWO_PI * 10e9)
        restored = Schedule.loads(s.dumps())
        assert restored.realization == s.realization
        assert restored.num_qubits == s.num_qubits
        for st_a, st_b in zip(s.steps, restored.steps):
            assert st_a.label == st_b.label
            assert st_a.duration == pytest.approx(st_b.duration, rel=1e-15)
            for qa, qb in zip(st_a.qubits, st_b.qubits):
                assert qa.coupled == qb.coupled
                assert qa.drive_rabi == pytest.approx(qb.drive_rabi, rel=1e-12)
                if qa.detuning is None:
                    assert qb.detuning is None
                else:
                    assert qa.detuning == pytest.approx(qb.detuning, rel=1e-12)

    def test_documented_shape(self):
        p = solve_parameters(1.0, 0, 15, 1)
        data = json.loads(schedule_method_a(p).dumps())
        assert data["format"] == "cavityphase-schedule-v1"
        step = data["steps"][0]
        assert set(step) == {"label", "duration_s", "qubits", "annotations"}
        qubit = step["qubits"][0]
        assert set(qubit) == {"index", "drive", "coupled", "detuning_hz", "coupling_hz"}
        assert set(qubit["drive"]) == {"rabi_hz", "phase_rad", "freq_hz"}

    def test_serialization_deterministic(self):
        p = solve_parameters(1.0, 0, 15, 1)
        assert schedule_method_a(p).dumps() == schedule_method_a(p).dumps()

    @pytest.mark.parametrize("realization", REALIZATIONS)
    def test_dumps_is_one_compact_line(self, realization):
        s = build_schedule(realization, 3, 1, 15.0, 8e9, 50.0)
        text = s.dumps()
        assert "\n" not in text
        assert json.loads(text) == json.loads(json.dumps(s.to_json_dict(), indent=2))

    @pytest.mark.parametrize("realization", REALIZATIONS)
    def test_dumps_matches_the_golden_text(self, realization):
        g = TWO_PI * 22e6
        consistent = solve_parameters(g, 0, 15, 2)
        build = {
            "method-a": lambda: schedule_method_a(consistent, None, TWO_PI * 6e9),
            "method-b": lambda: schedule_method_b(consistent, 50.0, TWO_PI * 6e9),
            "charge": lambda: schedule_charge(
                solve_parameters(g, 0, 15, 1), reference_circuit(), TWO_PI * 10e9, 50.0
            ),
            "atomic": lambda: schedule_atoms(solve_parameters(g, 1, 2, 1), 1e-6, 2e-6),
        }[realization]
        golden = (GOLDEN / f"schedule-{realization}.json").read_text()
        assert build().dumps() + "\n" == golden
        assert Schedule.loads(golden).dumps() + "\n" == golden

    @pytest.mark.parametrize("realization", REALIZATIONS)
    def test_loads_reads_indented_text(self, realization):
        s = build_schedule(realization, 2, 0, 20.0, 6e9, None)
        indented = json.dumps(s.to_json_dict(), indent=2)
        assert Schedule.loads(indented).dumps() == s.dumps()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    realization=st.sampled_from(REALIZATIONS),
    n=st.integers(1, 5),
    k=st.integers(0, 2),
    omega_ratio=st.floats(8.0, 60.0),
    cavity_freq_hz=st.floats(4e9, 12e9),
    decouple_factor=st.one_of(st.none(), st.floats(10.0, 80.0)),
)
def test_schedule_round_trip_property(
    realization, n, k, omega_ratio, cavity_freq_hz, decouple_factor
):
    s = build_schedule(realization, n, k, omega_ratio, cavity_freq_hz, decouple_factor)
    text = s.dumps()
    restored = Schedule.loads(text)
    assert restored.dumps() == text  # the text is a fixed point

    # one trip keeps every field; Hz <-> rad/s costs at most a few ulp
    assert (restored.realization, restored.num_qubits) == (s.realization, s.num_qubits)
    assert restored.warnings == s.warnings
    assert dict(restored.extra_times) == dict(s.extra_times)
    for step_a, step_b in zip(s.steps, restored.steps, strict=True):
        assert step_b.label == step_a.label
        assert step_b.realization == step_a.realization
        assert step_b.duration == step_a.duration
        assert dict(step_b.annotations) == dict(step_a.annotations)
        for qa, qb in zip(step_a.qubits, step_b.qubits, strict=True):
            assert qb.coupled == qa.coupled
            assert qb.drive_phase == qa.drive_phase
            for name in ("drive_rabi", "detuning", "coupling", "drive_freq"):
                assert same_within(getattr(qa, name), getattr(qb, name)), name

    data = json.loads(text)
    assert list(data) == TOP_KEYS
    assert data["format"] == "cavityphase-schedule-v1"
    for step in data["steps"]:
        assert list(step) == STEP_KEYS
        for qubit in step["qubits"]:
            assert list(qubit) == QUBIT_KEYS
            assert list(qubit["drive"]) == DRIVE_KEYS


class TestFrequencyAnnotations:
    """Annotations and drive frequencies against the schedules' docstring
    formulas, exactly: the same float operations in the same order."""

    P = solve_parameters(TWO_PI * 22e6, 0, 15, 2)
    WC = TWO_PI * 10e9

    def expected(self, cavity, qubits):
        return [
            {"cavity_freq_hz": wc / TWO_PI}
            | {f"qubit_freq_hz_q{j}": w / TWO_PI for j, w in enumerate(row, start=1)}
            for wc, row in zip(cavity, qubits)
        ]

    def retuned(self, factor):
        # method-a and charge: the cavity stays put, the qubits move
        p, wc = self.P, self.WC
        parked = wc + factor * p.g
        qubits = (
            (wc + p.delta,) * 3,
            (parked, wc + p.delta_prime, wc + p.delta_prime),
            (parked,) * 3,
        )
        return (wc,) * 3, qubits

    def check(self, schedule, cavity, qubits, extra=None):
        data = schedule.to_json_dict()
        expected = self.expected(cavity, qubits)
        for i, (step, row) in enumerate(zip(data["steps"], qubits)):
            ann = dict(expected[i], **(extra[i] if extra else {}))
            assert step["annotations"] == dict(sorted(ann.items()))
            assert [q["drive"]["freq_hz"] for q in step["qubits"]] == [
                w / TWO_PI for w in row
            ]

    @pytest.mark.parametrize("decouple_factor", [None, 37.5])
    def test_method_a(self, decouple_factor):
        factor = DEFAULT_DECOUPLE_FACTOR if decouple_factor is None else decouple_factor
        s = schedule_method_a(self.P, decouple_factor, self.WC)
        self.check(s, *self.retuned(factor))

    @pytest.mark.parametrize("decouple_factor", [None, 37.5])
    def test_method_b(self, decouple_factor):
        p = self.P
        big = (DEFAULT_DECOUPLE_FACTOR if decouple_factor is None else decouple_factor) * p.g
        w_target = self.WC + p.delta
        cavity = (self.WC, w_target - p.delta_prime, w_target - big)
        qubits = (
            (w_target,) * 3,
            (cavity[1] + big, w_target, w_target),
            (w_target,) * 3,
        )
        self.check(schedule_method_b(p, decouple_factor, self.WC), cavity, qubits)

    @pytest.mark.parametrize("decouple_factor", [None, 37.5])
    def test_charge(self, decouple_factor):
        p, circuit = self.P, reference_circuit()
        factor = DEFAULT_DECOUPLE_FACTOR if decouple_factor is None else decouple_factor
        cavity, qubits = self.retuned(factor)
        rabis = (
            (p.omega,) * 3,
            (0.0, p.omega_prime, p.omega_prime),
            (p.omega1, p.omega_r, p.omega_r),
        )
        extra = [
            {f"flux_ratio_q{j}": flux_for_qubit_freq(circuit, w) for j, w in enumerate(row, 1)}
            | {
                f"v0_volts_q{j}": r * HBAR * E_CHARGE / (2.0 * circuit.e_c * circuit.c_g)
                for j, r in enumerate(rabi_row, 1)
            }
            for row, rabi_row in zip(qubits, rabis)
        ]
        s = schedule_charge(p, circuit, self.WC, decouple_factor)
        self.check(s, cavity, qubits, extra)

    @pytest.mark.parametrize("build", [schedule_method_a, schedule_method_b])
    def test_no_cavity_frequency_no_annotations(self, build):
        for step in build(self.P, 37.5).to_json_dict()["steps"]:
            assert step["annotations"] == {}
            assert all(q["drive"]["freq_hz"] is None for q in step["qubits"])


class TestChargeSchedule:
    def test_annotations_and_zero_control_voltage(self):
        p = solve_parameters(TWO_PI * 22e6, 0, 15, 2)
        circuit = reference_circuit()
        s = schedule_charge(p, circuit, TWO_PI * 10e9)
        # step two: the control ac amplitude is exactly zero
        assert s.steps[1].annotations["v0_volts_q1"] == 0.0
        assert s.steps[1].annotations["v0_volts_q2"] > 0.0
        # the resonator frequency never moves
        assert {st.annotations["cavity_freq_hz"] for st in s.steps} == {10e9}

    def test_step_frequencies_match_reference(self):
        # nu0 = 9.956 GHz at delta = -2g and 10.044 GHz at delta' = +2g
        p = solve_parameters(TWO_PI * 22e6, 0, 15, 2)
        s = schedule_charge(p, reference_circuit(), TWO_PI * 10e9)
        assert s.steps[0].annotations["qubit_freq_hz_q1"] == pytest.approx(
            9.956e9, rel=1e-9
        )
        assert s.steps[1].annotations["qubit_freq_hz_q2"] == pytest.approx(
            10.044e9, rel=1e-9
        )

    def test_flux_annotation_inverts_frequency(self):
        p = solve_parameters(TWO_PI * 22e6, 0, 15, 1)
        s = schedule_charge(p, reference_circuit(), TWO_PI * 10e9)
        flux = s.steps[0].annotations["flux_ratio_q1"]
        # invert by hand: nu0 = 20 GHz * cos(pi flux)
        assert flux == pytest.approx(math.acos(9.956 / 20.0) / math.pi, rel=1e-9)

    def test_circuit_coupling_mismatch_rejected(self):
        p = solve_parameters(TWO_PI * 30e6, 0, 15, 1)  # circuit gives 22 MHz
        with pytest.raises(InconsistentParametersError) as err:
            schedule_charge(p, reference_circuit(), TWO_PI * 10e9)
        assert "circuit-g-mismatch" in err.value.tags

    def test_unreachable_rabi_amplitude(self):
        p = solve_parameters(TWO_PI * 22e6, 0, 15, 1)
        weak = reference_circuit(v0=1e-9)
        with pytest.raises(InfeasibleHardwareError):
            schedule_charge(p, weak, TWO_PI * 10e9)

    def test_lifetime_note_attached(self):
        p = solve_parameters(TWO_PI * 22e6, 0, 15, 1)
        s = schedule_charge(p, reference_circuit(), TWO_PI * 10e9)
        assert CHARGE_LIFETIME_NOTE in s.warnings
        assert any("794" in w for w in s.warnings)


class TestAtomSchedule:
    def test_reference_durations(self):
        # g = 2pi x 50 kHz, delta = -2g gives tau = 10 us per dispersive step
        p = solve_parameters(TWO_PI * 50e3, 0, 15, 2)
        s = schedule_atoms(p, tau_a=1e-6, tau_m=1e-6)
        assert s.steps[0].duration == pytest.approx(10e-6, rel=1e-12)
        assert s.steps[1].duration == pytest.approx(10e-6, rel=1e-12)
        assert s.steps[2].duration == pytest.approx(10e-6, rel=1e-12)
        assert s.extra_times["cavity_retune"] == 1e-6
        assert s.extra_times["atom_shuttle_total"] == 4e-6
        assert s.wall_time == pytest.approx(35e-6, rel=1e-9)

    def test_decoupling_is_ideal(self):
        p = solve_parameters(TWO_PI * 50e3, 0, 15, 1)
        s = schedule_atoms(p, 1e-6, 1e-6)
        assert not s.steps[1].qubits[0].coupled
        assert all(not q.coupled for q in s.steps[2].qubits)

    def test_walltime_note_attached(self):
        p = solve_parameters(TWO_PI * 50e3, 0, 15, 2)
        s = schedule_atoms(p, 1e-6, 1e-6)
        assert any("65" in w for w in s.warnings)
        assert any(f"{35e-6:.4g}" in w for w in s.warnings)

    def test_negative_overheads_rejected(self):
        p = solve_parameters(TWO_PI * 50e3, 0, 15, 1)
        with pytest.raises(ValueError):
            schedule_atoms(p, -1.0, 0.0)


class TestTimingBudget:
    def test_charge_reference_budget(self):
        p = solve_parameters(TWO_PI * 22e6, 0, 15, 2)
        s = schedule_method_a(p)
        b = timing_budget(s, t1=5e-6, t2=1e-6, q=1e5, cavity_freq=TWO_PI * 10e9)
        assert b.t_op == pytest.approx(68.18e-9, rel=1e-3)
        assert b.kappa_inv == pytest.approx(1e5 / (TWO_PI * 10e9), rel=1e-12)
        assert b.margins["t2"] < 0.1 and b.warnings == ()

    def test_atom_reference_budget(self):
        # Q = 2e8 at 51.2 GHz gives kappa^-1 = 622 us, far above the 35 us
        # wall time; all margins pass
        p = solve_parameters(TWO_PI * 50e3, 0, 15, 2)
        s = schedule_atoms(p, 1e-6, 1e-6)
        b = timing_budget(s, t1=3e-2, t2=3e-2, q=2e8, cavity_freq=TWO_PI * 51.2e9)
        assert b.kappa_inv == pytest.approx(622e-6, rel=5e-3)
        assert b.margins["cavity"] < 0.1
        assert b.warnings == ()

    def test_slow_gate_flagged(self):
        # nearly vanishing positive second-step detuning blows up tau'
        base = solve_parameters(1.0, 0, 15, 1)
        slow = ParamSet(
            g=base.g,
            g_prime=1e-4,  # delta' = 1e-4 via the matching ratio
            delta=base.delta,
            delta_prime=2e-4,
            omega=base.omega,
            omega_prime=base.omega * base.tau / (TWO_PI / 2e-4),
            omega1=base.omega1,
            omega_r=base.omega_r,
            k=base.k,
            n=base.n,
        )
        s = schedule_method_a(slow)
        b = timing_budget(s, t1=100.0, t2=100.0, q=1e5, cavity_freq=10.0)
        assert b.margins["cavity"] > 0.1
        assert any("cavity" in w for w in b.warnings)

    def test_positive_inputs_required(self):
        p = solve_parameters(1.0, 0, 15, 1)
        s = schedule_method_a(p)
        with pytest.raises(ValueError):
            timing_budget(s, 0.0, 1.0, 1.0, 1.0)
