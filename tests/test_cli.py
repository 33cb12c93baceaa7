"""Command-line front-end tests: exit codes, outputs, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import reference_circuit

import cavityphase
from cavityphase import cli
from cavityphase.errors import StepBudgetExceededError


def write_config(tmp_path, name="config.json", **overrides):
    data = {
        "realization": "method-a",
        "n": 1,
        "g_hz": 1.0,
        "omega_ratio": 12,
        "k": 0,
        "fock_cutoff": 2,
        "tol": 1e-3,
        "cavity_states": ["vacuum"],
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestSolve:
    def test_consistent_config_exits_zero(self, tmp_path, capsys):
        config = write_config(tmp_path, g_hz=22e6, omega_ratio=15, n=2)
        code = cli.main(
            ["solve", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "330" in out and "352" in out and "11" in out
        written = json.loads((tmp_path / "out" / "params.json").read_text())
        assert written["omega1_hz"] == pytest.approx(352e6, rel=1e-9)

    def test_weak_drive_exits_two_with_regime_tag(self, tmp_path, capsys):
        config = write_config(tmp_path, omega_ratio=3)
        code = cli.main(
            ["solve", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "regime" in out and "VIOLATED" in out

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = cli.main(["solve", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line" in err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, banana=1)
        code = cli.main(["solve", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert "banana" in err

    def test_missing_config_flag_exits_one(self, capsys):
        assert cli.main(["solve"]) == 1


class TestSimulate:
    def test_quick_run_writes_report(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = tmp_path / "created" / "nested"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["effective_fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert "vacuum" in report["full_fidelities"]

    def test_atomic_report_carries_walltime_flag(self, tmp_path):
        config = write_config(
            tmp_path, realization="atomic", g_hz=50e3, n=2, tau_a_s=1e-6, tau_m_s=1e-6
        )
        out_dir = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert any("65" in w for w in report["warnings"])

    def test_charge_report_carries_lifetime_flag(self, tmp_path):
        circ = reference_circuit()
        config = write_config(
            tmp_path,
            realization="charge",
            g_hz=22e6,
            omega_ratio=15,
            n=2,
            cavity_freq_hz=10e9,
            circuit={
                "e_j0": circ.e_j0,
                "e_c": circ.e_c,
                "c_g": circ.c_g,
                "v0": circ.v0,
                "flux_ratio": circ.flux_ratio,
                "length": circ.length,
                "cap_per_length": circ.cap_per_length,
            },
        )
        out_dir = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert any("794" in w for w in report["warnings"])

    def test_tol_override(self, tmp_path):
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = cli.main(
            [
                "simulate",
                "--config",
                str(config),
                "--out",
                str(out_dir),
                "--tol",
                "5e-4",
            ]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["diagnostics"]["integrator_tol"] == 5e-4

    def test_budget_exceeded_exits_three(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)

        def explode(config):
            raise StepBudgetExceededError("too many exponentials")

        monkeypatch.setattr(cli, "run_experiment", explode)
        code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)])
        assert code == 3


class TestSweep:
    def test_parity_sweep_rows(self, tmp_path):
        config = write_config(
            tmp_path, sweep=[{"parameter": "k", "values": [0, 1, 2]}]
        )
        out_dir = tmp_path / "out"
        code = cli.main(["sweep", "--config", str(config), "--out", str(out_dir)])
        assert code == 0
        with (out_dir / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "k" and rows[0][1] == "effective_fidelity"
        assert len(rows) == 4
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-10)

    def test_drive_strength_sweep_spread_column(self, tmp_path):
        # Four-point drive-strength sweep.  The initial-state spread decays
        # towards strong drive but is *not* monotone at the weak end (the
        # dropped fast terms have an oscillatory envelope): first verified
        # run gave spreads 3.03e-2, 3.24e-2, 1.21e-2, 7.5e-4 for ratios
        # 10, 15, 25, 50 at these settings, so the derived check is the
        # two-point comparison between 15 and 50 plus the decayed tail.
        config = write_config(
            tmp_path,
            fock_cutoff=4,
            tol=2e-5,
            cavity_states=["vacuum", "fock:1"],
            sweep=[{"parameter": "omega_ratio", "values": [10, 15, 25, 50]}],
        )
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out_dir)]) == 0
        with (out_dir / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5  # header + four grid points
        col = rows[0].index("spread")
        spreads = [float(r[col]) for r in rows[1:]]
        assert spreads[3] < spreads[2] < spreads[1]
        assert spreads[1] == pytest.approx(3.24e-2, abs=3e-3)
        assert spreads[3] == pytest.approx(7.5e-4, abs=2e-4)

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(
            tmp_path, sweep=[{"parameter": "omega_ratio", "values": [10, 15]}]
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out_a)]) == 0
        assert cli.main(["sweep", "--config", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_empty_axis_exits_one(self, tmp_path):
        config = write_config(tmp_path, sweep=[{"parameter": "k", "values": []}])
        assert cli.main(["sweep", "--config", str(config)]) == 1

    def test_unknown_axis_exits_one(self, tmp_path, capsys):
        config = write_config(
            tmp_path, sweep=[{"parameter": "humidity", "values": [1]}]
        )
        code = cli.main(["sweep", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1 and "humidity" in err

    def test_parallel_jobs_match_serial(self, tmp_path):
        config = write_config(
            tmp_path, sweep=[{"parameter": "k", "values": [0, 1]}]
        )
        out_a, out_b = tmp_path / "serial", tmp_path / "parallel"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out_a)]) == 0
        assert (
            cli.main(
                [
                    "sweep",
                    "--config",
                    str(config),
                    "--out",
                    str(out_b),
                    "--jobs",
                    "2",
                ]
            )
            == 0
        )
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


class TestReport:
    def test_pretty_print(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        code = cli.main(["report", str(out_dir / "report.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "effective fidelity" in out

    def test_missing_file_exits_one(self, tmp_path):
        assert cli.main(["report", str(tmp_path / "nope.json")]) == 1


def test_import_leaves_multiprocessing_unloaded():
    # only parallel sweeps need a process pool; importing the package
    # must not pay for one
    src = str(Path(cavityphase.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, cavityphase.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
