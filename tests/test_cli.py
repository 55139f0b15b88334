import json
import math

import numpy as np
import pytest

from jsrcert import cli
from jsrcert.cli import SweepConfig, certify_run, main, run_sweep, write_sweep_csv, write_sweep_svg
from jsrcert.sampling import ModeSet, load_modes, save_modes, simulate


@pytest.fixture()
def modes_file(tmp_path, parrilo):
    path = tmp_path / "parrilo.json"
    save_modes(parrilo, path)
    return str(path)


@pytest.fixture()
def double_identity_file(tmp_path, double_identity):
    path = tmp_path / "two_i.json"
    save_modes(double_identity, path)
    return str(path)


class TestCertifyCommand:
    def test_trajectory_file_certification(self, tmp_path, double_identity_file, capsys):
        traj = tmp_path / "t.csv"
        rc = main([
            "simulate", "--modes", double_identity_file, "--n-traj", "30",
            "--len", "1", "--seed", "6", "--out", str(traj),
        ])
        assert rc == 0
        out = tmp_path / "report.json"
        rc = main([
            "certify", "--traj", str(traj), "--degree", "1",
            "--beta", "0.95", "--beta1", "0.95", "--modes-upper", "2",
            "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["gamma_star"] == pytest.approx(2.0, rel=1e-4)
        assert report["lambda_star"] == pytest.approx(2.0, rel=1e-9)
        stdout = capsys.readouterr().out
        assert "jsr_upper_bound:" in stdout
        assert "confidence:" in stdout
        assert "finite: true" in stdout

    def test_missing_modes_upper_exits_2(self, tmp_path, double_identity_file, capsys):
        rc = main([
            "certify", "--modes", double_identity_file, "--n-traj", "30",
        ])
        assert rc == 2
        assert "--modes-upper" in capsys.readouterr().err

    def test_sample_count_precondition_exits_2(self, double_identity_file, capsys):
        rc = main([
            "certify", "--modes", double_identity_file, "--n-traj", "3",
            "--modes-upper", "1",
        ])
        assert rc == 2
        assert "minimum sample count" in capsys.readouterr().err

    def test_sample_count_checked_before_solving(self, double_identity_file, capsys, monkeypatch):
        import jsrcert.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_gamma ran before the sample count was checked")

        monkeypatch.setattr(cli, "solve_gamma", no_solve)
        rc = main([
            "certify", "--modes", double_identity_file, "--n-traj", "3",
            "--modes-upper", "1",
        ])
        assert rc == 2
        assert "minimum sample count" in capsys.readouterr().err

    def test_state_dimension_checked_before_solving(self, tmp_path, capsys, monkeypatch):
        import jsrcert.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_gamma ran before the state dimension was checked")

        path = tmp_path / "scalar.json"
        save_modes(ModeSet((np.array([[0.5]]),)), path)
        monkeypatch.setattr(cli, "solve_gamma", no_solve)
        rc = main([
            "certify", "--modes", str(path), "--n-traj", "50", "--modes-upper", "1",
        ])
        assert rc == 2
        assert "cap-based certificates require state dimension n >= 2" in capsys.readouterr().err

    def test_missing_input_exits_2(self, capsys):
        rc = main(["certify", "--modes-upper", "2"])
        assert rc == 2

    def test_nonexistent_file_exits_2(self, capsys):
        rc = main(["certify", "--traj", "/nonexistent/t.csv", "--modes-upper", "2"])
        assert rc == 2

    def test_solver_failure_exits_3(self, double_identity_file, capsys, monkeypatch):
        import jsrcert.cli as cli
        from jsrcert.certifier import SolverStallError

        def boom(*args, **kwargs):
            raise SolverStallError("stalled for the test")

        monkeypatch.setattr(cli, "certify_run", boom)
        rc = main([
            "certify", "--modes", double_identity_file, "--n-traj", "30",
            "--modes-upper", "1",
        ])
        assert rc == 3
        assert "solver failure" in capsys.readouterr().err

    def test_report_reproducible_from_provenance(self, modes_file):
        from jsrcert.certifier import SolveOptions

        modes = load_modes(modes_file)
        obs = simulate(modes, 120, 1, seed=31)
        report = certify_run(obs, 1, 0.95, 0.95, 2, SolveOptions(bisection_rel_tol=2e-6))
        # Everything needed to replay the run is in the report itself.
        seed = report.provenance["seed"]
        opts = SolveOptions(**report.provenance["options"])
        again = certify_run(
            simulate(modes, report.N, report.l, seed=seed),
            report.d, report.beta, report.beta1, report.m, opts,
        )
        assert again.jsr_upper_bound == report.jsr_upper_bound
        assert again.gamma_star == report.gamma_star
        assert again.kappa == report.kappa
        assert again.lambda_star == report.lambda_star

    def test_parrilo_sos_certification(self, modes_file, capsys):
        rc = main([
            "certify", "--modes", modes_file, "--n-traj", "10000", "--seed", "4",
            "--degree", "2", "--modes-upper", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "finite: true" in out
        bound = float(out.split("jsr_upper_bound:")[1].split()[0])
        confidence = float(out.split("confidence:")[1].split()[0])
        assert 1.0 < bound < math.sqrt(2.0)
        assert confidence == pytest.approx(0.9)


class TestWhiteboxCommand:
    def test_prints_value(self, modes_file, capsys):
        rc = main(["whitebox", "--modes", modes_file, "--degree", "1", "--grid", "240"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "whitebox_gamma:" in out
        value = float(out.split("whitebox_gamma:")[1].split()[0])
        assert abs(value - math.sqrt(2.0)) < 0.02


class TestSweep:
    def make_config(self, modes_file, **kw):
        base = dict(
            modes_path=modes_file,
            n_values=(30, 60),
            runs=2,
            degrees=(1,),
            m_upper=2,
            seed=123,
        )
        base.update(kw)
        return SweepConfig(**base)

    def test_row_count_and_order(self, modes_file):
        rows = run_sweep(self.make_config(modes_file, degrees=(1, 2)))
        assert len(rows) == 2 * 2 * 2
        keys = [(r["N"], r["run"], r["degree"]) for r in rows]
        assert keys == sorted(keys)

    def test_modes_loaded_once(self, modes_file, monkeypatch):
        loads = []

        def counting(path):
            loads.append(path)
            return load_modes(path)

        monkeypatch.setattr(cli, "load_modes", counting)
        rows = run_sweep(self.make_config(modes_file))
        assert len(rows) == 4
        assert loads == [modes_file]

    def test_csv_byte_identical_replay(self, modes_file, tmp_path):
        config = self.make_config(modes_file)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(run_sweep(config), out1)
        write_sweep_csv(run_sweep(config), out2)
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "N,run,degree,gamma_star,bound,finite"

    def test_parallel_matches_sequential(self, modes_file):
        seq = run_sweep(self.make_config(modes_file))
        par = run_sweep(self.make_config(modes_file, jobs=2))
        assert seq == par

    def test_svg_self_contained_with_config(self, modes_file, tmp_path):
        config = self.make_config(modes_file, degrees=(1, 2))
        rows = run_sweep(config)
        svg_path = tmp_path / "plot.svg"
        write_sweep_svg(rows, config, svg_path)
        text = svg_path.read_text()
        assert text.startswith("<?xml")
        assert "sweep-config:" in text
        assert "<image" not in text and "href=" not in text
        assert text.count("<polyline") == 2
        config_json = text.split("sweep-config: ", 1)[1].split(" -->", 1)[0]
        echoed = json.loads(config_json)
        assert echoed["seed"] == 123 and echoed["runs"] == 2

    def test_cli_entrypoint(self, modes_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.svg"
        rc = main([
            "sweep", "--modes", modes_file, "--n-traj", "30,60", "--runs", "1",
            "--degree", "1", "--modes-upper", "2", "--seed", "5",
            "--out", str(out), "--plot", str(plot),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2
        assert plot.exists()

    def test_validation(self, modes_file):
        with pytest.raises(ValueError):
            self.make_config(modes_file, n_values=(60, 30))
        with pytest.raises(ValueError):
            self.make_config(modes_file, runs=0)


class TestSimulateCommand:
    def test_roundtrip_through_certify(self, tmp_path, modes_file):
        traj = tmp_path / "out.csv"
        rc = main([
            "simulate", "--modes", modes_file, "--n-traj", "25", "--len", "2",
            "--seed", "3", "--out", str(traj),
        ])
        assert rc == 0
        lines = traj.read_text().splitlines()
        assert lines[0] == "traj_id,step,x1,x2"
        assert len(lines) == 1 + 25 * 2
