import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jsrcert
from jsrcert import cli
from jsrcert.cli import SweepConfig, certify_run, main, run_sweep, write_sweep_csv, write_sweep_svg
from jsrcert.sampling import (ModeSet, ObservationSet, load_modes, load_observations, save_modes,
                              save_observations, simulate)


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

    @pytest.mark.parametrize("flag, value", [("--n-traj", "7"), ("--len", "5"), ("--seed", "9")])
    def test_simulation_flag_with_traj_exits_2(self, tmp_path, double_identity, capsys,
                                               monkeypatch, flag, value):
        # The simulation flags do not apply to a trajectory file: refused, not ignored.
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved")

        traj, out = tmp_path / "t.csv", tmp_path / "report.json"
        save_observations(simulate(double_identity, 30, 1, seed=6), traj)
        monkeypatch.setattr(jsrcert.lmi, "linprog", no_lp)
        rc = main(["certify", "--traj", str(traj), "--modes-upper", "2", flag, value,
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {flag} applies only when simulating from --modes, not to --traj\n")
        assert not out.exists()

    @pytest.mark.parametrize("degree, scale", [(1, 1e160), (2, 1e80)])
    def test_overflowing_sample_exits_2(self, tmp_path, parrilo, capsys, degree, scale):
        # One final state scaled past the float range of the program: at d = 1
        # lambda* used to overflow into an infinite bound reported as finite,
        # at d = 2 the bisection raised an uncaught OverflowError.
        obs = simulate(parrilo, 50, 1, seed=3)
        XL = obs.XL.copy()
        XL[7] *= scale
        traj = tmp_path / "t.csv"
        save_observations(ObservationSet(l=1, X0=obs.X0, XL=XL), traj)
        rc = main(["certify", "--traj", str(traj), "--degree", str(degree), "--modes-upper", "2"])
        assert rc == 2
        assert "row 7: the degree-%d program overflows" % degree in capsys.readouterr().err

    def test_long_trace_reports_an_infinite_bound(self, tmp_path, modes_file, capsys):
        # m^l = 2^1100 is past the float range: the bound is infinite, not a crash.
        traj, out = tmp_path / "t.csv", tmp_path / "report.json"
        assert main(["simulate", "--modes", modes_file, "--n-traj", "20", "--len", "1100",
                     "--out", str(traj)]) == 0
        rc = main(["certify", "--traj", str(traj), "--modes-upper", "2", "--out", str(out)])
        assert rc == 0
        assert "jsr_upper_bound: inf" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["jsr_upper_bound"] == report["eps"] == report["eps1"] == math.inf
        assert report["finite"] is False
        assert report["flags"]["delta_eps_zero"] and report["flags"]["delta_eps1_zero"]

    @pytest.mark.parametrize("length, n_traj, needed", [(1, 4, 5), (60, 20, None)])
    def test_too_small_sample_prints_the_count_a_finite_bound_needs(
            self, tmp_path, modes_file, capsys, length, n_traj, needed):
        # With m^l = 2 and beta1 = 0.95, N = 4 leaves delta(eps1) = 0; five
        # samples are the fewest with a finite growth-rate bound.  At
        # m^l = 2^60 that count cannot be resolved and reads null.
        out = tmp_path / "report.json"
        rc = main(["certify", "--modes", modes_file, "--n-traj", str(n_traj), "--len", str(length),
                   "--modes-upper", "2", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["flags"]["delta_eps1_zero"] and not report["finite"]
        assert report["min_samples_finite"] == needed
        assert f"min_samples_finite: {json.dumps(needed)}\n" in capsys.readouterr().out
        if needed is not None:
            assert main(["certify", "--modes", modes_file, "--n-traj", str(needed),
                         "--modes-upper", "2", "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["finite"] and report["min_samples_finite"] == needed
            assert "min_samples_finite" not in capsys.readouterr().out

    @pytest.mark.parametrize("l", [10**9, 10**12])
    def test_huge_final_step_keeps_the_bisection_witness(self, tmp_path, l, capsys):
        # At l = 10**12 the tie-break factor (1 + TIEBREAK_SLACK)^(2l) is past
        # the float range; the bisection witness stays, as after a stall.
        rng = np.random.default_rng(0)
        X0 = rng.standard_normal((20, 2))
        X0 /= np.linalg.norm(X0, axis=1, keepdims=True)
        traj, out = tmp_path / "t.csv", tmp_path / "report.json"
        save_observations(ObservationSet(l=l, X0=X0, XL=rng.standard_normal((20, 2))), traj)
        rc = main(["certify", "--traj", str(traj), "--modes-upper", "2", "--out", str(out)])
        assert rc == 0
        assert "jsr_upper_bound: inf" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["finite"] is False
        assert report["gamma_star"] > 0 and math.isfinite(report["kappa"])
        tied = report["provenance"]["certified_gamma"] > report["gamma_star"]
        assert tied == (l == 10**9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, degree", [(1e150, 1), (1e75, 2)])
    def test_huge_endpoints_certify(self, tmp_path, scale, degree, capsys):
        # The lifted rows are finite (about 1e300), but squaring their
        # entries for a norm overflows; the rows are normalized all the same.
        rng = np.random.default_rng(0)
        X0 = rng.standard_normal((20, 2))
        X0 /= np.linalg.norm(X0, axis=1, keepdims=True)
        traj, out = tmp_path / "t.csv", tmp_path / "report.json"
        save_observations(ObservationSet(l=1, X0=X0, XL=scale * rng.standard_normal((20, 2))), traj)
        rc = main(["certify", "--traj", str(traj), "--modes-upper", "2", "--degree", str(degree),
                   "--out", str(out)])
        assert rc == 0
        assert "finite: true" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert scale < report["gamma_star"] < report["jsr_upper_bound"] < math.inf

    @pytest.mark.parametrize("degree", [1, 2])
    def test_certificate_depends_on_endpoints_only(self, tmp_path, parrilo, degree):
        # A simulated set and its trajectory file hold the same endpoints and
        # nothing else, so they give the same certificate bit for bit.
        obs = simulate(parrilo, 200, 1, seed=8)
        traj = tmp_path / "t.csv"
        save_observations(obs, traj)
        direct = certify_run(obs, degree, 0.95, 0.95, 2)
        loaded = certify_run(load_observations(traj), degree, 0.95, 0.95, 2)
        for key in ("gamma_star", "kappa", "lambda_star", "jsr_upper_bound"):
            assert getattr(loaded, key) == getattr(direct, key)

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

    @pytest.mark.parametrize("extra, message", [
        (["--traj", "t.csv"], "--traj and --modes are mutually exclusive"),
        ([], "--n-traj is required when simulating from --modes"),
    ])
    def test_input_source_errors_exit_2(self, double_identity_file, capsys, extra, message):
        rc = main(["certify", "--modes", double_identity_file, "--modes-upper", "2", *extra])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("header, message", [
        ("traj_id,x1,x2", "expected header 'traj_id,step,x1,...,xn'"),
        ("step,traj_id,x1,x2", "expected header 'traj_id,step,x1,...,xn'"),
        ("traj_id,step,x2,x1", "state columns must be named x1..x2"),
    ])
    def test_bad_trajectory_header_exits_2(self, tmp_path, capsys, header, message):
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n7,0,1.0,0.0\n7,1,0.5,-2.0\n")
        rc = main(["certify", "--traj", str(path), "--modes-upper", "2"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("value", ["1", "0.5"])
    def test_c_bound_at_most_one_exits_2(self, double_identity_file, capsys, value):
        rc = main([
            "certify", "--modes", double_identity_file, "--n-traj", "30",
            "--modes-upper", "2", "--C-bound", value,
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: c_bound must exceed 1 (P = I must be admissible)\n"

    def test_missing_input_exits_2(self, capsys):
        rc = main(["certify", "--modes-upper", "2"])
        assert rc == 2

    def test_nonexistent_file_exits_2(self, capsys):
        rc = main(["certify", "--traj", "/nonexistent/t.csv", "--modes-upper", "2"])
        assert rc == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"dim": 2, "matrices": [5]}', "each mode must be a 2-D matrix"),
            ('{"dim": 2, "matrices": 5}', "expected a JSON object with a 'matrices' list"),
            ("[[[1.0, 0.0], [0.0, 1.0]]]", "expected a JSON object with a 'matrices' list"),
            ('{"dim": 1, "matrices": [{"a": 1.0}]}', "mode matrices must hold numbers"),
            ('{"dim": true, "matrices": [[[1.0]]]}', "expected an integer 'dim'"),
            ('{"dim": 2.7, "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}', "expected an integer 'dim'"),
            ('{"dim": "2", "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}', "expected an integer 'dim'"),
            ('{"dim": 2, "matrices": [', "Expecting value: line 1 column 25 (char 24)"),
            ('{"dim": 2, "matrices": [[[1.0, 0.0], [0.0]]]}',
             "setting an array element with a sequence"),
            ('{"dim": 2, "matrices": [[[1.0, 0.0]]]}',
             "all modes must be square matrices of the same size"),
            ('{"dim": 1, "matrices": [[["a"]]]}', "could not convert string to float: 'a'"),
            ('{"dim": 2, "matrices": [[[true, false], [false, true]], [["0.5", "0"], ["0", "0.5"]]]}',
             "mode matrices must hold JSON numbers, found true"),
            ('{"dim": 2, "matrices": [[[1, 0], [0, 1]], [["0.5", "0"], ["0", "0.5"]]]}',
             'mode matrices must hold JSON numbers, found "0.5"'),
            ('{"dim": 1, "matrices": []}', "a mode set needs at least one matrix"),
            ('{"dim": 3, "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}',
             "mode-set file declares dim 3 but matrices are 2x2"),
            pytest.param('{"dim": 1, "matrices": [[[1%s]]]}' % ("0" * 400),
                         "mode matrices must have finite entries", id="integer-past-float-range"),
        ],
    )
    def test_malformed_mode_file_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "modes.json"
        path.write_text(text)
        rc = main(["certify", "--modes", str(path), "--n-traj", "30", "--modes-upper", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    @pytest.mark.parametrize("name", ["csv_path", "header", "numpy_path"])
    def test_field_past_csv_limit_exits_2(self, oversized_field_files, capsys, name):
        path, line = oversized_field_files[name]
        rc = main(["certify", "--traj", str(path), "--modes-upper", "2"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}:{line}: field larger than field limit (131072)\n")

    @pytest.mark.parametrize("name, argv, text", [
        ("t.csv", ["certify", "--modes-upper", "2", "--traj"],
         b"traj_id,step,x1,x2\n7,0,1.0\xff,0.0\n7,1,0.5,-2.0\n"),
        ("modes.json", ["simulate", "--n-traj", "4", "--modes"],
         b'{"dim": 1, "matrices": [[[0.5\xff]]]}'),
    ], ids=["certify_traj", "simulate_modes"])
    def test_file_not_utf8_exits_2_naming_it(self, tmp_path, capsys, name, argv, text):
        path, out = tmp_path / name, tmp_path / "out"
        path.write_bytes(text)
        rc = main([*argv, str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: cannot decode the file as utf-8: invalid start byte\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--C-bound", "--bisect-tol"])
    def test_non_finite_solver_option_exits_2(self, double_identity_file, capsys, flag):
        rc = main([
            "certify", "--modes", double_identity_file, "--n-traj", "30",
            "--modes-upper", "1", flag, "nan",
        ])
        assert rc == 2
        assert "must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["1", "5"])
    def test_bisect_tol_of_one_or_more_exits_2(self, modes_file, tmp_path, capsys, tol):
        # The starting bracket [0, lambda*] already meets such a tolerance, so
        # gamma* would be lambda* with no oracle call.
        out = tmp_path / "report.json"
        rc = main([
            "certify", "--modes", modes_file, "--n-traj", "50", "--modes-upper", "2",
            "--bisect-tol", tol, "--out", str(out),
        ])
        assert rc == 2
        assert f"bisection_rel_tol must be below 1, got {float(tol)!r}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_report_names_highs_build(self, double_identity):
        from scipy.optimize._highspy import _core

        report = certify_run(simulate(double_identity, 30, 1, seed=6), 1, 0.95, 0.95, 2)
        # The loaded HiGHS library reports its own version at run time.
        version = _core._Highs().version()
        assert report.provenance["highs_version"] == version
        assert json.loads(report.to_json())["provenance"]["highs_version"] == version

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

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_empty_grid_exits_2_naming_it(self, modes_file, capsys, grid):
        rc = main(["whitebox", "--modes", modes_file, "--degree", "1", "--grid", grid])
        assert rc == 2
        assert capsys.readouterr().err == f"error: grid must be >= 1, got {grid}\n"

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_degree_below_one_exits_2_naming_it(self, modes_file, capsys, degree):
        rc = main(["whitebox", "--modes", modes_file, "--degree", degree, "--grid", "24"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: degree must be >= 1, got {degree}\n"


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

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected_before_any_pool(
        self, modes_file, tmp_path, monkeypatch, capsys, jobs
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            self.make_config(modes_file, jobs=jobs)
        rc = main([
            "sweep", "--modes", modes_file, "--n-traj", "30", "--runs", "1",
            "--degree", "1", "--modes-upper", "2", "--jobs", str(jobs),
            "--out", str(tmp_path / "sweep.csv"),
        ])
        assert rc == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("seed", [-1, np.int64(-7), True, 2.0, "3"])
    def test_seed_outside_non_negative_integers_rejected(self, modes_file, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
            self.make_config(modes_file, seed=seed)

    @pytest.mark.parametrize("seed", [0, np.uint64(2**64 - 1), 2**200])
    def test_seed_accepts_any_non_negative_integer(self, modes_file, seed):
        assert self.make_config(modes_file, seed=seed).seed == seed

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_negative_seed_exits_2_naming_it(self, modes_file, tmp_path, capsys, jobs):
        rc = main([
            "sweep", "--modes", modes_file, "--n-traj", "30", "--runs", "1",
            "--degree", "1", "--modes-upper", "2", "--seed", "-1", "--jobs", jobs,
            "--out", str(tmp_path / "sweep.csv"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "sweep.csv").exists()


    @pytest.mark.parametrize(
        "n_traj, degree, message",
        [
            ("", "1", "at least one N value is required"),
            ("0,30", "1", "every N must be >= 1"),
            ("30", "0", "degrees must be >= 1 and distinct"),
            ("30", "1,1", "degrees must be >= 1 and distinct"),
            ("30", ",", "at least one degree is required"),
            ("200,100", "1", "the list of N values must be strictly increasing"),
        ],
    )
    def test_bad_grid_rejected_before_any_pool(
        self, modes_file, tmp_path, monkeypatch, capsys, n_traj, degree, message
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match=message):
            self.make_config(
                modes_file, n_values=cli._int_list(n_traj), degrees=cli._int_list(degree), jobs=2
            )
        rc = main([
            "sweep", "--modes", modes_file, "--n-traj", n_traj, "--runs", "1",
            "--degree", degree, "--modes-upper", "2", "--jobs", "2",
            "--out", str(tmp_path / "sweep.csv"), "--plot", str(tmp_path / "sweep.svg"),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_zero_runs_exits_2(self, modes_file, tmp_path, capsys):
        rc = main([
            "sweep", "--modes", modes_file, "--n-traj", "30", "--runs", "0",
            "--degree", "1", "--modes-upper", "2", "--out", str(tmp_path / "sweep.csv"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: runs must be >= 1\n"
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "n_traj, degree, message",
        [
            # The (10, d=1) cell is valid; (10, d=3) is not.
            ("10", "1,3", "N=10 is below the minimum sample count 11"),
            ("30", "1,7", "N=30 is below the minimum sample count 37"),
            # D = 21 at n = 2, d = 20, with N above its minimum of 232.
            ("300", "1,20", "lift dimension D=21 exceeds the supported maximum 20"),
        ],
    )
    def test_unsolvable_cell_rejected_before_any_cell(
        self, modes_file, tmp_path, monkeypatch, capsys, n_traj, degree, message
    ):
        def no_cell(*args, **kwargs):
            raise AssertionError("a sweep cell was solved")

        monkeypatch.setattr(cli, "certify_run", no_cell)
        config = self.make_config(
            modes_file, n_values=cli._int_list(n_traj), degrees=cli._int_list(degree)
        )
        with pytest.raises(ValueError, match=message):
            run_sweep(config)
        rc = main([
            "sweep", "--modes", modes_file, "--n-traj", n_traj, "--runs", "2",
            "--degree", degree, "--modes-upper", "2", "--out", str(tmp_path / "sweep.csv"),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command, n_traj, N", [("certify", "50", 50), ("sweep", "20,50", 20)])
def test_beta1_without_growth_rate_cap_exits_2_before_any_lp(
        modes_file, tmp_path, capsys, monkeypatch, command, n_traj, N):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(jsrcert.lmi, "linprog", no_lp)
    out = tmp_path / "out"
    rc = main([command, "--modes", modes_file, "--n-traj", n_traj, "--beta1", "0",
               "--modes-upper", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: beta1=0.0 leaves no growth-rate cap at N={N}: (1 - beta1)^(1/N) rounds to 1\n")
    assert not out.exists()


@pytest.mark.parametrize("command, n_traj", [("certify", "200"), ("sweep", "100")])
def test_modes_upper_below_mode_count_exits_2_before_any_lp(
        modes_file, tmp_path, capsys, monkeypatch, command, n_traj):
    # Caps measured for fewer modes than the file has would overstate the confidence.
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(jsrcert.lmi, "linprog", no_lp)
    out = tmp_path / "out"
    rc = main([command, "--modes", modes_file, "--n-traj", n_traj, "--modes-upper", "1",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --modes-upper 1 is below the 2 modes of {modes_file}\n"
    assert not out.exists()


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

    @pytest.mark.parametrize("seed", ["-1", str(1 << 128)])
    def test_seed_outside_philox_keys_exits_2(self, tmp_path, modes_file, capsys, seed):
        traj = tmp_path / "out.csv"
        rc = main(["simulate", "--modes", modes_file, "--n-traj", "5", "--seed", seed,
                   "--out", str(traj)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: seed must be an integer in [0, 2**128), got {seed}\n")
        assert not traj.exists()


def test_module_entry_point_warns_nothing():
    # `python -m jsrcert.cli` warns when importing the package already imported jsrcert.cli.
    src = str(Path(jsrcert.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "default", "-m", "jsrcert.cli", "--help"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0
    assert "usage: jsrcert" in done.stdout
    assert done.stderr == ""
