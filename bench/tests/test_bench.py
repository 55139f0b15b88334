"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

The tiny runs shrink every input so each finishes in seconds; they check
that every metric of BENCHMARK.json is printed with its unit.  The other
tests check that each output check fires on a deliberately wrong result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from checks import check_floor, check_rate, check_reference, check_same, verified_rate  # noqa: E402
from workloads import WORKLOADS, Outcome, check_outcome, load_references  # noqa: E402

from jsrcert.certifier import solve_gamma  # noqa: E402
from jsrcert.sampling import load_modes, simulate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and w["why"] == WORKLOADS[w["name"]].why
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    text, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"])
        assert re.search(rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}$", text, re.M)
    assert re.search(r"^failed_frac 0 \(0/\d+\)$", text, re.M)
    env = json.loads(re.search(r"^env (.*)$", text, re.M).group(1))
    assert {"nproc", "python", "numpy", "scipy", "commit", "seed", "src_lines"} <= set(env)
    if trace:
        # A second traced run of the same sources and seed repeats every count.
        _, again = _run(workload, trace)
        assert again["metrics"]["trace.count_mismatches"]["value"] == 0


def test_run_without_package_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "parrilo-d1-n3000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_calibration_scales_by_the_kernel_times_around_an_operation():
    cal = run.Calibration()
    assert cal.measure() > 0 and len(cal.times) == 1
    ref = run.CALIBRATION_REF_S
    assert cal.scale(3.0, ref, ref) == pytest.approx(3.0)
    assert cal.scale(3.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.5)


def test_count_mismatch_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    env = {"src_sha256": "0" * 64, "bench_sha256": "1" * 64, "tiny": True}
    ops = [(0, {"highs.calls": 5, "x.s": 1.0}), (1, {"highs.calls": 9, "x.s": 2.0}),
           (0, {"highs.calls": 5, "x.s": 3.0})]
    values, mismatches = run._per_layer(ops, ("highs.calls",), env, "w", 1)
    assert values == {"highs.calls": 5, "x.s": 2.0} and mismatches == []
    # A later run of the same sources and seed differs on input set 1.
    _, mismatches = run._per_layer([(1, {"highs.calls": 8, "x.s": 1.0})], ("highs.calls",),
                                   env, "w", 1)
    assert mismatches == ["highs.calls"]
    # Two operations on the same input set differ within one run.
    ops[2][1]["highs.calls"] = 7
    _, mismatches = run._per_layer(ops, ("highs.calls",), env, "w", 2)
    assert mismatches == ["highs.calls"]


def test_floor_check_fires_on_bound_below_jsr_floor():
    floor = load_references()["jsr_lower_bound"]["parrilo.json"]["value"]
    assert check_floor(floor * 0.99, True, floor)
    assert check_floor(floor, True, floor)
    assert check_floor(floor * 0.99, False, floor) is None
    assert check_floor(floor * 1.01, True, floor) is None


@pytest.fixture(scope="module")
def certificate():
    modes = load_modes(BENCH / "data" / "parrilo.json")
    obs = simulate(modes, 60, 1, 5).blind()
    gamma_star, cand = solve_gamma(obs, 1)
    return obs, gamma_star, cand


def test_rate_check_fires_on_p_violating_one_sample(certificate):
    obs, gamma_star, cand = certificate
    X0, XL = obs.endpoints()
    P = cand.P.full()
    assert check_rate(verified_rate(X0, XL, P, 1, obs.l), gamma_star) is None
    XL = XL.copy()
    XL[17] = 1.01 * gamma_star * X0[17]  # grows faster than P certifies
    assert check_rate(verified_rate(X0, XL, P, 1, obs.l), gamma_star)


def test_reference_check_fires_on_mismatch():
    assert check_reference("bound", 1.0 + 1e-8, 1.0) is None
    assert check_reference("bound", 1.0 + 1e-5, 1.0)
    assert check_reference("bound", float("inf"), 1.0)
    assert check_same("output", "a", "b") and check_same("output", "a", "a") is None
    wl = WORKLOADS["parrilo-d1-n3000"]
    ref = load_references()["outputs"][wl.name]["1"][0]
    out = Outcome([ref["bound"]], [True], [ref["gamma_star"]], [ref["kappa"]], "d")
    assert wl.reference_failures(out, ref) == []
    out.kappa = [ref["kappa"] * (1 + 1e-4)]
    assert wl.reference_failures(out, ref)


def test_check_outcome_collects_every_failure(certificate):
    obs, gamma_star, cand = certificate
    wl = WORKLOADS["parrilo-d1-n3000"]
    good = Outcome([1.5], [True], [gamma_star], [cand.kappa], "d")
    failures, excess = check_outcome(wl, good, good, [(obs, 1, gamma_star, cand)], 1.0, None)
    assert failures == [] and excess <= 1e-6
    low = Outcome([0.5], [True], [gamma_star], [cand.kappa], "e")
    ref = {"bound": 1.5, "gamma_star": gamma_star, "kappa": cand.kappa}
    failures, _ = check_outcome(wl, low, good, [(obs, 1, gamma_star * 0.9, cand)], 1.0, ref)
    assert any("JSR lower bound" in f for f in failures)
    assert any("verifies only at rate" in f for f in failures)
    assert any("first operation" in f for f in failures)
    assert any("reference" in f for f in failures)
