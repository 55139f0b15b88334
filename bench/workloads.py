"""The benchmark's workloads: inputs, the timed operation, and its checks.

Each workload writes its inputs at set-up: `pool` input sets, which its
operations cycle through (operation i works on input set i % pool).  The
seed drives trajectory simulation only; the mode sets are fixed files in
``data/``.  `tiny` shrinks every size so the benchmark's own tests finish in
seconds; reference outputs exist only for the full sizes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import jsrcert.cli
import jsrcert.sampling
from jsrcert.sampling import load_modes, save_modes, save_observations, simulate

from checks import check_floor, check_rate, check_reference, check_same, verified_rate

DATA = Path(__file__).resolve().parent / "data"
BETA = BETA1 = 0.95
L = 1


def load_references() -> dict:
    with open(DATA / "references.json") as fh:
        return json.load(fh)


class CandidateLog:
    """Pass-through around `jsrcert.cli.solve_gamma` that keeps its result.

    The output checks need the certificate's P, which the report does not
    carry.  Installed for the whole run, traced or not, so both time the
    same code.
    """

    def __init__(self):
        self.items: list[tuple] = []
        self._original = None

    def install(self) -> None:
        self._original = original = jsrcert.cli.solve_gamma

        def solve_gamma(obs, d, opts=None):
            gamma_star, cand = original(obs, d, opts)
            self.items.append((obs, d, gamma_star, cand))
            return gamma_star, cand

        jsrcert.cli.solve_gamma = solve_gamma

    def uninstall(self) -> None:
        if self._original is not None:
            jsrcert.cli.solve_gamma = self._original
            self._original = None


@dataclass
class Outcome:
    """What one operation produced, reduced for the checks."""

    bounds: list[float]
    finite: list[bool]
    gamma_star: list[float]
    kappa: list[float]
    digest: str

    @property
    def bound(self) -> float:
        return float(np.mean(self.bounds))


class Certify:
    """Load a trajectory CSV, certify it, serialise the report.

    The trajectories come from the fixed `trajectory_seed`, not from the
    run's seed: the work of one certificate (LP count 21 to 29 at the same
    size) depends so strongly on the sampled data that runs on different
    seeds could not be compared.
    """

    pool = 1

    def __init__(self, name, why, modes_file, N, degree, tiny_N, trajectory_seed):
        self.name, self.why = name, why
        self.modes_file = modes_file
        self.N, self.degree, self.tiny_N = N, degree, tiny_N
        self.trajectory_seed = trajectory_seed

    def setup(self, workdir: Path, seed: int, tiny: bool) -> None:
        modes = load_modes(DATA / self.modes_file)
        self.m_upper = modes.m
        obs = simulate(modes, self.tiny_N if tiny else self.N, L, self.input_seed(seed))
        self.path = workdir / "traj.csv"
        save_observations(obs, self.path)

    def op(self, i: int):
        obs = jsrcert.sampling.load_observations(self.path)
        report = jsrcert.cli.certify_run(obs, self.degree, BETA, BETA1, self.m_upper)
        return report, report.to_json()

    def outcome(self, raw) -> Outcome:
        report, text = raw
        return Outcome(
            bounds=[report.jsr_upper_bound],
            finite=[report.finite],
            gamma_star=[report.gamma_star],
            kappa=[report.kappa],
            digest=hashlib.sha256(text.encode()).hexdigest(),
        )

    def input_seed(self, seed: int) -> int:
        return self.trajectory_seed

    def reference_failures(self, out: Outcome, ref: dict) -> list[str]:
        got = self.reference_record(out)
        return [f for f in (check_reference(k, got[k], ref[k]) for k in ref) if f]

    def reference_record(self, out: Outcome) -> dict:
        return {"bound": out.bounds[0], "gamma_star": out.gamma_star[0], "kappa": out.kappa[0]}


class Sweep:
    """`cli.run_sweep` on a grid of N and d, then `write_sweep_csv`.

    Each cell simulates its own data, so the sweep's work depends on its
    master seed, and a few seeds need a third more LPs than most.  The pool
    holds three sweeps with master seeds 3*seed, 3*seed+1 and 3*seed+2; the
    median operation time over them is not moved by one such seed.
    """

    pool = 3

    def __init__(self, name, why, modes_file, n_values, degrees, runs, tiny_n_values):
        self.name, self.why = name, why
        self.modes_file = modes_file
        self.n_values, self.degrees, self.runs = n_values, degrees, runs
        self.tiny_n_values = tiny_n_values

    def setup(self, workdir: Path, seed: int, tiny: bool) -> None:
        modes = load_modes(DATA / self.modes_file)
        self.modes_path = workdir / "modes.json"
        save_modes(modes, self.modes_path)
        self.csv_path = workdir / "sweep.csv"
        self.configs = [
            jsrcert.cli.SweepConfig(
                modes_path=str(self.modes_path),
                n_values=self.tiny_n_values if tiny else self.n_values,
                runs=1 if tiny else self.runs,
                degrees=self.degrees,
                m_upper=modes.m,
                beta=BETA,
                beta1=BETA1,
                l=L,
                seed=self.pool * seed + j,
                jobs=1,
            )
            for j in range(self.pool)
        ]

    def op(self, i: int):
        rows = jsrcert.cli.run_sweep(self.configs[i])
        jsrcert.cli.write_sweep_csv(rows, self.csv_path)
        return rows

    def outcome(self, rows) -> Outcome:
        return Outcome(
            bounds=[r["bound"] for r in rows],
            finite=[r["finite"] for r in rows],
            gamma_star=[r["gamma_star"] for r in rows],
            kappa=[],
            digest=hashlib.sha256(self.csv_path.read_bytes()).hexdigest(),
        )

    def input_seed(self, seed: int) -> int:
        return seed

    def reference_failures(self, out: Outcome, ref: dict) -> list[str]:
        if out.digest != ref["csv_sha256"]:
            return [f"sweep CSV sha256 {out.digest} differs from the reference"]
        return []

    def reference_record(self, out: Outcome) -> dict:
        return {"csv_sha256": out.digest}


WORKLOADS = {
    w.name: w
    for w in (
        Certify(
            "parrilo-d1-n3000",
            "large LPs: 3000 sample rows on 3 unknowns, almost no PSD cuts, so HiGHS on "
            "big row sets and per-call row cleaning dominate; trajectories fixed (seed 1)",
            "parrilo.json",
            N=3000,
            degree=1,
            tiny_N=200,
            trajectory_seed=1,
        ),
        Certify(
            "rand2x2m3-d2-n1000",
            "PSD-cut rounds: random 2x2 mode triple at d=2 needs several eigenvector-cut "
            "rounds per decision and many balancing LPs; trajectories fixed (seed 1), as "
            "their cost varies 1.5x across seeds",
            "rand2x2m3.json",
            N=1000,
            degree=2,
            tiny_N=40,
            trajectory_seed=1,
        ),
        Sweep(
            "sweep-parrilo-small",
            "many small LPs: 12-cell sweeps (N 100 and 200, d 1 and 2, 3 runs) on data "
            "from the run's seed, where per-call fixed costs and per-cell simulate count",
            "parrilo.json",
            n_values=(100, 200),
            degrees=(1, 2),
            runs=3,
            tiny_n_values=(30, 60),
        ),
    )
}


def check_outcome(workload, out: Outcome, first: Outcome | None, captured, floor: float,
                  reference) -> tuple[list[str], float]:
    """All output checks of one operation; returns (failures, rate excess).

    `first` is the first outcome of this run on the same input set, and
    `reference` the recorded outcome for that input set, if any.

    The rate excess is the largest verified rate of a returned P over all
    samples divided by gamma_star, minus 1.
    """
    failures = []
    excess = -np.inf
    for obs, d, gamma_star, cand in captured:
        X0, XL = obs.endpoints()
        rate = verified_rate(X0, XL, cand.P.full(), d, obs.l)
        excess = max(excess, rate / gamma_star - 1.0)
        failures.append(check_rate(rate, gamma_star))
    if len(captured) != len(out.bounds):
        failures.append(f"{len(captured)} certificates captured for {len(out.bounds)} bounds")
    for bound, finite in zip(out.bounds, out.finite):
        failures.append(check_floor(bound, finite, floor))
    if first is not None:
        failures.append(check_same("output", out.digest, first.digest))
    if reference is not None:
        failures.extend(workload.reference_failures(out, reference))
    return [f for f in failures if f], float(excess)
