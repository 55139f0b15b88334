"""Digest of every LP that `certify`, the sweep and the support search issue.

Run it in two checkouts and diff the outputs: a change that leaves every LP
bit-identical prints the same lines.

    PYTHONPATH=src python tools/lp_digest.py > lp_digest.txt

It wraps `jsrcert.lmi._run_highs`, through which every HiGHS solve goes,
cold or on a cut loop's added rows.  After each solve it reads back the
model `jsrcert.lmi._HIGHS` holds.  For each item it
prints the solve count, the most solves made in one `jsrcert.lmi._cut_loop`
call (`max_loop=`, to read against `_MAX_CUT_ROUNDS`), the total `A_ub`
rows (rows without a lower bound) of those solves, how many of the solves
were made inside `jsrcert.lmi._balanced_witness` (`witness=`), how many were
cold, made through `jsrcert.lmi.linprog` from a fresh model with presolve
(`cold=`; the others re-solve a held model or start from a carried basis),
how many cut loops were handed a non-empty carry yet made their first solve
through `linprog`, the cold pick at P = I (`dropped=`), a sha256 over every
solve's costs, column bounds, row bounds, constraint matrix, status and x in
call order, and the item's outputs:

* `certify_run` on the bench's two seed-1 samples, built by the bench's own
  workload classes (simulate, save, load), with a sha256 over the loaded
  `X0` and `XL` bytes, one over the bytes of the trajectory file the
  workload wrote (a change in how a number is spelled shows there even when
  it parses to the same double), and one over the returned shape's packed
  `P`, taken from a pass-through around `jsrcert.cli.solve_gamma`;
* `certify_run` on the `rand2x2m3-d2-n1000` sample drawn from trajectory
  seeds 2-6 (the bench fixes it at seed 1), with gamma*;
* `solve_gamma` at lift dimension D = 6, the large-lift path no bench
  workload takes: two 3x3 modes from `default_rng(0)`, each scaled to unit
  spectral radius, d = 2, N = 400 samples of sample seed 0, with gamma* and
  kappa;
* the three sweeps of `sweep-parrilo-small` at seed 1 (master seeds 3, 4,
  5), with each CSV's sha256 and a sha256 over every cell's `X0` and `XL`
  bytes in call order, taken from a pass-through around
  `jsrcert.cli.simulate`, so a change to the simulator shows directly;
* `support_constraints` on the 20 seeds of acceptance criterion 9 (Parrilo
  pair, N = 10, d = 1), with the support sets and gammas.

The eight certificate lines (the first three items) also print how many
bisection steps the oracle left undecided (`undecided=`, the report's
`oracle_undecided`).

Three more lines cover steps that issue no LP:

* `load_observations` on the bench's seed-1 Parrilo file with every id
  raised by 2^63, which only the csv path reads, with the number of
  `jsrcert.sampling._csv_rows` calls and a sha256 over the loaded `X0` and
  `XL` bytes (the same sample as the first line's);
* per bench mode set, a sha256 over the sequences and bytes of
  `enumerate_products` at l = 1, 2, 3 and 5, and `jsr_lower_bound` at
  k = 1, 4 and 8;
* a sha256 over `delta_cap` on a grid of (eps, n) that reaches both of its
  incomplete-beta branches and its eps >= 1/2 branch.

Inputs come from ``bench/data``; everything written goes to a temporary
directory.  Takes about 12 s on a 2-core box.

The tool checks the two seed-1 certificates against
``bench/data/references.json`` with the bench's own rule
(`Certify.reference_failures`: bound, gamma* and kappa within 1e-6
relative), and every certificate line for an undecided oracle step or a
tie-break fallback (the report's `tiebreak_fallback`): a stalled oracle
would otherwise only raise gamma*.  Each failure goes to stderr after the
stdout lines, and the exit status is then 1.  A sweep CSV whose sha256
differs from its recorded value is reported on stderr too, but does not
fail the run: those exact bytes hold only for the numpy and scipy build the
references were recorded with.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import jsrcert.cli  # noqa: E402
import jsrcert.lmi  # noqa: E402
import jsrcert.sampling  # noqa: E402
from jsrcert.caps import delta_cap  # noqa: E402
from jsrcert.certifier import solve_gamma  # noqa: E402
from jsrcert.oracles import enumerate_products, jsr_lower_bound, support_constraints  # noqa: E402
from jsrcert.sampling import ModeSet, load_modes, load_observations, simulate  # noqa: E402
from workloads import DATA, WORKLOADS, load_references  # noqa: E402


class LPDigest:
    """Counts and hashes every HiGHS solve, with the model solved."""

    def __init__(self):
        self.solve = jsrcert.lmi._run_highs
        self.balancing = 0  # depth of `_balanced_witness` calls under way
        self.in_linprog = 0  # depth of `linprog` calls under way
        self.first_cold = None  # whether the running cut loop's first solve was cold
        self.reset()

    def install(self):
        jsrcert.lmi._run_highs = self
        cut_loop = jsrcert.lmi._cut_loop

        def counting(*args, **kwargs):  # cut loops never nest
            first, handed, self.first_cold = self.count, bool(kwargs.get("carry")), None
            try:
                return cut_loop(*args, **kwargs)
            finally:
                self.max_loop = max(self.max_loop, self.count - first)
                self.dropped += handed and bool(self.first_cold)

        jsrcert.lmi._cut_loop = counting
        balanced = jsrcert.lmi._balanced_witness

        def balancing(*args, **kwargs):
            self.balancing += 1
            try:
                return balanced(*args, **kwargs)
            finally:
                self.balancing -= 1

        jsrcert.lmi._balanced_witness = balancing
        linprog = jsrcert.lmi.linprog

        def cold(*args, **kwargs):
            self.in_linprog += 1
            try:
                return linprog(*args, **kwargs)
            finally:
                self.in_linprog -= 1

        jsrcert.lmi.linprog = cold

    def reset(self):
        self.count = 0
        self.cold = 0
        self.dropped = 0
        self.max_loop = 0
        self.rows = 0
        self.witness = 0
        self.sha = hashlib.sha256()

    def _add(self, value):
        if value is None:
            self.sha.update(b"None")
        else:
            a = np.ascontiguousarray(value, dtype=float)
            self.sha.update(repr(a.shape).encode())
            self.sha.update(a.tobytes())

    def __call__(self, *args, **kwargs):
        res = self.solve(*args, **kwargs)
        lp = jsrcert.lmi._HIGHS.getLp()
        matrix = lp.a_matrix_
        start = np.asarray(matrix.start_)
        outer = np.repeat(np.arange(start.size - 1), np.diff(start))
        index = np.asarray(matrix.index_, dtype=int)
        A = np.zeros((lp.num_row_, lp.num_col_))
        if matrix.format_ == jsrcert.lmi._highs.MatrixFormat.kColwise:
            A[index, outer] = matrix.value_
        else:
            A[outer, index] = matrix.value_
        row_lower = np.asarray(lp.row_lower_)
        self.count += 1
        self.witness += self.balancing > 0
        self.cold += self.in_linprog > 0
        if self.first_cold is None:
            self.first_cold = self.in_linprog > 0
        self.rows += int(np.count_nonzero(np.isneginf(row_lower)))
        for value in (lp.col_cost_, lp.col_lower_, lp.col_upper_, row_lower, lp.row_upper_, A):
            self._add(value)
        self.sha.update(repr(res.status).encode())
        self._add(res.x)
        return res

    def line(self, name: str, outputs: str) -> str:
        line = (f"{name} lps={self.count} max_loop={self.max_loop} rows={self.rows} "
                f"witness={self.witness} cold={self.cold} dropped={self.dropped} "
                f"sha256={self.sha.hexdigest()} {outputs}")
        self.reset()
        return line


def csv_path_line(workdir: Path) -> str:
    work = WORKLOADS["parrilo-d1-n3000"]
    work.setup(workdir, seed=1, tiny=False)
    with open(work.path, newline="") as fh:
        header, *rows = fh.readlines()
    path = workdir / "traj-big-ids.csv"
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for row in rows:
            tid, rest = row.split(",", 1)
            fh.write(f"{int(tid) + 2**63},{rest}")
    calls = []
    csv_rows = jsrcert.sampling._csv_rows

    def counting(*args):
        calls.append(None)
        return csv_rows(*args)

    jsrcert.sampling._csv_rows = counting
    try:
        obs = load_observations(path)
    finally:
        jsrcert.sampling._csv_rows = csv_rows
    sample = hashlib.sha256(obs.X0.tobytes() + obs.XL.tobytes()).hexdigest()
    return f"parrilo-big-ids csv_rows={len(calls)} N={obs.N} l={obs.l} sample_sha256={sample}"


def product_line(name: str) -> str:
    modes = load_modes(DATA / f"{name}.json")
    sha = hashlib.sha256()
    for l in (1, 2, 3, 5):
        products = enumerate_products(modes, l)
        sha.update(repr(products.sequences).encode())
        for A in products.matrices:
            sha.update(A.tobytes())
    lower = [jsr_lower_bound(modes, k) for k in (1, 4, 8)]
    return f"products-{name} products_sha256={sha.hexdigest()} jsr_lower_bound={lower!r}"


def delta_cap_line() -> str:
    # eps <= 1/4 and 1/4 < eps < 1/2 take the two incomplete-beta branches.
    grid = [(eps, n) for eps in (1e-9, 1e-4, 0.01, 0.1, 0.25, 0.3, 0.4, 0.499, 0.5)
            for n in (2, 3, 4, 7, 10, 21)]
    values = np.array([delta_cap(eps, n) for eps, n in grid])
    return f"delta_cap points={len(grid)} sha256={hashlib.sha256(values.tobytes()).hexdigest()}"


def main() -> int:
    refs = load_references()["outputs"]
    failures, notes = [], []
    digest = LPDigest()
    digest.install()

    def decided(name, undecided, fallback):
        """A certificate line's `undecided=` field; a stall or a fallback fails the run."""
        if undecided:
            failures.append(f"{name}: the oracle left {undecided} bisection step(s) undecided")
        if fallback:
            failures.append(f"{name}: the tie-break fell back to the bisection witness")
        return f"undecided={undecided}"

    candidates = []
    solve_gamma = jsrcert.cli.solve_gamma

    def keep_candidate(obs, d, opts=None):
        gamma_star, cand = solve_gamma(obs, d, opts)
        candidates.append(cand)
        return gamma_star, cand

    jsrcert.cli.solve_gamma = keep_candidate
    samples = []
    simulate_cell = jsrcert.cli.simulate

    def keep_sample(modes, N, l, seed):
        obs = simulate_cell(modes, N, l, seed)
        samples.append(obs.X0.tobytes() + obs.XL.tobytes())
        return obs

    jsrcert.cli.simulate = keep_sample
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("parrilo-d1-n3000", "rand2x2m3-d2-n1000"):
            work = WORKLOADS[name]
            work.setup(Path(tmp), seed=1, tiny=False)
            candidates.clear()
            raw = work.op(0)
            report = raw[0]
            failures += [f"{name}: {f}"
                         for f in work.reference_failures(work.outcome(raw), refs[name]["1"][0])]
            obs = load_observations(work.path)
            sample = hashlib.sha256(obs.X0.tobytes() + obs.XL.tobytes()).hexdigest()
            written = hashlib.sha256(work.path.read_bytes()).hexdigest()
            (cand,) = candidates
            shape = hashlib.sha256(cand.P.packed.tobytes()).hexdigest()
            print(digest.line(name, f"bound={report.jsr_upper_bound!r} "
                              f"gamma_star={report.gamma_star!r} kappa={report.kappa!r} "
                              f"sample_sha256={sample} file_sha256={written} "
                              f"P_sha256={shape} "
                              + decided(name, report.flags["oracle_undecided"],
                                        report.flags["tiebreak_fallback"])), flush=True)
        work = WORKLOADS["rand2x2m3-d2-n1000"]
        for seed in range(2, 7):
            work.trajectory_seed = seed
            work.setup(Path(tmp), seed=1, tiny=False)
            report, _ = work.op(0)
            name = f"rand2x2m3-traj{seed}"
            print(digest.line(name, f"gamma_star={report.gamma_star!r} "
                              + decided(name, report.flags["oracle_undecided"],
                                        report.flags["tiebreak_fallback"])), flush=True)
        work.trajectory_seed = 1
        A = np.random.default_rng(0).standard_normal((2, 3, 3))
        modes = ModeSet(tuple(a / np.max(np.abs(np.linalg.eigvals(a))) for a in A))
        gamma_star, cand = solve_gamma(simulate(modes, 400, 1, seed=0), 2)
        print(digest.line("rand3x3-d2-n400", f"gamma_star={gamma_star!r} kappa={cand.kappa!r} "
                          + decided("rand3x3-d2-n400", cand.oracle_undecided,
                                    cand.tiebreak_fallback)), flush=True)
        sweep = WORKLOADS["sweep-parrilo-small"]
        sweep.setup(Path(tmp), seed=1, tiny=False)
        for i, config in enumerate(sweep.configs):
            samples.clear()
            out = sweep.outcome(sweep.op(i))
            notes += [f"sweep-seed{config.seed}: {f}"
                      for f in sweep.reference_failures(out, refs[sweep.name]["1"][i])]
            sample = hashlib.sha256(b"".join(samples)).hexdigest()
            print(digest.line(f"sweep-seed{config.seed}",
                              f"csv_sha256={out.digest} sample_sha256={sample}"), flush=True)
    parrilo = load_modes(DATA / "parrilo.json")
    total = 0
    for seed in range(20):
        res = support_constraints(simulate(parrilo, 10, 1, seed=seed), 1)
        total += digest.count
        print(digest.line(f"support-seed{seed}",
                          f"indices={list(res.indices)} gamma={res.gamma!r}"), flush=True)
    print(f"support total lps={total}")
    with tempfile.TemporaryDirectory() as tmp:
        print(csv_path_line(Path(tmp)), flush=True)
    for name in ("parrilo", "rand2x2m3"):
        print(product_line(name), flush=True)
    print(delta_cap_line(), flush=True)
    for note in notes:
        print(f"note: {note} (not checked: the exact bytes depend on the numpy and scipy build)",
              file=sys.stderr)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
