"""Digest of every LP that `certify`, the sweep and the support search issue.

Run it in two checkouts and diff the outputs: a change that leaves every LP
bit-identical prints the same lines.

    PYTHONPATH=src python tools/lp_digest.py > lp_digest.txt

It wraps `jsrcert.lmi.linprog` and, for each item, prints the LP count, the
total `A_ub` rows of those LPs, a sha256 over every LP's c, A_ub, b_ub, bounds, A_eq, b_eq, status and x in
call order, and the item's outputs:

* `certify_run` on the bench's two seed-1 samples, built by the bench's own
  workload classes (simulate, save, load), with a sha256 over the loaded
  `X0` and `XL` bytes and one over the returned shape's packed `P`, taken
  from a pass-through around `jsrcert.cli.solve_gamma`;
* the three sweeps of `sweep-parrilo-small` at seed 1 (master seeds 3, 4,
  5), with each CSV's sha256 and a sha256 over every cell's `X0` and `XL`
  bytes in call order, taken from a pass-through around
  `jsrcert.cli.simulate`, so a change to the simulator shows directly;
* `support_constraints` on the 20 seeds of acceptance criterion 9 (Parrilo
  pair, N = 10, d = 1), with the support sets and gammas.

Inputs come from ``bench/data``; everything written goes to a temporary
directory.  Takes about a minute on a 2-core box.
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
from jsrcert.oracles import support_constraints  # noqa: E402
from jsrcert.sampling import load_modes, load_observations, simulate  # noqa: E402
from workloads import DATA, WORKLOADS  # noqa: E402


class LPDigest:
    """Counts and hashes the LPs passed to `jsrcert.lmi.linprog`."""

    def __init__(self):
        self.linprog = jsrcert.lmi.linprog
        self.reset()

    def reset(self):
        self.count = 0
        self.rows = 0
        self.sha = hashlib.sha256()

    def _add(self, value):
        if value is None:
            self.sha.update(b"None")
        else:
            a = np.ascontiguousarray(value, dtype=float)
            self.sha.update(repr(a.shape).encode())
            self.sha.update(a.tobytes())

    def __call__(self, c, *, A_ub, b_ub, bounds, options, A_eq=None, b_eq=None):
        res = self.linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, options=options,
                           A_eq=A_eq, b_eq=b_eq)
        self.count += 1
        self.rows += len(b_ub)
        for value in (c, A_ub, b_ub, bounds, A_eq, b_eq):
            self._add(value)
        self.sha.update(repr(res.status).encode())
        self._add(res.x)
        return res

    def line(self, name: str, outputs: str) -> str:
        line = f"{name} lps={self.count} rows={self.rows} sha256={self.sha.hexdigest()} {outputs}"
        self.reset()
        return line


def main() -> None:
    digest = LPDigest()
    jsrcert.lmi.linprog = digest
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
            report, _ = work.op(0)
            obs = load_observations(work.path)
            sample = hashlib.sha256(obs.X0.tobytes() + obs.XL.tobytes()).hexdigest()
            (cand,) = candidates
            shape = hashlib.sha256(cand.P.packed.tobytes()).hexdigest()
            print(digest.line(name, f"bound={report.jsr_upper_bound!r} "
                              f"gamma_star={report.gamma_star!r} kappa={report.kappa!r} "
                              f"sample_sha256={sample} P_sha256={shape}"), flush=True)
        sweep = WORKLOADS["sweep-parrilo-small"]
        sweep.setup(Path(tmp), seed=1, tiny=False)
        for i, config in enumerate(sweep.configs):
            samples.clear()
            sweep.op(i)
            csv = hashlib.sha256(sweep.csv_path.read_bytes()).hexdigest()
            sample = hashlib.sha256(b"".join(samples)).hexdigest()
            print(digest.line(f"sweep-seed{config.seed}",
                              f"csv_sha256={csv} sample_sha256={sample}"), flush=True)
    parrilo = load_modes(DATA / "parrilo.json")
    total = 0
    for seed in range(20):
        res = support_constraints(simulate(parrilo, 10, 1, seed=seed), 1)
        total += digest.count
        print(digest.line(f"support-seed{seed}",
                          f"indices={list(res.indices)} gamma={res.gamma!r}"), flush=True)
    print(f"support total lps={total}")


if __name__ == "__main__":
    main()
