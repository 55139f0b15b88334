"""Write the benchmark's fixed inputs and reference outputs into ``data/``.

    python3 bench/make_data.py

Writes the two mode-set files, `oracles.jsr_lower_bound` of each, and the
outputs of one operation on each input set of every workload at the default
seed: bound, gamma_star and kappa of each certificate, and the sha256 of
each sweep CSV.
Run it again only when a workload is added or the reference outputs are
deliberately re-recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

from jsrcert.oracles import jsr_lower_bound  # noqa: E402
from jsrcert.sampling import ModeSet, save_modes  # noqa: E402

from run import DEFAULT_SEED, WORK  # noqa: E402
from workloads import DATA, WORKLOADS  # noqa: E402

# Products up to this length are enumerated for the JSR lower bounds.
LOWER_BOUND_K = {"parrilo.json": 10, "rand2x2m3.json": 8}


def mode_sets() -> dict[str, ModeSet]:
    parrilo = ModeSet((np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, -1.0]])))
    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((2, 2)) for _ in range(3)]
    radius = max(float(np.abs(np.linalg.eigvals(A)).max()) for A in mats)
    rand = ModeSet(tuple(A / radius for A in mats))
    return {"parrilo.json": parrilo, "rand2x2m3.json": rand}


def main() -> int:
    DATA.mkdir(exist_ok=True)
    refs = {"default_seed": DEFAULT_SEED, "jsr_lower_bound": {}, "outputs": {}}
    for name, modes in mode_sets().items():
        save_modes(modes, DATA / name)
        k = LOWER_BOUND_K[name]
        refs["jsr_lower_bound"][name] = {"k": k, "value": jsr_lower_bound(modes, k)}
    workdir = WORK / "make-data"
    for wl in WORKLOADS.values():
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        wl.setup(workdir, DEFAULT_SEED, tiny=False)
        outs = [wl.outcome(wl.op(i)) for i in range(wl.pool)]
        refs["outputs"][wl.name] = {
            str(wl.input_seed(DEFAULT_SEED)): [wl.reference_record(out) for out in outs]
        }
        print(f"{wl.name}: bounds {[out.bound for out in outs]!r}", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(DATA / "references.json", "w") as fh:
        json.dump(refs, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
