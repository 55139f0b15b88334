"""jsrcert benchmark: one workload in one process, in a closed loop.

Run from the repository root:

    python3 bench/run.py --workload parrilo-d1-n3000 --seed 1 --seconds 35 --trace 0

The script builds nothing: it imports the package from ``src/`` of the
checkout it sits in, writes the workload's inputs from the seed, then
repeats the workload's operation, one at a time, for `--seconds` seconds.
Every output is checked outside the timed interval.  It prints each metric
by name with its unit, then, as the last line, one JSON object with the
keys correct, attempted, failed and metrics.

Times are calibrated.  The machine this benchmark was written on is shared,
and its speed drifts by up to 1.5x within minutes, so raw wall times of
the same code do not repeat across runs.  A fixed calibration kernel (HiGHS
and numpy work of the kind jsrcert does, independent of jsrcert's code) is
timed after set-up and after every operation; each wall time is divided by
the mean of the two calibration times around it and multiplied by
CALIBRATION_REF_S.  A calibrated second is thus a second on a machine where
the kernel takes CALIBRATION_REF_S.  The raw medians are printed as well.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: op_s is the
median calibrated time of an operation; setup_s the median, over
SETUP_REPS repetitions, of the calibrated time of a fresh interpreter
importing the package plus writing the workload's inputs; peak_rss_mb the
process's peak resident memory; bound the certified bound (mean over the
sweep's cells); ok_frac the share of operations that passed every check.
--trace 1 reports its per-layer metrics instead: operations alternate
between untraced and traced (wrappers around the package's public
functions, see spans.py), and the difference of their median raw times is
the tracing overhead.  Results, the environment and, when traced, all spans
are also written to ``bench/_work/results/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_REPS = 5
DEFAULT_SEED = 1
# The calibration kernel's time on a quiet 2-core machine of the kind the
# benchmark was written on.
CALIBRATION_REF_S = 0.1


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input so a run takes seconds (benchmark self-test)")
    return p.parse_args(argv)


class Calibration:
    """A fixed kernel whose time tracks the machine's current speed.

    Three HiGHS LPs of 3000 unit rows on 4 unknowns, the row rounding and
    de-duplication jsrcert applies to its LPs, and an interpreted loop.
    The inputs are fixed, so the kernel does the same work on every run.
    """

    def __init__(self):
        import numpy as np

        rows = np.random.default_rng(0).standard_normal((3000, 4))
        self._np = np
        self._rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        self.times: list[float] = []

    def measure(self) -> float:
        from scipy.optimize import linprog

        np, rows = self._np, self._rows
        t = time.perf_counter()
        for _ in range(3):
            res = linprog(-np.ones(4), A_ub=rows, b_ub=np.ones(len(rows)),
                          bounds=[(-10.0, 10.0)] * 4, method="highs")
            if res.status != 0:
                raise RuntimeError(f"calibration LP failed: {res.message}")
            np.unique(np.round(rows, 12), axis=0)
        sum(i * i for i in range(20000))
        dt = time.perf_counter() - t
        self.times.append(dt)
        return dt

    def scale(self, wall: float, before: float, after: float) -> float:
        """`wall` in calibrated seconds, given the kernel times around it."""
        return wall * CALIBRATION_REF_S / ((before + after) / 2)


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import jsrcert"], env=env, check=True, timeout=120)
    return time.perf_counter() - t


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    import numpy
    import scipy

    def tree(root: Path, suffixes: tuple[str, ...]) -> tuple[str, int]:
        digest = hashlib.sha256()
        lines = 0
        for f in sorted(p for p in root.rglob("*") if p.suffix in suffixes and WORK not in p.parents):
            data = f.read_bytes()
            digest.update(str(f.relative_to(root)).encode() + b"\0" + data)
            lines += data.count(b"\n")
        return digest.hexdigest(), lines

    src_sha256, src_lines = tree(SRC, (".py",))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "src_sha256": src_sha256,
        "src_lines": src_lines,
        "bench_sha256": tree(BENCH, (".py", ".json"))[0],
    }


def _median(values):
    return float(statistics.median(values)) if values else float("nan")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "jsrcert" / "__init__.py").is_file():
        _fail(f"no package sources at {SRC.relative_to(ROOT)}/jsrcert; run from a checkout")
    sys.path.insert(0, str(SRC))
    import jsrcert

    if Path(jsrcert.__file__).resolve().parent != SRC / "jsrcert":
        _fail(f"imported jsrcert from {jsrcert.__file__}, not from this checkout")
    import numpy as np

    from spans import EXACT_COUNTS, Tracer
    from workloads import WORKLOADS, CandidateLog, check_outcome, load_references

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    refs = load_references()
    floor = refs["jsr_lower_bound"][wl.modes_file]["value"]
    reference = None
    if not args.tiny:
        reference = refs["outputs"].get(wl.name, {}).get(str(wl.input_seed(args.seed)))
    env = _environment(args)
    cal = Calibration()

    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # Set-up: a fresh interpreter's import plus writing the inputs,
        # repeated; the last repetition's inputs are used.
        setup_wall, setup_cal = [], []
        before = cal.measure()
        for rep in range(SETUP_REPS):
            repdir = workdir / f"setup{rep}"
            repdir.mkdir()
            import_s = _import_seconds()
            t = time.perf_counter()
            wl.setup(repdir, args.seed, args.tiny)
            wall = import_s + time.perf_counter() - t
            after = cal.measure()
            setup_wall.append(wall)
            setup_cal.append(cal.scale(wall, before, after))
            before = after

        log = CandidateLog()
        log.install()
        tracer = Tracer() if args.trace else None
        wall_s = {False: [], True: []}
        cal_s = {False: [], True: []}
        traced_metrics = []
        failures = []
        attempted = failed = 0
        firsts = {}
        start = time.perf_counter()
        while True:
            traced = tracer is not None and attempted % 2 == 1
            idx = attempted % wl.pool
            log.items.clear()
            error = None
            if traced:
                tracer.op = attempted
                tracer.install()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    t = time.perf_counter()
                    try:
                        raw = wl.op(idx)
                    except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                        raw, error = None, f"{type(exc).__name__}: {exc}"
                    dt = time.perf_counter() - t
            finally:
                if traced:
                    tracer.uninstall()
            after = cal.measure()
            wall_s[traced].append(dt)
            cal_s[traced].append(cal.scale(dt, before, after))
            before = after
            undecided = sum(1 for w in caught if "undecided" in str(w.message))
            reasons = [error] if error else []
            if undecided:
                reasons.append(f"{undecided} feasibility oracle call(s) undecided")
            excess = float("nan")
            if raw is not None:
                out = wl.outcome(raw)
                more, excess = check_outcome(wl, out, firsts.get(idx), log.items, floor,
                                             reference and reference[idx])
                reasons.extend(more)
                firsts.setdefault(idx, out)
            if traced:
                m = tracer.op_metrics(attempted)
                m["certifier.undecided"] = undecided
                m["certifier.kappa"] = (
                    float(np.mean([c.kappa for *_, c in log.items])) if log.items else float("nan")
                )
                m["certifier.rate_excess_rel"] = excess
                traced_metrics.append((idx, m))
            for r in reasons:
                failures.append(f"op {attempted}: {r}")
            attempted += 1
            failed += bool(reasons)
            # Stop before an operation that would end past --seconds, once
            # every input set (and, traced, both kinds of operation) ran.
            both = tracer is None or (wall_s[True] and wall_s[False])
            next_end = time.perf_counter() - start + dt + cal.times[-1]
            if next_end > args.seconds and both and attempted >= wl.pool:
                break
        log.uninstall()

        if not firsts:
            _fail("every operation raised: " + "; ".join(failures[:3]))
        op_wall = wall_s[False] + wall_s[True]
        op_cal = cal_s[False] + cal_s[True]
        if args.trace:
            values, mismatches = _per_layer(traced_metrics, EXACT_COUNTS, env, wl.name, args.seed)
            values["trace.op_s"] = _median(wall_s[True])
            values["trace.untraced_op_s"] = _median(wall_s[False])
            values["trace.overhead_s"] = values["trace.op_s"] - values["trace.untraced_op_s"]
            values["trace.count_mismatches"] = len(mismatches)
            values["calibration.s"] = _median(cal.times)
            for name in mismatches:
                print(f"count mismatch: {name} did not repeat exactly", file=sys.stderr)
            wanted = spec["per_layer"]
        else:
            values = {
                "op_s": _median(op_cal),
                "bound": float(np.mean([b for out in firsts.values() for b in out.bounds])),
                "setup_s": _median(setup_cal),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": (attempted - failed) / attempted,
            }
            wanted = spec["end_to_end"]
        names = [m["name"] for m in wanted]
        if sorted(names) != sorted(values):
            _fail(f"metric names differ from BENCHMARK.json: {sorted(set(names) ^ set(values))}")
        bad = sorted(k for k, v in values.items() if not math.isfinite(v))
        if bad:
            _fail(f"non-finite metric values: {bad}")
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {wl.name}: {attempted} operations, {len(wall_s[True])} traced, "
              f"process {time.perf_counter() - _T0:.3f} s")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"op_s sample count {len(op_cal)}")
        print(f"op wall time median {_median(op_wall):.6g} s, setup wall time median "
              f"{_median(setup_wall):.6g} s, calibration kernel median {_median(cal.times):.6g} s "
              f"(reference {CALIBRATION_REF_S} s)")
        print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
        for f in failures:
            print(f"failure: {f}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        _save(env, result, {"op_wall_s": op_wall, "op_s": op_cal, "setup_wall_s": setup_wall,
                            "setup_s": setup_cal, "calibration_s": cal.times}, failures, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _per_layer(traced_metrics, exact, env, workload, seed):
    """Median of each per-layer metric over the traced operations, and the
    names of exact counters that differ between operations on the same input
    set, or from an earlier traced run of the same package, benchmark,
    workload and seed.  `traced_metrics` holds (input set, metrics) pairs."""
    keys = traced_metrics[0][1].keys()
    values = {k: _median([m[k] for _, m in traced_metrics if not math.isnan(m[k])]) for k in keys}
    counts = {}
    for idx, m in traced_metrics:
        counts.setdefault(str(idx), {k: m[k] for k in exact})
    mismatches = {k for idx, m in traced_metrics for k in exact if m[k] != counts[str(idx)][k]}
    key = f"{env['src_sha256'][:12]}-{env['bench_sha256'][:12]}-{workload}-{seed}-{int(env['tiny'])}"
    store = WORK / "counts" / f"{key}.json"
    if store.is_file():
        earlier = json.loads(store.read_text())
        mismatches |= {k for idx in counts.keys() & earlier.keys() for k in exact
                       if earlier[idx].get(k) != counts[idx][k]}
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(counts, sort_keys=True))
        os.replace(tmp, store)
    return values, sorted(mismatches)


def _save(env, result, times, failures, tracer) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{env['workload']}-seed{env['seed']}-trace{env['trace']}-{os.getpid()}.json"
    payload = {"env": env, "result": result, "times": times, "failures": failures}
    if tracer is not None:
        payload["spans"] = tracer.dump()
    (out / name).write_text(json.dumps(payload))


if __name__ == "__main__":
    sys.exit(main())
