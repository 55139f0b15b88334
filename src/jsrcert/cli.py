"""Command-line surface: simulate, certify, whitebox, sweep.

`certify` runs the full pipeline on a trajectory file (or on internally
simulated data) and writes a certificate report as JSON; `sweep` repeats it
over a grid of sample counts and degrees, averaging over runs, and emits a
CSV plus a self-contained SVG plot of mean bound versus sample count.

Exit codes: 0 success, 2 argument or input errors, 3 solver failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import product

import numpy as np

from .bounds import CertificateReport, jsr_upper_bound
from .caps import ConfidenceBudget
from .certifier import (SolveOptions, SolverStallError, checked_lift_dimension, solve_gamma,
                        solve_lambda)
from .lmi import HIGHS_VERSION
from .oracles import whitebox_gamma
from .sampling import (
    ModeSet,
    ObservationSet,
    load_modes,
    load_observations,
    save_observations,
    simulate,
)

__all__ = ["SweepConfig", "certify_run", "run_sweep", "main"]


def certify_run(
    obs: ObservationSet,
    degree: int,
    beta: float,
    beta1: float,
    m_upper: int,
    opts: SolveOptions | None = None,
) -> CertificateReport:
    """Full certification pipeline on one observation set.

    Solves the growth and decrease programs, applies the tie-break, and
    assembles the certificate report.
    """
    opts = opts or SolveOptions()
    budget = ConfidenceBudget(beta=beta, beta1=beta1, m=m_upper, l=obs.l, N=obs.N, n=obs.n, d=degree)
    gamma_star, cand = solve_gamma(obs, degree, opts)  # rejects an overflowing sample first
    lam = solve_lambda(obs)
    provenance = dict(obs.provenance)
    provenance["options"] = asdict(opts)
    provenance["certified_gamma"] = cand.gamma
    provenance["highs_version"] = HIGHS_VERSION
    return jsr_upper_bound(
        gamma_star,
        cand.kappa,
        lam,
        budget,
        flags={"c_bound_binding": cand.c_bound_binding,
               "oracle_undecided": cand.oracle_undecided,
               "tiebreak_fallback": cand.tiebreak_fallback},
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# sweep harness


@dataclass(frozen=True)
class SweepConfig:
    modes_path: str
    n_values: tuple[int, ...]
    runs: int
    degrees: tuple[int, ...]
    m_upper: int
    beta: float = 0.95
    beta1: float = 0.95
    l: int = 1
    seed: int = 0
    opts: SolveOptions = field(default_factory=SolveOptions)
    jobs: int = 1

    def __post_init__(self):
        if list(self.n_values) != sorted(set(self.n_values)):
            raise ValueError("the list of N values must be strictly increasing")
        if not self.n_values or self.n_values[0] < 1:
            raise ValueError("at least one N value is required, and every N must be >= 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not self.degrees:
            raise ValueError("at least one degree is required")
        if min(self.degrees) < 1 or len(set(self.degrees)) < len(self.degrees):
            raise ValueError("degrees must be >= 1 and distinct")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def _check_modes_upper(m_upper: int, modes: ModeSet, path) -> None:
    if m_upper < modes.m:  # caps for fewer modes than the system has overstate the confidence
        raise ValueError(f"--modes-upper {m_upper} is below the {modes.m} modes of {path}")


def _cell_seed(master: int, N: int, run: int, degree: int) -> int:
    state = np.random.SeedSequence([master, N, run, degree]).generate_state(2, dtype=np.uint64)
    return int(state[0]) | (int(state[1]) << 64)


def _sweep_cell(config: SweepConfig, modes: ModeSet, N: int, run: int, degree: int) -> dict:
    obs = simulate(modes, N, config.l, _cell_seed(config.seed, N, run, degree))
    report = certify_run(obs, degree, config.beta, config.beta1, config.m_upper, config.opts)
    return {
        "N": N,
        "run": run,
        "degree": degree,
        "gamma_star": report.gamma_star,
        "bound": report.jsr_upper_bound,
        "finite": report.finite,
    }


def run_sweep(config: SweepConfig) -> list[dict]:
    """All sweep cells, in deterministic (N, run, degree) order.

    Each cell derives its own seed from (master seed, N, run, degree), so
    the output does not depend on execution order or parallelism.
    """
    modes = load_modes(config.modes_path)
    _check_modes_upper(config.m_upper, modes, config.modes_path)
    for N, degree in product(config.n_values, config.degrees):  # fail before any cell runs
        ConfidenceBudget(beta=config.beta, beta1=config.beta1, m=config.m_upper, l=config.l,
                         N=N, n=modes.n, d=degree)
        checked_lift_dimension(modes.n, degree)
    cells = list(product(config.n_values, range(config.runs), config.degrees))
    cell = partial(_sweep_cell, config, modes)
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            return list(pool.map(cell, *zip(*cells)))
    return [cell(*args) for args in cells]


def write_sweep_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("N,run,degree,gamma_star,bound,finite\n")
        for r in rows:
            finite = "true" if r["finite"] else "false"
            fh.write(
                f"{r['N']},{r['run']},{r['degree']},{float(r['gamma_star'])!r},{float(r['bound'])!r},{finite}\n"
            )


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _mean_bounds(rows: list[dict]) -> dict[int, list[tuple[int, float]]]:
    by_cell: dict[tuple[int, int], list[float]] = {}
    for r in rows:
        by_cell.setdefault((r["degree"], r["N"]), []).append(r["bound"])
    series: dict[int, list[tuple[int, float]]] = {}
    for (degree, N), vals in sorted(by_cell.items()):
        series.setdefault(degree, []).append((N, sum(vals) / len(vals)))
    return series


def write_sweep_svg(rows: list[dict], config: SweepConfig, path) -> None:
    """Self-contained SVG line plot of mean bound vs N (log axis), per degree."""
    series = _mean_bounds(rows)
    width, height = 640, 440
    ml, mr, mt, mb = 70, 30, 40, 50
    n_values = sorted({r["N"] for r in rows})
    finite_means = [b for pts in series.values() for _, b in pts if math.isfinite(b)]
    x_lo, x_hi = math.log10(n_values[0]), math.log10(n_values[-1])
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo = min(finite_means) if finite_means else 0.0
    y_hi = max(finite_means) if finite_means else 1.0
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def xpix(N):
        return ml + (math.log10(N) - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def ypix(v):
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    cfg = {
        "modes": config.modes_path,
        "n_values": list(config.n_values),
        "runs": config.runs,
        "degrees": list(config.degrees),
        "beta": config.beta,
        "beta1": config.beta1,
        "l": config.l,
        "seed": config.seed,
        "modes_upper": config.m_upper,
    }
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- sweep-config: {json.dumps(cfg, sort_keys=True)} -->",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(width - mr + ml) / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">number of samples N (log scale)</text>',
        f'<text x="16" y="{(height - mb + mt) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {(height - mb + mt) / 2:.1f})">mean certified bound</text>',
    ]
    for N in n_values:
        x = xpix(N)
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - mb}" x2="{x:.2f}" y2="{height - mb + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - mb + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{N}</text>'
        )
    for k in range(6):
        v = y_lo + k * (y_hi - y_lo) / 5
        y = ypix(v)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml - 9}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{v:.4g}</text>'
        )
    for idx, (degree, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        finite_pts = [(N, b) for N, b in pts if math.isfinite(b)]
        if finite_pts:
            coords = " ".join(f"{xpix(N):.2f},{ypix(b):.2f}" for N, b in finite_pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
            for N, b in finite_pts:
                parts.append(
                    f'<circle cx="{xpix(N):.2f}" cy="{ypix(b):.2f}" r="3" fill="{color}"/>'
                )
        label = f"degree 2d = {2 * degree}"
        if len(finite_pts) < len(pts):
            label += " (infinite means omitted)"
        ly = mt + 18 * idx
        parts.append(
            f'<line x1="{width - mr - 170}" y1="{ly}" x2="{width - mr - 145}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - mr - 140}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# argument parsing and commands


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _solver_opts(args) -> SolveOptions:
    return SolveOptions(c_bound=args.c_bound, bisection_rel_tol=args.bisect_tol)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--C-bound", dest="c_bound", type=float, default=100.0,
                   help="eigenvalue ceiling on the shape matrix P (caps its "
                        "condition number at sqrt of this value)")
    p.add_argument("--bisect-tol", dest="bisect_tol", type=float, default=1e-6,
                   help="relative bisection tolerance on gamma")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jsrcert",
        description="Probabilistic stability certificates for black-box switched linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="sample trajectories from a mode-set file")
    p_sim.add_argument("--modes", required=True, help="mode-set JSON file")
    p_sim.add_argument("--n-traj", type=int, required=True, help="number of trajectories N")
    p_sim.add_argument("--len", dest="length", type=int, default=1, help="trace length l")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="trajectory CSV output path")
    p_sim.set_defaults(func=cmd_simulate)

    p_cert = sub.add_parser("certify", help="certify an upper bound on the JSR from data")
    p_cert.add_argument("--traj", help="trajectory CSV file (black-box observations)")
    p_cert.add_argument("--modes", help="mode-set JSON file (simulate internally instead)")
    p_cert.add_argument("--n-traj", type=int, help="number of trajectories when simulating")
    p_cert.add_argument("--len", dest="length", type=int, help="simulated trace length l (default 1)")
    p_cert.add_argument("--seed", type=int, help="simulation seed (default 0)")
    p_cert.add_argument("--degree", type=int, default=1, help="half-degree d of the certificate")
    p_cert.add_argument("--beta", type=float, default=0.95)
    p_cert.add_argument("--beta1", type=float, default=0.95)
    p_cert.add_argument("--modes-upper", type=int, required=True,
                        help="upper bound m on the number of modes")
    p_cert.add_argument("--out", help="certificate report JSON output path")
    _add_solver_flags(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_white = sub.add_parser("whitebox", help="dense-grid decrease-rate optimum (known modes)")
    p_white.add_argument("--modes", required=True)
    p_white.add_argument("--degree", type=int, default=1)
    p_white.add_argument("--len", dest="length", type=int, default=1)
    p_white.add_argument("--grid", type=int, default=720, help="sphere grid density")
    _add_solver_flags(p_white)
    p_white.set_defaults(func=cmd_whitebox)

    p_sweep = sub.add_parser("sweep", help="bound-vs-N experiment with CSV and SVG output")
    p_sweep.add_argument("--modes", required=True)
    p_sweep.add_argument("--n-traj", required=True, type=_int_list,
                         help="comma-separated, strictly increasing N values")
    p_sweep.add_argument("--runs", type=int, default=10)
    p_sweep.add_argument("--degree", type=_int_list, default=(1,),
                         help="comma-separated half-degrees")
    p_sweep.add_argument("--beta", type=float, default=0.95)
    p_sweep.add_argument("--beta1", type=float, default=0.95)
    p_sweep.add_argument("--len", dest="length", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--modes-upper", type=int, required=True)
    p_sweep.add_argument("--out", required=True, help="sweep CSV output path")
    p_sweep.add_argument("--plot", help="SVG plot output path")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def cmd_simulate(args) -> int:
    modes = load_modes(args.modes)
    obs = simulate(modes, args.n_traj, args.length, args.seed)
    save_observations(obs, args.out)
    print(f"wrote {obs.N} trajectories of length {obs.l} to {args.out}")
    return 0


def _load_certify_observations(args) -> ObservationSet:
    if args.traj and args.modes:
        raise ValueError("--traj and --modes are mutually exclusive")
    if args.traj:
        simulation = {"--n-traj": args.n_traj, "--len": args.length, "--seed": args.seed}
        for flag, value in simulation.items():
            if value is not None:
                raise ValueError(f"{flag} applies only when simulating from --modes, not to --traj")
        return load_observations(args.traj)
    if args.modes:
        if args.n_traj is None:
            raise ValueError("--n-traj is required when simulating from --modes")
        modes = load_modes(args.modes)
        _check_modes_upper(args.modes_upper, modes, args.modes)
        length = 1 if args.length is None else args.length
        return simulate(modes, args.n_traj, length, 0 if args.seed is None else args.seed)
    raise ValueError("one of --traj or --modes is required")


def cmd_certify(args) -> int:
    obs = _load_certify_observations(args)
    report = certify_run(
        obs, args.degree, args.beta, args.beta1, args.modes_upper, _solver_opts(args)
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    print(f"jsr_upper_bound: {float(report.jsr_upper_bound)!r}")
    print(f"confidence: {float(report.confidence)!r}")
    print(f"finite: {'true' if report.finite else 'false'}")
    return 0


def cmd_whitebox(args) -> int:
    modes = load_modes(args.modes)
    result = whitebox_gamma(modes, args.length, args.degree, args.grid, _solver_opts(args))
    kind = "surrogate-sample" if result.surrogate else "grid"
    print(f"whitebox_gamma: {float(result.gamma)!r} ({kind} size {args.grid})")
    return 0


def cmd_sweep(args) -> int:
    config = SweepConfig(
        modes_path=args.modes,
        n_values=args.n_traj,
        runs=args.runs,
        degrees=args.degree,
        m_upper=args.modes_upper,
        beta=args.beta,
        beta1=args.beta1,
        l=args.length,
        seed=args.seed,
        opts=_solver_opts(args),
        jobs=args.jobs,
    )
    rows = run_sweep(config)
    write_sweep_csv(rows, args.out)
    if args.plot:
        write_sweep_svg(rows, config, args.plot)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except SolverStallError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
