"""Observation sets: trajectory simulation, ingestion, and sphere sampling.

The certifier only ever sees pairs (x0, xl): a unit-norm initial state and
the state l steps later.  The simulator in this module produces such pairs
from a white-box mode set under uniformly random switching; it also records
the hidden mode sequence of each trajectory, which validation oracles may
read but which `ObservationSet.blind()` strips before certification.

File formats:
  trajectory CSV  header ``traj_id,step,x1,...,xn``, one row per state,
                  full-precision decimal text;
  mode-set JSON   ``{"dim": n, "matrices": [[[...], ...], ...]}``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .caps import delta_cap

__all__ = [
    "ModeSet",
    "ObservationSet",
    "TrajectoryFormatError",
    "RNG_NAME",
    "load_modes",
    "save_modes",
    "sample_unit_sphere",
    "sample_mode_sequence",
    "simulate",
    "save_observations",
    "load_observations",
    "cap_membership",
]

# Counter-based generator: trajectory i draws from the Philox stream with
# key = master seed and counter block i, so simulation is reproducible and
# independent of scheduling order.
RNG_NAME = "philox-counter"

_UNIT_NORM_TOL = 1e-12


class TrajectoryFormatError(ValueError):
    """Raised when a trajectory file violates the CSV contract."""


@dataclass(frozen=True)
class ModeSet:
    """White-box list of the m mode matrices (simulator and oracles only)."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.matrices) < 1:
            raise ValueError("a mode set needs at least one matrix")
        mats = tuple(np.asarray(A, dtype=float) for A in self.matrices)
        n = mats[0].shape[0]
        for A in mats:
            if A.ndim != 2 or A.shape != (n, n):
                raise ValueError("all modes must be square matrices of the same size")
            if not np.all(np.isfinite(A)):
                raise ValueError("mode matrices must have finite entries")
        object.__setattr__(self, "matrices", mats)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.matrices)


def load_modes(path) -> ModeSet:
    with open(path) as fh:
        payload = json.load(fh)
    n = int(payload["dim"])
    mats = [np.asarray(M, dtype=float) for M in payload["matrices"]]
    modes = ModeSet(tuple(mats))
    if modes.n != n:
        raise ValueError(f"mode-set file declares dim {n} but matrices are {modes.n}x{modes.n}")
    return modes


def save_modes(modes: ModeSet, path) -> None:
    payload = {"dim": modes.n, "matrices": [A.tolist() for A in modes.matrices]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _readonly(a, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ObservationSet:
    """N endpoint pairs (x0, xl) sharing the state dimension n and trace length l.

    `X0` and `XL` are read-only (N, n) arrays: row i holds the unit-norm
    initial state of trajectory i and its state l steps later.  `modes`
    holds the hidden (N, l) switching sequences when the set came from the
    simulator; certification must never read it.
    """

    l: int
    X0: np.ndarray
    XL: np.ndarray
    modes: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        X0, XL = _readonly(self.X0), _readonly(self.XL)
        if X0.ndim != 2 or X0.shape != XL.shape:
            raise ValueError(
                f"X0 and XL must be (N, n) arrays of one shape, got {X0.shape} and {XL.shape}"
            )
        norms = np.linalg.norm(X0, axis=1)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_NORM_TOL))
        if bad.size:
            raise ValueError(
                f"row {bad[0]}: initial state must be unit norm, got ||x0|| = {norms[bad[0]]!r}"
            )
        bad = np.flatnonzero(~np.all(np.isfinite(XL), axis=1))
        if bad.size:
            raise ValueError(f"row {bad[0]}: final state must be finite")
        object.__setattr__(self, "X0", X0)
        object.__setattr__(self, "XL", XL)
        if self.modes is not None:
            modes = _readonly(self.modes, dtype=np.int64)
            if modes.shape != (len(X0), self.l):
                raise ValueError(f"modes must have shape {(len(X0), self.l)}, got {modes.shape}")
            object.__setattr__(self, "modes", modes)

    @property
    def n(self) -> int:
        return self.X0.shape[1]

    @property
    def N(self) -> int:
        return self.X0.shape[0]

    def blind(self) -> "ObservationSet":
        """Certifier view: hidden mode sequences stripped."""
        return self if self.modes is None else replace(self, modes=None)

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """The (N, n) arrays of initial and final states."""
        return self.X0, self.XL

    def subset(self, indices) -> "ObservationSet":
        idx = list(indices)
        modes = None if self.modes is None else self.modes[idx]
        return replace(self, X0=self.X0[idx], XL=self.XL[idx], modes=modes)


def sample_unit_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit sphere in R^n (normalized Gaussian)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    while True:
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
        if norm > 1e-12:
            return g / norm


def sample_mode_sequence(m: int, l: int, rng: np.random.Generator) -> np.ndarray:
    """l independent uniform mode indices in {0, ..., m-1}."""
    if m < 1 or l < 1:
        raise ValueError(f"need m >= 1 and l >= 1, got m={m}, l={l}")
    return rng.integers(0, m, size=l)


def _trajectory_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def simulate(modes: ModeSet, N: int, l: int, seed: int) -> ObservationSet:
    """Sample N length-l trajectories under uniform switching.

    Each trajectory starts at a uniform point of the unit sphere and applies
    l modes drawn uniformly at random; only the endpoints are kept, with the
    switching sequence stored as hidden metadata.  Deterministic given
    (seed, modes, N, l).
    """
    if N < 1 or l < 1:
        raise ValueError(f"need N >= 1 and l >= 1, got N={N}, l={l}")
    X0 = np.empty((N, modes.n))
    XL = np.empty((N, modes.n))
    seqs = np.empty((N, l), dtype=np.int64)
    for i in range(N):
        rng = _trajectory_rng(seed, i)
        x0 = sample_unit_sphere(modes.n, rng)
        seq = sample_mode_sequence(modes.m, l, rng)
        x = x0
        for j in seq:
            x = modes.matrices[j] @ x
        X0[i], XL[i], seqs[i] = x0, x, seq
    provenance = {"source": "simulate", "seed": int(seed), "rng": RNG_NAME, "N": N, "l": l}
    return ObservationSet(l, X0, XL, seqs, provenance)


def save_observations(obs: ObservationSet, path) -> None:
    """Write endpoints as trajectory CSV (steps 0 and l, 17+ digit decimals)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["traj_id", "step"] + [f"x{i+1}" for i in range(obs.n)])
        for tid, (x0, xl) in enumerate(zip(obs.X0, obs.XL)):
            writer.writerow([tid, 0] + [repr(float(v)) for v in x0])
            writer.writerow([tid, obs.l] + [repr(float(v)) for v in xl])


def load_observations(path) -> ObservationSet:
    """Read a trajectory CSV and reduce each trajectory to (x0, xl).

    Initial states off the unit sphere are rescaled together with their
    endpoint (the dynamics are homogeneous, so the rescaled pair is a valid
    trajectory).  Intermediate steps are checked for finiteness and ignored.
    All trajectories must share the same final step; zero initial states,
    ragged rows and repeated (traj_id, step) rows are rejected with the
    offending row identified.
    """
    path = Path(path)
    rows: dict[int, dict[int, np.ndarray]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[:2] != ["traj_id", "step"]:
            raise TrajectoryFormatError(f"{path}: expected header 'traj_id,step,x1,...,xn'")
        n = len(header) - 2
        if [h.strip() for h in header[2:]] != [f"x{i+1}" for i in range(n)]:
            raise TrajectoryFormatError(f"{path}: state columns must be named x1..x{n}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n + 2:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: expected {n + 2} fields, got {len(row)}"
                )
            try:
                tid = int(row[0])
                step = int(row[1])
                state = np.array([float(v) for v in row[2:]])
            except ValueError as exc:
                raise TrajectoryFormatError(f"{path}:{lineno}: {exc}") from None
            if step < 0:
                raise TrajectoryFormatError(f"{path}:{lineno}: negative step {step}")
            if not np.all(np.isfinite(state)):
                raise TrajectoryFormatError(f"{path}:{lineno}: non-finite state")
            steps = rows.setdefault(tid, {})
            if step in steps:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: duplicate row for trajectory {tid} step {step}"
                )
            steps[step] = state
    if not rows:
        raise TrajectoryFormatError(f"{path}: no trajectory rows")
    lengths = {max(steps) for steps in rows.values()}
    if len(lengths) != 1:
        raise TrajectoryFormatError(
            f"{path}: trajectories have mixed lengths {sorted(lengths)}; a single l is required"
        )
    l = lengths.pop()
    if l < 1:
        raise TrajectoryFormatError(f"{path}: trajectories must have at least one step")
    X0 = np.empty((len(rows), n))
    XL = np.empty((len(rows), n))
    for k, tid in enumerate(sorted(rows)):
        steps = rows[tid]
        if 0 not in steps:
            raise TrajectoryFormatError(f"{path}: trajectory {tid} has no step-0 state")
        x0, xl = steps[0], steps[l]
        norm = np.linalg.norm(x0)
        if norm < 1e-12:
            raise TrajectoryFormatError(
                f"{path}: trajectory {tid} starts at the origin and cannot be normalized"
            )
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            x0 = x0 / norm
            xl = xl / norm
        X0[k], XL[k] = x0, xl
    return ObservationSet(l, X0, XL, provenance={"source": str(path)})


def cap_membership(c, eps: float, x) -> bool:
    """Whether x lies in the spherical cap of direction c and measure eps."""
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(c @ x) > delta_cap(eps, c.size)
