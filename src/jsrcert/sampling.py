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
    "Observation",
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


@dataclass(frozen=True)
class Observation:
    """One trajectory reduced to its endpoints.

    `modes` holds the hidden switching sequence when the observation came
    from the simulator; certification must never read it.
    """

    x0: np.ndarray
    xl: np.ndarray
    modes: tuple[int, ...] | None = None

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        xl = np.asarray(self.xl, dtype=float)
        if abs(np.linalg.norm(x0) - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"initial state must be unit norm, got ||x0|| = {np.linalg.norm(x0)!r}")
        if not np.all(np.isfinite(xl)):
            raise ValueError("final state must be finite")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "xl", xl)


@dataclass(frozen=True)
class ObservationSet:
    """N observations sharing the same dimension and trace length."""

    n: int
    l: int
    observations: tuple[Observation, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for obs in self.observations:
            if obs.x0.size != self.n or obs.xl.size != self.n:
                raise ValueError("all observations must share the state dimension")

    @property
    def N(self) -> int:
        return len(self.observations)

    def blind(self) -> "ObservationSet":
        """Certifier view: hidden mode sequences stripped."""
        if all(obs.modes is None for obs in self.observations):
            return self
        stripped = tuple(replace(obs, modes=None) for obs in self.observations)
        return ObservationSet(self.n, self.l, stripped, dict(self.provenance))

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (N, n) arrays of initial and final states."""
        X0 = np.array([obs.x0 for obs in self.observations])
        XL = np.array([obs.xl for obs in self.observations])
        return X0, XL

    def subset(self, indices) -> "ObservationSet":
        picked = tuple(self.observations[i] for i in indices)
        return ObservationSet(self.n, self.l, picked, dict(self.provenance))


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
    observations = []
    for i in range(N):
        rng = _trajectory_rng(seed, i)
        x0 = sample_unit_sphere(modes.n, rng)
        seq = sample_mode_sequence(modes.m, l, rng)
        x = x0
        for j in seq:
            x = modes.matrices[j] @ x
        observations.append(Observation(x0=x0, xl=x, modes=tuple(int(j) for j in seq)))
    provenance = {"source": "simulate", "seed": int(seed), "rng": RNG_NAME, "N": N, "l": l}
    return ObservationSet(modes.n, l, tuple(observations), provenance)


def save_observations(obs: ObservationSet, path) -> None:
    """Write endpoints as trajectory CSV (steps 0 and l, 17+ digit decimals)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["traj_id", "step"] + [f"x{i+1}" for i in range(obs.n)])
        for tid, ob in enumerate(obs.observations):
            writer.writerow([tid, 0] + [repr(float(v)) for v in ob.x0])
            writer.writerow([tid, obs.l] + [repr(float(v)) for v in ob.xl])


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
    observations = []
    for tid in sorted(rows):
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
        observations.append(Observation(x0=x0, xl=xl))
    provenance = {"source": str(path)}
    return ObservationSet(n, l, tuple(observations), provenance)


def cap_membership(c, eps: float, x) -> bool:
    """Whether x lies in the spherical cap of direction c and measure eps."""
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(c @ x) > delta_cap(eps, c.size)
