"""Observation sets: trajectory simulation, ingestion, and sphere sampling.

The certifier only ever sees pairs (x0, xl): a unit-norm initial state and
the state l steps later.  The simulator in this module produces such pairs
from a white-box mode set under uniformly random switching and keeps only
the endpoints, so a sample cannot carry the switching it came from.

File formats:
  trajectory CSV  header ``traj_id,step,x1,...,xn``, one row per state,
                  full-precision decimal text;
  mode-set JSON   ``{"dim": n, "matrices": [[[...], ...], ...]}``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

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
        try:
            mats = tuple(np.asarray(A, dtype=float) for A in self.matrices)
        except TypeError as exc:
            raise ValueError(f"mode matrices must hold numbers: {exc}") from None
        except OverflowError:  # an integer past the float range
            raise ValueError("mode matrices must have finite entries") from None
        if any(A.ndim != 2 for A in mats):
            raise ValueError("each mode must be a 2-D matrix")
        n = mats[0].shape[0]
        for A in mats:
            if A.shape != (n, n):
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
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or not isinstance(payload.get("matrices"), list):
            raise ValueError("expected a JSON object with a 'matrices' list")
        n = payload.get("dim")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError("expected an integer 'dim'")
        modes = ModeSet(tuple(payload["matrices"]))
        # np.asarray also converts true and "0.5"; the file may hold JSON numbers only.
        bad = [v for A in payload["matrices"] for row in A for v in row
               if isinstance(v, bool) or not isinstance(v, (int, float))]
        if bad:
            raise ValueError(f"mode matrices must hold JSON numbers, found {json.dumps(bad[0])}")
        if modes.n != n:
            raise ValueError(f"mode-set file declares dim {n} but matrices are {modes.n}x{modes.n}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: cannot decode the file as {exc.encoding}: {exc.reason}") from None
    except ValueError as exc:  # JSONDecodeError too: every error names the file
        raise ValueError(f"{path}: {exc}") from None
    return modes


def save_modes(modes: ModeSet, path) -> None:
    payload = {"dim": modes.n, "matrices": [A.tolist() for A in modes.matrices]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _readonly(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ObservationSet:
    """N endpoint pairs (x0, xl) sharing the state dimension n and trace length l.

    `X0` and `XL` are read-only (N, n) arrays: row i holds the unit-norm
    initial state of trajectory i and its state l steps later.  That is all
    a sample holds; `provenance` is keyword-only.
    """

    l: int
    X0: np.ndarray
    XL: np.ndarray
    provenance: dict = field(default_factory=dict, kw_only=True)

    def __post_init__(self):
        if isinstance(self.l, bool) or not isinstance(self.l, (int, np.integer)) or self.l < 1:
            raise ValueError(f"trace length l must be an integer >= 1, got {self.l!r}")
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

    @property
    def n(self) -> int:
        return self.X0.shape[1]

    @property
    def N(self) -> int:
        return self.X0.shape[0]

    def blind(self) -> "ObservationSet":
        """The set itself, kept for older callers: there is no switching record to strip."""
        return self

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """The (N, n) arrays of initial and final states."""
        return self.X0, self.XL

    def subset(self, indices) -> "ObservationSet":
        idx = list(indices)
        return replace(self, X0=self.X0[idx], XL=self.XL[idx])


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


def simulate(modes: ModeSet, N: int, l: int, seed: int) -> ObservationSet:
    """Sample N length-l trajectories under uniform switching.

    Each trajectory starts at a uniform point of the unit sphere and applies
    l modes drawn uniformly at random; only the endpoints are kept.
    Deterministic given (seed, modes, N, l): trajectory i draws from
    ``Philox(key=seed, counter=i << 128)``.
    """
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 1 << 128):
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    seed = int(seed)
    if N < 1 or l < 1:
        raise ValueError(f"need N >= 1 and l >= 1, got N={N}, l={l}")
    X0 = np.empty((N, modes.n))
    XL = np.empty((N, modes.n))
    # A counter-based stream is its key and counter: one generator, moved to
    # counter block i with an empty buffer, draws trajectory i's bits.
    bits = np.random.Philox(key=seed)
    rng = np.random.Generator(bits)
    fresh = bits.state
    for i in range(N):
        fresh["state"]["counter"][2] = i
        bits.state = fresh
        x0 = x = sample_unit_sphere(modes.n, rng)
        for j in sample_mode_sequence(modes.m, l, rng):
            x = modes.matrices[j] @ x
        X0[i], XL[i] = x0, x
    provenance = {"source": "simulate", "seed": seed, "rng": RNG_NAME, "N": N, "l": l}
    return ObservationSet(l, X0, XL, provenance=provenance)


_WRITE_BLOCK = 4096  # trajectories per write: bounded memory at any N


def save_observations(obs: ObservationSet, path) -> None:
    """Write endpoints as trajectory CSV (steps 0 and l, 17+ digit decimals).

    The bytes are those of `csv.writer`: CRLF line ends and the repr of
    each float.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["traj_id", "step"] + [f"x{i+1}" for i in range(obs.n)]) + "\r\n")
        for lo in range(0, obs.N, _WRITE_BLOCK):
            X0 = obs.X0[lo:lo + _WRITE_BLOCK].tolist()
            XL = obs.XL[lo:lo + _WRITE_BLOCK].tolist()
            fh.write("".join(
                f"{tid},0,{','.join(map(repr, x0))}\r\n{tid},{obs.l},{','.join(map(repr, xl))}\r\n"
                for tid, (x0, xl) in enumerate(zip(X0, XL), lo)))


def _int_column(ints) -> np.ndarray:
    """Python ints as int64 when every value fits, else as exact Python ints."""
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


def _records(text: str, path) -> tuple[list[list[str]], np.ndarray]:
    """The csv records of the data rows and the file line of each non-blank
    one: blank records hold no row but count as lines."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        records = list(reader)
    except csv.Error as exc:  # such as a field past csv's size limit; the header is line 1
        raise TrajectoryFormatError(f"{path}:{reader.line_num + 1}: {exc}") from None
    return records, np.flatnonzero([len(r) for r in records]) + 2


def _csv_rows(text: str, path, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tid, step, X) as csv, int and float parse the rows, for files numpy's reader
    refuses (ids past int64, Python-only spellings, bad records: the first is named)."""
    records, line = _records(text, path)
    if not line.size:
        raise TrajectoryFormatError(f"{path}: no trajectory rows")
    tid, step, X = [], [], []
    for lineno in line.tolist():
        row = records[lineno - 2]
        try:
            if len(row) != n + 2:
                raise ValueError(f"expected {n + 2} fields, got {len(row)}")
            tid.append(int(row[0]))
            step.append(int(row[1]))
            X.append(list(map(float, row[2:])))
        except ValueError as exc:
            raise TrajectoryFormatError(f"{path}:{lineno}: {exc}") from None
    return _int_column(tid), _int_column(step), np.array(X, dtype=float)


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
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise TrajectoryFormatError(f"{path}:{reader.line_num}: {exc}") from None
            if header is None or len(header) < 3 or header[:2] != ["traj_id", "step"]:
                raise TrajectoryFormatError(f"{path}: expected header 'traj_id,step,x1,...,xn'")
            n = len(header) - 2
            if [h.strip() for h in header[2:]] != [f"x{i+1}" for i in range(n)]:
                raise TrajectoryFormatError(f"{path}: state columns must be named x1..x{n}")
            text = fh.read()  # the data rows
    except UnicodeDecodeError as exc:  # its position counts within a decoded chunk, not the file
        raise TrajectoryFormatError(
            f"{path}: cannot decode the file as {exc.encoding}: {exc.reason}") from None
    try:  # numpy's C reader; it refuses every file that needs the csv path
        if not text.strip():  # no rows, where numpy would only warn
            raise ValueError
        # Python's int reads the ids and steps: in some numpy releases the
        # integer parser reads a float spelling such as "7.5" and truncates it.
        rows = np.loadtxt(io.StringIO(text), delimiter=",", quotechar='"', comments=None, ndmin=1,
                          converters={0: int, 1: int},
                          dtype=[("tid", np.int64), ("step", np.int64), ("x", float, (n,))])
        tid, step, X = rows["tid"], rows["step"], rows["x"]
    except ValueError:
        tid, step, X = _csv_rows(text, path, n)
    row = np.arange(tid.size)  # data row of each entry; its line is counted only to name it

    def reject(mask, message):
        bad = np.flatnonzero(mask)
        if bad.size:
            i = bad[0]
            line = _records(text, path)[1][row[i]] if "{line}" in message else None
            raise TrajectoryFormatError(message.format(path=path, tid=tid[i], step=step[i], line=line))

    reject(step < 0, "{path}:{line}: negative step {step}")
    reject(~np.isfinite(X).all(axis=1), "{path}:{line}: non-finite state")
    order = np.lexsort((step, tid))
    tid, step, row, X = tid[order], step[order], row[order], X[order]
    same = tid[1:] == tid[:-1]
    dup = np.r_[False, same & (step[1:] == step[:-1])]
    reject(dup, "{path}:{line}: duplicate row for trajectory {tid} step {step}")
    first, last = np.r_[True, ~same], np.r_[~same, True]
    lengths = sorted(set(step[last].tolist()))
    if len(lengths) != 1:
        raise TrajectoryFormatError(
            f"{path}: trajectories have mixed lengths {lengths}; a single l is required"
        )
    l = lengths[0]
    if l < 1:
        raise TrajectoryFormatError(f"{path}: trajectories must have at least one step")
    tid, step, X0, XL = tid[first], step[first], X[first], X[last]
    reject(step != 0, "{path}: trajectory {tid} has no step-0 state")
    # vecdot is the dot kernel np.linalg.norm runs on one vector: the same bits.
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(X0, X0))
    big = np.isinf(norms)  # squares past the float range: scale by the largest entry first
    if big.any():
        top = np.abs(X0[big]).max(axis=1, keepdims=True)
        X0[big] /= top
        XL[big] /= top
        norms[big] = np.sqrt(np.vecdot(X0[big], X0[big]))
    reject(norms < 1e-12, "{path}: trajectory {tid} starts at the origin and cannot be normalized")
    off = np.abs(norms - 1.0) > _UNIT_NORM_TOL
    X0[off] /= norms[off, None]
    XL[off] /= norms[off, None]
    return ObservationSet(l, X0, XL, provenance={"source": str(path)})
