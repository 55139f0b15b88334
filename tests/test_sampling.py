import csv
import dataclasses
import io
import math
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jsrcert import sampling
from jsrcert.caps import delta_cap
from jsrcert.sampling import (
    ModeSet,
    ObservationSet,
    TrajectoryFormatError,
    load_modes,
    load_observations,
    sample_mode_sequence,
    sample_unit_sphere,
    save_modes,
    save_observations,
    simulate,
)


class TestSphereSampling:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 6):
            for _ in range(50):
                assert np.linalg.norm(sample_unit_sphere(n, rng)) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_one_is_sign(self):
        rng = np.random.default_rng(1)
        draws = {float(sample_unit_sphere(1, rng)[0]) for _ in range(20)}
        assert draws <= {-1.0, 1.0} and len(draws) == 2

    def test_first_coordinate_symmetry(self):
        rng = np.random.default_rng(123)
        total = 100_000
        mean = np.mean([sample_unit_sphere(2, rng)[0] for _ in range(total)])
        assert abs(mean) <= 4.0 / math.sqrt(total)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            sample_unit_sphere(0, np.random.default_rng(0))


class TestModeSequence:
    def test_single_mode_constant(self):
        rng = np.random.default_rng(5)
        assert np.array_equal(sample_mode_sequence(1, 6, rng), np.zeros(6, dtype=int))

    def test_two_modes_balanced(self):
        rng = np.random.default_rng(7)
        draws = sample_mode_sequence(2, 10_000, rng)
        freq = np.mean(draws == 0)
        assert abs(freq - 0.5) <= 0.02

    def test_replay_identical(self):
        a = sample_mode_sequence(3, 10, np.random.default_rng(42))
        b = sample_mode_sequence(3, 10, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestSimulate:
    def test_double_identity_two_steps(self, double_identity):
        obs = simulate(double_identity, 5, 2, seed=1)
        assert np.allclose(obs.XL, 4.0 * obs.X0, atol=1e-12)

    def test_parrilo_by_hand(self, parrilo):
        A1 = parrilo.matrices[0]
        assert np.allclose(A1 @ np.array([0.0, 1.0]), [0.0, 0.0])
        assert np.allclose(A1 @ np.array([1.0, 0.0]), [1.0, 1.0])

    def test_endpoints_consistent_with_hidden_modes(self, parrilo):
        # The stream definition, built independently for every trajectory:
        # i draws x0, then its switching, from Philox(key=seed, counter=i << 128).
        for modes, N, l, seed in [(parrilo, 3000, 1, 1), (THREE_MODES, 500, 4, (1 << 70) + 11)]:
            obs = simulate(modes, N, l, seed)
            X0, XL = np.empty((N, modes.n)), np.empty((N, modes.n))
            for i in range(N):
                rng = np.random.Generator(np.random.Philox(key=seed, counter=i << 128))
                x = X0[i] = sample_unit_sphere(modes.n, rng)
                for j in sample_mode_sequence(modes.m, l, rng):
                    x = modes.matrices[j] @ x
                XL[i] = x
            assert obs.X0.tobytes() == X0.tobytes()
            assert obs.XL.tobytes() == XL.tobytes()

    def test_deterministic_given_seed(self, parrilo):
        a = simulate(parrilo, 25, 2, seed=77)
        b = simulate(parrilo, 25, 2, seed=77)
        assert np.array_equal(a.X0, b.X0) and np.array_equal(a.XL, b.XL)
        c = simulate(parrilo, 25, 2, seed=78)
        assert not np.array_equal(a.X0[0], c.X0[0])

    def test_prefix_stability(self, parrilo):
        # Per-trajectory streams: growing N extends the set without
        # disturbing earlier trajectories.
        small = simulate(parrilo, 10, 1, seed=3)
        big = simulate(parrilo, 20, 1, seed=3)
        assert np.array_equal(small.X0, big.X0[:10])
        assert np.array_equal(small.XL, big.XL[:10])

    def test_provenance_recorded(self, parrilo):
        obs = simulate(parrilo, 3, 2, seed=11)
        assert obs.provenance["seed"] == 11
        assert obs.provenance["rng"] == "philox-counter"

    @pytest.mark.parametrize("seed", [-1, 1 << 128, 1.5, 1.0, True, "1", None, np.float64(2.0)])
    def test_rejects_seed_outside_philox_keys(self, parrilo, seed):
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer in [0, 2**128), got {seed!r}")):
            simulate(parrilo, 3, 1, seed)

    @pytest.mark.parametrize("seed", [np.uint64(7), np.int32(7)])
    def test_numpy_integer_seed_is_its_value(self, parrilo, seed):
        obs, ref = simulate(parrilo, 4, 2, seed), simulate(parrilo, 4, 2, 7)
        assert obs.X0.tobytes() == ref.X0.tobytes() and obs.XL.tobytes() == ref.XL.tobytes()
        assert type(obs.provenance["seed"]) is int

    def test_largest_seed_accepted(self, parrilo):
        obs = simulate(parrilo, 2, 1, (1 << 128) - 1)
        assert obs.provenance["seed"] == (1 << 128) - 1

    def test_arrays_read_only(self, parrilo):
        obs = simulate(parrilo, 4, 1, seed=2)
        X0, XL = obs.endpoints()
        with pytest.raises(ValueError):
            X0[0, 0] = 0.0
        with pytest.raises(ValueError):
            XL[0, 0] = 0.0


THREE_MODES = ModeSet(tuple(np.random.default_rng(5).standard_normal((3, 3, 3))))


def unit_rows(N: int) -> np.ndarray:
    theta = np.arange(N) + 0.5
    return np.column_stack([np.cos(theta), np.sin(theta)])


class TestObservationValidation:
    @given(
        N=st.integers(1, 12),
        data=st.data(),
        scale=st.sampled_from([0.0, 0.5, 1.0 + 1e-9, 3.0, np.nan, np.inf]),
    )
    def test_rejects_non_unit_start(self, N, data, scale):
        bad = data.draw(st.integers(0, N - 1))
        X0 = unit_rows(N)
        X0[bad] *= scale
        with pytest.raises(ValueError, match=rf"^row {bad}: initial state must be unit norm"):
            ObservationSet(1, X0, np.zeros((N, 2)))

    @given(
        N=st.integers(1, 12),
        data=st.data(),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_rejects_non_finite_end(self, N, data, value):
        bad = data.draw(st.integers(0, N - 1))
        XL = unit_rows(N)
        XL[bad, data.draw(st.integers(0, 1))] = value
        with pytest.raises(ValueError, match=rf"^row {bad}: final state must be finite"):
            ObservationSet(1, unit_rows(N), XL)

    def test_set_requires_consistent_dimension(self):
        with pytest.raises(ValueError):
            ObservationSet(1, [[1.0, 0.0]], [[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            ObservationSet(1, [1.0, 0.0], [0.0, 0.0])

    def test_sample_holds_only_its_endpoints(self):
        obs = ObservationSet(1, [[1.0, 0.0]], [[0.0, 0.0]], provenance={"source": "t"})
        assert [f.name for f in dataclasses.fields(obs)] == ["l", "X0", "XL", "provenance"]
        assert obs.blind() is obs
        with pytest.raises(TypeError):  # a fourth positional argument is never stored
            ObservationSet(1, [[1.0, 0.0]], [[0.0, 0.0]], [[0]])

    @pytest.mark.parametrize("l", [0, -2, 1.5, 1.0, True, "1"])
    def test_rejects_trace_length_outside_positive_integers(self, l):
        with pytest.raises(ValueError, match="trace length l must be an integer >= 1"):
            ObservationSet(l, [[1.0, 0.0]], [[0.0, 0.0]])


class TestTrajectoryFiles:
    def test_roundtrip_exact(self, parrilo, tmp_path):
        obs = simulate(parrilo, 30, 2, seed=13)
        path = tmp_path / "t.csv"
        save_observations(obs, path)
        back = load_observations(path)
        assert back.N == obs.N and back.l == obs.l and back.n == obs.n
        assert np.array_equal(obs.X0, back.X0)
        assert np.array_equal(obs.XL, back.XL)

    def test_rescales_off_sphere_starts(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "traj_id,step,x1,x2\n"
            "0,0,3.0,4.0\n"
            "0,1,2.0,0.0\n"
        )
        obs = load_observations(path)
        assert np.allclose(obs.X0[0], [0.6, 0.8])
        assert np.allclose(obs.XL[0], [0.4, 0.0])

    def test_rescales_starts_whose_squared_norm_overflows(self, tmp_path):
        # (1e200)^2 is past the float range; the other trajectory keeps its bits.
        path = tmp_path / "t.csv"
        path.write_text(
            "traj_id,step,x1,x2\n"
            "0,0,1e200,0\n"
            "0,1,2e200,1e199\n"
            "1,0,3.0,4.0\n"
            "1,1,2.0,0.0\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obs = load_observations(path)
        assert np.array_equal(obs.X0, [[1.0, 0.0], [3.0 / 5.0, 4.0 / 5.0]])
        assert np.array_equal(obs.XL[0], [2.0, 1e199 / 1e200])
        assert np.array_equal(obs.XL[1], [2.0 / 5.0, 0.0])

    def test_intermediate_steps_ignored(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "traj_id,step,x1,x2\n"
            "0,0,1.0,0.0\n"
            "0,1,9.0,9.0\n"
            "0,2,0.5,0.5\n"
        )
        obs = load_observations(path)
        assert obs.l == 2
        assert np.allclose(obs.XL[0], [0.5, 0.5])

    def test_zero_start_rejected_with_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "traj_id,step,x1,x2\n"
            "0,0,1.0,0.0\n"
            "0,1,1.0,1.0\n"
            "1,0,0.0,0.0\n"
            "1,1,1.0,0.0\n"
        )
        with pytest.raises(TrajectoryFormatError, match="trajectory 1"):
            load_observations(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "traj_id,step,x1,x2\n"
            "0,0,1.0,0.0\n"
            "0,1,1.0\n"
        )
        with pytest.raises(TrajectoryFormatError, match=":3"):
            load_observations(path)

    def test_duplicate_step_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "traj_id,step,x1,x2\n"
            "0,0,1.0,0.0\n"
            "0,1,1.0,1.0\n"
            "0,1,2.0,2.0\n"
        )
        with pytest.raises(TrajectoryFormatError, match=r"t\.csv:4: duplicate"):
            load_observations(path)

    def test_mixed_lengths_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "traj_id,step,x1,x2\n"
            "0,0,1.0,0.0\n"
            "0,1,1.0,1.0\n"
            "1,0,0.0,1.0\n"
            "1,2,1.0,0.0\n"
        )
        with pytest.raises(TrajectoryFormatError, match="mixed"):
            load_observations(path)

    def test_three_complete_trajectories(self, tmp_path):
        path = tmp_path / "t.csv"
        lines = ["traj_id,step,x1,x2"]
        for tid, theta in enumerate((0.1, 1.1, 2.1)):
            lines.append(f"{tid},0,{math.cos(theta)!r},{math.sin(theta)!r}")
            lines.append(f"{tid},1,0.5,0.25")
        path.write_text("\n".join(lines) + "\n")
        assert load_observations(path).N == 3

    def test_interleaved_rows_load_like_sorted(self, tmp_path):
        # Off-sphere starts, intermediate steps and ids out of order; the
        # expected rows are each trajectory rescaled by its own norm.
        rng = np.random.default_rng(4)
        ids = [9, -2, 40, 3, 0, 17]
        states = rng.standard_normal((len(ids), 4, 3)) * rng.uniform(0.5, 4.0, (len(ids), 1, 1))
        rows = [(tid, step, states[k, step]) for k, tid in enumerate(ids) for step in range(4)]
        header = "traj_id,step,x1,x2,x3"

        def write(name, rows):
            path = tmp_path / name
            text = [f"{tid},{step}," + ",".join(repr(float(v)) for v in x) for tid, step, x in rows]
            path.write_text("\n".join([header] + text) + "\n")
            return load_observations(path)

        ordered = write("sorted.csv", sorted(rows, key=lambda r: r[:2]))
        shuffled = write("shuffled.csv", [rows[i] for i in rng.permutation(len(rows))])
        by_id = np.argsort(ids)
        x0 = states[by_id, 0]
        norms = np.array([np.linalg.norm(x) for x in x0])
        assert ordered.l == shuffled.l == 3
        assert shuffled.X0.tobytes() == ordered.X0.tobytes() == (x0 / norms[:, None]).tobytes()
        assert (
            shuffled.XL.tobytes() == ordered.XL.tobytes()
            == (states[by_id, 3] / norms[:, None]).tobytes()
        )

    def test_ids_beyond_int64_stay_distinct(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "traj_id,step,x1,x2\n"
            f"{2**63 + 1},0,0.0,1.0\n"
            f"{2**63},0,1.0,0.0\n"
            f"{2**63},1,2.0,0.0\n"
            f"{2**63 + 1},1,0.0,3.0\n"
        )
        obs = load_observations(path)
        assert obs.N == 2
        assert np.array_equal(obs.X0, [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(obs.XL, [[2.0, 0.0], [0.0, 3.0]])


# The loader's contract on spellings of one file and on bad fields: the first
# bad row is named by its record number, blank lines included.
PLAIN_ROWS = ["7,0,1.0,0.0", "7,1,0.5,-2.0", "-3,0,0.0,-1.0", "-3,1,0.25,4.0"]
PLAIN_X0 = [[0.0, -1.0], [1.0, 0.0]]
PLAIN_XL = [[0.25, 4.0], [0.5, -2.0]]


def write_trajectories(tmp_path, rows, newline="\n"):
    path = tmp_path / "t.csv"
    path.write_bytes(newline.join(["traj_id,step,x1,x2", *rows, ""]).encode())
    return path


@pytest.mark.parametrize("rows, newline", [
    (PLAIN_ROWS, "\n"),
    (PLAIN_ROWS, "\r\n"),
    (["", PLAIN_ROWS[0], "", "", *PLAIN_ROWS[1:], ""], "\n"),
    ([",".join(f'"{v}"' for v in row.split(",")) for row in PLAIN_ROWS], "\n"),
    ([",".join(f'"{v}"' for v in row.split(",")) for row in PLAIN_ROWS], "\r\n"),
], ids=["lf", "crlf", "blank_lines", "quoted", "quoted_crlf"])
def test_file_spellings_load_the_same_bytes(tmp_path, rows, newline):
    obs = load_observations(write_trajectories(tmp_path, rows, newline))
    assert obs.l == 1 and obs.X0.dtype == obs.XL.dtype == np.float64
    assert obs.X0.tobytes() == np.array(PLAIN_X0).tobytes()
    assert obs.XL.tobytes() == np.array(PLAIN_XL).tobytes()


def test_ids_mixing_negative_and_beyond_int64(tmp_path):
    big = 2**63 + 5
    rows = [f"{big},1,0.0,3.0", "-4,0,0.0,1.0", f"{big},0,1.0,0.0", "-4,1,2.0,0.0",
            f"{big - 1},0,0.0,-1.0", f"{big - 1},1,5.0,5.0"]
    obs = load_observations(write_trajectories(tmp_path, rows))
    assert obs.N == 3
    assert obs.X0.tobytes() == np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]]).tobytes()
    assert obs.XL.tobytes() == np.array([[2.0, 0.0], [5.0, 5.0], [0.0, 3.0]]).tobytes()


@pytest.mark.parametrize("rows, message", [
    ([PLAIN_ROWS[0], "7,1,abc,-2.0"], "3: could not convert string to float: 'abc'"),
    (["1.5,0,1.0,0.0", "1.5,1,0.5,-2.0"], "2: invalid literal for int() with base 10: '1.5'"),
    (["7,0,1.0,0.0", "7,x,0.5,-2.0"], "3: invalid literal for int() with base 10: 'x'"),
    (["", PLAIN_ROWS[0], "", "7,1,0.5,"], "5: could not convert string to float: ''"),
    (["", PLAIN_ROWS[0], "", "7,1,0.5"], "5: expected 4 fields, got 3"),
    # The first bad row is named, whatever is wrong with later rows.
    ([PLAIN_ROWS[0], "7,1,0.5,z", "-3,0,0.0"], "3: could not convert string to float: 'z'"),
    ([PLAIN_ROWS[0], "7,1,0.5", "-3,y,0.0,-1.0"], "3: expected 4 fields, got 3"),
    # Contract checks after parsing count blank lines too.
    ([PLAIN_ROWS[0], "", PLAIN_ROWS[1], "", "7,1,0.0,0.0"],
     "6: duplicate row for trajectory 7 step 1"),
    ([PLAIN_ROWS[0], "", "", "7,-1,0.5,-2.0"], "5: negative step -1"),
    (["", "", PLAIN_ROWS[0], "7,1,0.5,nan"], "5: non-finite state"),
], ids=["state", "traj_id", "step", "empty_after_blank", "ragged_after_blank",
        "value_before_ragged", "ragged_before_value", "duplicate_after_blank",
        "negative_step_after_blank", "nan_after_blank"])
def test_bad_rows_are_named_by_record_number(tmp_path, rows, message):
    path = write_trajectories(tmp_path, rows)
    with pytest.raises(TrajectoryFormatError, match=re.escape(f"{path}:{message}")):
        load_observations(path)


@pytest.mark.parametrize("name", ["csv_path", "header", "numpy_path"])
def test_field_past_csv_limit_names_its_line(oversized_field_files, monkeypatch, name):
    path, line = oversized_field_files[name]
    if name == "numpy_path":
        monkeypatch.setattr(sampling, "_csv_rows", mock.Mock(side_effect=AssertionError))
    with pytest.raises(TrajectoryFormatError,
                       match=re.escape(f"{path}:{line}: field larger than field limit (131072)")):
        load_observations(path)
    assert csv.field_size_limit() == 131072  # the process-wide limit is left as it was


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def unit_norm_sets(draw):
    n = draw(st.integers(1, 4))
    N = draw(st.integers(1, 8))
    G = draw(
        arrays(float, (N, n), elements=st.floats(-1e3, 1e3)).filter(
            lambda G: np.all(np.linalg.norm(G, axis=1) > 1e-3)
        )
    )
    XL = draw(arrays(float, (N, n), elements=finite_floats))
    return ObservationSet(draw(st.integers(1, 3)), G / np.linalg.norm(G, axis=1, keepdims=True), XL)


def corrupt(lines: list[str], kind: str, row: int, column: int = -1) -> tuple[list[str], int]:
    """Break data row `row` of a valid trajectory file, writing any other
    `kind` into field `column`; returns the new lines and the 1-based line
    number the loader must name."""
    fields = lines[row].split(",")
    if kind == "duplicate":
        return lines[: row + 1] + [lines[row]] + lines[row + 1 :], row + 2
    if kind == "short":
        fields = fields[:-1]
    elif kind == "long":
        fields = fields + ["0.0"]
    elif kind == "negative step":  # -1 where an earlier corruption left no plain step
        fields[1] = str(-1 - int(fields[1])) if re.fullmatch(r"\d+", fields[1]) else "-1"
    else:
        fields[column] = kind
    return lines[:row] + [",".join(fields)] + lines[row + 1 :], row + 1


class TestTrajectoryFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(obs=unit_norm_sets())
    def test_save_load_bit_identical(self, obs):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            save_observations(obs, path)
            back = load_observations(path)
        assert back.l == obs.l
        assert back.X0.tobytes() == obs.X0.tobytes()
        assert back.XL.tobytes() == obs.XL.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        obs=unit_norm_sets(),
        kind=st.sampled_from(["short", "long", "nan", "inf", "-inf", "negative step", "duplicate"]),
        data=st.data(),
    )
    def test_malformed_row_names_line(self, obs, kind, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            save_observations(obs, path)
            lines = path.read_text().splitlines()
            row = data.draw(st.integers(1, len(lines) - 1))
            lines, lineno = corrupt(lines, kind, row)
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(TrajectoryFormatError, match=re.escape(f"{path}:{lineno}: ")):
                load_observations(path)


    @settings(max_examples=60, deadline=None)
    @given(
        obs=unit_norm_sets(),
        kinds=st.lists(
            st.sampled_from(["short", "long", "nan", "inf", "-inf", "negative step", "duplicate"]),
            min_size=2,
            max_size=2,
        ),
        data=st.data(),
    )
    def test_two_malformed_rows_name_one(self, obs, kinds, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            save_observations(obs, path)
            lines = path.read_text().splitlines()
            rows = st.lists(st.integers(1, len(lines) - 1), min_size=2, max_size=2, unique=True)
            top, bottom = sorted(data.draw(rows))
            # Break the lower row first, so the upper row's index still holds;
            # a duplicated upper row pushes the lower one down a line.
            lines, lower = corrupt(lines, kinds[1], bottom)
            lines, upper = corrupt(lines, kinds[0], top)
            lower += kinds[0] == "duplicate"
            path.write_text("\n".join(lines) + "\n")
            named = "|".join(re.escape(f"{path}:{k}: ") for k in (upper, lower))
            with pytest.raises(TrajectoryFormatError, match=named):
                load_observations(path)


def reference_int_column(fields) -> np.ndarray:
    ints = list(map(int, fields))
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


def reference_load_observations(path) -> ObservationSet:
    """The trajectory reader on csv, `int` and `float` alone: the reference
    for every array and message of `load_observations`."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[:2] != ["traj_id", "step"]:
            raise TrajectoryFormatError(f"{path}: expected header 'traj_id,step,x1,...,xn'")
        n = len(header) - 2
        if [h.strip() for h in header[2:]] != [f"x{i+1}" for i in range(n)]:
            raise TrajectoryFormatError(f"{path}: state columns must be named x1..x{n}")
        records = list(reader)
    sizes = np.fromiter(map(len, records), dtype=np.intp, count=len(records))
    line = np.flatnonzero(sizes) + 2
    if not line.size:
        raise TrajectoryFormatError(f"{path}: no trajectory rows")
    try:
        if np.any(sizes[line - 2] != n + 2):
            raise ValueError
        cols = list(zip(*filter(None, records)))
        tid, step = reference_int_column(cols[0]), reference_int_column(cols[1])
        X = np.column_stack([np.fromiter(map(float, c), float, line.size) for c in cols[2:]])
    except ValueError:
        for lineno, row in enumerate(records, start=2):
            if row and len(row) != n + 2:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: expected {n + 2} fields, got {len(row)}") from None
            try:
                list(map(int, row[:2])), list(map(float, row[2:]))
            except ValueError as exc:
                raise TrajectoryFormatError(f"{path}:{lineno}: {exc}") from None

    def reject(mask, message):
        bad = np.flatnonzero(mask)
        if bad.size:
            i = bad[0]
            raise TrajectoryFormatError(message.format(path=path, tid=tid[i], step=step[i], line=line[i]))

    reject(step < 0, "{path}:{line}: negative step {step}")
    reject(~np.isfinite(X).all(axis=1), "{path}:{line}: non-finite state")
    order = np.lexsort((step, tid))
    tid, step, line, X = tid[order], step[order], line[order], X[order]
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
    norms = np.sqrt(np.vecdot(X0, X0))
    reject(norms < 1e-12, "{path}: trajectory {tid} starts at the origin and cannot be normalized")
    off = np.abs(norms - 1.0) > sampling._UNIT_NORM_TOL
    X0[off] /= norms[off, None]
    XL[off] /= norms[off, None]
    return ObservationSet(l, X0, XL, provenance={"source": str(path)})


def loaded(load, path):
    """What a loader makes of a file: the sample's l, shapes and bytes, or its error message."""
    try:
        obs = load(path)
    except TrajectoryFormatError as exc:
        return str(exc)
    return obs.l, obs.X0.shape, obs.X0.tobytes(), obs.XL.tobytes()


# Field spellings csv and Python's int and float accept; numpy's reader takes
# the first three, and a state "1_0", a "#" line, a whitespace-only line, a
# lone "\r" line end and ids past int64 only through the csv path.
FIELD_SPELLINGS = ["{}", " {} ", '"{}"', '" {}\t"']


@st.composite
def trajectory_files(draw):
    """Bytes of a trajectory file in any spelling, with up to two corrupted rows."""
    obs = draw(unit_norm_sets())
    top = draw(st.sampled_from([2**63 - 1, 2**63 + 2, 2**70]))  # past int64 in most files
    ids = draw(st.lists(st.integers(-2**63 - 1, top), min_size=obs.N, max_size=obs.N, unique=True))
    lines = draw(st.permutations([
        f"{tid},{step}," + ",".join(map(repr, x.tolist()))
        for tid, x0, xl in zip(ids, obs.X0, obs.XL) for step, x in ((0, x0), (obs.l, xl))
    ]))
    # Written into traj_id, step or the last state field; Python's int refuses the float spellings.
    kinds = ["short", "long", "negative step", "duplicate", "nan", "1_0", "1.0", "7.5", "1e3"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2)):
        row, column = draw(st.integers(0, len(lines) - 1)), draw(st.sampled_from([0, 1, -1]))
        lines, _ = corrupt(lines, kind, row, column)
    lines = [",".join(draw(st.sampled_from(FIELD_SPELLINGS)).format(f) for f in line.split(","))
             for line in lines]
    for extra in draw(st.lists(st.sampled_from(["", "", "#x", " \t "]), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = newline if draw(st.booleans()) else ""
    header = ",".join(["traj_id", "step"] + [f"x{i+1}" for i in range(obs.n)])
    return (newline.join([header, *lines]) + end).encode()


class TestLoaderMatchesCsvReference:
    @settings(max_examples=200, deadline=None)
    @given(text=trajectory_files())
    def test_same_sample_or_same_message(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text)
            assert loaded(load_observations, path) == loaded(reference_load_observations, path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("spelling", FIELD_SPELLINGS)
    def test_plain_spellings_skip_the_csv_path(self, tmp_path, monkeypatch, newline, spelling):
        rows = ["", *(",".join(spelling.format(f) for f in r.split(",")) for r in PLAIN_ROWS), ""]
        path = write_trajectories(tmp_path, rows, newline)
        monkeypatch.setattr(sampling, "_csv_rows", mock.Mock(side_effect=AssertionError))
        assert loaded(load_observations, path) == loaded(reference_load_observations, path)

    @pytest.mark.parametrize("spelling", ["1.0", "7.5", "7.9", "1e3", "nan", "inf"])
    @pytest.mark.parametrize("column", [0, 1], ids=["traj_id", "step"])
    def test_float_spelled_ids_and_steps_are_refused(self, tmp_path, column, spelling):
        rows = [PLAIN_ROWS[0], "", *corrupt(PLAIN_ROWS[1:], spelling, 0, column)[0]]
        path = write_trajectories(tmp_path, rows)
        message = f"{path}:4: invalid literal for int() with base 10: '{spelling}'"
        assert loaded(load_observations, path) == loaded(reference_load_observations, path) == message

    @pytest.mark.parametrize("ten, one", [("1_0", "0_1"), ("\u0661\u0660", "\u0661"), (" 10\t", "+1")])
    def test_ids_and_steps_are_read_by_pythons_int(self, tmp_path, monkeypatch, ten, one):
        path = write_trajectories(tmp_path, [f"{ten},0,1.0,0.0", f"{ten},{one},0.5,-2.0", *PLAIN_ROWS[2:]])
        monkeypatch.setattr(sampling, "_csv_rows", mock.Mock(side_effect=AssertionError))
        assert loaded(load_observations, path) == loaded(reference_load_observations, path)
        assert load_observations(path).X0.tobytes() == np.array(PLAIN_X0).tobytes()

    @pytest.mark.parametrize("body", ["", "\n", "\n\n", "\r\n\r\n", "\n \n"],
                             ids=["no_newline", "lf", "blank_lf", "blank_crlf", "space_line"])
    def test_file_without_rows_warns_nothing(self, tmp_path, body):
        path = tmp_path / "t.csv"
        path.write_bytes(b"traj_id,step,x1,x2" + body.encode())
        message = f"{path}:2: expected 4 fields, got 1" if body == "\n \n" else "no trajectory rows"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrajectoryFormatError, match=re.escape(message)):
                load_observations(path)

    @pytest.mark.parametrize("n", [1, 3])
    def test_one_trajectory_loads_as_one_row(self, tmp_path, n):
        path = tmp_path / "t.csv"
        header = ",".join(["traj_id", "step"] + [f"x{i+1}" for i in range(n)])
        path.write_text(f"{header}\n5,0{',0.0' * (n - 1)},-1.0\n5,2{',2.5' * n}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obs = load_observations(path)
            assert obs.l == 2 and obs.X0.shape == obs.XL.shape == (1, n)
            assert obs.X0.tobytes() == np.array([[0.0] * (n - 1) + [-1.0]]).tobytes()
            with pytest.raises(TrajectoryFormatError, match="must have at least one step"):
                load_observations(write_trajectories(tmp_path, [PLAIN_ROWS[0]]))


def csv_writer_bytes(obs: ObservationSet) -> bytes:
    """The trajectory file as `csv.writer` writes it: the reference spelling."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["traj_id", "step"] + [f"x{i+1}" for i in range(obs.n)])
    for tid, (x0, xl) in enumerate(zip(obs.X0, obs.XL)):
        writer.writerow([tid, 0] + [repr(float(v)) for v in x0])
        writer.writerow([tid, obs.l] + [repr(float(v)) for v in xl])
    return buf.getvalue().encode()


edge_floats = st.one_of(
    finite_floats,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1e300, -1e300, 1.7976931348623157e308, 1e-300]),
    st.floats(1e299, 1e301) | st.floats(-1e301, -1e299),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
)


@st.composite
def edge_sets(draw):
    n = draw(st.integers(1, 3))
    N = draw(st.integers(1, 9))
    X0 = np.zeros((N, n))
    X0[np.arange(N), draw(arrays(np.intp, N, elements=st.integers(0, n - 1)))] = draw(
        arrays(float, N, elements=st.sampled_from([1.0, -1.0])))
    XL = draw(arrays(float, (N, n), elements=edge_floats))
    return ObservationSet(draw(st.integers(1, 5)), X0, XL)


class TestWriterBytes:
    @settings(max_examples=80, deadline=None)
    @given(obs=st.one_of(unit_norm_sets(), edge_sets()), block=st.integers(1, 4))
    def test_matches_csv_writer(self, obs, block):
        # A small write block makes every N past it span several blocks.
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sampling, "_WRITE_BLOCK", block):
            path = Path(tmp) / "t.csv"
            save_observations(obs, path)
            assert path.read_bytes() == csv_writer_bytes(obs)

    def test_matches_csv_writer_across_real_blocks(self):
        N = 2 * sampling._WRITE_BLOCK + 3
        rng = np.random.default_rng(8)
        G = rng.standard_normal((N, 2))
        XL = rng.standard_normal((N, 2)) * np.exp(rng.uniform(-700, 700, (N, 2)))
        XL[:4] = [[-0.0, 5e-324], [1e300, -1e-310], [0.0, -1e300], [1.5, -0.0]]
        obs = ObservationSet(3, G / np.linalg.norm(G, axis=1, keepdims=True), XL)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            save_observations(obs, path)
            assert path.read_bytes() == csv_writer_bytes(obs)


class TestModeSetIO:
    def test_roundtrip(self, parrilo, tmp_path):
        path = tmp_path / "modes.json"
        save_modes(parrilo, path)
        back = load_modes(path)
        assert back.m == parrilo.m and back.n == parrilo.n
        for A, B in zip(back.matrices, parrilo.matrices):
            assert np.array_equal(A, B)

    def test_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "modes.json"
        path.write_text('{"dim": 3, "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}')
        with pytest.raises(ValueError):
            load_modes(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"dim": 2, "matrices": [5]}', "each mode must be a 2-D matrix"),
            ('{"dim": 2, "matrices": 5}', "expected a JSON object with a 'matrices' list"),
            ("[[[1.0, 0.0], [0.0, 1.0]]]", "expected a JSON object with a 'matrices' list"),
            ('{"dim": 1, "matrices": [{"a": 1.0}]}', "mode matrices must hold numbers"),
            ('{"matrices": [[[1.0]]]}', "expected an integer 'dim'"),
            ('{"dim": true, "matrices": [[[1.0]]]}', "expected an integer 'dim'"),
            ('{"dim": 2.7, "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}', "expected an integer 'dim'"),
            ('{"dim": "2", "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}', "expected an integer 'dim'"),
            ('{"dim": 2, "matrices": [', "Expecting value: line 1 column 25 (char 24)"),
            ('{"dim": 2, "matrices": [[[1.0, 0.0], [0.0]]]}',
             "setting an array element with a sequence"),
            ('{"dim": 2, "matrices": [[[1.0, 0.0]]]}',
             "all modes must be square matrices of the same size"),
            ('{"dim": 1, "matrices": [[["a"]]]}', "could not convert string to float: 'a'"),
            ('{"dim": 2, "matrices": [[[true, false], [false, true]], [["0.5", "0"], ["0", "0.5"]]]}',
             "mode matrices must hold JSON numbers, found true"),
            ('{"dim": 2, "matrices": [[[1, 0], [0, 1]], [["0.5", "0"], ["0", "0.5"]]]}',
             'mode matrices must hold JSON numbers, found "0.5"'),
            ('{"dim": 1, "matrices": []}', "a mode set needs at least one matrix"),
            ('{"dim": 3, "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}',
             "mode-set file declares dim 3 but matrices are 2x2"),
            pytest.param('{"dim": 1, "matrices": [[[1%s]]]}' % ("0" * 400),
                         "mode matrices must have finite entries", id="integer-past-float-range"),
        ],
    )
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "modes.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            load_modes(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_validation(self):
        with pytest.raises(ValueError):
            ModeSet(())
        with pytest.raises(ValueError):
            ModeSet((np.array([[1.0, 2.0]]),))
        with pytest.raises(ValueError):
            ModeSet((np.array([[np.nan, 0.0], [0.0, 1.0]]),))


class TestCapMembership:
    def test_monte_carlo_measure(self):
        # The fraction of uniform samples inside C(c, eps) estimates eps.
        rng = np.random.default_rng(2024)
        total = 100_000
        for n in (2, 3, 4):
            for eps in (0.05, 0.1, 0.25):
                c = sample_unit_sphere(n, rng)
                G = rng.standard_normal((total, n))
                X = G / np.linalg.norm(G, axis=1, keepdims=True)
                frac = np.mean(X @ c > delta_cap(eps, n))
                assert abs(frac - eps) <= 4.0 * math.sqrt(eps * (1 - eps) / total)
