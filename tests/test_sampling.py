import math

import numpy as np
import pytest

from jsrcert.caps import delta_cap
from jsrcert.sampling import (
    ModeSet,
    Observation,
    ObservationSet,
    TrajectoryFormatError,
    cap_membership,
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
        for ob in obs.observations:
            assert np.allclose(ob.xl, 4.0 * ob.x0, atol=1e-12)

    def test_parrilo_by_hand(self, parrilo):
        A1 = parrilo.matrices[0]
        assert np.allclose(A1 @ np.array([0.0, 1.0]), [0.0, 0.0])
        assert np.allclose(A1 @ np.array([1.0, 0.0]), [1.0, 1.0])

    def test_endpoints_consistent_with_hidden_modes(self, parrilo):
        obs = simulate(parrilo, 40, 3, seed=9)
        for ob in obs.observations:
            x = ob.x0
            for j in ob.modes:
                x = parrilo.matrices[j] @ x
            assert np.allclose(x, ob.xl, atol=1e-12)

    def test_deterministic_given_seed(self, parrilo):
        a = simulate(parrilo, 25, 2, seed=77)
        b = simulate(parrilo, 25, 2, seed=77)
        for oa, ob in zip(a.observations, b.observations):
            assert np.array_equal(oa.x0, ob.x0) and np.array_equal(oa.xl, ob.xl)
            assert oa.modes == ob.modes
        c = simulate(parrilo, 25, 2, seed=78)
        assert not np.array_equal(a.observations[0].x0, c.observations[0].x0)

    def test_prefix_stability(self, parrilo):
        # Per-trajectory streams: growing N extends the set without
        # disturbing earlier trajectories.
        small = simulate(parrilo, 10, 1, seed=3)
        big = simulate(parrilo, 20, 1, seed=3)
        for i in range(10):
            assert np.array_equal(small.observations[i].x0, big.observations[i].x0)

    def test_blind_strips_modes(self, parrilo):
        obs = simulate(parrilo, 5, 1, seed=2)
        assert all(ob.modes is not None for ob in obs.observations)
        blind = obs.blind()
        assert all(ob.modes is None for ob in blind.observations)
        assert blind.N == obs.N
        X0, _ = obs.endpoints()
        B0, _ = blind.endpoints()
        assert np.array_equal(X0, B0)

    def test_provenance_recorded(self, parrilo):
        obs = simulate(parrilo, 3, 2, seed=11)
        assert obs.provenance["seed"] == 11
        assert obs.provenance["rng"] == "philox-counter"


class TestObservationValidation:
    def test_rejects_non_unit_start(self):
        with pytest.raises(ValueError):
            Observation(x0=np.array([1.0, 1.0]), xl=np.zeros(2))

    def test_rejects_non_finite_end(self):
        with pytest.raises(ValueError):
            Observation(x0=np.array([1.0, 0.0]), xl=np.array([np.inf, 0.0]))

    def test_set_requires_consistent_dimension(self):
        ob2 = Observation(x0=np.array([1.0, 0.0]), xl=np.zeros(2))
        ob3 = Observation(x0=np.array([1.0, 0.0, 0.0]), xl=np.zeros(3))
        with pytest.raises(ValueError):
            ObservationSet(2, 1, (ob2, ob3))


class TestTrajectoryFiles:
    def test_roundtrip_exact(self, parrilo, tmp_path):
        obs = simulate(parrilo, 30, 2, seed=13)
        path = tmp_path / "t.csv"
        save_observations(obs, path)
        back = load_observations(path)
        assert back.N == obs.N and back.l == obs.l and back.n == obs.n
        for oa, ob in zip(obs.observations, back.observations):
            assert np.array_equal(oa.x0, ob.x0)
            assert np.array_equal(oa.xl, ob.xl)

    def test_rescales_off_sphere_starts(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "traj_id,step,x1,x2\n"
            "0,0,3.0,4.0\n"
            "0,1,2.0,0.0\n"
        )
        obs = load_observations(path)
        assert np.allclose(obs.observations[0].x0, [0.6, 0.8])
        assert np.allclose(obs.observations[0].xl, [0.4, 0.0])

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
        assert np.allclose(obs.observations[0].xl, [0.5, 0.5])

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

    def test_validation(self):
        with pytest.raises(ValueError):
            ModeSet(())
        with pytest.raises(ValueError):
            ModeSet((np.array([[1.0, 2.0]]),))
        with pytest.raises(ValueError):
            ModeSet((np.array([[np.nan, 0.0], [0.0, 1.0]]),))


class TestCapMembership:
    def test_inside_and_outside(self):
        c = np.array([1.0, 0.0])
        assert cap_membership(c, 0.25, np.array([1.0, 0.0]))
        assert not cap_membership(c, 0.25, np.array([0.0, 1.0]))

    def test_hemisphere_regime(self):
        c = np.array([0.0, 1.0])
        for theta in (0.1, 1.0, 1.5):
            x = np.array([math.sin(theta), math.cos(theta)])
            assert cap_membership(c, 0.6, x) == (x @ c > 0)

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
