"""Placement, wrap-around metric, path loss and shadowing."""

import numpy as np
import pytest

from cfmcast import geometry
from cfmcast.errors import SynthesisError

from conftest import small_config


def replica_displacement(a, b, side):
    """Oracle: enumerate the nine replica images and keep the closest."""
    best = None
    for ox in (-side, 0.0, side):
        for oy in (-side, 0.0, side):
            d = np.asarray(b, dtype=float) + np.array([ox, oy]) - np.asarray(a, dtype=float)
            if best is None or np.linalg.norm(d) < np.linalg.norm(best):
                best = d
    return best


class TestWrapAround:
    def test_matches_replica_enumeration(self, rng):
        side = 400.0
        for _ in range(300):
            a = rng.uniform(0, side, size=2)
            b = rng.uniform(0, side, size=2)
            got = geometry.wrapped_displacement(a, b, side)
            want = replica_displacement(a, b, side)
            assert np.allclose(got, want, atol=1e-9)
            assert np.isclose(
                geometry.wrapped_distance(a, b, side), np.linalg.norm(want), atol=1e-9
            )

    def test_hand_case_across_border(self):
        d = geometry.wrapped_displacement(np.array([5.0, 5.0]), np.array([995.0, 5.0]), 1000.0)
        assert np.allclose(d, [-10.0, 0.0])
        assert geometry.wrapped_distance(np.array([5.0, 5.0]), np.array([995.0, 5.0]), 1000.0) == pytest.approx(10.0)

    def test_components_bounded_by_half_side(self, rng):
        side = 123.0
        a = rng.uniform(0, side, size=(50, 2))
        b = rng.uniform(0, side, size=(50, 2))
        d = geometry.wrapped_displacement(a, b, side)
        assert np.all(d >= -side / 2 - 1e-12)
        assert np.all(d <= side / 2 + 1e-12)

    def test_symmetric_distance(self, rng):
        side = 77.0
        a = rng.uniform(0, side, size=(20, 2))
        b = rng.uniform(0, side, size=(20, 2))
        assert np.allclose(
            geometry.wrapped_distance(a, b, side), geometry.wrapped_distance(b, a, side)
        )


class TestPlacement:
    def test_uniform_mean_near_center(self):
        rng = np.random.default_rng(7)
        side = 1000.0
        pos = geometry.place_uniform(100_000, side, rng)
        tol = 3 * side / np.sqrt(12 * pos.shape[0])
        assert np.all(np.abs(pos.mean(axis=0) - side / 2) < tol)
        assert pos.min() >= 0 and pos.max() <= side

    def test_clustered_layout(self, rng):
        side, csize = 500.0, 10.0
        pos = geometry.place_ms_clustered(4, 10, csize, side, rng)
        labels = np.repeat(np.arange(4), 10)
        assert pos.shape == (40, 2)
        assert np.all(pos >= 0) and np.all(pos <= side)
        for c in range(4):
            cluster = pos[labels == c]
            spread = cluster.max(axis=0) - cluster.min(axis=0)
            assert np.all(spread <= csize + 1e-9)

    def test_cluster_members_within_diagonal(self, rng):
        pos = geometry.place_ms_clustered(3, 7, 20.0, 200.0, rng)
        labels = np.repeat(np.arange(3), 7)
        for c in range(3):
            cluster = pos[labels == c]
            d = np.linalg.norm(cluster - cluster.mean(axis=0), axis=1)
            assert np.all(d <= np.sqrt(2) * 20.0)


class TestPathGain:
    def test_reference_distance_value(self):
        assert geometry.path_gain_db(np.array(1.0)) == pytest.approx(-30.5)

    def test_monotone_decreasing(self):
        d = np.linspace(1.0, 800.0, 200)
        g = geometry.path_gain_db(d)
        assert np.all(np.diff(g) < 0)

    def test_three_d_distance_floors_the_loss(self):
        ap = np.array([[100.0, 100.0]])
        ms = np.array([[100.0, 100.0]])
        shadow = np.zeros((1, 1))
        beta = geometry.large_scale_matrix(ap, ms, 500.0, shadow)
        want = 10 ** (geometry.path_gain_db(np.array(8.5)) / 10.0)
        assert beta[0, 0] == pytest.approx(want, rel=1e-12)

    def test_gain_positive_and_finite(self, rng):
        cfg = small_config()
        from conftest import build_pipeline

        pipe = build_pipeline(cfg, n_real=1)
        assert np.all(pipe.dep.beta > 0)
        assert np.all(np.isfinite(pipe.dep.beta))


class TestShadowing:
    def test_half_correlation_at_decorrelation_distance(self):
        # pairs exactly 9 m apart must correlate at 2^-1 = 0.5
        side, n_pairs = 1000.0, 200
        rng = np.random.default_rng(11)
        xs = rng.uniform(50, side - 50, size=n_pairs)
        ys = rng.uniform(0, side, size=n_pairs)
        pos = np.empty((2 * n_pairs, 2))
        pos[0::2] = np.stack([xs, ys], axis=1)
        pos[1::2] = np.stack([xs + 9.0, ys], axis=1)
        sh = geometry.sample_shadowing(pos, 400, side, rng)
        a = sh[:, 0::2].ravel()
        b = sh[:, 1::2].ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert corr == pytest.approx(0.5, abs=0.05)

    def test_identical_positions_share_shadowing(self):
        rng = np.random.default_rng(3)
        pos = np.array([[10.0, 20.0], [10.0, 20.0], [300.0, 40.0]])
        sh = geometry.sample_shadowing(pos, 5, 500.0, rng)
        assert np.allclose(sh[:, 0], sh[:, 1], atol=1e-6)

    def test_coincident_positions_draw_once(self):
        # a point's later MSs reuse its first MS's column; the others keep
        # the draws they get with no coincident MS present
        pos = np.array([[10.0, 20.0], [300.0, 40.0], [150.0, 400.0]])
        both = np.vstack([pos, pos[[0]], [[10.0, 520.0]]])  # (10, 520) wraps onto (10, 20)
        sh = geometry.sample_shadowing(pos, 5, 500.0, np.random.default_rng(3))
        sh_both = geometry.sample_shadowing(both, 5, 500.0, np.random.default_rng(3))
        assert np.array_equal(sh_both[:, :3], sh)
        assert np.array_equal(sh_both[:, 3], sh[:, 0])
        assert np.array_equal(sh_both[:, 4], sh[:, 0])

    @pytest.mark.parametrize(
        "side, min_eig",
        [(10.0, -0.106), (25.4199594, -1.4e-9)],
        ids=["indefinite", "barely_indefinite"],
    )
    def test_unfactorable_correlation_raises(self, side, min_eig):
        # a 4x4 grid on a torus not much larger than the decorrelation
        # distance: the wrapped-distance correlation is indefinite there; at
        # the second side it misses PSD by little enough that a diagonal
        # jitter of 1e-8 would let it through
        axis = np.arange(4) * side / 4
        pos = np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
        dist = geometry.wrapped_distance(pos[:, None], pos[None], side)
        assert np.linalg.eigvalsh(2.0 ** (-dist / 9.0))[0] == pytest.approx(min_eig, rel=0.01)
        with pytest.raises(SynthesisError):
            geometry.sample_shadowing(pos, 3, side, np.random.default_rng(0))

    def test_marginal_std(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 1000.0, size=(40, 2))
        sh = geometry.sample_shadowing(pos, 2000, 1000.0, rng)
        assert sh.std() == pytest.approx(4.0, rel=0.05)
        assert sh.mean() == pytest.approx(0.0, abs=0.2)

    def test_rows_independent_across_aps(self):
        rng = np.random.default_rng(9)
        pos = rng.uniform(0, 1000.0, size=(2, 2))
        sh = geometry.sample_shadowing(pos, 5000, 1000.0, rng)
        # same MS, different APs: correlation across the AP axis should vanish
        corr = np.corrcoef(sh[0::2, 0], sh[1::2, 0])[0, 1]
        assert abs(corr) < 0.05

    def test_distance_uses_wrap(self):
        # points 991 m apart unwrapped are 9 m apart on the torus; their
        # correlation must be 0.5, not effectively zero
        rng = np.random.default_rng(21)
        pos = np.array([[4.0, 0.0], [995.0, 0.0]])
        sh = geometry.sample_shadowing(pos, 20000, 1000.0, rng)
        corr = np.corrcoef(sh[:, 0], sh[:, 1])[0, 1]
        assert corr == pytest.approx(0.5, abs=0.05)


class TestDeployment:
    def test_build_deployment_shapes(self):
        from conftest import build_pipeline

        cfg = small_config()
        pipe = build_pipeline(cfg, n_real=1)
        dep = pipe.dep
        assert dep.ap_positions.shape == (cfg.n_aps, 2)
        assert dep.ms_positions.shape == (cfg.n_ms, 2)
        assert dep.beta.shape == (cfg.n_aps, cfg.n_ms)

    def test_clustered_deployment_labels(self):
        from conftest import build_pipeline

        cfg = small_config(n_ms=12, clusters=3, cluster_side_m=10.0)
        pipe = build_pipeline(cfg, n_real=1)
        # MS k lies in hotspot k // (n_ms // clusters): each such block fits one square
        for block in pipe.dep.ms_positions.reshape(cfg.clusters, -1, 2):
            spread = block.max(axis=0) - block.min(axis=0)
            assert np.all(spread <= cfg.cluster_side_m + 1e-9)
