"""Composite channel statistics and MMSE estimation."""

import numpy as np
import pytest

from cfmcast import covariance, estimation, pilots
from cfmcast.config import NOISE_W, PILOT_POWER_W
from cfmcast.errors import NumericalError

from conftest import (
    build_pipeline,
    composite_channels,
    gathered_project_pilots,
    mmse_composite_estimate,
    per_group_gamma,
    small_config,
)


def brute_force_lmmse(y, r_members, r_cohort, tau_p, pilot_power, noise_w, group_size):
    """Oracle: generic jointly-Gaussian LMMSE x_hat = C_xy C_yy^-1 y.

    x is the scaled mean of the member channels, y the scaled cohort sum plus
    noise; both cross- and observation covariances are assembled from first
    principles and the inverse is explicit.
    """
    n = r_members[0].shape[0]
    c_xy = (tau_p * pilot_power / group_size) * sum(r_members)
    c_yy = tau_p * pilot_power * sum(r_cohort) + noise_w * np.eye(n)
    return c_xy @ np.linalg.inv(c_yy) @ y


def hand_plan(group_of, pilot_of, n_pilots, n_aps):
    """A plan of the given partition and pilots in which every AP serves every group."""
    pilot_of = np.asarray(pilot_of)
    mask = np.ones((n_aps, pilot_of.size), dtype=bool)
    return pilots.PilotPlan(n_pilots, np.asarray(group_of), pilot_of, mask)


class TestStatsAlgebra:
    def test_composite_covariance_scale(self):
        r = np.zeros((2, 3, 2, 2), dtype=complex)
        r[:, 0] = np.eye(2)
        r[:, 1] = 2 * np.eye(2)
        r[:, 2] = 4 * np.eye(2)
        stats = estimation.composite_stats(r, hand_plan([0, 1, 0], [0, 1], 5, 2))
        want = (5 * PILOT_POWER_W / 4) * 5 * np.eye(2)
        assert np.allclose(stats.r_comp[:, 0], want)

    def test_gamma_includes_noise_floor(self, monkeypatch):
        monkeypatch.setattr(estimation, "NOISE_W", 1e-3)
        r = np.zeros((1, 2, 2, 2), dtype=complex)
        r[:, 0] = np.eye(2)
        r[:, 1] = 3 * np.eye(2)
        stats = estimation.composite_stats(r, hand_plan([0, 1], [0, 0], 4, 1))
        assert stats.gamma.shape == (1, 4, 2, 2)
        assert np.allclose(stats.gamma[0, 0], (0.4 * 4 + 1e-3) * np.eye(2))
        # pilots 1 to 3 are unused: their observations are noise alone
        for t in (1, 2, 3):
            assert np.array_equal(stats.gamma[0, t], 1e-3 * np.eye(2))

    @pytest.mark.parametrize(
        "overrides", [{"n_groups": 5, "tau_p": 2}, {"n_groups": 12}], ids=["shared_pilots", "unicast"]
    )
    def test_gamma_per_pilot_matches_per_group_formula(self, overrides):
        cfg = small_config(**overrides)
        pipe = build_pipeline(cfg, n_real=1)
        assert pipe.plan.n_groups > cfg.tau_p
        want = per_group_gamma(pipe.r_cov, pipe.plan)
        assert np.array_equal(pipe.stats.gamma[:, pipe.plan.pilot_of], want)

    def test_gamma_dominates_noise(self):
        cfg = small_config()
        pipe = build_pipeline(cfg, n_real=1)
        w = np.linalg.eigvalsh(pipe.stats.gamma)
        assert w.min() >= NOISE_W * (1 - 1e-9)

    def test_est_and_err_cov_psd(self):
        pipe = build_pipeline(small_config(), n_real=1)
        scale = np.abs(pipe.stats.r_comp).max()
        for m in (pipe.stats.est_cov, pipe.stats.r_comp - pipe.stats.est_cov):
            assert np.allclose(m, np.conj(np.swapaxes(m, -1, -2)), atol=1e-12 * scale)
            w = np.linalg.eigvalsh(m)
            assert w.min() >= -1e-9 * scale

    def test_trace_r_comp(self):
        pipe = build_pipeline(small_config(), n_real=1)
        want = np.einsum("lgii->lg", pipe.stats.r_comp).real
        assert np.allclose(pipe.stats.trace_r_comp, want)


class TestEstimatorOracle:
    def test_matches_brute_force_lmmse(self, rng, monkeypatch):
        # one AP, 2 antennas, group of two MSs contaminated by a singleton
        # that shares its pilot, one of three
        n = 2
        tau_p, pp, noise_w = 3, PILOT_POWER_W, 2e-13
        monkeypatch.setattr(covariance, "ASD_DEG", np.rad2deg(0.2))
        monkeypatch.setattr(estimation, "NOISE_W", noise_w)
        r = np.empty((1, 3, n, n), dtype=complex)
        for k, (b, phi) in enumerate([(2e-8, 0.3), (5e-8, -1.1), (1e-8, 2.0)]):
            r[0, k] = covariance.covariance_field(np.asarray(b), np.asarray(phi), n)
        plan = hand_plan([0, 0, 1], [0, 0], tau_p, 1)
        assert np.array_equal(plan.pilot_ms[0], [0, 1, 2])
        stats = estimation.composite_stats(r, plan)
        for _ in range(20):
            y = 1e-4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            got = mmse_composite_estimate(y, stats.r_comp[0, 0], stats.gamma[0, plan.pilot_of[0]], 2)
            want = brute_force_lmmse(
                y, [r[0, 0], r[0, 1]], [r[0, 0], r[0, 1], r[0, 2]], tau_p, pp, noise_w, 2
            )
            assert np.allclose(got, want, rtol=1e-10)
            # the vectorized estimator map agrees with the per-vector solve
            assert np.allclose(stats.estimator[0, 0] @ y, got, rtol=1e-10)

    def test_cohort_mates_share_observation_statistics(self, rng):
        # every group on a pilot solves against that pilot's one Γ:
        # estimator @ Γ = |g| r_comp
        pipe = build_pipeline(small_config(n_groups=5, tau_p=2), n_real=1)
        plan, stats, sizes = pipe.plan, pipe.stats, pipe.plan.sizes
        assert np.array_equal(np.unique(plan.pilot_of), np.arange(plan.n_pilots))
        for t in range(plan.n_pilots):
            groups = np.flatnonzero(plan.pilot_of == t)
            assert groups.size >= 2
            for g in groups:
                want = sizes[g] * stats.r_comp[:, g]
                lhs = stats.estimator[:, g] @ stats.gamma[:, t]
                assert np.allclose(lhs, want, rtol=0, atol=1e-9 * np.abs(want).max())

    def test_singular_observation_covariance_raises(self):
        with pytest.raises(NumericalError):
            mmse_composite_estimate(
                np.zeros(2, dtype=complex), np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex), 1
            )

    def test_singular_gamma_in_composite_stats_raises(self, monkeypatch):
        # zero member covariances and no noise leave both used pilots' Γ zero
        monkeypatch.setattr(estimation, "NOISE_W", 0.0)
        r = np.zeros((2, 3, 2, 2), dtype=complex)
        with pytest.raises(NumericalError, match="observation covariance solve failed"):
            estimation.composite_stats(r, hand_plan([0, 1, 0], [0, 1], 3, 2))


class TestPilotProjection:
    def test_zero_noise_reconstruction(self, rng, monkeypatch):
        cfg = small_config()
        pipe = build_pipeline(cfg, n_real=4)
        monkeypatch.setattr(estimation, "NOISE_W", 0.0)
        y = estimation.project_pilots(pipe.channels, pipe.plan, rng)
        scale = np.sqrt(cfg.tau_p * PILOT_POWER_W)
        used = sorted(set(int(p) for p in pipe.plan.pilot_of))
        for t in range(cfg.tau_p):
            if t not in used:
                assert np.all(y[:, :, t, :] == 0)
                continue
            on_pilot = np.concatenate(
                [pipe.plan.members[g] for g in np.flatnonzero(pipe.plan.pilot_of == t)]
            )
            want = scale * pipe.channels[:, on_pilot].sum(axis=1)
            assert np.allclose(y[:, :, t, :], want, rtol=1e-12)

    @pytest.mark.parametrize(
        "overrides", [{}, {"n_groups": 12, "tau_p": 12}], ids=["shared_pilots", "one_ms_per_pilot"]
    )
    def test_matches_gathered_sum(self, overrides):
        # summing one MS at a time into one buffer gives the floats of the
        # gathered copy's sum, noise included
        cfg = small_config(**overrides)
        pipe = build_pipeline(cfg, n_real=5)
        args = (pipe.channels, pipe.plan)
        y = estimation.project_pilots(*args, np.random.default_rng(3))
        assert np.array_equal(y, gathered_project_pilots(*args, np.random.default_rng(3)))

    def test_noise_variance_per_antenna(self, monkeypatch):
        cfg = small_config(n_aps=2, n_ms=2, n_groups=2, tau_p=2)
        pipe = build_pipeline(cfg, n_real=1)
        rng = np.random.default_rng(77)
        zero_h = np.zeros((20_000,) + pipe.channels.shape[1:], dtype=complex)
        noise_w = 1e-12
        monkeypatch.setattr(estimation, "NOISE_W", noise_w)
        y = estimation.project_pilots(zero_h, pipe.plan, rng)
        t = int(pipe.plan.pilot_of[0])
        var = np.mean(np.abs(y[:, :, t, :]) ** 2)
        assert var == pytest.approx(noise_w, rel=0.05)

    def test_composite_channels_definition(self, rng):
        cfg = small_config()
        pipe = build_pipeline(cfg, n_real=3)
        comp = composite_channels(pipe.channels, pipe.plan, cfg.tau_p, PILOT_POWER_W)
        g = 1
        m = pipe.plan.members[g]
        want = np.sqrt(cfg.tau_p * PILOT_POWER_W) * pipe.channels[:, m].sum(axis=1) / m.size
        assert np.allclose(comp[:, :, g, :], want)


class TestEstimateRealizations:
    def test_covers_exactly_serving_pairs(self):
        pipe = build_pipeline(small_config(), n_real=2)
        plan, est = pipe.plan, pipe.estimates
        assert est.shape == (2, plan.pair_ap.size + 1, pipe.cfg.n_antennas)
        for p, (l, g) in enumerate(zip(plan.pair_ap, plan.pair_group)):
            want = pipe.y[:, l, plan.pilot_of[g]] @ pipe.stats.estimator[l, g].T
            assert np.allclose(est[:, p], want, rtol=1e-12)
        # the padding row that unserved pairs index into is exactly zero
        assert np.all(est[:, -1] == 0)

    def test_matches_single_estimate_path(self):
        pipe = build_pipeline(small_config(), n_real=3)
        plan, stats = pipe.plan, pipe.stats
        g = 0
        l = int(plan.serving[g][0])
        t = int(plan.pilot_of[g])
        size = int(pipe.plan.sizes[g])
        for ti in range(3):
            want = mmse_composite_estimate(
                pipe.y[ti, l, t], stats.r_comp[l, g], stats.gamma[l, t], size
            )
            assert np.allclose(pipe.estimates[ti, plan.pair_of[l, g]], want, rtol=1e-9)

    def test_orthogonality_and_second_moment(self):
        # LMMSE leaves the error uncorrelated with the estimate, and the
        # estimate's sample covariance approaches est_cov
        cfg = small_config(n_aps=2, n_antennas=2, n_ms=4, n_groups=2, tau_p=2, realizations=30_000)
        pipe = build_pipeline(cfg)
        comp = composite_channels(pipe.channels, pipe.plan, cfg.tau_p, PILOT_POWER_W)
        g = 0
        l = int(pipe.plan.serving[g][0])
        est = pipe.estimates[:, pipe.plan.pair_of[l, g]]
        err = comp[:, l, g, :] - est
        t = est.shape[0]
        cross = np.einsum("ta,tb->ab", est, err.conj()) / t
        sample_cov = np.einsum("ta,tb->ab", est, est.conj()) / t
        want = pipe.stats.est_cov[l, g]
        scale = np.linalg.norm(want)
        assert np.linalg.norm(cross) < 0.05 * scale
        assert np.linalg.norm(sample_cov - want) < 0.1 * scale
