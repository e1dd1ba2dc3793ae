"""Hardening-bound SINR, spectral efficiency and report aggregation."""

import numpy as np
import pytest

from cfmcast import evaluation, grouping, pilots, precoding
from cfmcast.errors import StatsError

from conftest import (
    build_pipeline,
    exact_cb_moments,
    ipmmse_with_power,
    received_products,
    sinr_moment_sums,
    sinr_terms,
    small_config,
)


def scalar_cb_setup(t_total, beta, rho, seed):
    """Single AP, one antenna, one user, perfect-knowledge CB precoder."""
    rng = np.random.default_rng(seed)
    h = np.sqrt(beta / 2) * (rng.standard_normal(t_total) + 1j * rng.standard_normal(t_total))
    w = np.sqrt(rho) * h / np.sqrt(beta)
    plan = pilots.PilotPlan(1, np.array([0]), np.array([[True]]))
    return h.reshape(t_total, 1, 1, 1), w.reshape(t_total, 1, 1), plan


class TestScalarOracle:
    def test_matches_analytic_sinr(self):
        # h ~ CN(0, beta), w = sqrt(rho) h / sqrt(beta): the hardening bound
        # evaluates to rho*beta / (rho*beta + noise) in closed form
        beta, rho, noise_w = 2.0, 0.5, 0.3
        channels, w, plan = scalar_cb_setup(100_000, beta, rho, seed=42)
        _, _, sinr, clamped = sinr_terms(channels, w, np.array([1.0]), plan, np.array([0]), noise_w)
        want = rho * beta / (rho * beta + noise_w)
        assert clamped == 0
        assert sinr[0] == pytest.approx(want, rel=0.02)

    def test_power_scale_enters_linearly(self):
        beta, noise_w = 1.0, 1e-2
        channels, w, plan = scalar_cb_setup(50_000, beta, 1.0, seed=3)
        _, _, sinr, _ = sinr_terms(channels, w, np.array([0.25]), plan, np.array([0]), noise_w)
        want = 0.25 * beta / (0.25 * beta + noise_w)
        assert sinr[0] == pytest.approx(want, rel=0.02)


class TestAccumulator:
    def test_chunked_equals_one_shot(self):
        cfg = small_config(realizations=30)
        pipe = build_pipeline(cfg)
        plan = pipe.plan
        pre = precoding.cb_precoders(
            pipe.estimates, pipe.stats, plan, cfg.dl_power_w, cfg.resolved_nu()
        )
        one = evaluation.SinrAccumulator(cfg.n_ms, plan.n_groups)
        one.update(pipe.channels, pre, plan)
        chunked = evaluation.SinrAccumulator(cfg.n_ms, plan.n_groups)
        for sl in (slice(0, 11), slice(11, 30)):
            chunked.update(pipe.channels[sl], pre[sl], plan)
        for a, b in ((one.sum_a, chunked.sum_a), (one.sum_a2, chunked.sum_a2)):
            assert np.allclose(a, b, rtol=1e-12)
        unit = np.ones(plan.n_groups)
        r1 = one.finalize(unit, pipe.parts.group_of, cfg.noise_w)
        r2 = chunked.finalize(unit, pipe.parts.group_of, cfg.noise_w)
        assert np.allclose(r1[2], r2[2], rtol=1e-12)

    @pytest.mark.parametrize(
        "n_groups, group_block",
        [(4, evaluation.GROUP_BLOCK), (12, 5)],
        ids=["one_block", "unicast_split_blocks"],
    )
    def test_matches_per_group_oracle(self, monkeypatch, n_groups, group_block):
        cfg = small_config(n_groups=n_groups, realizations=30)
        pipe = build_pipeline(cfg)
        plan = pipe.plan
        # the unicast plan's 12 groups split into blocks of 5, 5 and 2
        assert (plan.n_groups > group_block) == (n_groups == cfg.n_ms)
        monkeypatch.setattr(evaluation, "GROUP_BLOCK", group_block)
        cb = precoding.cb_precoders(pipe.estimates, pipe.stats, plan, cfg.dl_power_w, cfg.resolved_nu())
        ip, _, _ = ipmmse_with_power(
            pipe.estimates, pipe.stats, plan, pipe.parts, cfg.group_power_w, cfg.tau_p,
            cfg.pilot_power_w, cfg.noise_w, cfg.dl_power_w, cfg.resolved_nu(), cfg.kappa,
        )
        for w in (cb, ip):
            acc = evaluation.SinrAccumulator(cfg.n_ms, plan.n_groups)
            acc.update(pipe.channels, w, plan)
            want_a, want_a2 = sinr_moment_sums(pipe.channels, w, plan)
            np.testing.assert_allclose(acc.sum_a, want_a, rtol=1e-12)
            np.testing.assert_allclose(acc.sum_a2, want_a2, rtol=1e-12)
            assert acc.count == cfg.realizations

    def test_per_ap_unitary_rotation_invariance(self, rng):
        cfg = small_config(realizations=20)
        pipe = build_pipeline(cfg)
        plan = pipe.plan
        pre = precoding.cb_precoders(
            pipe.estimates, pipe.stats, plan, cfg.dl_power_w, cfg.resolved_nu()
        )
        unit = np.ones(plan.n_groups)
        _, _, sinr, _ = sinr_terms(pipe.channels, pre, unit, plan, pipe.parts.group_of, cfg.noise_w)
        # rotate every AP's antenna space by its own unitary
        qs = []
        for _ in range(cfg.n_aps):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(a)
            qs.append(q)
        channels_rot = np.stack(
            [np.einsum("ab,tkb->tka", qs[l], pipe.channels[:, :, l]) for l in range(cfg.n_aps)],
            axis=2,
        )
        pre_rot = np.stack(
            [np.einsum("ab,tb->ta", qs[l], pre[:, p]) for p, l in enumerate(plan.pair_ap)],
            axis=1,
        )
        _, _, sinr_rot, _ = sinr_terms(
            channels_rot, pre_rot, unit, plan, pipe.parts.group_of, cfg.noise_w
        )
        assert np.allclose(sinr, sinr_rot, rtol=1e-9)

    def test_noise_floor_monotonicity(self):
        cfg = small_config(realizations=25)
        pipe = build_pipeline(cfg)
        plan = pipe.plan
        pre = precoding.cb_precoders(
            pipe.estimates, pipe.stats, plan, cfg.dl_power_w, cfg.resolved_nu()
        )
        acc = evaluation.SinrAccumulator(cfg.n_ms, plan.n_groups)
        acc.update(pipe.channels, pre, plan)
        unit = np.ones(plan.n_groups)
        _, _, low, _ = acc.finalize(unit, pipe.parts.group_of, cfg.noise_w)
        _, _, high, _ = acc.finalize(unit, pipe.parts.group_of, 100 * cfg.noise_w)
        assert np.all(high < low)

    def test_clamp_counter_and_floor(self):
        acc = evaluation.SinrAccumulator(1, 1)
        acc.count = 4
        acc.sum_a = np.array([[8.0 + 0j]])  # mean 2 -> desired 4
        acc.sum_a2 = np.array([[4.0]])  # mean 1 < desired: denominator would go negative
        desired, total, sinr, clamped = acc.finalize(np.array([1.0]), np.array([0]), 1e-3)
        assert clamped == 1
        assert desired[0] == pytest.approx(4.0)
        assert sinr[0] == pytest.approx(4.0 / 1e-3)

    def test_empty_accumulator_raises(self):
        acc = evaluation.SinrAccumulator(2, 1)
        with pytest.raises(StatsError):
            acc.finalize(np.array([1.0]), np.array([0, 0]), 1e-3)


class TestExactCbMoments:
    def test_monte_carlo_converges_to_exact_moments(self):
        # CB is linear in the Gaussian pilot observation, so the moments the
        # accumulator estimates have a closed form; every (k, g) sample mean
        # must lie within 6 standard errors of it
        cfg = small_config(precoder="cb")
        pipe = build_pipeline(cfg, n_real=20000)
        w = precoding.cb_precoders(pipe.estimates, pipe.stats, pipe.plan, cfg.dl_power_w, cfg.resolved_nu())
        a = received_products(pipe.channels, w, pipe.plan)
        a2 = np.abs(a) ** 2
        n_real = a.shape[0]
        mu, second = exact_cb_moments(pipe, cfg)
        mean_a = a.mean(axis=0)
        z_a = np.abs(mean_a - mu) / np.sqrt(np.mean(np.abs(a - mean_a) ** 2, axis=0) / n_real)
        z_a2 = np.abs(a2.mean(axis=0) - second) / (a2.std(axis=0) / np.sqrt(n_real))
        # the check is not empty: pilot sharers see a nonzero mean
        assert np.count_nonzero(mu) >= cfg.n_ms
        assert z_a.max() <= 6.0, z_a.max()
        assert z_a2.max() <= 6.0, z_a2.max()


class TestSpectralEfficiency:
    def test_prelog_uses_configured_pilot_length(self):
        sinr = np.array([1.0, 3.0])
        se = evaluation.se_user(sinr, tau_p=5, tau_c=200)
        assert np.allclose(se, (1 - 5 / 200) * np.log2(1 + sinr))

    def test_group_rate_is_weakest_member(self):
        se_users = np.array([2.0, 0.5, 1.0, 3.0])
        members = [np.array([0, 1]), np.array([2, 3])]
        assert np.allclose(evaluation.se_group(se_users, members), [0.5, 1.0])

    def test_sum_conventions(self):
        # one 10-member group at SE 0.5: 5.0 per served user, 0.5 per stream
        parts = grouping.GroupAssignment(group_of=np.zeros(10, dtype=int), n_groups=1)
        sinr = np.full(10, 2.0 ** (0.5 / 0.9) - 1.0)
        rep = evaluation.build_report(sinr, 0, parts, tau_p=20, tau_c=200)
        assert rep.se_group == pytest.approx([0.5])
        assert rep.sum_se_per_user == pytest.approx(5.0)
        assert rep.sum_se_per_group == pytest.approx(0.5)

    def test_unicast_conventions_coincide(self):
        parts = grouping.GroupAssignment(group_of=np.arange(3), n_groups=3)
        rep = evaluation.build_report(np.array([0.3, 0.7, 1.1]), 0, parts, tau_p=20, tau_c=200)
        assert rep.sum_se_per_user == pytest.approx(rep.sum_se_per_group)

    def test_report_aggregates(self):
        parts = grouping.GroupAssignment(group_of=np.array([0, 0, 1]), n_groups=2)
        sinr = np.array([1.0, 2.0, 3.0])
        rep = evaluation.build_report(sinr, 0, parts, tau_p=20, tau_c=200)
        assert evaluation.se_user(np.ones(1), tau_p=20, tau_c=200) == pytest.approx([0.9])
        assert np.allclose(rep.se_user, 0.9 * np.log2(1 + sinr))
        assert rep.se_group[0] == pytest.approx(0.9 * np.log2(2.0))
        assert rep.sum_se_per_user == pytest.approx(2 * rep.se_group[0] + rep.se_group[1])
        assert rep.sum_se_per_group == pytest.approx(rep.se_group.sum())
