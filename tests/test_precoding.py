"""Centralized IP-MMSE and distributed conjugate beamforming precoders."""

from types import SimpleNamespace

import numpy as np
import pytest

from cfmcast import estimation, grouping, pilots, precoding
from cfmcast.errors import NumericalError, StatsError

from conftest import build_pipeline, full_load, ipmmse_with_power, oracle_direction, small_config

# small configs on either side of the solve-dimension switch; each predicate
# holds for the (n, |S_g|) of some group in its config
REGIMES = [
    # one group per pilot, so every AP serves every group: n = 16 * 2 >> |S_g| = 3
    pytest.param(dict(n_aps=16, n_groups=3, tau_p=3), lambda n, c: n >= 32 and c <= 3, id="n_much_larger_than_c"),
    # twelve single-user groups on three pilots: some group has more neighbors than dimensions
    pytest.param(dict(n_groups=12), lambda n, c: n < c, id="n_smaller_than_c"),
]


@pytest.fixture
def solve_widths(monkeypatch):
    """Widths of the systems passed to ``np.linalg.solve``, in call order."""
    widths = []
    solve = np.linalg.solve

    def spy(a, b):
        widths.append(a.shape[-1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return widths


class TestIpmmseDirection:
    def test_matches_explicit_inverse_oracle(self):
        cfg = small_config(realizations=6)
        pipe = build_pipeline(cfg)
        coef, loaded, leads = full_load(pipe)
        for g in range(pipe.plan.n_groups):
            got = precoding.ipmmse_direction(
                pipe.estimates, pipe.stats, pipe.plan, coef, g, loaded, leads[g]
            )
            want = oracle_direction(pipe, g)
            assert np.allclose(got, want, rtol=1e-8)

    def test_unicast_directions_match_oracle(self):
        # unicast: 26 of the 80 (serving AP, neighbor) entries pair an AP of g
        # with a neighbor c in S_g it does not serve, where the oracle's
        # per-entry error covariance meets the table's est_cov subtraction;
        # the directions come from the table ipmmse_directions builds itself
        cfg = small_config(realizations=5, n_groups=12)
        pipe = build_pipeline(cfg)
        plan = pipe.plan
        assert any(
            np.any(~plan.serving_mask[np.ix_(plan.serving[g], plan.s_set[g])]) for g in range(plan.n_groups)
        )
        w = precoding.ipmmse_directions(
            pipe.estimates, pipe.stats, plan, pipe.parts,
            cfg.group_power_w, cfg.tau_p, cfg.pilot_power_w, cfg.noise_w,
        )
        for g, aps in enumerate(plan.serving):
            got = w[:, plan.pair_of[aps, g]].reshape(cfg.realizations, -1)
            want = oracle_direction(pipe, g)
            err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
            assert np.all(err <= 1e-9)

    @pytest.mark.parametrize("overrides, regime", REGIMES)
    def test_woodbury_regimes_match_oracle(self, overrides, regime, solve_widths):
        cfg = small_config(realizations=5, **overrides)
        pipe = build_pipeline(cfg)
        plan = pipe.plan
        dims = [(plan.serving[g].size * cfg.n_antennas, plan.s_set[g].size) for g in range(plan.n_groups)]
        assert any(regime(n, c) for n, c in dims)
        coef, loaded, leads = full_load(pipe)
        for g, (n, c) in enumerate(dims):
            solve_widths.clear()
            got = precoding.ipmmse_direction(
                pipe.estimates, pipe.stats, plan, coef, g, loaded, leads[g]
            )
            # one solve per group, in its smaller dimension
            assert solve_widths == [min(n, c)]
            want = oracle_direction(pipe, g)
            # relative to each realization's direction norm: on entries ~1 % of the
            # largest the explicit-inverse oracle and the old direct LU solve
            # already differ by ~3e-8
            err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
            assert np.all(err <= 1e-8)

    @pytest.mark.parametrize("excess", [-1, 0, 1], ids=["n_below_c", "n_equals_c", "n_above_c"])
    def test_solve_dimension_boundary_matches_dense_solve(self, rng, monkeypatch, solve_widths, excess):
        # synthetic (T, C, n) estimates and block-diagonal regularizer with
        # n = |S_g| + excess, against one dense solve per realization
        n_aps, n_ant, n_real, own, noise_w, lead = 3, 2, 4, 1, 0.1, 1.7
        n = n_aps * n_ant
        c = n - excess

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        v = cn(n_real, c, n)
        coef = rng.uniform(0.5, 2.0, c)
        g = cn(n_aps, n_ant, n_ant)
        blocks = g @ np.conj(g.transpose(0, 2, 1))
        d = np.zeros((n, n), dtype=complex)
        for j in range(n_aps):
            d[j * n_ant : (j + 1) * n_ant, j * n_ant : (j + 1) * n_ant] = blocks[j]
        d += noise_w * np.eye(n)
        want = np.stack(
            [lead * np.linalg.solve(d + (v[t].T * coef) @ np.conj(v[t]), v[t, own]) for t in range(n_real)]
        )
        solve_widths.clear()
        inverses = []
        inv = np.linalg.inv

        def inv_spy(a):
            inverses.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", inv_spy)
        got = precoding._ipmmse_solve(v, coef, own, blocks + noise_w * np.eye(n_ant), lead)
        assert solve_widths == [min(n, c)]
        # only the Woodbury side inverts the regularizer blocks; n == |S_g| solves directly
        assert inverses == ([blocks.shape] if n > c else [])
        err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert np.all(err <= 1e-10)

    @pytest.mark.parametrize("overrides, regime", REGIMES)
    def test_non_finite_estimate_raises(self, overrides, regime):
        cfg = small_config(realizations=6, **overrides)
        pipe = build_pipeline(cfg)
        plan = pipe.plan
        g = next(
            g for g in range(plan.n_groups)
            if regime(plan.serving[g].size * cfg.n_antennas, plan.s_set[g].size)
        )
        pipe.estimates[2, plan.pair_of[plan.serving[g][0], g], 1] = np.nan
        coef, loaded, leads = full_load(pipe)
        with pytest.raises(NumericalError):
            precoding.ipmmse_direction(
                pipe.estimates, pipe.stats, plan, coef, g, loaded, leads[g]
            )

    def test_matched_filter_limit_is_colinear(self, rng):
        # a lone group with perfect estimation: the system matrix is a rank-one
        # update of the identity, so the solution is parallel to the estimate
        n_ant, t_total = 2, 5
        serving_mask = np.ones((2, 1), dtype=bool)
        plan = pilots.PilotPlan(1, np.array([0]), serving_mask)
        r = np.eye(n_ant, dtype=complex)[None, None].repeat(2, axis=0)
        stats = SimpleNamespace(r_comp=r.copy(), est_cov=r.copy())
        # virtual power 0.1 * 3^2 / (2 * 0.1) and noise 1e-3: the table's only
        # term, r_comp, cancels against est_cov, leaving the noise
        coef = np.array([4.5])
        loaded = 1e-3 * np.eye(n_ant) + coef[0] * r[:, 0]
        # both APs' estimates of the one group, then the zero padding row
        estimates = np.zeros((t_total, 3, n_ant), dtype=complex)
        estimates[:, :2] = rng.standard_normal((t_total, 2, n_ant)) + 1j * rng.standard_normal(
            (t_total, 2, n_ant)
        )
        dirs = precoding.ipmmse_direction(estimates, stats, plan, coef, 0, loaded, np.sqrt(coef[0]))
        v = estimates[:, :2].reshape(t_total, -1)
        for t in range(t_total):
            cos = np.abs(np.vdot(v[t], dirs[t])) / (
                np.linalg.norm(v[t]) * np.linalg.norm(dirs[t])
            )
            assert cos == pytest.approx(1.0, abs=1e-10)

    def test_interference_rotates_direction_away(self):
        # with a contaminating neighbor the solution must leave the
        # matched-filter direction
        cfg = small_config(realizations=4, n_groups=4, tau_p=2)
        pipe = build_pipeline(cfg)
        g = 0
        coef, loaded, leads = full_load(pipe)
        dirs = precoding.ipmmse_direction(
            pipe.estimates, pipe.stats, pipe.plan, coef, g, loaded, leads[g]
        )
        aps = pipe.plan.serving[g]
        v = pipe.estimates[:, pipe.plan.pair_of[aps, g]].reshape(cfg.realizations, -1)
        cos = np.abs(np.vdot(v[0], dirs[0])) / (np.linalg.norm(v[0]) * np.linalg.norm(dirs[0]))
        assert cos < 1.0 - 1e-6


class TestNormsAndOmega:
    def test_centralized_power_hand_value(self):
        # one group on two APs: over two realizations the per-AP squared norms
        # sum to 1+0+1+4 = 6 and 9+16+4+0 = 29, so the mean norms are 3 and
        # 14.5 and omega = 14.5/17.5; at G=1 rho = P/omega
        plan = SimpleNamespace(serving_mask=np.ones((2, 1), dtype=bool))
        stats = SimpleNamespace(trace_r_comp=np.array([[1.0], [3.0]]))
        dirs = np.array([[1.0 + 0j, 0.0, 3.0, 4.0], [1.0, 2.0, 2.0, 0.0]]).reshape(2, 2, 2)
        sums = np.sum(np.abs(dirs) ** 2, axis=(0, 2))[:, None]
        assert sums[:, 0] == pytest.approx([6.0, 29.0])
        scale, per_ap = precoding.centralized_power(sums, 2, stats, plan, 0.2, -0.5, 0.5)
        assert scale[0] == pytest.approx(0.2 / 14.5)
        assert per_ap == pytest.approx([0.2 * 3.0 / 14.5, 0.2])

    def test_empty_sample_raises(self):
        with pytest.raises(StatsError):
            precoding.centralized_power(np.zeros((2, 1)), 0, None, None, 0.2, -0.5, 0.5)

    def test_omega_factor_share(self):
        assert precoding.omega_factor(np.array([3.0, 1.0])) == pytest.approx(0.75)
        with pytest.raises(StatsError):
            precoding.omega_factor(np.zeros(2))


class TestFractionalPower:
    def test_single_group_budget(self):
        # one group served by one AP concentrates everything: rho equals the
        # downlink budget
        plan = SimpleNamespace(serving_mask=np.array([[True]]))
        rho = precoding.fractional_power_centralized(
            np.array([2.5e-7]), np.array([1.0]), plan, 0.2, -0.5, 0.5
        )
        assert rho[0] == pytest.approx(0.2)

    def test_flat_exponents_reduce_to_load_ratio(self):
        # nu = kappa = 0: the numerator is the plain budget and each AP's load
        # is the sum of its groups' omegas
        plan = SimpleNamespace(serving_mask=np.array([[True, False], [True, True]]))
        omega = np.array([0.6, 1.0])
        rho = precoding.fractional_power_centralized(
            np.array([3.0, 7.0]), omega, plan, 0.2, 0.0, 0.0
        )
        assert rho[0] == pytest.approx(0.2 / 1.6)
        assert rho[1] == pytest.approx(0.2 / 1.6)

    def test_exponent_effects(self):
        # a group with a larger covariance trace receives less power under a
        # negative trace exponent
        plan = SimpleNamespace(serving_mask=np.array([[True, False], [False, True]]))
        rho = precoding.fractional_power_centralized(
            np.array([1.0, 16.0]), np.array([1.0, 1.0]), plan, 0.2, -0.5, 0.5
        )
        assert rho[0] == pytest.approx(0.2)
        assert rho[1] == pytest.approx(0.2)
        # compare across groups within one AP instead
        plan_shared = SimpleNamespace(serving_mask=np.array([[True, True]]))
        rho = precoding.fractional_power_centralized(
            np.array([1.0, 16.0]), np.array([1.0, 1.0]), plan_shared, 0.2, -0.5, 0.5
        )
        assert rho[1] / rho[0] == pytest.approx(0.25)
        # the busiest (only) AP's expected power still meets the budget
        assert rho.sum() == pytest.approx(0.2)


class TestCentralizedPipeline:
    def test_audit_and_normalization_identity(self):
        cfg = small_config(realizations=25)
        pipe = build_pipeline(cfg)
        plan, nu = pipe.plan, cfg.resolved_nu()
        dirs, scale, per_ap_power = ipmmse_with_power(
            pipe.estimates,
            pipe.stats,
            plan,
            pipe.parts,
            cfg.group_power_w,
            cfg.tau_p,
            cfg.pilot_power_w,
            cfg.noise_w,
            cfg.dl_power_w,
            nu,
            cfg.kappa,
        )
        ap_norms = [
            np.mean(np.sum(np.abs(dirs[:, plan.pair_of[aps, g]]) ** 2, axis=2), axis=0)
            for g, aps in enumerate(plan.serving)
        ]
        omega = np.array([a.max() / a.sum() for a in ap_norms])
        assert np.all(omega > 0) and np.all(omega <= 1.0)
        trace_sums = np.array(
            [pipe.stats.trace_r_comp[plan.serving[g], g].sum() for g in range(plan.n_groups)]
        )
        rho = precoding.fractional_power_centralized(
            trace_sums, omega, plan, cfg.dl_power_w, nu, cfg.kappa
        )
        radiated = np.zeros(cfg.n_aps)
        for g, aps in enumerate(plan.serving):
            w = np.sqrt(scale[g]) * dirs[:, plan.pair_of[aps, g]]
            per_ap = np.mean(np.sum(np.abs(w) ** 2, axis=2), axis=0)
            assert per_ap.sum() == pytest.approx(rho[g], rel=1e-9)
            radiated[aps] += per_ap
        np.testing.assert_allclose(per_ap_power, radiated, rtol=1e-9)
        assert np.all(per_ap_power <= cfg.dl_power_w * 1.01)
        assert per_ap_power.sum() == pytest.approx(rho.sum(), rel=1e-9)


class TestConjugateBeamforming:
    def test_apa_rows_sum_to_budget(self):
        cfg = small_config(realizations=4)
        pipe = build_pipeline(cfg)
        rho = precoding.apa_power(pipe.stats.trace_r_comp, pipe.plan, cfg.dl_power_w, 0.5)
        for l in range(cfg.n_aps):
            served = np.flatnonzero(pipe.plan.serving_mask[l])
            assert rho[l, served].sum() == pytest.approx(cfg.dl_power_w, rel=1e-12)
            unserved = np.setdiff1d(np.arange(pipe.plan.n_groups), served)
            assert np.all(rho[l, unserved] == 0)

    def test_apa_proportionality(self):
        plan = SimpleNamespace(serving_mask=np.array([[True, True]]))
        trace = np.array([[1.0, 9.0]])
        rho = precoding.apa_power(trace, plan, 0.2, 1.0)
        assert rho[0, 1] / rho[0, 0] == pytest.approx(9.0)
        rho = precoding.apa_power(trace, plan, 0.2, 0.5)
        assert rho[0, 1] / rho[0, 0] == pytest.approx(3.0)

    def test_mean_norm_matches_closed_form(self):
        # the analytic normalization tr(est_cov) should equal the Monte Carlo
        # mean squared norm of the scaled estimate
        cfg = small_config(n_aps=2, n_antennas=2, n_ms=4, n_groups=2, tau_p=2, realizations=40_000)
        pipe = build_pipeline(cfg)
        pre = precoding.cb_precoders(
            pipe.estimates, pipe.stats, pipe.plan, cfg.dl_power_w, cfg.resolved_nu()
        )
        plan = pipe.plan
        assert pre.shape == (cfg.realizations, plan.pair_ap.size, cfg.n_antennas)
        rho = precoding.apa_power(pipe.stats.trace_r_comp, plan, cfg.dl_power_w, cfg.resolved_nu())
        for p, (l, g) in enumerate(zip(plan.pair_ap, plan.pair_group)):
            mean_power = np.mean(np.sum(np.abs(pre[:, p]) ** 2, axis=1))
            assert mean_power == pytest.approx(rho[l, g], rel=0.03)
