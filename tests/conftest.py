"""Shared helpers for the test suite: small scenarios, fuzz instances and
reference implementations the program itself does not use."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from cfmcast import covariance, estimation, evaluation, geometry, grouping, harness, precoding
from cfmcast.config import DeploymentSpec, SystemConfig
from cfmcast.errors import NumericalError


def small_config(**overrides) -> SystemConfig:
    """A fast, fully wired configuration for unit tests."""
    base = dict(
        n_aps=6,
        n_antennas=2,
        n_ms=12,
        tau_c=200,
        tau_p=3,
        n_groups=4,
        side_m=500.0,
        snapshots=2,
        realizations=40,
        deployment=DeploymentSpec(kind="uniform"),
    )
    base.update(overrides)
    return SystemConfig(**base)


def draw_channels(factors: np.ndarray, n_real: int, rng: np.random.Generator) -> np.ndarray:
    """(T, K, L, N) channels for (L, K, N, N) factors: the harness's draw, then its correlation."""
    n_aps, n_ms, n_ant = factors.shape[:3]
    normals = np.empty((n_real, n_ms, n_aps, n_ant), dtype=complex)
    covariance.draw_normals(normals, rng)
    return covariance.sample_channels(factors, normals)


def serial_sample_channels(factors: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Reference for covariance.sample_channels: its slab formula, every slab on the calling thread."""
    ms_major = np.ascontiguousarray(np.swapaxes(factors, 0, 1))
    for slab, (re, im) in covariance._slabs(normals):
        z = (re + 1j * im) * np.sqrt(0.5)
        np.matmul(ms_major, np.swapaxes(z, 1, 2)[..., None], out=slab[..., None])
    return normals


def gathered_project_pilots(channels, grouping, plan, tau_p, pilot_power_w, noise_w, rng) -> np.ndarray:
    """Reference for estimation.project_pilots: each pilot's signal summed from a fancy-indexed copy."""
    n_real, _, n_aps, n_antennas = channels.shape
    y = np.zeros((n_real, n_aps, tau_p, n_antennas), dtype=complex)
    scale = np.sqrt(tau_p * pilot_power_w)
    noise_std = np.sqrt(noise_w / 2.0)
    for t in sorted(set(int(p) for p in plan.pilot_of)):
        on_pilot = np.concatenate([grouping.members[c] for c in np.flatnonzero(plan.pilot_of == t)])
        signal = scale * channels[:, on_pilot].sum(axis=1)
        noise = noise_std * (
            rng.standard_normal((n_real, n_aps, n_antennas))
            + 1j * rng.standard_normal((n_real, n_aps, n_antennas))
        )
        y[:, :, t, :] = signal + noise
    return y


def per_group_gamma(r_cov, grouping, plan, tau_p, pilot_power_w, noise_w) -> np.ndarray:
    """Reference for estimation.composite_stats' Γ read per group: (L, G, N, N).

    Group g's observation covariance sums the link covariances of the MSs of
    every group on g's pilot (g's cohort), in group order, plus the noise.
    """
    n_aps, _, n_antennas, _ = r_cov.shape
    gamma = np.empty((n_aps, plan.n_groups, n_antennas, n_antennas), dtype=complex)
    for g in range(plan.n_groups):
        cohort = np.flatnonzero(plan.pilot_of == plan.pilot_of[g])
        members = np.concatenate([grouping.members[c] for c in cohort])
        acc = tau_p * pilot_power_w * r_cov[:, members].sum(axis=1)
        gamma[:, g] = acc + noise_w * np.eye(n_antennas)
    return gamma


def build_pipeline(cfg: SystemConfig, index: int = 0, n_real: int | None = None) -> SimpleNamespace:
    """Run the snapshot pipeline up to channel estimates and keep every stage."""
    dep = geometry.build_deployment(
        cfg,
        harness.stage_rng(cfg.master_seed, index, "aps"),
        harness.stage_rng(cfg.master_seed, index, "ms"),
        harness.stage_rng(cfg.master_seed, index, "shadowing"),
    )
    setup = harness.snapshot_setup(cfg, index, dep)
    t = cfg.realizations if n_real is None else n_real
    channels = draw_channels(setup.factors, t, harness.stage_rng(cfg.master_seed, index, "channels"))
    y = estimation.project_pilots(
        channels,
        setup.parts,
        setup.plan,
        cfg.tau_p,
        cfg.pilot_power_w,
        cfg.noise_w,
        harness.stage_rng(cfg.master_seed, index, "pilot_noise"),
    )
    estimates = estimation.estimate_composites(y, setup.stats, setup.plan)
    return SimpleNamespace(cfg=cfg, dep=dep, **setup._asdict(), channels=channels, y=y, estimates=estimates)


def random_partition(rng: np.random.Generator, n_ms: int, n_groups: int) -> grouping.GroupAssignment:
    """Random labels guaranteed to leave no group empty."""
    labels = rng.integers(0, n_groups, size=n_ms)
    labels[rng.permutation(n_ms)[:n_groups]] = np.arange(n_groups)
    return grouping.GroupAssignment(group_of=labels, n_groups=n_groups)


def random_service_instance(rng: np.random.Generator) -> SimpleNamespace:
    """One fuzz instance: gains, a partition and a pilot budget.

    Group counts are capped so that no pilot can be shared by more groups than
    there are APs; beyond that cap a per-pilot uniqueness violation is forced
    by counting alone.
    """
    n_aps = int(rng.integers(3, 11))
    n_ms = int(rng.integers(4, 25))
    tau_p = int(rng.integers(2, 7))
    g_max = min(n_ms, tau_p + n_aps - 1, 3 * tau_p)
    n_groups = int(rng.integers(1, g_max + 1))
    beta = 10.0 ** rng.normal(-8.0, 1.5, size=(n_aps, n_ms))
    parts = random_partition(rng, n_ms, n_groups)
    return SimpleNamespace(beta=beta, parts=parts, tau_p=tau_p, n_aps=n_aps, n_ms=n_ms)


def assert_pair_layout(plan):
    """The served-pair numbering is a bijection onto the serving mask."""
    mask = plan.serving_mask
    n_pairs = plan.pair_ap.size
    assert n_pairs == mask.sum()
    assert np.array_equal(plan.pair_of[plan.pair_ap, plan.pair_group], np.arange(n_pairs))
    assert np.all(plan.pair_of[~mask] == n_pairs)
    assert np.all(plan.pair_of[mask] < n_pairs)
    for g, aps in enumerate(plan.serving):
        assert np.array_equal(aps, np.flatnonzero(mask[:, g]))


def mmse_composite_estimate(
    y: np.ndarray, r_comp: np.ndarray, gamma: np.ndarray, group_size: int
) -> np.ndarray:
    """MMSE estimate of one composite channel from one observation.

    ``y`` is the (N,) pilot observation at one AP; solves the observation
    covariance system instead of inverting it.
    """
    try:
        factor = cho_factor(gamma, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"observation covariance is not positive definite: {exc}") from exc
    return group_size * (r_comp @ cho_solve(factor, y))


def composite_channels(channels: np.ndarray, grouping, tau_p: int, pilot_power_w: float) -> np.ndarray:
    """Realized composite channels per group, (T, L, G, N), from (T, K, L, N) channels."""
    scale = np.sqrt(tau_p * pilot_power_w)
    out = np.stack(
        [channels[:, m].sum(axis=1) / m.size for m in grouping.members], axis=2
    )
    return scale * out


def sinr_terms(channels, w, power_scale, plan, group_of, noise_w):
    """One-shot hardening-bound SINR from matched channel and (T, P, N) precoder realizations."""
    acc = evaluation.SinrAccumulator(channels.shape[1], plan.n_groups)
    acc.update(channels, w, plan)
    return acc.finalize(power_scale, group_of, noise_w)


def received_products(channels, w, plan):
    """Received inner products a_kg = sum over serving APs of h_klᴴ w_lg, (T, K, G).

    One einsum per group over its serving APs' slice of the (T, K, L, N)
    channels and the (T, P, N) precoders.
    """
    return np.stack(
        [
            np.einsum("tkjn,tjn->tk", np.conj(channels[:, :, aps]), w[:, plan.pair_of[aps, g]])
            for g, aps in enumerate(plan.serving)
        ],
        axis=2,
    )


def sinr_moment_sums(channels, w, plan):
    """Per-group reference for SinrAccumulator.update: (sum_a, sum_a2), each (K, G)."""
    a = received_products(channels, w, plan)
    return a.sum(axis=0), np.sum(np.abs(a) ** 2, axis=0)


def exact_cb_moments(pipe, cfg):
    """Closed-form moments of distributed CB's received inner products, each (K, G).

    CB transmits w_lg = c_lg·E_lg y_lg, linear in the Gaussian pilot
    observation, with c²_lg = apa_power / tr(est_cov) on served pairs and 0
    elsewhere.  With s = √(τ_p p_p), R the link covariances, E the estimators,
    Q = est_cov = E Γ Eᴴ and t the pilot of each MS's and each group's group:

        μ_kg     = s·[t_k = t_g]·Σ_l c_lg·tr(E_lg R_lk)
        E|a_kg|² = |μ_kg|² + Σ_l c²_lg·tr(R_lk Q_lg)

    Returns (μ, E|a|²).
    """
    plan, stats, parts = pipe.plan, pipe.stats, pipe.parts
    rho = precoding.apa_power(stats.trace_r_comp, plan, cfg.dl_power_w, cfg.resolved_nu())
    est_trace = np.einsum("lgii->lg", stats.est_cov).real
    c2 = np.where(plan.serving_mask, rho / est_trace, 0.0)  # (L, G)
    same_pilot = plan.pilot_of[parts.group_of][:, None] == plan.pilot_of[None, :]  # (K, G)
    tr_er = np.einsum("lgab,lkba->lkg", stats.estimator, pipe.r_cov)
    tr_rq = np.einsum("lkab,lgba->lkg", pipe.r_cov, stats.est_cov).real
    s = np.sqrt(cfg.tau_p * cfg.pilot_power_w)
    mu = s * same_pilot * np.einsum("lg,lkg->kg", np.sqrt(c2), tr_er)
    return mu, np.abs(mu) ** 2 + np.einsum("lg,lkg->kg", c2, tr_rq)


def oracle_direction(pipe, g):
    """Independent reassembly of the regularized precoder solve.

    Uses explicit matrix inverses and plain loops so it shares no code path
    with the batched implementation.
    """
    cfg, plan, stats, parts = pipe.cfg, pipe.plan, pipe.stats, pipe.parts
    aps = plan.serving[g]
    n_ant = cfg.n_antennas
    n = aps.size * n_ant
    t_total = pipe.estimates.shape[0]
    coef = cfg.group_power_w * parts.sizes.astype(float) ** 2 / (cfg.tau_p * cfg.pilot_power_w)

    def stack(c):
        v = np.zeros((t_total, n), dtype=complex)
        for j, l in enumerate(aps):
            if plan.serving_mask[l, c]:
                v[:, j * n_ant : (j + 1) * n_ant] = pipe.estimates[:, plan.pair_of[l, c]]
        return v

    s = set(plan.s_set[g].tolist())
    z = np.zeros((n, n), dtype=complex)
    for j, l in enumerate(aps):
        block = np.zeros((n_ant, n_ant), dtype=complex)
        for c in range(plan.n_groups):
            # estimation-error covariance for a neighbor, full covariance otherwise
            err_cov = stats.r_comp[l, c] - stats.est_cov[l, c]
            block += coef[c] * (err_cov if c in s else stats.r_comp[l, c])
        z[j * n_ant : (j + 1) * n_ant, j * n_ant : (j + 1) * n_ant] = block

    v_own = stack(g)
    v_all = {c: stack(c) for c in plan.s_set[g]}
    lead = np.sqrt(cfg.group_power_w / (cfg.tau_p * cfg.pilot_power_w)) * parts.sizes[g]
    out = np.empty_like(v_own)
    for t in range(t_total):
        m = z + cfg.noise_w * np.eye(n)
        for c, vc in v_all.items():
            m = m + coef[c] * np.outer(vc[t], vc[t].conj())
        out[t] = lead * (np.linalg.inv(m) @ v_own[t])
    return out


def full_load(pipe):
    """The per-call inputs of ``ipmmse_direction``: (coef, loaded, leads).

    ``coef`` and ``leads`` are per group, (G,); ``loaded`` is the (L, N, N)
    noise plus every group's virtual-power-weighted composite covariance,
    summed per AP in a plain loop.
    """
    cfg, stats = pipe.cfg, pipe.stats
    sizes = pipe.parts.sizes.astype(float)
    coef = cfg.group_power_w * sizes**2 / (cfg.tau_p * cfg.pilot_power_w)
    loaded = np.stack([cfg.noise_w * np.eye(cfg.n_antennas, dtype=complex)] * cfg.n_aps)
    for l in range(cfg.n_aps):
        for c in range(pipe.plan.n_groups):
            loaded[l] += coef[c] * stats.r_comp[l, c]
    return coef, loaded, np.sqrt(cfg.group_power_w / (cfg.tau_p * cfg.pilot_power_w)) * sizes


def ipmmse_with_power(
    estimates, stats, plan, parts, group_power_w, tau_p, pilot_power_w, noise_w, dl_power_w, nu, kappa
):
    """IP-MMSE directions of every group, normalized over all realizations.

    Returns (directions, power_scale, per_ap_power), with ``directions`` a
    (T, P, N) array over the plan's served pairs; the assembly and the power
    step are the ones the harness runs.
    """
    w = precoding.ipmmse_directions(estimates, stats, plan, parts, group_power_w, tau_p, pilot_power_w, noise_w)
    sums = np.zeros(plan.serving_mask.shape)
    sums[plan.pair_ap, plan.pair_group] = np.sum(np.abs(w) ** 2, axis=(0, 2))
    power_scale, per_ap_power = precoding.centralized_power(
        sums, w.shape[0], stats, plan, dl_power_w, nu, kappa
    )
    return w, power_scale, per_ap_power


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
