"""Shared helpers for the test suite: small scenarios, fuzz instances and
reference implementations the program itself does not use."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from cfmcast import covariance, estimation, evaluation, harness, pilots, precoding
from cfmcast.config import DL_POWER_W, GROUP_POWER_W, KAPPA, NOISE_W, NU, PILOT_POWER_W, SystemConfig
from cfmcast.errors import NumericalError, StatsError


def small_config(**overrides) -> SystemConfig:
    """A fast, fully wired configuration for unit tests."""
    base = dict(
        n_aps=6,
        n_antennas=2,
        n_ms=12,
        tau_p=3,
        n_groups=4,
        side_m=500.0,
        snapshots=2,
        realizations=40,
    )
    base.update(overrides)
    return SystemConfig(**base)


def draw_channels(factors: np.ndarray, n_real: int, rng: np.random.Generator) -> np.ndarray:
    """(T, K, L, N) channels for MS-major (K, L, N, N) factors: the harness's draw, then its correlation."""
    n_ms, n_aps, n_ant = factors.shape[:3]
    normals = np.empty((n_real, n_ms, n_aps, n_ant), dtype=complex)
    covariance.draw_normals(normals, rng)
    return covariance.sample_channels(factors, normals)


def as_field(a: np.ndarray) -> np.ndarray:
    """Link quantities (..., N, N) of one link, one AP's row or an (L, K) field, viewed as (L, K, N, N)."""
    return a.reshape((1,) * (4 - a.ndim) + a.shape)


def out_of_place_field(beta, phi_rad, asd_rad: float, n_antennas: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference for covariance.covariance_field and covariance_factors: (R, A), every step a new array.

    R has the shape of the inputs plus (N, N); A holds the factors of
    ``as_field(R)``, MS-major, (K, L, N, N).  The closed form, its PSD
    projection and the eigenvector scaling of the factors are the same ufuncs
    and products the program runs in place or in blocks, so both results must
    match it bit for bit.
    """
    idx = np.arange(n_antennas)
    diff = idx[:, None] - idx[None, :]
    phi = np.asarray(phi_rad, dtype=float)[..., None, None]
    b = np.asarray(beta, dtype=float)[..., None, None]
    phase = np.exp(1j * np.pi * diff * np.sin(phi))
    spread = np.exp(-0.5 * (asd_rad * np.pi * diff * np.cos(phi)) ** 2)
    w, u = np.linalg.eigh(b * phase * spread)
    w = np.clip(w, 0.0, None)
    r = (u * w[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))
    w, u = np.linalg.eigh(r)
    w = np.clip(w, 0.0, None)
    return r, np.ascontiguousarray(np.swapaxes(as_field(u * np.sqrt(w)[..., None, :]), 0, 1))


def serial_sample_channels(factors: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Reference for covariance.sample_channels: its slab formula, every slab on the calling thread."""
    for slab, (re, im) in covariance._slabs(normals):
        z = (re + 1j * im) * np.sqrt(0.5)
        np.matmul(factors, np.swapaxes(z, 1, 2)[..., None], out=slab[..., None])
    return normals


def gathered_project_pilots(channels, plan, rng) -> np.ndarray:
    """Reference for estimation.project_pilots: each pilot's signal summed from a fancy-indexed copy."""
    n_real, _, n_aps, n_antennas = channels.shape
    y = np.zeros((n_real, n_aps, plan.n_pilots, n_antennas), dtype=complex)
    scale = np.sqrt(plan.n_pilots * PILOT_POWER_W)
    noise_std = np.sqrt(NOISE_W / 2.0)
    for t in sorted(set(int(p) for p in plan.pilot_of)):
        on_pilot = np.concatenate([plan.members[c] for c in np.flatnonzero(plan.pilot_of == t)])
        signal = scale * channels[:, on_pilot].sum(axis=1)
        noise = noise_std * (
            rng.standard_normal((n_real, n_aps, n_antennas))
            + 1j * rng.standard_normal((n_real, n_aps, n_antennas))
        )
        y[:, :, t, :] = signal + noise
    return y


def per_group_gamma(r_cov, plan) -> np.ndarray:
    """Reference for estimation.composite_stats' Γ read per group: (L, G, N, N).

    Group g's observation covariance sums the link covariances of the MSs of
    every group on g's pilot (g's cohort), in group order, plus the noise.
    """
    n_aps, _, n_antennas, _ = r_cov.shape
    gamma = np.empty((n_aps, plan.n_groups, n_antennas, n_antennas), dtype=complex)
    for g in range(plan.n_groups):
        cohort = np.flatnonzero(plan.pilot_of == plan.pilot_of[g])
        members = np.concatenate([plan.members[c] for c in cohort])
        acc = plan.n_pilots * PILOT_POWER_W * r_cov[:, members].sum(axis=1)
        gamma[:, g] = acc + NOISE_W * np.eye(n_antennas)
    return gamma


def build_pipeline(cfg: SystemConfig, index: int = 0, n_real: int | None = None) -> SimpleNamespace:
    """Run the snapshot pipeline up to channel estimates and keep every stage."""
    dep, r_cov, factors = harness.deployment_setup(cfg, index)
    plan, stats = harness.service_setup(cfg, index, dep.beta, r_cov)
    t = cfg.realizations if n_real is None else n_real
    channels = draw_channels(factors, t, harness.stage_rng(cfg.master_seed, index, "channels"))
    y = estimation.project_pilots(channels, plan, harness.stage_rng(cfg.master_seed, index, "pilot_noise"))
    estimates = estimation.estimate_composites(y, stats, plan)
    return SimpleNamespace(
        cfg=cfg, dep=dep, r_cov=r_cov, factors=factors, plan=plan, stats=stats,
        channels=channels, y=y, estimates=estimates,
    )


def random_partition(rng: np.random.Generator, n_ms: int, n_groups: int) -> np.ndarray:
    """Random (K,) group labels guaranteed to leave none of the ``n_groups`` groups empty."""
    labels = rng.integers(0, n_groups, size=n_ms)
    labels[rng.permutation(n_ms)[:n_groups]] = np.arange(n_groups)
    return labels


def random_service_instance(rng: np.random.Generator) -> SimpleNamespace:
    """One fuzz instance: gains, a partition's group labels and a pilot budget.

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
    group_of = random_partition(rng, n_ms, n_groups)
    return SimpleNamespace(beta=beta, group_of=group_of, n_groups=n_groups, tau_p=tau_p, n_aps=n_aps, n_ms=n_ms)


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


def loop_assign_pilots(sums, tau_p, masters):
    """Reference for pilots._assign_pilots: each later group's pilot loads re-summed from every earlier group."""
    pilot_of = np.full(sums.shape[1], -1, dtype=int)
    for g in range(pilot_of.size):
        if g < tau_p:
            pilot_of[g] = g
            continue
        interference = np.bincount(pilot_of[:g], weights=sums[masters[g], :g], minlength=tau_p)
        pilot_of[g] = int(np.argmin(interference))
    return pilot_of


def loop_serve_strongest(gains, pilot_of, masters, tau_p):
    """Reference for pilots._serve_strongest: one choice per (pilot, AP) in a double loop."""
    n_aps, n_groups = gains.shape
    incumbent = np.full((n_aps, tau_p), -1, dtype=int)
    counts = np.zeros(n_groups, dtype=int)
    for t in range(tau_p):
        cands = np.flatnonzero(pilot_of == t)
        if cands.size == 0:
            continue
        for l in range(n_aps):
            claimants = cands[masters[cands] == l]
            pool = claimants if claimants.size else cands
            winner = pool[int(np.argmax(gains[l, pool]))]
            incumbent[l, t] = winner
            counts[winner] += 1
    return incumbent, counts


def loop_plan(beta, group_of, tau_p):
    """Reference for pilots.assign_pilots_and_cluster: its pilot and serving steps run as the loops above."""
    with mock.patch.object(pilots, "_assign_pilots", loop_assign_pilots), mock.patch.object(
        pilots, "_serve_strongest", loop_serve_strongest
    ):
        return pilots.assign_pilots_and_cluster(beta, group_of, tau_p)


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


def composite_channels(channels: np.ndarray, plan, tau_p: int, pilot_power_w: float) -> np.ndarray:
    """Realized composite channels per group, (T, L, G, N), from (T, K, L, N) channels."""
    scale = np.sqrt(tau_p * pilot_power_w)
    out = np.stack(
        [channels[:, m].sum(axis=1) / m.size for m in plan.members], axis=2
    )
    return scale * out


def sinr_terms(channels, w, power_scale, plan, group_of):
    """One-shot hardening-bound SINR from matched channel and (T, P + 1, N) precoder realizations."""
    acc = evaluation.SinrAccumulator(channels.shape[1], plan.n_groups)
    acc.update(channels, w, plan)
    return acc.finalize(power_scale, group_of)


def received_products(channels, w, plan):
    """Received inner products a_kg = sum over serving APs of h_klᴴ w_lg, (T, K, G).

    One einsum per group over its serving APs' slice of the (T, K, L, N)
    channels and the (T, P + 1, N) precoders.
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
    plan, stats = pipe.plan, pipe.stats
    rho = precoding.apa_power(stats.trace_r_comp, plan)
    est_trace = np.einsum("lgii->lg", stats.est_cov).real
    c2 = np.where(plan.serving_mask, rho / est_trace, 0.0)  # (L, G)
    same_pilot = plan.pilot_of[plan.group_of][:, None] == plan.pilot_of[None, :]  # (K, G)
    tr_er = np.einsum("lgab,lkba->lkg", stats.estimator, pipe.r_cov)
    tr_rq = np.einsum("lkab,lgba->lkg", pipe.r_cov, stats.est_cov).real
    s = np.sqrt(cfg.tau_p * PILOT_POWER_W)
    mu = s * same_pilot * np.einsum("lg,lkg->kg", np.sqrt(c2), tr_er)
    return mu, np.abs(mu) ** 2 + np.einsum("lg,lkg->kg", c2, tr_rq)


def oracle_direction(pipe, g):
    """Independent reassembly of the regularized precoder solve.

    Uses explicit matrix inverses and plain loops so it shares no code path
    with the batched implementation.
    """
    cfg, plan, stats = pipe.cfg, pipe.plan, pipe.stats
    aps = plan.serving[g]
    n_ant = cfg.n_antennas
    n = aps.size * n_ant
    t_total = pipe.estimates.shape[0]
    coef = GROUP_POWER_W * plan.sizes.astype(float) ** 2 / (cfg.tau_p * PILOT_POWER_W)

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
    lead = np.sqrt(GROUP_POWER_W / (cfg.tau_p * PILOT_POWER_W)) * plan.sizes[g]
    out = np.empty_like(v_own)
    for t in range(t_total):
        m = z + NOISE_W * np.eye(n)
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
    sizes = pipe.plan.sizes.astype(float)
    coef = GROUP_POWER_W * sizes**2 / (cfg.tau_p * PILOT_POWER_W)
    loaded = np.stack([NOISE_W * np.eye(cfg.n_antennas, dtype=complex)] * cfg.n_aps)
    for l in range(cfg.n_aps):
        for c in range(pipe.plan.n_groups):
            loaded[l] += coef[c] * stats.r_comp[l, c]
    return coef, loaded, np.sqrt(GROUP_POWER_W / (cfg.tau_p * PILOT_POWER_W)) * sizes


def ipmmse_with_power(estimates, stats, plan):
    """IP-MMSE directions of every group, normalized over all realizations.

    Returns (directions, power_scale, per_ap_power), with ``directions`` a
    (T, P + 1, N) array over the plan's served pairs; the assembly and the power
    step are the ones the harness runs.
    """
    w = precoding.ipmmse_directions(estimates, stats, plan)
    sums = np.sum(np.abs(w[:, :-1]) ** 2, axis=(0, 2))
    power_scale, per_ap_power = precoding.centralized_power(sums, w.shape[0], stats, plan)
    return w, power_scale, per_ap_power


def omega_factor(ap_norms: np.ndarray) -> np.ndarray:
    """Largest per-AP fraction of each column's mean squared norm, in (0, 1]."""
    total = ap_norms.sum(axis=0)
    if np.any(total <= 0):
        raise StatsError("precoder norms vanished; cannot form omega")
    return ap_norms.max(axis=0) / total


def fractional_power_centralized(trace_sums: np.ndarray, omega: np.ndarray, plan) -> np.ndarray:
    """Per-group powers rho under the centralized fractional rule, (G,).

    ``trace_sums[g]`` is the composite covariance trace summed over the
    group's serving APs; each power is divided by the load of the group's
    busiest serving AP.
    """
    mask, nu = plan.serving_mask, NU["ipmmse"]
    load = trace_sums**nu * omega ** (1.0 - KAPPA)
    ap_load = np.where(mask, load, 0.0).sum(axis=1)
    busiest = np.where(mask, ap_load[:, None], 0.0).max(axis=0)
    power = DL_POWER_W * trace_sums**nu * omega ** (-KAPPA)
    if np.any(busiest <= 0) or not np.all(np.isfinite(power)):
        raise NumericalError(f"fractional powers are not finite (nu = {nu}, kappa = {KAPPA})")
    return power / busiest


def three_step_power(pair_sq_norms: np.ndarray, count: int, stats, plan) -> tuple[np.ndarray, np.ndarray]:
    """Oracle of ``precoding.centralized_power`` in three steps: omega, rho, then the scale."""
    if count == 0:
        raise StatsError("cannot normalize over zero realizations")
    ap_norms = np.zeros(plan.serving_mask.shape)
    ap_norms[plan.pair_ap, plan.pair_group] = pair_sq_norms / count
    omegas = omega_factor(ap_norms)
    norms = ap_norms.sum(axis=0)
    trace_sums = np.where(plan.serving_mask, stats.trace_r_comp, 0.0).sum(axis=0)
    rho = fractional_power_centralized(trace_sums, omegas, plan)
    power_scale = rho / norms
    return power_scale, ap_norms @ power_scale


def random_power_instance(rng: np.random.Generator) -> tuple:
    """A random input of the centralized power step: (pair_sq_norms, count, stats, plan).

    Every group is served by at least one AP and, with two or more groups,
    some AP serves several; the pair sums and the composite covariance traces
    spread over several decades.
    """
    n_aps, n_groups = rng.integers(1, 9), rng.integers(1, 9)
    mask = rng.random((n_aps, n_groups)) < rng.uniform(0.2, 0.8)
    mask[rng.integers(n_aps, size=n_groups), np.arange(n_groups)] = True
    if n_groups > 1:
        mask[rng.integers(n_aps), rng.choice(n_groups, size=2, replace=False)] = True
    plan = pilots.PilotPlan(
        n_pilots=1, group_of=np.arange(n_groups), pilot_of=np.zeros(n_groups, dtype=int), serving_mask=mask
    )
    sums = 10.0 ** rng.uniform(-12, -2, size=plan.pair_ap.size)
    stats = SimpleNamespace(trace_r_comp=10.0 ** rng.uniform(-14, -4, size=mask.shape))
    return sums, int(rng.integers(1, 65)), stats, plan


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
