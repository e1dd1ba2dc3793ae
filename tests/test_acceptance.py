"""Acceptance gate: seven go/no-go checks on oracles, invariants, trends,
determinism and statistics.

Each criterion is one test that prints exactly one verdict line
(``ACCEPTANCE <n> <name>: PASS|FAIL — detail``) before asserting, so a full
run leaves one line per criterion in the captured output.
"""

import time

import numpy as np
import pytest

from cfmcast import covariance, estimation, geometry, harness, pilots, precoding
from cfmcast.config import DL_POWER_W, NOISE_W, PILOT_POWER_W, preset

from conftest import (
    assert_pair_layout,
    build_pipeline,
    draw_channels,
    full_load,
    ipmmse_with_power,
    oracle_direction,
    random_service_instance,
    small_config,
)

def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


def boot_frac(a, b, n_boot=2000, seed=0):
    """Paired bootstrap over snapshots: fraction of resamples with
    median(a) > median(b)."""
    rng = np.random.default_rng(seed)
    a = np.asarray(a)
    b = np.asarray(b)
    idx = rng.integers(0, a.size, size=(n_boot, a.size))
    return float(np.mean(np.median(a[idx], axis=1) > np.median(b[idx], axis=1)))


def shape_samples(base, shapes: dict) -> dict:
    """Per-user sum-SE samples of each labelled shape, from one campaign over all of them."""
    # criterion 6 holds pooled campaigns to the serial bytes
    results = harness.run_campaigns([base.with_overrides(**over) for over in shapes.values()], workers=2)
    return {label: result.samples for label, result in zip(shapes, results)}


def test_criterion_1_estimation_oracle():
    t0 = time.monotonic()
    n_ant, tau_p, pilot_power = 2, 1, PILOT_POWER_W
    beta = np.array([[3e-8, 1.2e-8, 0.7e-8]])
    phi = np.array([[0.4, -1.0, 2.2]])
    plan = pilots.assign_pilots_and_cluster(beta, np.array([0, 0, 1]), tau_p)
    r_cov = covariance.covariance_field(beta, phi, n_ant)
    stats = estimation.composite_stats(r_cov, plan)
    channels = draw_channels(covariance.covariance_factors(r_cov), 200, np.random.default_rng(0))
    y = estimation.project_pilots(channels, plan, np.random.default_rng(1))
    estimates = estimation.estimate_composites(y, stats, plan)
    # oracle: generic jointly-Gaussian LMMSE with explicit inverses
    c_yy = tau_p * pilot_power * r_cov[0].sum(axis=0) + NOISE_W * np.eye(n_ant)
    c_yy_inv = np.linalg.inv(c_yy)
    worst = 0.0
    for g, members in enumerate(plan.members):
        c_xy = (tau_p * pilot_power / members.size) * r_cov[0, members].sum(axis=0)
        want = y[:, 0, 0, :] @ (c_xy @ c_yy_inv).T
        got = estimates[:, plan.pair_of[0, g]]
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))))
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        "estimation oracle",
        worst <= 1e-10 and elapsed < 1.0,
        f"max rel err {worst:.2e} (bound 1e-10), {elapsed:.2f}s (bound 1s)",
    )


def test_criterion_2_precoding_oracles():
    t0 = time.monotonic()
    # centralized solve against an explicit-inverse reassembly at dimension 8
    cfg = small_config(n_aps=4, n_antennas=2, n_ms=6, n_groups=2, tau_p=2, realizations=10)
    pipe = build_pipeline(cfg)
    assert all(pipe.plan.serving[g].size * cfg.n_antennas == 8 for g in range(2))
    worst = 0.0
    coef, loaded, leads = full_load(pipe)
    for g in range(2):
        got = precoding.ipmmse_direction(
            pipe.estimates, pipe.stats, pipe.plan, coef, g, loaded, leads[g]
        )
        want = oracle_direction(pipe, g)
        scale = np.maximum(np.abs(want), np.abs(want).max() * 1e-12)
        worst = max(worst, float(np.max(np.abs(got - want) / scale)))
    # distributed closed-form normalization against the Monte Carlo norm
    cfg_mc = small_config(n_aps=2, n_antennas=2, n_ms=4, n_groups=2, tau_p=2, realizations=100_000)
    pipe_mc = build_pipeline(cfg_mc)
    worst_norm = 0.0
    for p, (l, g) in enumerate(zip(pipe_mc.plan.pair_ap, pipe_mc.plan.pair_group)):
        mc = float(np.mean(np.sum(np.abs(pipe_mc.estimates[:, p]) ** 2, axis=1)))
        closed = float(np.einsum("ii->", pipe_mc.stats.est_cov[l, g]).real)
        worst_norm = max(worst_norm, abs(mc - closed) / closed)
    elapsed = time.monotonic() - t0
    _verdict(
        2,
        "precoding oracles",
        worst <= 1e-8 and worst_norm <= 0.03 and elapsed < 30.0,
        f"solve rel err {worst:.2e} (bound 1e-8), norm rel err {worst_norm:.3f} "
        f"(bound 0.03), {elapsed:.1f}s (bound 30s)",
    )


def test_criterion_3_invariant_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    n_instances = 100
    checked = 0
    for _ in range(n_instances):
        inst = random_service_instance(rng)
        beta, tau_p = inst.beta, inst.tau_p
        plan = pilots.assign_pilots_and_cluster(beta, inst.group_of, tau_p)
        # pilot plan invariants
        head = min(plan.n_groups, tau_p)
        assert np.array_equal(plan.pilot_of[:head], np.arange(head))
        for g in range(plan.n_groups):
            assert plan.serving[g].size >= 1
        assert np.all(plan.serving_mask.sum(axis=1) <= tau_p)
        assert_pair_layout(plan)
        # covariance cone and trace identity
        n_ant = int(rng.integers(1, 4))
        phi = rng.uniform(-np.pi, np.pi, size=beta.shape)
        r_cov = covariance.covariance_field(beta, phi, n_ant)
        w = np.linalg.eigvalsh(r_cov)
        traces = np.einsum("lkii->lk", r_cov).real
        assert w.min() >= -1e-9 * traces.max()
        assert np.allclose(traces, n_ant * beta, rtol=1e-9)
        # the estimate's covariance stays below the composite's: r_comp - est_cov is PSD
        stats = estimation.composite_stats(r_cov, plan)
        err_w = np.linalg.eigvalsh(stats.r_comp - stats.est_cov)
        assert err_w.min() >= -1e-9 * np.abs(stats.r_comp).max()
        # distributed power splits exactly
        rho = precoding.apa_power(stats.trace_r_comp, plan)
        for l in range(inst.n_aps):
            assert rho[l].sum() == pytest.approx(DL_POWER_W, rel=1e-12)
        # centralized realized per-AP power within one percent of the budget
        channels = draw_channels(
            covariance.covariance_factors(r_cov), 20, np.random.default_rng(checked)
        )
        y = estimation.project_pilots(channels, plan, np.random.default_rng(checked + 1))
        estimates = estimation.estimate_composites(y, stats, plan)
        _, _, per_ap_power = ipmmse_with_power(estimates, stats, plan)
        assert per_ap_power.max() <= DL_POWER_W * 1.01
        checked += 1
    elapsed = time.monotonic() - t0
    _verdict(
        3,
        "invariant suite",
        checked == n_instances and elapsed < 120.0,
        f"{checked}/{n_instances} fuzzed instances clean, {elapsed:.1f}s (bound 120s)",
    )


def test_criterion_4_uniform_desk_trend():
    """The paper's uniform-deployment claim: "for scenarios where users are
    uniformly distributed across the service area, unicast transmissions
    using centralized IP-MMSE precoding are optimal".

    Unicast IP-MMSE must beat each of the five other group-count/precoder
    configurations, and the intra-IP-MMSE ordering subgroup > single
    multicast must hold.

    The IP-MMSE-vs-CB orderings inside the two multicast group counts are printed
    but not asserted: the paper does not claim them, and the method gives no
    reason to expect them. With G=1 the interference neighborhood is the
    group itself, so the centralized solve reduces to per-AP filtering of the
    composite estimate times one common scalar. The centralized fractional
    rule (Demir, Björnson & Sanguinetti 2021) then loads only the busiest AP
    at the budget: over 5 snapshots of this preset the network radiates
    12-35 % of L·P, while CB runs every serving AP at full power. At G=10
    the same rule leaves even the busiest AP at 23-42 % of the budget.
    """
    t0 = time.monotonic()
    base = preset("desk_uniform")
    samples = shape_samples(
        base,
        {
            "uni_ip": dict(),
            "uni_cb": dict(precoder="cb"),
            "sub_ip": dict(n_groups=10),
            "sub_cb": dict(n_groups=10, precoder="cb"),
            "one_ip": dict(n_groups=1),
            "one_cb": dict(n_groups=1, precoder="cb"),
        },
    )
    comparisons = [
        ("uni_ip", "sub_ip"),
        ("uni_ip", "one_ip"),
        ("uni_ip", "uni_cb"),
        ("uni_ip", "sub_cb"),
        ("uni_ip", "one_cb"),
        ("sub_ip", "one_ip"),
    ]
    reported = [("sub_ip", "sub_cb"), ("one_ip", "one_cb")]
    fracs = {f"{a}>{b}": boot_frac(samples[a], samples[b]) for a, b in comparisons}
    unasserted = {f"{a}>{b}": boot_frac(samples[a], samples[b]) for a, b in reported}
    medians = {k: float(np.median(v)) for k, v in samples.items()}
    ok = all(f >= 0.95 for f in fracs.values())
    elapsed = time.monotonic() - t0
    _verdict(
        4,
        "uniform-deployment trend",
        ok and elapsed < 600.0,
        f"medians {({k: round(v, 2) for k, v in medians.items()})}, "
        f"bootstrap {({k: round(v, 3) for k, v in fracs.items()})}, "
        f"not asserted {({k: round(v, 3) for k, v in unasserted.items()})}, "
        f"{elapsed:.0f}s (bound 600s)",
    )


def test_criterion_5_clustered_desk_trend():
    t0 = time.monotonic()
    base = preset("desk_clustered")
    samples = shape_samples(
        base,
        {
            "ip_uni": dict(n_groups=base.n_ms, precoder="ipmmse"),
            "ip_g1": dict(n_groups=1, precoder="ipmmse"),
            "ip_g4": dict(n_groups=4, precoder="ipmmse"),
            "ip_g8": dict(n_groups=8, precoder="ipmmse"),
            "cb_uni": dict(n_groups=base.n_ms),
            "cb_g1": dict(n_groups=1),
            "cb_g4": dict(n_groups=4),
            "cb_g8": dict(n_groups=8),
        },
    )
    fracs = {}
    for pre in ("ip", "cb"):
        for g in ("g4", "g8"):
            for ref in ("uni", "g1"):
                fracs[f"{pre}_{g}>{pre}_{ref}"] = boot_frac(
                    samples[f"{pre}_{g}"], samples[f"{pre}_{ref}"]
                )
    medians = {k: float(np.median(v)) for k, v in samples.items()}
    # under CB the best group count must be interior: neither single multicast
    # nor unicast (G = K) may win
    cb_candidates = {"cb_g1": 1, "cb_g4": 4, "cb_g8": 8, "cb_uni": base.n_ms}
    best_cb = max(cb_candidates, key=lambda k: medians[k])
    interior = best_cb in ("cb_g4", "cb_g8")
    ok = all(f >= 0.95 for f in fracs.values()) and interior
    elapsed = time.monotonic() - t0
    _verdict(
        5,
        "clustered-deployment trend",
        ok and elapsed < 600.0,
        f"medians {({k: round(v, 2) for k, v in medians.items()})}, "
        f"bootstrap {({k: round(v, 3) for k, v in fracs.items()})}, "
        f"best CB count {best_cb}, {elapsed:.0f}s (bound 600s)",
    )


def test_criterion_6_worker_determinism(tmp_path):
    cfg = preset("desk_uniform").with_overrides(snapshots=8, realizations=30)
    outs = {}
    for workers in (1, 8):
        result = harness.run_campaign(cfg, workers=workers)
        out = tmp_path / f"w{workers}"
        harness.write_outputs(result, str(out))
        outs[workers] = (out / "cdf.csv").read_bytes()
    identical = outs[1] == outs[8]
    _verdict(
        6,
        "worker-count determinism",
        identical,
        f"cdf.csv byte-identical across 1 and 8 workers: {identical} "
        f"({len(outs[1])} bytes)",
    )


def test_criterion_7_statistical_checks():
    # shadowing correlation at the decorrelation distance
    side, n_pairs = 1000.0, 200
    rng = np.random.default_rng(501)
    xs = rng.uniform(50, side - 50, size=n_pairs)
    ys = rng.uniform(0, side, size=n_pairs)
    pos = np.empty((2 * n_pairs, 2))
    pos[0::2] = np.stack([xs, ys], axis=1)
    pos[1::2] = np.stack([xs + 9.0, ys], axis=1)
    sh = geometry.sample_shadowing(pos, 400, side, rng)
    corr = float(np.corrcoef(sh[:, 0::2].ravel(), sh[:, 1::2].ravel())[0, 1])
    corr_ok = abs(corr - 0.5) <= 0.05
    # estimator second moment against its analytic covariance
    cfg = small_config(n_aps=2, n_antennas=2, n_ms=4, n_groups=2, tau_p=2, realizations=100_000)
    pipe = build_pipeline(cfg)
    worst = 0.0
    for p, (l, g) in enumerate(zip(pipe.plan.pair_ap, pipe.plan.pair_group)):
        est = pipe.estimates[:, p]
        sample_cov = est.T @ est.conj() / est.shape[0]
        want = pipe.stats.est_cov[l, g]
        worst = max(worst, float(np.linalg.norm(sample_cov - want) / np.linalg.norm(want)))
    moment_ok = worst <= 0.05
    _verdict(
        7,
        "statistical checks",
        corr_ok and moment_ok,
        f"shadowing corr at 9 m {corr:.3f} (want 0.5±0.05), "
        f"estimate second-moment rel err {worst:.3f} (bound 0.05)",
    )
