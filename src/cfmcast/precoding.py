"""Multicast precoders: centralized improved partial MMSE (IP-MMSE) and
distributed conjugate beamforming (CB).

The centralized precoder regularizes each group's composite channel estimate
against the estimates of the groups it shares serving APs with (its
interference neighborhood), the estimation error covariances of that
neighborhood and the full covariances of everyone else, all restricted to the
group's serving APs.  ``ipmmse_direction`` returns the unnormalized
directions; the caller accumulates their per-AP squared norms over the
normalization realizations and ``centralized_power`` turns those sums into the
per-group scale and the per-AP radiated power under the centralized fractional
rule, normalized by the worst-loaded serving AP.  The distributed precoder
scales each serving AP's own estimate with a closed-form normalization and a
per-AP fractional split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, StatsError


@dataclass
class GroupPrecoders:
    """Per-group precoder realizations plus the scaling needed for evaluation.

    ``aps[g]`` lists the serving APs of group g and ``blocks[g]`` holds the
    matching (T, |aps|, N) per-AP precoder realizations.  The final transmit
    precoder is sqrt(power_scale[g]) * blocks[g]; keeping the scale separate
    lets Monte Carlo normalization reuse the same realizations.
    """

    aps: list
    blocks: list
    power_scale: np.ndarray  # (G,)

    @property
    def n_groups(self) -> int:
        return len(self.aps)


# --- centralized IP-MMSE ----------------------------------------------------


def _stack_estimates(estimates, plan, group, neighborhood, n_antennas, n_real):
    """Gather the neighborhood's estimates on the group's serving APs.

    Returns (T, C, n) with C = len(neighborhood) and n = |L_g| * N; an AP that
    does not serve a neighborhood group contributes a zero block.
    """
    aps = plan.serving[group]
    v = np.zeros((n_real, neighborhood.size, aps.size * n_antennas), dtype=complex)
    for ci, c in enumerate(neighborhood):
        for j, l in enumerate(aps):
            est = estimates.get((int(l), int(c)))
            if est is not None:
                v[:, ci, j * n_antennas : (j + 1) * n_antennas] = est
    return v


def ipmmse_regularizer(stats, plan, group, group_sizes, group_power_w, tau_p, pilot_power_w) -> np.ndarray:
    """Deterministic part of the system matrix for one group, (n, n).

    Block diagonal over the group's serving APs: estimation error covariances
    of the interference neighborhood plus full composite covariances of all
    remaining groups, weighted by the virtual powers.
    """
    aps = plan.serving[group]
    n_antennas = stats.r_comp.shape[-1]
    coef = group_power_w * group_sizes.astype(float) ** 2 / (tau_p * pilot_power_w)
    in_s = np.zeros(plan.n_groups, dtype=bool)
    in_s[plan.s_set[group]] = True
    z = np.zeros((aps.size * n_antennas, aps.size * n_antennas), dtype=complex)
    for j, l in enumerate(aps):
        block = np.einsum("g,gab->ab", coef * in_s, stats.err_cov[l]) + np.einsum(
            "g,gab->ab", coef * ~in_s, stats.r_comp[l]
        )
        sl = slice(j * n_antennas, (j + 1) * n_antennas)
        z[sl, sl] = block
    return z


def _ipmmse_solve(v, coef, own_index, regularizer, noise_w, lead_scale):
    """Solve the regularized system for each realization.

    ``v`` is (T, C, n); the system matrix per realization is the weighted Gram
    matrix of the rows plus the regularizer plus noise_w * I.
    """
    n = v.shape[-1]
    gram = np.einsum("c,tci,tcj->tij", coef, v, np.conj(v))
    m = gram + regularizer + noise_w * np.eye(n)
    try:
        sol = np.linalg.solve(m, v[:, own_index, :, None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"precoder system solve failed: {exc}") from exc
    return lead_scale * sol


def ipmmse_direction(
    estimates: dict,
    stats,
    plan,
    grouping,
    group: int,
    group_power_w: float,
    tau_p: int,
    pilot_power_w: float,
    noise_w: float,
) -> np.ndarray:
    """Unnormalized centralized precoding directions for one group, (T, n).

    ``n`` stacks the group's serving APs times the antennas per AP.
    """
    neighborhood = plan.s_set[group]
    n_antennas = stats.r_comp.shape[-1]
    some_est = next(iter(estimates.values()))
    n_real = some_est.shape[0]
    sizes = grouping.sizes
    v = _stack_estimates(estimates, plan, group, neighborhood, n_antennas, n_real)
    coef = group_power_w * sizes[neighborhood].astype(float) ** 2 / (tau_p * pilot_power_w)
    own_index = int(np.flatnonzero(neighborhood == group)[0])
    reg = ipmmse_regularizer(stats, plan, group, sizes, group_power_w, tau_p, pilot_power_w)
    lead = np.sqrt(group_power_w / (tau_p * pilot_power_w)) * sizes[group]
    return _ipmmse_solve(v, coef, own_index, reg, noise_w, lead)


def omega_factor(ap_norms: np.ndarray) -> float:
    """Spatial power concentration of a group's precoder across its APs.

    The largest per-AP fraction of the mean squared norm, a dimensionless
    load in (0, 1].
    """
    total = ap_norms.sum()
    if total <= 0:
        raise StatsError("precoder norms vanished; cannot form omega")
    return float(ap_norms.max() / total)


def fractional_power_centralized(
    trace_sums: np.ndarray,
    omega: np.ndarray,
    plan,
    dl_power_w: float,
    nu: float,
    kappa: float,
) -> np.ndarray:
    """Per-group downlink powers under the centralized fractional rule.

    ``trace_sums[g]`` is the composite covariance trace summed over the
    group's serving APs.  The denominator is the load of the group's busiest
    serving AP, which keeps every AP's expected radiated power within budget.
    """
    n_groups = trace_sums.shape[0]
    numer = dl_power_w * trace_sums**nu * omega ** (-kappa)
    rho = np.empty(n_groups)
    load = trace_sums**nu * omega ** (1.0 - kappa)
    ap_load = np.array(
        [load[served].sum() if served.size else 0.0 for served in plan.served]
    )
    for g in range(n_groups):
        rho[g] = numer[g] / ap_load[plan.serving[g]].max()
    return rho


def centralized_power(
    sq_norm_sums: list,
    count: int,
    stats,
    plan,
    dl_power_w: float,
    nu: float,
    kappa: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Power step of the centralized precoder: (power_scale, per_ap_power).

    ``sq_norm_sums[g]`` holds, per serving AP of group g, the squared norm of
    the group's precoding direction summed over ``count`` normalization
    realizations.  The transmit precoder is sqrt(power_scale[g]) times the
    direction, so its sample mean squared norm is the fractional power
    rho[g]; ``per_ap_power`` is the resulting mean radiated power per AP.
    """
    if count == 0:
        raise StatsError("cannot normalize over zero realizations")
    ap_norms = [s / count for s in sq_norm_sums]
    norms = np.array([a.sum() for a in ap_norms])
    omegas = np.array([omega_factor(a) for a in ap_norms])
    trace_sums = np.array(
        [stats.trace_r_comp[aps, g].sum() for g, aps in enumerate(plan.serving)]
    )
    rho = fractional_power_centralized(trace_sums, omegas, plan, dl_power_w, nu, kappa)
    per_ap_power = np.zeros(plan.n_aps)
    for g, aps in enumerate(plan.serving):
        per_ap_power[aps] += rho[g] * (ap_norms[g] / norms[g])
    return rho / norms, per_ap_power


# --- distributed conjugate beamforming --------------------------------------


def apa_power(trace_r_comp: np.ndarray, plan, dl_power_w: float, nu: float) -> np.ndarray:
    """Fractional per-AP power split across served groups, (L, G).

    Each AP divides its budget over the groups it serves in proportion to
    tr(r_comp)^nu; rows sum to the budget over served groups, zero elsewhere.
    """
    n_aps, n_groups = trace_r_comp.shape
    rho = np.zeros((n_aps, n_groups))
    for l in range(n_aps):
        served = plan.served[l]
        if served.size == 0:
            continue
        weights = trace_r_comp[l, served] ** nu
        rho[l, served] = dl_power_w * weights / weights.sum()
    return rho


def cb_precoders(estimates: dict, stats, plan, dl_power_w: float, nu: float) -> GroupPrecoders:
    """Conjugate beamforming from local estimates with closed-form scaling.

    Each serving AP transmits its own composite estimate normalized by the
    analytic mean squared norm tr(est_cov) and weighted by its fractional
    power share; no Monte Carlo normalization is involved.
    """
    rho = apa_power(stats.trace_r_comp, plan, dl_power_w, nu)
    est_norm = np.einsum("lgii->lg", stats.est_cov).real
    n_groups = plan.n_groups
    aps = [plan.serving[g] for g in range(n_groups)]
    blocks = []
    for g in range(n_groups):
        serving = plan.serving[g]
        some_est = estimates[(int(serving[0]), g)]
        w = np.empty((some_est.shape[0], serving.size, some_est.shape[1]), dtype=complex)
        for j, l in enumerate(serving):
            scale = np.sqrt(rho[l, g] / est_norm[l, g])
            w[:, j, :] = scale * estimates[(int(l), g)]
        blocks.append(w)
    return GroupPrecoders(aps=aps, blocks=blocks, power_scale=np.ones(n_groups))
