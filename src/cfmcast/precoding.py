"""Multicast precoders: centralized improved partial MMSE (IP-MMSE) and
distributed conjugate beamforming (CB).

Precoder realizations use the plan's served-pair layout: a (T, P, N) array
whose row p is the part of group ``plan.pair_group[p]``'s precoder transmitted
by AP ``plan.pair_ap[p]``.  The centralized precoder regularizes each group's
composite estimate against the estimates of its interference neighborhood S_g
(the groups sharing a serving AP) and a deterministic regularizer: per
serving AP, the error covariances r_comp - est_cov of S_g and the full
composite covariances of every other group, weighted by their virtual powers,
plus noise.  That is one full-load table built once per call, noise plus every
group's weighted r_comp per AP, minus the weighted est_cov of S_g.  Each
realization's system matrix is block diagonal plus rank |S_g|, solved in its
smaller dimension: as a dense n x n system when the serving dimension
n = |L_g| N is at most |S_g|, by the Woodbury identity in |S_g| dimensions
otherwise.
``ipmmse_direction`` returns one group's unnormalized directions and
``ipmmse_directions`` lays every group's out over the served pairs; the caller
sums their squared norms per served pair into an (L, G) table, which
``centralized_power`` turns into the per-group scale and per-AP radiated power
under the centralized fractional rule.  The distributed precoder scales each
serving AP's own estimate with a closed-form normalization and a per-AP
fractional split.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, StatsError


# --- centralized IP-MMSE ----------------------------------------------------


def _ipmmse_solve(v, coef, own_index, d_blocks, lead_scale):
    """Solve the regularized system for each realization in its smaller dimension.

    ``v`` is (T, C, n) and ``d_blocks`` the (|L_g|, N, N) diagonal blocks of
    D, regularizer plus noise.  The system matrix is D + X diag(coef) X^H
    with X = v^T (n, C).  When n <= C the dense (n, n) matrix is formed and
    solved against the own column directly.  Otherwise D is inverted once per
    call and, with Y = D^-1 X and K = X^H Y, the Woodbury identity gives the
    solution Y_own - Y (diag(1/coef) + K)^-1 K_own: one (C, C) solve per
    realization.
    """
    n_aps, n_ant = d_blocks.shape[:2]
    n_nbr, n = v.shape[1:]
    try:
        if n <= n_nbr:
            d = np.zeros((n_aps, n_ant, n_aps, n_ant), dtype=d_blocks.dtype)
            d[np.arange(n_aps), :, np.arange(n_aps)] = d_blocks
            a = (v.transpose(0, 2, 1) * coef) @ np.conj(v) + d.reshape(n, n)
            out = np.linalg.solve(a, v[:, own_index, :, None])[..., 0]
        else:
            d_inv = np.linalg.inv(d_blocks)
            # one (N, N) @ (N, T * C) product per serving AP, then back to (T, n, C)
            y = d_inv @ v.reshape(-1, n_aps, n_ant).transpose(1, 2, 0)
            y = y.reshape(-1, *v.shape[:2]).transpose(1, 0, 2)
            k = np.conj(v) @ y
            s = np.linalg.solve(k + np.diag(1.0 / coef), k[:, :, own_index, None])
            out = y[:, :, own_index] - (y @ s)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"precoder system solve failed: {exc}") from exc
    out = lead_scale * out
    if not np.all(np.isfinite(out)):
        raise NumericalError("precoder direction is not finite")
    return out


def ipmmse_direction(
    estimates: np.ndarray,
    stats,
    plan,
    coef: np.ndarray,
    group: int,
    loaded: np.ndarray,
    lead: float,
) -> np.ndarray:
    """Unnormalized centralized precoding directions for one group, (T, n).

    ``estimates`` is the (T, P + 1, N) output of ``estimate_composites``;
    ``n`` stacks the group's serving APs times the antennas per AP.  ``coef``
    is every group's (G,) virtual-power weight, ``loaded`` the (L, N, N)
    full-load table of ``ipmmse_directions`` and ``lead`` the group's scale.
    """
    neighborhood = plan.s_set[group]
    aps = plan.serving[group]
    # (T, C, |L_g| * N); a neighbor that an AP does not serve reads the zero row
    idx = plan.pair_of[np.ix_(aps, neighborhood)].T
    v = np.take(estimates, idx.ravel(), axis=1).reshape(estimates.shape[0], neighborhood.size, -1)
    own_index = int(np.flatnonzero(neighborhood == group)[0])
    # the neighborhood's terms of the full load drop to their error covariance
    d_blocks = loaded[aps] - np.einsum(
        "c,lcab->lab", coef[neighborhood], stats.est_cov[np.ix_(aps, neighborhood)]
    )
    return _ipmmse_solve(v, coef[neighborhood], own_index, d_blocks, lead)


def ipmmse_directions(
    estimates: np.ndarray, stats, plan, grouping, group_power_w, tau_p, pilot_power_w, noise_w
) -> np.ndarray:
    """Unnormalized centralized directions of every group over the served pairs, (T, P, N)."""
    n_real, _, n_ant = estimates.shape
    sizes = grouping.sizes.astype(float)
    coef = group_power_w * sizes**2 / (tau_p * pilot_power_w)
    loaded = noise_w * np.eye(n_ant) + np.einsum("g,lgab->lab", coef, stats.r_comp)
    leads = np.sqrt(group_power_w / (tau_p * pilot_power_w)) * sizes
    w = np.empty((n_real, plan.pair_ap.size, n_ant), dtype=complex)
    for g, aps in enumerate(plan.serving):
        w[:, plan.pair_of[aps, g]] = ipmmse_direction(
            estimates, stats, plan, coef, g, loaded, leads[g]
        ).reshape(n_real, aps.size, n_ant)
    return w


def omega_factor(ap_norms: np.ndarray) -> np.ndarray:
    """Spatial power concentration of each group's precoder across its APs.

    ``ap_norms`` holds mean squared norms per AP along axis 0 (zero where an AP
    does not serve the group); the result is the largest per-AP fraction, a
    dimensionless load in (0, 1], per column.
    """
    total = ap_norms.sum(axis=0)
    if np.any(total <= 0):
        raise StatsError("precoder norms vanished; cannot form omega")
    return ap_norms.max(axis=0) / total


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
    mask = plan.serving_mask
    load = trace_sums**nu * omega ** (1.0 - kappa)
    ap_load = np.where(mask, load, 0.0).sum(axis=1)
    busiest = np.where(mask, ap_load[:, None], 0.0).max(axis=0)
    return dl_power_w * trace_sums**nu * omega ** (-kappa) / busiest


def centralized_power(
    sq_norm_sums: np.ndarray,
    count: int,
    stats,
    plan,
    dl_power_w: float,
    nu: float,
    kappa: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Power step of the centralized precoder: (power_scale, per_ap_power).

    ``sq_norm_sums[l, g]`` is the squared norm of AP l's part of group g's
    precoding direction summed over ``count`` normalization realizations,
    zero where l does not serve g.  The transmit precoder is
    sqrt(power_scale[g]) times the direction, so its sample mean squared norm
    is the fractional power rho[g]; ``per_ap_power`` is the resulting mean
    radiated power per AP.
    """
    if count == 0:
        raise StatsError("cannot normalize over zero realizations")
    ap_norms = sq_norm_sums / count
    omegas = omega_factor(ap_norms)
    norms = ap_norms.sum(axis=0)
    trace_sums = np.where(plan.serving_mask, stats.trace_r_comp, 0.0).sum(axis=0)
    rho = fractional_power_centralized(trace_sums, omegas, plan, dl_power_w, nu, kappa)
    power_scale = rho / norms
    return power_scale, ap_norms @ power_scale


# --- distributed conjugate beamforming --------------------------------------


def apa_power(trace_r_comp: np.ndarray, plan, dl_power_w: float, nu: float) -> np.ndarray:
    """Fractional per-AP power split across served groups, (L, G).

    Each AP divides its budget over the groups it serves in proportion to
    tr(r_comp)^nu; rows sum to the budget over served groups, zero elsewhere.
    """
    weights = np.where(plan.serving_mask, trace_r_comp**nu, 0.0)
    totals = weights.sum(axis=1, keepdims=True)
    return dl_power_w * weights / np.where(totals > 0, totals, 1.0)


def cb_precoders(estimates: np.ndarray, stats, plan, dl_power_w: float, nu: float) -> np.ndarray:
    """Conjugate beamforming from local estimates with closed-form scaling, (T, P, N).

    Each serving AP transmits its own composite estimate normalized by the
    analytic mean squared norm tr(est_cov) and weighted by its fractional
    power share; no Monte Carlo normalization is involved, so the transmit
    precoder needs no further scale.
    """
    pairs = (plan.pair_ap, plan.pair_group)
    rho = apa_power(stats.trace_r_comp, plan, dl_power_w, nu)[pairs]
    est_norm = np.einsum("lgii->lg", stats.est_cov).real[pairs]
    return np.sqrt(rho / est_norm)[:, None] * estimates[:, :-1]
