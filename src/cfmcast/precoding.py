"""Multicast precoders: centralized improved partial MMSE (IP-MMSE) and
distributed conjugate beamforming (CB).

Precoder realizations use the estimates' served-pair layout: a (T, P + 1, N)
array whose row p is the part of group ``plan.pair_group[p]``'s precoder
transmitted by AP ``plan.pair_ap[p]``, and whose last row, the one
``plan.pair_of`` points unserved pairs to, is zero.  The centralized precoder
regularizes each group's composite estimate against the estimates of its
interference neighborhood S_g (the groups sharing a serving AP) and a
deterministic regularizer: per serving AP, the error covariances
r_comp - est_cov of S_g and the full composite covariances of every other
group, weighted by their virtual powers, plus noise.  That is one full-load
table built once per call, noise plus every group's weighted r_comp per AP,
minus the weighted est_cov of S_g.  Each realization's system matrix is block
diagonal plus rank |S_g|, solved in its smaller dimension: as a dense n x n
system when the serving dimension n = |L_g| N is at most |S_g|, by the
Woodbury identity in |S_g| dimensions otherwise.
``ipmmse_direction`` returns one group's unnormalized directions and
``ipmmse_directions`` lays every group's out over the served pairs; the caller
sums their squared norms per served pair, the rows ``[:-1]``, and
``centralized_power`` turns these sums, in one pass, into each group's
concentration omega, the centralized fractional powers, the per-group scale
and the per-AP radiated power.  The distributed precoder scales each serving
AP's own estimate with a closed-form normalization and a per-AP fractional
split.
"""

from __future__ import annotations

import numpy as np

from .config import DL_POWER_W, GROUP_POWER_W, KAPPA, NOISE_W, NU, PILOT_POWER_W
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
    realization.  The Woodbury branch conjugates ``v`` in place, overwriting it.
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
            k = np.conj(v, out=v) @ y
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


def ipmmse_directions(estimates: np.ndarray, stats, plan) -> np.ndarray:
    """Unnormalized centralized directions of every group over the served pairs, (T, P + 1, N).

    The virtual group powers scale with GROUP_POWER_W over the pilot energy
    tau_p * PILOT_POWER_W, tau_p being the plan's pilot count.
    """
    n_real, _, n_ant = estimates.shape
    sizes = plan.sizes.astype(float)
    coef = GROUP_POWER_W * sizes**2 / (plan.n_pilots * PILOT_POWER_W)
    loaded = NOISE_W * np.eye(n_ant) + np.einsum("g,lgab->lab", coef, stats.r_comp)
    leads = np.sqrt(GROUP_POWER_W / (plan.n_pilots * PILOT_POWER_W)) * sizes
    w = np.zeros((n_real, plan.pair_ap.size + 1, n_ant), dtype=complex)
    for g, aps in enumerate(plan.serving):
        w[:, plan.pair_of[aps, g]] = ipmmse_direction(
            estimates, stats, plan, coef, g, loaded, leads[g]
        ).reshape(n_real, aps.size, n_ant)
    return w


def centralized_power(pair_sq_norms: np.ndarray, count: int, stats, plan) -> tuple[np.ndarray, np.ndarray]:
    """Power step of the centralized precoder: (power_scale, per_ap_power).

    ``pair_sq_norms[p]`` is the squared norm of AP ``plan.pair_ap[p]``'s part
    of group ``plan.pair_group[p]``'s precoding direction summed over
    ``count`` normalization realizations.  The transmit precoder is
    sqrt(power_scale[g]) times the direction, so its sample mean squared norm
    is the fractional power rho[g]; ``per_ap_power`` is the resulting mean
    radiated power per AP.

    The fractional rule, with nu = NU["ipmmse"] and KAPPA: omega[g] in (0, 1]
    is the largest per-AP share of group g's mean squared norm and t[g] its
    composite covariance trace summed over its serving APs; each AP's load
    sums t^nu * omega^(1 - kappa) over its groups, and rho[g] is DL_POWER_W *
    t[g]^nu * omega[g]^-kappa over the load of g's busiest serving AP, which
    keeps every AP's expected radiated power within budget.  Raises
    StatsError when a group's norms vanish, NumericalError when a busiest
    load is zero or a power is not finite (t**nu underflowed or overflowed).
    """
    if count == 0:
        raise StatsError("cannot normalize over zero realizations")
    mask, nu = plan.serving_mask, NU["ipmmse"]
    ap_norms = np.zeros(mask.shape)
    ap_norms[plan.pair_ap, plan.pair_group] = pair_sq_norms / count
    norms = ap_norms.sum(axis=0)
    if np.any(norms <= 0):
        raise StatsError("precoder norms vanished; cannot form omega")
    omega = ap_norms.max(axis=0) / norms
    weights = np.where(mask, stats.trace_r_comp, 0.0).sum(axis=0) ** nu
    load = weights * omega ** (1.0 - KAPPA)
    ap_load = np.where(mask, load, 0.0).sum(axis=1)
    busiest = np.where(mask, ap_load[:, None], 0.0).max(axis=0)
    power = DL_POWER_W * weights * omega ** (-KAPPA)
    if np.any(busiest <= 0) or not np.all(np.isfinite(power)):
        raise NumericalError(f"fractional powers are not finite (nu = {nu}, kappa = {KAPPA})")
    power_scale = power / busiest / norms
    return power_scale, ap_norms @ power_scale


# --- distributed conjugate beamforming --------------------------------------


def apa_power(trace_r_comp: np.ndarray, plan) -> np.ndarray:
    """Fractional per-AP power split across served groups, (L, G).

    Each AP divides its budget DL_POWER_W over the groups it serves in
    proportion to tr(r_comp)^nu, nu = NU["cb"]; rows sum to the budget over
    served groups, zero elsewhere.  Every AP serves at least one group, so a zero or non-finite row total
    means tr(r_comp)^nu underflowed or overflowed: NumericalError.
    """
    nu = NU["cb"]
    weights = np.where(plan.serving_mask, trace_r_comp**nu, 0.0)
    totals = weights.sum(axis=1, keepdims=True)
    if np.any(totals <= 0) or not np.all(np.isfinite(totals)):
        raise NumericalError(f"fractional power split is not finite (nu = {nu})")
    return DL_POWER_W * weights / totals


def cb_precoders(estimates: np.ndarray, stats, plan) -> np.ndarray:
    """Conjugate beamforming from local estimates with closed-form scaling, (T, P + 1, N).

    Each serving AP transmits its own composite estimate normalized by the
    analytic mean squared norm tr(est_cov) and weighted by its fractional
    power share; no Monte Carlo normalization is involved, so the transmit
    precoder needs no further scale.
    """
    pairs = (plan.pair_ap, plan.pair_group)
    rho = apa_power(stats.trace_r_comp, plan)[pairs]
    est_norm = np.einsum("lgii->lg", stats.est_cov).real[pairs]
    # the estimates' zero last row stays zero
    return np.append(np.sqrt(rho / est_norm), 0.0)[:, None] * estimates
