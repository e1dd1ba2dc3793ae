"""Multicast precoders: centralized improved partial MMSE (IP-MMSE) and
distributed conjugate beamforming (CB).

Precoder realizations use the plan's served-pair layout: a (T, P, N) array
whose row p is the part of group ``plan.pair_group[p]``'s precoder transmitted
by AP ``plan.pair_ap[p]``.  The centralized precoder regularizes each group's
composite channel estimate against the estimates of the groups it shares
serving APs with (its interference neighborhood), the estimation error
covariances of that neighborhood and the full covariances of everyone else,
all restricted to the group's serving APs.  ``ipmmse_direction`` returns one
group's unnormalized directions; the caller accumulates their squared norms
per served pair over the normalization realizations into an (L, G) table, and
``centralized_power`` turns that table into the per-group scale and the per-AP
radiated power under the centralized fractional rule, normalized by the
worst-loaded serving AP.  The distributed precoder scales each serving AP's
own estimate with a closed-form normalization and a per-AP fractional split.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, StatsError


# --- centralized IP-MMSE ----------------------------------------------------


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
    estimates: np.ndarray,
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

    ``estimates`` is the (T, P + 1, N) output of ``estimate_composites``;
    ``n`` stacks the group's serving APs times the antennas per AP.
    """
    neighborhood = plan.s_set[group]
    sizes = grouping.sizes
    # (T, C, |L_g| * N); a neighbor that an AP does not serve reads the zero row
    v = estimates[:, plan.pair_of[np.ix_(plan.serving[group], neighborhood)].T]
    v = v.reshape(v.shape[0], neighborhood.size, -1)
    coef = group_power_w * sizes[neighborhood].astype(float) ** 2 / (tau_p * pilot_power_w)
    own_index = int(np.flatnonzero(neighborhood == group)[0])
    reg = ipmmse_regularizer(stats, plan, group, sizes, group_power_w, tau_p, pilot_power_w)
    lead = np.sqrt(group_power_w / (tau_p * pilot_power_w)) * sizes[group]
    return _ipmmse_solve(v, coef, own_index, reg, noise_w, lead)


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
