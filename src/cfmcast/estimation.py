"""Composite channel statistics and MMSE estimation from shared pilots.

All members of a subgroup send the same pilot, so each AP observes (and each
serving AP estimates) the scaled sum of the member channels: the composite
channel.  Groups on the same pilot contaminate each other; the estimator folds
the whole cohort into the Gram matrix of the observation.  The estimator maps
come from one batched LU solve (``np.linalg.solve``) of the observation
covariance system, never from explicit inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


@dataclass
class CompositeStats:
    """Deterministic second-order statistics per (AP, group), all (L, G, N, N).

    ``r_comp``   covariance of the composite channel,
    ``gamma``    covariance of the pilot observation (cohort sum plus noise),
    ``est_cov``  covariance of the MMSE estimate,
    ``err_cov``  covariance of the estimation error; est_cov + err_cov = r_comp.
    ``estimator`` is the (L, G, N, N) linear map taking the pilot observation
    to the estimate.
    """

    r_comp: np.ndarray
    gamma: np.ndarray
    est_cov: np.ndarray
    err_cov: np.ndarray
    estimator: np.ndarray

    @property
    def trace_r_comp(self) -> np.ndarray:
        """tr(r_comp) per (AP, group), real (L, G)."""
        return np.einsum("lgii->lg", self.r_comp).real


def composite_covariance(
    r_cov: np.ndarray, members: np.ndarray, tau_p: int, pilot_power_w: float
) -> np.ndarray:
    """Covariance of one group's composite channel at every AP, (L, N, N)."""
    scale = tau_p * pilot_power_w / members.size**2
    return scale * r_cov[:, members].sum(axis=1)


def gamma_matrix(
    r_cov: np.ndarray, cohort_members: np.ndarray, tau_p: int, pilot_power_w: float, noise_w: float
) -> np.ndarray:
    """Covariance of the projected pilot observation at every AP, (L, N, N).

    ``cohort_members`` collects the MSs of every group sharing the pilot.
    """
    n_antennas = r_cov.shape[-1]
    acc = tau_p * pilot_power_w * r_cov[:, cohort_members].sum(axis=1)
    return acc + noise_w * np.eye(n_antennas)


def composite_stats(r_cov: np.ndarray, grouping, plan, tau_p: int, pilot_power_w: float, noise_w: float) -> CompositeStats:
    """Assemble all estimation statistics for a snapshot.

    Statistics are deterministic functions of the covariances and are computed
    for every (AP, group) pair; pilot observations and estimate realizations
    are later restricted to serving APs.
    """
    n_aps, _, n_antennas, _ = r_cov.shape
    n_groups = grouping.n_groups
    sizes = grouping.sizes
    r_comp = np.empty((n_aps, n_groups, n_antennas, n_antennas), dtype=complex)
    gamma = np.empty_like(r_comp)
    for g in range(n_groups):
        r_comp[:, g] = composite_covariance(r_cov, grouping.members[g], tau_p, pilot_power_w)
    for g in range(n_groups):
        cohort_members = np.concatenate([grouping.members[c] for c in plan.cohort[g]])
        gamma[:, g] = gamma_matrix(r_cov, cohort_members, tau_p, pilot_power_w, noise_w)
    # estimator = K_g * r_comp @ gamma^{-1}, via an LU solve of the transposed system
    try:
        solved = np.linalg.solve(np.swapaxes(gamma, -1, -2), np.swapaxes(r_comp, -1, -2))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"observation covariance solve failed: {exc}") from exc
    estimator = sizes[None, :, None, None] * np.swapaxes(solved, -1, -2)
    est_cov = sizes[None, :, None, None] * (estimator @ r_comp)
    est_cov = 0.5 * (est_cov + np.conj(np.swapaxes(est_cov, -1, -2)))
    err_cov = r_comp - est_cov
    return CompositeStats(r_comp=r_comp, gamma=gamma, est_cov=est_cov, err_cov=err_cov, estimator=estimator)


def project_pilots(
    channels: np.ndarray,
    grouping,
    plan,
    tau_p: int,
    pilot_power_w: float,
    noise_w: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pilot observations after despreading, (T, L, tau_p, N), from (T, K, L, N) channels.

    Entry [..., t, :] for a pilot in use is the scaled sum of the channels of
    every MS whose group holds that pilot, plus white noise; unused pilot
    slots stay zero and draw no noise.  The channels are added one MS at a
    time, in member order, into one (T, L, N) buffer, which gives the same
    floats as summing a gathered (T, |members|, L, N) copy over its MS axis.
    """
    n_real, _, n_aps, n_antennas = channels.shape
    y = np.zeros((n_real, n_aps, tau_p, n_antennas), dtype=complex)
    scale = np.sqrt(tau_p * pilot_power_w)
    noise_std = np.sqrt(noise_w / 2.0)
    for t in sorted(set(int(p) for p in plan.pilot_of)):
        on_pilot = np.concatenate(
            [grouping.members[c] for c in np.flatnonzero(plan.pilot_of == t)]
        )
        signal = channels[:, on_pilot[0]].copy()
        for k in on_pilot[1:]:
            signal += channels[:, k]
        signal *= scale
        noise = noise_std * (
            rng.standard_normal((n_real, n_aps, n_antennas))
            + 1j * rng.standard_normal((n_real, n_aps, n_antennas))
        )
        y[:, :, t, :] = signal + noise
    return y


def estimate_composites(y: np.ndarray, stats: CompositeStats, plan) -> np.ndarray:
    """Estimate every served composite channel for every realization.

    Returns (T, P + 1, N): row p is AP ``plan.pair_ap[p]``'s estimate of group
    ``plan.pair_group[p]``'s composite channel, and the trailing row is zero, so
    indexing through ``plan.pair_of`` reads zeros for unserved pairs.
    """
    n_real, _, _, n_antennas = y.shape
    obs = y[:, plan.pair_ap, plan.pilot_of[plan.pair_group]]  # (T, P, N)
    estimator = stats.estimator[plan.pair_ap, plan.pair_group]  # (P, N, N)
    out = np.zeros((n_real, plan.pair_ap.size + 1, n_antennas), dtype=complex)
    out[:, :-1] = np.swapaxes(np.swapaxes(obs, 0, 1) @ np.swapaxes(estimator, -1, -2), 0, 1)
    return out
