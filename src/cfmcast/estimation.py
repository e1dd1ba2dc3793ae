"""Composite channel statistics and MMSE estimation from shared pilots.

All members of a subgroup send the same pilot, so each serving AP estimates
the scaled sum of the member channels: the composite channel.  Subgroups share
pilots, so each AP observes one signal per pilot, the sum over every MS on it:
the observation and its covariance Γ are keyed by (AP, pilot), and a group's
estimator reads the Γ of its pilot.  The estimator maps come from one batched
LU solve (``np.linalg.solve``) of the observation covariance system, never
from explicit inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .pilots import pilot_members


@dataclass
class CompositeStats:
    """Deterministic second-order statistics per (AP, group), (L, G, N, N), but Γ.

    ``r_comp``   covariance of the composite channel,
    ``gamma``    (L, tau_p, N, N) covariance of the observation of each (AP, pilot):
                 the scaled sum over the pilot's MSs plus noise, noise alone on
                 a pilot no group holds; group g reads ``gamma[:, pilot_of[g]]``,
    ``est_cov``  covariance of the MMSE estimate; r_comp - est_cov is the
                 covariance of the estimation error.
    ``estimator`` is the (L, G, N, N) linear map taking the pilot observation
    to the estimate.
    """

    r_comp: np.ndarray
    gamma: np.ndarray
    est_cov: np.ndarray
    estimator: np.ndarray

    @property
    def trace_r_comp(self) -> np.ndarray:
        """tr(r_comp) per (AP, group), real (L, G)."""
        return np.einsum("lgii->lg", self.r_comp).real


def composite_stats(r_cov: np.ndarray, grouping, plan, tau_p: int, pilot_power_w: float, noise_w: float) -> CompositeStats:
    """Assemble all estimation statistics for a snapshot.

    Statistics are deterministic functions of the covariances and are computed
    for every (AP, group) or (AP, pilot) pair; pilot observations and estimate
    realizations are later restricted to serving APs.
    """
    n_aps, _, n_antennas, _ = r_cov.shape
    sizes = grouping.sizes
    r_comp = np.empty((n_aps, grouping.n_groups, n_antennas, n_antennas), dtype=complex)
    for g, members in enumerate(grouping.members):
        r_comp[:, g] = (tau_p * pilot_power_w / members.size**2) * r_cov[:, members].sum(axis=1)
    noise = noise_w * np.eye(n_antennas)
    # an unused pilot observes noise alone; its entry is never read
    gamma = np.broadcast_to(noise, (n_aps, plan.n_pilots, n_antennas, n_antennas)).astype(complex)
    for t, on_pilot in pilot_members(grouping, plan):
        gamma[:, t] = tau_p * pilot_power_w * r_cov[:, on_pilot].sum(axis=1) + noise
    # estimator = K_g * r_comp @ gamma^{-1}, via an LU solve of the transposed system
    try:
        solved = np.linalg.solve(
            np.swapaxes(gamma[:, plan.pilot_of], -1, -2), np.swapaxes(r_comp, -1, -2)
        )
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"observation covariance solve failed: {exc}") from exc
    estimator = sizes[None, :, None, None] * np.swapaxes(solved, -1, -2)
    est_cov = sizes[None, :, None, None] * (estimator @ r_comp)
    est_cov = 0.5 * (est_cov + np.conj(np.swapaxes(est_cov, -1, -2)))
    return CompositeStats(r_comp=r_comp, gamma=gamma, est_cov=est_cov, estimator=estimator)


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
    every MS whose group holds that pilot, plus white noise.  An unused pilot
    slot stays zero and draws no noise, so ``rng`` is read in pilot order over
    the pilots in use alone.  The channels are added one MS at a time, in
    ``pilots.pilot_members`` order, into one (T, L, N) buffer, which gives the
    same floats as summing a gathered (T, |members|, L, N) copy over its MS
    axis.
    """
    n_real, _, n_aps, n_antennas = channels.shape
    y = np.zeros((n_real, n_aps, tau_p, n_antennas), dtype=complex)
    scale = np.sqrt(tau_p * pilot_power_w)
    noise_std = np.sqrt(noise_w / 2.0)
    for t, on_pilot in pilot_members(grouping, plan):
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
