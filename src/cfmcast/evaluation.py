"""Effective SINR and spectral efficiency via the channel hardening bound.

For each MS the useful power is the squared mean (over channel realizations)
of its received inner product with its own group's precoder; everything else
(beamforming gain uncertainty, inter-group interference, noise) is treated as
interference.  A group's multicast SE is the minimum over its members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NOISE_W, TAU_C
from .errors import NumericalError, StatsError

# SinrAccumulator.update works through a chunk a slab of realizations at a
# time; a slab's dense precoder block (t, L·N, G) and its products (t, K, G)
# hold at most BLOCK_ELEMENTS entries each
BLOCK_ELEMENTS = 1 << 18


@dataclass
class SeReport:
    """Per-snapshot SINR/SE results plus diagnostics."""

    sinr: np.ndarray  # (K,)
    se_user: np.ndarray  # (K,)
    se_group: np.ndarray  # (G,)
    sum_se_per_user: float  # per served user: group SEs weighted by group size
    sum_se_per_group: float  # per stream: group SEs summed
    clamped: int  # non-positive SINR denominators replaced by the noise floor


class SinrAccumulator:
    """Streams realization chunks into the hardening-bound moment estimates.

    Accumulates, per (MS, group), the mean received inner product and mean
    squared magnitude with the *unscaled* precoders; the per-group power
    scaling enters once at finalize time since it multiplies both moments
    linearly.
    """

    def __init__(self, n_ms: int, n_groups: int):
        self.sum_a = np.zeros((n_ms, n_groups), dtype=complex)
        self.sum_a2 = np.zeros((n_ms, n_groups))
        self.count = 0

    def update(self, channels: np.ndarray, precoders: np.ndarray, plan) -> None:
        """Add one chunk of matched (T, K, L, N) channel and (T, P + 1, N) precoder realizations.

        Per slab of realizations, the conjugated precoders fill a dense
        (t, L, N, G) block through plan.pair_of, whose unserved pairs read the
        precoders' zero last row, so one batched matmul with the channels
        viewed without a copy as (t, K, L·N) gives conj(h_kᴴ w_g).  Slabs hold
        at most BLOCK_ELEMENTS entries, at least one realization, so no
        temporary grows with T.
        """
        n_real, n_ms, n_aps, n_ant = channels.shape
        flat = channels.reshape(n_real, n_ms, -1)
        antennas = np.arange(n_ant)[:, None]
        step = max(1, BLOCK_ELEMENTS // (max(n_aps * n_ant, n_ms) * plan.n_groups))
        for t0 in range(0, n_real, step):
            w = np.conj(precoders[t0 : t0 + step])
            block = w[:, plan.pair_of[:, None, :], antennas]  # (t, L, N, G)
            a_conj = flat[t0 : t0 + step] @ block.reshape(len(w), n_aps * n_ant, -1)
            self.sum_a += np.conj(a_conj.sum(axis=0))
            self.sum_a2 += np.sum(np.abs(a_conj) ** 2, axis=0)
        self.count += n_real

    def finalize(self, power_scale: np.ndarray, group_of: np.ndarray):
        """Return (desired power, total received power, sinr, clamp count).

        Raises NumericalError when an SINR is not finite.
        """
        if self.count == 0:
            raise StatsError("no realizations accumulated")
        mean_a = self.sum_a / self.count
        mean_a2 = self.sum_a2 / self.count
        n_ms = mean_a.shape[0]
        own = group_of
        desired = power_scale[own] * np.abs(mean_a[np.arange(n_ms), own]) ** 2
        total = mean_a2 @ power_scale
        denom = total - desired + NOISE_W
        clamped = int(np.sum(denom <= 0))
        denom = np.where(denom <= 0, NOISE_W, denom)
        sinr = desired / denom
        if not np.all(np.isfinite(sinr)):
            raise NumericalError("SINR is not finite")
        return desired, total, sinr, clamped


def se_user(sinr: np.ndarray, tau_p: int) -> np.ndarray:
    """Downlink SE per MS in bit/s/Hz; the pilot overhead uses the configured
    pilot length regardless of how many pilots a snapshot actually uses."""
    prelog = 1.0 - tau_p / TAU_C
    return prelog * np.log2(1.0 + sinr)


def se_group(se_users: np.ndarray, members: list) -> np.ndarray:
    """Multicast SE per group: the weakest member sets the rate."""
    return np.array([se_users[m].min() for m in members])


def build_report(sinr: np.ndarray, clamped: int, plan) -> SeReport:
    """Per-MS and per-group SEs of a snapshot; the prelog reads tau_p from the plan's pilot count."""
    users = se_user(sinr, plan.n_pilots)
    groups = se_group(users, plan.members)
    return SeReport(
        sinr=sinr,
        se_user=users,
        se_group=groups,
        sum_se_per_user=float(np.sum(plan.sizes * groups)),
        sum_se_per_group=float(np.sum(groups)),
        clamped=clamped,
    )
