"""Pilot assignment and dynamic cooperation clustering for subgroups.

Groups are assigned pilots greedily: the first tau_p groups get orthogonal
pilots, later groups take the pilot with the least accumulated member gain
(pilot interference) at their strongest AP.  Each AP then serves, per pilot in
use, the strongest group on that pilot, with two refinements that keep the
plan well-formed:

* an AP that is some group's strongest AP prefers that group on its pilot, and
* a group left unserved takes its best AP from an incumbent that keeps at
  least one other AP (no group is starved, no AP exceeds one group per pilot).

The fallback of simply stapling an unserved group onto its strongest AP would
overload that AP's pilot, so the reassignment above is used instead; only a
pilot shared by more than L groups can force an overload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PilotPlan:
    """Pilot labels, the serving relation and the served-pair layout.

    ``serving_mask[l, g]`` is True when AP l serves group g.  The served pairs
    are numbered in row-major order of the mask: pair p joins AP ``pair_ap[p]``
    to group ``pair_group[p]``, and ``pair_of[l, g]`` is that number, or P (one
    past the last pair) where l does not serve g.  Per-realization estimates and
    precoders are arrays over this pair axis.  Everything but the pilot count
    and labels, the mask and the anchor APs is derived from them on construction.
    """

    n_pilots: int
    pilot_of: np.ndarray  # (G,) pilot label per group
    serving_mask: np.ndarray  # (L, G) bool
    master_ap: np.ndarray  # (G,) strongest serving AP per group
    pair_ap: np.ndarray = field(init=False)  # (P,)
    pair_group: np.ndarray = field(init=False)  # (P,)
    pair_of: np.ndarray = field(init=False)  # (L, G), P where unserved
    serving: list = field(init=False)  # per group: sorted AP indices (L_g)
    served: list = field(init=False)  # per AP: sorted group indices (D_l)
    on_pilot: list = field(init=False)  # per pilot: sorted groups holding it, empty if unused
    s_set: list = field(init=False)  # per group: groups sharing at least one serving AP, itself included

    def __post_init__(self):
        mask = self.serving_mask
        self.pair_ap, self.pair_group = np.nonzero(mask)
        n_pairs = self.pair_ap.size
        self.pair_of = np.full(mask.shape, n_pairs)
        self.pair_of[self.pair_ap, self.pair_group] = np.arange(n_pairs)
        self.serving = [np.flatnonzero(col) for col in mask.T]
        self.served = [np.flatnonzero(row) for row in mask]
        self.on_pilot = [np.flatnonzero(self.pilot_of == t) for t in range(self.n_pilots)]
        dense = mask.astype(float)
        self.s_set = [np.flatnonzero(row) for row in dense.T @ dense]

    @property
    def n_groups(self) -> int:
        return self.pilot_of.shape[0]

    @property
    def n_aps(self) -> int:
        return self.serving_mask.shape[0]


def group_gains(beta: np.ndarray, grouping) -> np.ndarray:
    """Mean member gain per (AP, group), shape (L, G)."""
    return np.stack([beta[:, m].mean(axis=1) for m in grouping.members], axis=1)


def pilot_interference(sums: np.ndarray, pilot_of: np.ndarray, tau_p: int) -> np.ndarray:
    """Summed member gains at one AP of the groups holding each pilot, shape (tau_p,).

    ``sums`` and ``pilot_of`` give each group that holds a pilot its summed
    member gain at the AP and its pilot label.
    """
    return np.bincount(pilot_of, weights=sums, minlength=tau_p)


def pilot_members(grouping, plan):
    """Yield (t, MSs of the groups in ``plan.on_pilot[t]``, group by group) per pilot in use."""
    for t, groups in enumerate(plan.on_pilot):
        if groups.size:
            yield t, np.concatenate([grouping.members[g] for g in groups])


def _assign_pilots(beta, grouping, tau_p, masters):
    n_groups = grouping.n_groups
    sums = np.stack([beta[:, m].sum(axis=1) for m in grouping.members], axis=1)
    pilot_of = np.full(n_groups, -1, dtype=int)
    for g in range(n_groups):
        if g < tau_p:
            pilot_of[g] = g
            continue
        interference = pilot_interference(sums[masters[g], :g], pilot_of[:g], tau_p)
        pilot_of[g] = int(np.argmin(interference))
    return pilot_of


def _serve_strongest(gains, pilot_of, masters, tau_p):
    """Step 2: per AP and per pilot in use, pick one group to serve."""
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


def _serve_starved(gains, pilot_of, masters, incumbent, counts):
    """Step 3: give every unserved group one AP by displacing a redundant incumbent."""
    locked: set[int] = set()
    queue = list(np.flatnonzero(counts == 0))
    while queue:
        g = queue.pop(0)
        if counts[g] > 0:
            continue
        t = pilot_of[g]
        order = np.argsort(-gains[:, g], kind="stable")
        target = next(
            (l for l in order if counts[incumbent[l, t]] >= 2 and incumbent[l, t] not in locked),
            None,
        )
        if target is None:
            target = next((l for l in order if incumbent[l, t] not in locked), None)
        if target is None:
            # more than n_aps groups share this pilot: double up on the strongest AP
            counts[g] += 1
            locked.add(g)
            continue
        evicted = incumbent[target, t]
        incumbent[target, t] = g
        counts[evicted] -= 1
        counts[g] += 1
        locked.add(g)
        if counts[evicted] == 0:
            queue.append(int(evicted))
    return incumbent, counts


def assign_pilots_and_cluster(beta: np.ndarray, grouping, tau_p: int) -> PilotPlan:
    """Run the joint pilot assignment and AP clustering for a partition.

    Returns the serving mask and the pilot label and strongest serving AP per
    group; the plan derives the served pairs, the serving sets L_g and served
    sets D_l, and the per-pilot group lists and interference neighborhood
    (shared AP) sets from them.
    """
    if tau_p < 1:
        raise ValueError(f"tau_p must be at least 1, got {tau_p}")
    n_aps = beta.shape[0]
    gains = group_gains(beta, grouping)
    masters = np.argmax(gains, axis=0)
    pilot_of = _assign_pilots(beta, grouping, tau_p, masters)
    incumbent, counts = _serve_strongest(gains, pilot_of, masters, tau_p)
    incumbent, counts = _serve_starved(gains, pilot_of, masters, incumbent, counts)

    mask = np.zeros((n_aps, grouping.n_groups), dtype=bool)
    aps, slots = np.nonzero(incumbent >= 0)
    mask[aps, incumbent[aps, slots]] = True
    # a fallback double-up is the only way a group is served off the incumbent table
    doubled = np.flatnonzero((counts > 0) & ~mask.any(axis=0))
    mask[masters[doubled], doubled] = True
    master_ap = np.argmax(np.where(mask, gains, -np.inf), axis=0)
    return PilotPlan(n_pilots=tau_p, pilot_of=pilot_of, serving_mask=mask, master_ap=master_ap)
