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
    """One service decision: the subgroup partition, the pilots and the serving relation.

    ``group_of[k]`` is MS k's group, ``pilot_of[g]`` group g's pilot and
    ``serving_mask[l, g]`` is True when AP l serves group g.  The served pairs
    are numbered in row-major order of the mask: pair p joins AP ``pair_ap[p]``
    to group ``pair_group[p]``, and ``pair_of[l, g]`` is that number, or P (one
    past the last pair) where l does not serve g.  Per-realization estimates and
    precoders are arrays over this pair axis.  Everything but the pilot count,
    the labels and the mask is derived from them on construction.
    """

    n_pilots: int
    group_of: np.ndarray  # (K,) group label per MS
    pilot_of: np.ndarray  # (G,) pilot label per group
    serving_mask: np.ndarray  # (L, G) bool
    members: list = field(init=False)  # per group: sorted MS indices
    sizes: np.ndarray = field(init=False)  # (G,) member counts
    pilot_ms: list = field(init=False)  # per pilot: its groups' members, group by group; empty if unused
    pair_ap: np.ndarray = field(init=False)  # (P,)
    pair_group: np.ndarray = field(init=False)  # (P,)
    pair_of: np.ndarray = field(init=False)  # (L, G), P where unserved
    serving: list = field(init=False)  # per group: sorted AP indices (L_g)
    s_set: list = field(init=False)  # per group: groups sharing at least one serving AP, itself included

    def __post_init__(self):
        self.group_of, self.members, self.sizes = _partition(self.group_of, self.n_groups)
        holders = (np.flatnonzero(self.pilot_of == t) for t in range(self.n_pilots))
        self.pilot_ms = [np.concatenate([self.members[g] for g in gs]) if gs.size else gs for gs in holders]
        mask = self.serving_mask
        self.pair_ap, self.pair_group = np.nonzero(mask)
        n_pairs = self.pair_ap.size
        self.pair_of = np.full(mask.shape, n_pairs)
        self.pair_of[self.pair_ap, self.pair_group] = np.arange(n_pairs)
        self.serving = [np.flatnonzero(col) for col in mask.T]
        dense = mask.astype(float)
        self.s_set = [np.flatnonzero(row) for row in dense.T @ dense]

    @property
    def n_groups(self) -> int:
        return self.pilot_of.shape[0]


def _partition(group_of, n_groups: int) -> tuple[np.ndarray, list, np.ndarray]:
    """Checked (K,) int labels in [0, n_groups), each group's sorted members and the (G,) sizes."""
    labels = np.asarray(group_of)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("group_of must be a non-empty 1-D label array")
    if labels.min() < 0 or labels.max() >= n_groups:
        raise ValueError("group labels out of range")
    labels = labels.astype(int)
    sizes = np.bincount(labels, minlength=n_groups)
    if np.any(sizes == 0):
        raise ValueError("every group must have at least one member")
    return labels, [np.flatnonzero(labels == g) for g in range(n_groups)], sizes


def _assign_pilots(sums, tau_p, masters):
    """Step 1: group g < tau_p takes pilot g, each later one the least loaded pilot at its strongest AP."""
    pilot_of = np.arange(sums.shape[1])
    load = np.zeros((sums.shape[0], tau_p))  # per (AP, pilot): the holders' summed gains
    for g in range(pilot_of.size):
        if g >= tau_p:
            pilot_of[g] = np.argmin(load[masters[g]])
        load[:, pilot_of[g]] += sums[:, g]
    return pilot_of


def _serve_strongest(gains, pilot_of, masters, tau_p):
    """Step 2: per pilot in use, each AP serves its strongest claimant, or the strongest group if none claims it."""
    n_aps, n_groups = gains.shape
    incumbent = np.full((n_aps, tau_p), -1, dtype=int)
    claims = masters == np.arange(n_aps)[:, None]  # (L, G): group g claims its strongest AP l
    for t in np.unique(pilot_of):
        cands = np.flatnonzero(pilot_of == t)
        pool = claims[:, cands]
        pool |= ~pool.any(axis=1, keepdims=True)
        incumbent[:, t] = cands[np.argmax(np.where(pool, gains[:, cands], -np.inf), axis=1)]
    return incumbent, np.bincount(incumbent[incumbent >= 0], minlength=n_groups)


def _serve_starved(gains, pilot_of, incumbent, counts):
    """Step 3: give every unserved group one AP by displacing a redundant incumbent."""
    locked: set[int] = set()
    queue = list(np.flatnonzero(counts == 0))
    while queue:
        g = queue.pop(0)
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


def assign_pilots_and_cluster(beta: np.ndarray, group_of: np.ndarray, tau_p: int) -> PilotPlan:
    """Run the joint pilot assignment and AP clustering for a partition.

    ``group_of`` labels each MS's group, 0 to G - 1.  Returns the plan of the
    partition, the pilot label per group and the serving mask, from which it
    derives the served pairs, the serving sets L_g, the per-pilot MS lists and
    the interference neighborhood (shared AP) sets.
    """
    if tau_p < 1:
        raise ValueError(f"tau_p must be at least 1, got {tau_p}")
    n_aps = beta.shape[0]
    _, members, sizes = _partition(group_of, int(np.max(group_of)) + 1)
    sums = np.stack([beta[:, m].sum(axis=1) for m in members], axis=1)
    gains = sums / sizes  # mean member gain per (AP, group)
    masters = np.argmax(gains, axis=0)
    pilot_of = _assign_pilots(sums, tau_p, masters)
    incumbent, counts = _serve_strongest(gains, pilot_of, masters, tau_p)
    incumbent, counts = _serve_starved(gains, pilot_of, incumbent, counts)

    mask = np.zeros((n_aps, sizes.size), dtype=bool)
    aps, slots = np.nonzero(incumbent >= 0)
    mask[aps, incumbent[aps, slots]] = True
    # a fallback double-up is the only way a group is served off the incumbent table
    doubled = np.flatnonzero((counts > 0) & ~mask.any(axis=0))
    mask[masters[doubled], doubled] = True
    return PilotPlan(n_pilots=tau_p, group_of=group_of, pilot_of=pilot_of, serving_mask=mask)
