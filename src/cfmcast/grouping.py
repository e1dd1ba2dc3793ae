"""Partitioning of MSs into multicast subgroups.

Subgrouping clusters the users' large-scale fading fingerprints (the per-AP
channel gains in dB) with Lloyd's k-means, so users that look alike from the
infrastructure's point of view share one precoded stream.  The group count
alone sets the service: one group is single multicast, one per MS unicast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KMEANS_RESTARTS = 10
KMEANS_MAX_ITERS = 100


@dataclass
class GroupAssignment:
    """Partition of the K MSs into G non-empty groups."""

    group_of: np.ndarray  # (K,) labels in [0, G)
    n_groups: int
    members: list = field(init=False)
    sizes: np.ndarray = field(init=False)  # (G,) member counts

    def __post_init__(self):
        labels = np.asarray(self.group_of)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("group_of must be a non-empty 1-D label array")
        if labels.min() < 0 or labels.max() >= self.n_groups:
            raise ValueError("group labels out of range")
        self.group_of = labels.astype(int)
        self.members = [np.flatnonzero(self.group_of == g) for g in range(self.n_groups)]
        self.sizes = np.bincount(self.group_of, minlength=self.n_groups)
        if np.any(self.sizes == 0):
            raise ValueError("every group must have at least one member")


def db_fingerprints(beta: np.ndarray) -> np.ndarray:
    """Per-MS feature vectors: the (L,) gain profile in dB, shape (K, L)."""
    return 10.0 * np.log10(beta).T


def _seed_centroids(features, n_groups, rng):
    """k-means++ seeding: spread initial centroids by squared distance."""
    n = features.shape[0]
    chosen = np.empty(n_groups, dtype=int)
    chosen[0] = rng.integers(n)
    dist2 = np.sum((features - features[chosen[0]]) ** 2, axis=1)
    for j in range(1, n_groups):
        total = dist2.sum()
        if total > 0:
            chosen[j] = rng.choice(n, p=dist2 / total)
        else:
            chosen[j] = rng.integers(n)
        dist2 = np.minimum(dist2, np.sum((features - features[chosen[j]]) ** 2, axis=1))
    return features[chosen].copy()


def _repair_empty(labels, features, centroids, n_groups):
    """Reseed each empty cluster from the point farthest from its centroid.

    Donor clusters keep at least one member, so the repair never creates a new
    empty cluster and strictly fills one per step.
    """
    counts = np.bincount(labels, minlength=n_groups)
    for j in np.flatnonzero(counts == 0):
        dist2 = np.sum((features - centroids[labels]) ** 2, axis=1)
        eligible = counts[labels] >= 2
        dist2 = np.where(eligible, dist2, -np.inf)
        donor_point = int(np.argmax(dist2))
        counts[labels[donor_point]] -= 1
        labels[donor_point] = j
        counts[j] = 1
        centroids[j] = features[donor_point]
    return labels, centroids


def _lloyd(features, n_groups, rng):
    """One k-means++-seeded Lloyd run: labels and the WCSS after each iteration."""
    centroids = _seed_centroids(features, n_groups, rng)
    labels = None
    history = []
    for _ in range(KMEANS_MAX_ITERS):
        dist2 = (
            np.sum(features**2, axis=1)[:, None]
            - 2.0 * features @ centroids.T
            + np.sum(centroids**2, axis=1)[None, :]
        )
        new_labels = np.argmin(dist2, axis=1)
        labels, old_labels = new_labels, labels
        labels, centroids = _repair_empty(labels, features, centroids, n_groups)
        for g in range(n_groups):
            centroids[g] = features[labels == g].mean(axis=0)
        history.append(float(np.sum((features - centroids[labels]) ** 2)))
        if old_labels is not None and np.array_equal(labels, old_labels):
            break
    return labels, history


def kmeans_subgroups(beta: np.ndarray, n_groups: int, rng: np.random.Generator) -> GroupAssignment:
    """Cluster MSs into subgroups by their dB gain fingerprints.

    Runs Lloyd's algorithm with k-means++ seeding for ``KMEANS_RESTARTS``
    independent starts and keeps the partition with the lowest within-cluster
    sum of squares.  Deterministic given the generator state; distance ties
    resolve to the lowest cluster index.
    """
    features = db_fingerprints(beta)
    n_ms = features.shape[0]
    if not 1 <= n_groups <= n_ms:
        raise ValueError(f"n_groups must lie in [1, {n_ms}], got {n_groups}")
    best = None
    for _ in range(KMEANS_RESTARTS):
        labels, history = _lloyd(features, n_groups, rng)
        if best is None or history[-1] < best[0]:
            best = (history[-1], labels)
    return GroupAssignment(group_of=best[1], n_groups=n_groups)


def make_plan(beta: np.ndarray, rng: np.random.Generator, n_groups: int) -> GroupAssignment:
    """Service partition into ``n_groups`` groups.

    One group per MS is unicast, each MS its own group in MS order; every
    other count is clustered by :func:`kmeans_subgroups`, which puts all MSs
    in group 0 when the count is 1.
    """
    n_ms = beta.shape[1]
    if n_groups == n_ms:
        return GroupAssignment(group_of=np.arange(n_ms), n_groups=n_ms)
    return kmeans_subgroups(beta, n_groups, rng)
