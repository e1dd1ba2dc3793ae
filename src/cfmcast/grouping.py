"""Partitioning of MSs into multicast subgroups.

Subgrouping clusters the users' large-scale fading fingerprints (the per-AP
channel gains in dB) with Lloyd's k-means, so users that look alike from the
infrastructure's point of view share one precoded stream.  The group count
alone sets the service: one group is single multicast, one per MS unicast.
The partition is a (K,) group label per MS; ``pilots.PilotPlan`` carries it
through the rest of the snapshot.
"""

from __future__ import annotations

import numpy as np

KMEANS_RESTARTS = 10
KMEANS_MAX_ITERS = 100


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
    """One k-means++-seeded Lloyd run: (labels, within-cluster sum of squares)."""
    centroids = _seed_centroids(features, n_groups, rng)
    labels = None
    norms2 = np.sum(features**2, axis=1)[:, None]
    for _ in range(KMEANS_MAX_ITERS):
        dist2 = (
            norms2
            - 2.0 * features @ centroids.T
            + np.sum(centroids**2, axis=1)[None, :]
        )
        new_labels = np.argmin(dist2, axis=1)
        labels, old_labels = new_labels, labels
        labels, centroids = _repair_empty(labels, features, centroids, n_groups)
        for g in range(n_groups):
            centroids[g] = features[labels == g].mean(axis=0)
        if old_labels is not None and np.array_equal(labels, old_labels):
            break
    return labels, float(np.sum((features - centroids[labels]) ** 2))


def kmeans_subgroups(beta: np.ndarray, n_groups: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster MSs into subgroups by their dB gain fingerprints: the (K,) group labels.

    Runs Lloyd's algorithm with k-means++ seeding for ``KMEANS_RESTARTS``
    independent starts and keeps the partition with the lowest within-cluster
    sum of squares.  Deterministic given the generator state; distance ties
    resolve to the lowest cluster index.
    """
    features = db_fingerprints(beta)
    n_ms = features.shape[0]
    if not 1 <= n_groups <= n_ms:
        raise ValueError(f"n_groups must lie in [1, {n_ms}], got {n_groups}")
    runs = [_lloyd(features, n_groups, rng) for _ in range(KMEANS_RESTARTS)]
    return min(runs, key=lambda run: run[1])[0]


def make_plan(beta: np.ndarray, rng: np.random.Generator, n_groups: int) -> np.ndarray:
    """Service partition into ``n_groups`` groups: the (K,) group label per MS.

    One group per MS is unicast, each MS its own group in MS order; every
    other count is clustered by :func:`kmeans_subgroups`, which puts all MSs
    in group 0 when the count is 1.
    """
    n_ms = beta.shape[1]
    if n_groups == n_ms:
        return np.arange(n_ms)
    return kmeans_subgroups(beta, n_groups, rng)
