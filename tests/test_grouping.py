"""Subgroup clustering on large-scale fingerprints."""

import numpy as np
import pytest

from cfmcast import grouping, pilots

from conftest import random_partition


def blob_beta(rng, n_aps, centers_db, per_blob, spread_db=0.5):
    """Gains whose dB fingerprints form well separated blobs, plus truth labels."""
    cols = []
    labels = []
    for b, center in enumerate(centers_db):
        for _ in range(per_blob):
            cols.append(center + spread_db * rng.standard_normal(n_aps))
            labels.append(b)
    order = rng.permutation(len(cols))
    db = np.stack([cols[i] for i in order], axis=1)
    truth = np.array([labels[i] for i in order])
    return 10.0 ** (db / 10.0), truth


def relabel_match(a, b):
    """True when two label vectors agree up to a bijection of label names."""
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping:
            if mapping[x] != y:
                return False
        else:
            mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


def label_plan(group_of, n_groups):
    """A one-pilot, one-AP service plan of the labels ``group_of`` over ``n_groups`` groups."""
    return pilots.PilotPlan(1, group_of, np.zeros(n_groups, dtype=int), np.ones((1, n_groups), dtype=bool))


class TestAssignment:
    """The partition's members, sizes and checks, which the service plan derives and makes."""

    def test_members_partition_users(self, rng):
        plan = label_plan(random_partition(rng, 20, 6), 6)
        all_members = np.sort(np.concatenate(plan.members))
        assert np.array_equal(all_members, np.arange(20))
        for g, members in enumerate(plan.members):
            assert np.all(plan.group_of[members] == g)
        assert plan.sizes.sum() == 20
        assert np.all(plan.sizes >= 1)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="at least one member"):
            label_plan(np.array([0, 0, 2]), 3)
        with pytest.raises(ValueError, match="at least one member"):
            pilots.assign_pilots_and_cluster(np.ones((2, 3)), np.array([0, 0, 2]), 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            label_plan(np.array([0, 3]), 3)
        with pytest.raises(ValueError, match="out of range"):
            label_plan(np.array([0, -1, 1]), 2)
        with pytest.raises(ValueError, match="1-D"):
            label_plan(np.zeros((2, 1), dtype=int), 1)


class TestFingerprints:
    def test_shape_and_values(self):
        beta = np.array([[1e-8, 1e-6], [1e-4, 1e-2]])
        f = grouping.db_fingerprints(beta)
        assert f.shape == (2, 2)
        assert f[0, 0] == pytest.approx(-80.0)
        assert f[1, 1] == pytest.approx(-20.0)


class TestKMeans:
    def test_final_wcss_non_increasing_over_iteration_caps(self, rng, monkeypatch):
        # capping Lloyd at 1, 2, ... iterations from one seed runs prefixes of
        # the same run, whose final WCSS never increases; this run takes seven
        # iterations to converge
        features = grouping.db_fingerprints(10.0 ** rng.normal(-8, 1.0, size=(6, 120)))
        wcss = []
        for cap in range(1, 11):
            monkeypatch.setattr(grouping, "KMEANS_MAX_ITERS", cap)
            wcss.append(grouping._lloyd(features, 12, np.random.default_rng(2))[1])
        assert np.all(np.diff(wcss) <= 1e-9)
        assert wcss[-1] < wcss[0]

    def test_valid_partition(self, rng):
        beta = 10.0 ** rng.normal(-8, 1.0, size=(5, 25))
        labels = grouping.kmeans_subgroups(beta, 7, np.random.default_rng(0))
        assert labels.shape == (25,)
        assert np.array_equal(np.unique(labels), np.arange(7))

    def test_deterministic_given_seed(self, rng):
        beta = 10.0 ** rng.normal(-8, 1.0, size=(5, 25))
        a = grouping.kmeans_subgroups(beta, 4, np.random.default_rng(42))
        b = grouping.kmeans_subgroups(beta, 4, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_degenerate_counts(self, rng):
        beta = 10.0 ** rng.normal(-8, 1.0, size=(4, 10))
        one = grouping.kmeans_subgroups(beta, 1, np.random.default_rng(0))
        assert np.all(one == 0)
        full = grouping.kmeans_subgroups(beta, 10, np.random.default_rng(0))
        assert np.array_equal(np.sort(full), np.arange(10))

    def test_coincident_fingerprints_repair_empty_clusters(self, monkeypatch):
        # three distinct fingerprints among nine MSs and five groups: k-means++
        # seeds its last centroids with every point coincident with a chosen
        # one, and the tied distances leave clusters empty, which the repair
        # refills from clusters of two or more members
        beta = np.repeat(10.0 ** np.array([[-8.0, -6.0, -7.0], [-6.0, -8.0, -7.5]]), 3, axis=1)
        repair = grouping._repair_empty
        counts = []

        def spy(labels, features, centroids, n_groups):
            before = np.bincount(labels, minlength=n_groups)
            labels, centroids = repair(labels, features, centroids, n_groups)
            counts.append((before, np.bincount(labels, minlength=n_groups)))
            return labels, centroids

        monkeypatch.setattr(grouping, "_repair_empty", spy)
        labels = grouping.kmeans_subgroups(beta, 5, np.random.default_rng(7))
        assert any(np.any(before == 0) for before, _ in counts)
        for before, after in counts:
            # every group is filled, and every donor had a member to spare
            assert np.all(after >= 1)
            assert np.all(before[after < before] >= 2)
        assert np.array_equal(np.unique(labels), np.arange(5))
        assert np.array_equal(labels, grouping.kmeans_subgroups(beta, 5, np.random.default_rng(7)))

    def test_rejects_bad_group_count(self, rng):
        beta = np.ones((3, 5))
        with pytest.raises(ValueError):
            grouping.kmeans_subgroups(beta, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            grouping.kmeans_subgroups(beta, 6, np.random.default_rng(0))

    def test_recovers_separated_blobs(self, rng):
        centers = [rng.normal(-80, 10, size=8) for _ in range(3)]
        # force pairwise separation well beyond the intra-blob spread
        centers[1] = centers[0] + 40.0
        centers[2] = centers[0] - 40.0
        beta, truth = blob_beta(rng, 8, centers, per_blob=6)
        labels = grouping.kmeans_subgroups(beta, 3, np.random.default_rng(1))
        assert relabel_match(truth, labels)

    def test_uniform_gain_scaling_invariance(self, rng):
        # scaling every gain by one factor shifts all fingerprints equally in
        # dB and must not change the partition
        beta = 10.0 ** rng.normal(-8, 1.0, size=(5, 20))
        a = grouping.kmeans_subgroups(beta, 4, np.random.default_rng(3))
        b = grouping.kmeans_subgroups(1e3 * beta, 4, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_clustered_deployment_recovery_rate(self):
        # co-located hotspot users share a fingerprint up to shadowing; the
        # clustering should recover the ground truth in nearly every snapshot
        from cfmcast import geometry

        hits = 0
        n_trials = 20
        for seed in range(n_trials):
            rng = np.random.default_rng(seed)
            pos = geometry.place_ms_clustered(10, 5, 10.0, 1000.0, rng)
            truth = np.repeat(np.arange(10), 5)
            aps = geometry.place_uniform(20, 1000.0, rng)
            shadow = geometry.sample_shadowing(pos, 20, 1000.0, rng)
            beta = geometry.large_scale_matrix(aps, pos, 1000.0, shadow)
            labels = grouping.kmeans_subgroups(beta, 10, np.random.default_rng(1000 + seed))
            if relabel_match(truth, labels):
                hits += 1
        assert hits >= 0.95 * n_trials


class TestMakePlan:
    def test_unicast(self, rng):
        # one group per MS is the identity partition in MS order, without k-means
        beta = np.ones((3, 7))
        gen = np.random.default_rng(0)
        labels = grouping.make_plan(beta, gen, 7)
        assert np.array_equal(labels, np.arange(7))
        assert gen.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_single(self):
        beta = np.ones((3, 7))
        labels = grouping.make_plan(beta, np.random.default_rng(0), 1)
        assert np.array_equal(labels, np.zeros(7))

    def test_subgroup_requires_count(self):
        beta = np.ones((3, 7))
        for bad in (0, 8):
            with pytest.raises(ValueError):
                grouping.make_plan(beta, np.random.default_rng(0), bad)
