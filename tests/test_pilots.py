"""Pilot assignment and AP cooperation clustering."""

import numpy as np
import pytest

from cfmcast import pilots

from conftest import assert_pair_layout, loop_plan, random_partition, random_service_instance


def strongest_serving(beta, plan):
    """Each group's serving AP with the highest mean member gain."""
    gains = np.stack([beta[:, m].mean(axis=1) for m in plan.members], axis=1)
    return [int(aps[np.argmax(gains[aps, g])]) for g, aps in enumerate(plan.serving)]


class TestGroupGains:
    def test_mean_member_gain(self):
        # one pilot; group 0 is MSs 0 and 1, group 1 is MS 2.  AP 0 is group
        # 0's strongest AP and AP 1 group 1's.  AP 2 claims neither: group 0's
        # summed gain there (1.0) beats group 1's (0.7), but its mean (0.5)
        # does not, and the mean decides
        beta = np.array(
            [
                [1.0, 1.0, 0.1],
                [0.1, 0.1, 1.0],
                [0.5, 0.5, 0.7],
            ]
        )
        plan = pilots.assign_pilots_and_cluster(beta, np.array([0, 0, 1]), tau_p=1)
        assert np.array_equal(plan.serving[0], [0])
        assert np.array_equal(plan.serving[1], [1, 2])
        assert strongest_serving(beta, plan) == [0, 1]


class TestRunningLoad:
    def test_later_group_takes_weakest_pilot_at_its_strongest_ap(self):
        # five singleton groups, three pilots.  Groups 0-2 take pilots 0-2.
        # Group 3's strongest AP is AP 1, where the pilots carry 0.3, 0.1 and
        # 0.4: it takes pilot 1.  Group 4's strongest AP is AP 0, where pilot
        # 1 now carries 0.1 + 0.5 (it would win with group 1 alone) and
        # pilots 0 and 2 tie at 0.2: the lower, pilot 0, wins the tie
        beta = np.array(
            [
                [0.2, 0.1, 0.2, 0.5, 1.0],
                [0.3, 0.1, 0.4, 0.9, 0.5],
            ]
        )
        plan = pilots.assign_pilots_and_cluster(beta, np.arange(5), tau_p=3)
        assert np.array_equal(plan.pilot_of, [0, 1, 2, 1, 0])


class TestHandWorkedPlan:
    """Three singleton groups, two APs, two pilots; every step is hand checkable."""

    def build(self):
        beta = np.array(
            [
                [1.0, 0.8, 0.1],
                [0.2, 0.9, 1.0],
            ]
        )
        return beta, pilots.assign_pilots_and_cluster(beta, np.arange(3), tau_p=2)

    def test_pilot_labels(self):
        # first two groups take orthogonal pilots; the third reuses the pilot
        # with the least accumulated gain at its strongest AP (AP 1):
        # pilot 0 carries 0.2, pilot 1 carries 0.9, so pilot 0 wins
        _, plan = self.build()
        assert np.array_equal(plan.pilot_of, [0, 1, 0])

    def test_serving_sets(self):
        # AP0/pilot0 prefers its claimant group 0 over the stronger-by-gain
        # rule alone; AP1/pilot0 prefers claimant group 2
        _, plan = self.build()
        assert np.array_equal(plan.serving[0], [0])
        assert np.array_equal(plan.serving[1], [0, 1])
        assert np.array_equal(plan.serving[2], [1])

    def test_served_duality_and_masters(self):
        beta, plan = self.build()
        assert np.array_equal(np.flatnonzero(plan.serving_mask[0]), [0, 1])
        assert np.array_equal(np.flatnonzero(plan.serving_mask[1]), [1, 2])
        assert strongest_serving(beta, plan) == [0, 1, 1]

    def test_cohort_and_neighborhood(self):
        _, plan = self.build()
        assert np.array_equal(np.flatnonzero(plan.pilot_of == 0), [0, 2])
        assert np.array_equal(np.flatnonzero(plan.pilot_of == 1), [1])
        # each group is its one MS, so the per-pilot MS lists match the groups
        assert len(plan.pilot_ms) == 2
        assert np.array_equal(plan.pilot_ms[0], [0, 2])
        assert np.array_equal(plan.pilot_ms[1], [1])
        assert np.array_equal(plan.s_set[0], [0, 1])
        assert np.array_equal(plan.s_set[1], [0, 1, 2])
        assert np.array_equal(plan.s_set[2], [1, 2])


class TestEviction:
    def test_starved_group_takes_ap_from_redundant_incumbent(self):
        # one pilot, two groups: group 0 wins both APs in the contest, so the
        # guarantee step hands group 1 its best AP and group 0 keeps the other
        beta = np.array(
            [
                [1.0, 0.9],
                [0.5, 0.4],
            ]
        )
        plan = pilots.assign_pilots_and_cluster(beta, np.arange(2), tau_p=1)
        assert np.array_equal(plan.pilot_of, [0, 0])
        assert np.array_equal(plan.serving[0], [1])
        assert np.array_equal(plan.serving[1], [0])
        assert strongest_serving(beta, plan) == [1, 0]

    def test_oversubscribed_pilot_still_serves_everyone(self):
        # four groups, one pilot, two APs: uniqueness per (AP, pilot) cannot
        # hold, but every group must still end up with a serving AP
        rng = np.random.default_rng(5)
        beta = 10.0 ** rng.normal(-8, 1.0, size=(2, 4))
        plan = pilots.assign_pilots_and_cluster(beta, np.arange(4), tau_p=1)
        assert all(plan.serving[g].size >= 1 for g in range(4))


class TestInvariants:
    def test_orthogonal_prefix(self, rng):
        for _ in range(20):
            inst = random_service_instance(rng)
            plan = pilots.assign_pilots_and_cluster(inst.beta, inst.group_of, inst.tau_p)
            head = min(inst.n_groups, inst.tau_p)
            assert np.array_equal(plan.pilot_of[:head], np.arange(head))
            assert plan.pilot_of.min() >= 0
            assert plan.pilot_of.max() < inst.tau_p

    def test_fuzzed_plan_invariants(self, rng):
        for _ in range(150):
            inst = random_service_instance(rng)
            plan = pilots.assign_pilots_and_cluster(inst.beta, inst.group_of, inst.tau_p)
            n_groups, n_aps = inst.n_groups, inst.n_aps
            assert plan.n_groups == n_groups
            # every group is served
            for g in range(n_groups):
                assert plan.serving[g].size >= 1
            # every AP serves a group: one per pilot in use, which the starved
            # groups' swaps keep (apa_power divides by each AP's weight total)
            assert plan.serving_mask.any(axis=1).all()
            # within the feasible fuzz domain each AP serves at most one
            # group per pilot (assert_pair_layout below ties serving to the mask)
            for l in range(n_aps):
                pilots_here = plan.pilot_of[plan.serving_mask[l]]
                assert pilots_here.size <= inst.tau_p
                assert np.unique(pilots_here).size == pilots_here.size
            # each pilot's MS list is its groups' members, group by group, and
            # empty for an unused pilot; together the lists hold each MS once
            assert len(plan.pilot_ms) == inst.tau_p
            for t, ms in enumerate(plan.pilot_ms):
                groups = np.flatnonzero(plan.pilot_of == t)
                assert np.array_equal(ms, np.concatenate([plan.members[g] for g in groups] + [[]]))
            assert np.array_equal(np.sort(np.concatenate(plan.pilot_ms)), np.arange(inst.n_ms))
            # the interference neighborhood is exactly the groups sharing an AP
            for g in range(n_groups):
                share = set()
                for c in range(n_groups):
                    if np.intersect1d(plan.serving[g], plan.serving[c]).size:
                        share.add(c)
                assert set(plan.s_set[g].tolist()) == share
                assert g in plan.s_set[g]
            assert_pair_layout(plan)

    def test_distinct_pilots_when_budget_allows(self, rng):
        inst = random_service_instance(rng)
        tau_p = inst.n_groups + 2
        plan = pilots.assign_pilots_and_cluster(inst.beta, inst.group_of, tau_p)
        assert np.unique(plan.pilot_of).size == inst.n_groups
        for g in range(inst.n_groups):
            assert np.array_equal(plan.pilot_ms[plan.pilot_of[g]], plan.members[g])
        assert sum(ms.size == 0 for ms in plan.pilot_ms) == 2

    def test_rejects_bad_tau_p(self):
        with pytest.raises(ValueError):
            pilots.assign_pilots_and_cluster(np.ones((2, 2)), np.arange(2), 0)


class TestAgainstLoops:
    """The array rules give the plan of the per-group and per-(pilot, AP) loops they replace."""

    @staticmethod
    def instance(rng):
        # no cap on the group count, so a pilot may hold more groups than there are APs
        n_aps, n_ms, tau_p = (int(v) for v in rng.integers(1, [7, 16, 8]))
        group_of = random_partition(rng, n_ms, int(rng.integers(1, n_ms + 1)))
        if rng.random() < 0.5:
            beta = 10.0 ** rng.normal(-8.0, 1.5, size=(n_aps, n_ms))
        else:  # three gain levels, so group gains and pilot loads tie
            beta = rng.choice([1e-9, 2e-9, 4e-9], size=(n_aps, n_ms))
        return beta, group_of, tau_p

    def test_fuzzed_plans_equal_loop_plans(self, rng):
        seen = dict.fromkeys(["spare pilots", "single group", "tied gains", "double-up"], 0)
        for _ in range(300):
            beta, group_of, tau_p = self.instance(rng)
            plan = pilots.assign_pilots_and_cluster(beta, group_of, tau_p)
            want = loop_plan(beta, group_of, tau_p)
            assert np.array_equal(plan.pilot_of, want.pilot_of)
            assert np.array_equal(plan.serving_mask, want.serving_mask)
            gains = np.stack([beta[:, m].sum(axis=1) / m.size for m in plan.members], axis=1)
            seen["spare pilots"] += tau_p > plan.n_groups
            seen["single group"] += plan.n_groups == 1
            seen["tied gains"] += any(np.unique(row).size < row.size for row in gains)
            seen["double-up"] += np.bincount(plan.pilot_of).max() > beta.shape[0]
        assert min(seen.values()) > 0, seen


class TestPilotMembers:
    """``plan.pilot_ms``: the order in which pilot projection and Γ sum their MSs."""

    def test_groups_members_in_group_order(self):
        # pilot 0 holds groups 0 and 2, pilot 1 group 1, pilot 2 nobody
        group_of = np.array([2, 0, 1, 2, 0, 1])
        plan = pilots.PilotPlan(3, group_of, np.array([0, 1, 0]), np.ones((2, 3), dtype=bool))
        assert np.array_equal(plan.members[0], [1, 4])
        assert np.array_equal(plan.members[2], [0, 3])
        assert np.array_equal(plan.pilot_ms[0], [1, 4, 0, 3])
        assert np.array_equal(plan.pilot_ms[1], [2, 5])
        assert plan.pilot_ms[2].size == 0
        assert np.array_equal(plan.sizes, [2, 2, 2])
