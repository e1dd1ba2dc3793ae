"""Pilot assignment and AP cooperation clustering."""

import numpy as np
import pytest

from cfmcast import grouping, pilots

from conftest import assert_pair_layout, random_service_instance


def make_parts(labels, n_groups):
    return grouping.GroupAssignment(group_of=np.array(labels), n_groups=n_groups)


def strongest_serving(beta, parts, plan):
    """Each group's serving AP with the highest mean member gain."""
    gains = pilots.group_gains(beta, parts)
    return [int(aps[np.argmax(gains[aps, g])]) for g, aps in enumerate(plan.serving)]


class TestGroupGains:
    def test_mean_member_gain(self):
        beta = np.array([[1.0, 3.0, 10.0], [2.0, 4.0, 20.0]])
        parts = make_parts([0, 0, 1], 2)
        gains = pilots.group_gains(beta, parts)
        assert np.allclose(gains, [[2.0, 10.0], [3.0, 20.0]])


class TestPilotInterference:
    def test_sums_holder_member_gains(self):
        beta = np.array([[1.0, 0.5, 0.25, 4.0]])
        parts = make_parts([0, 1, 1, 2], 3)
        # groups 0 and 1 hold pilots 0 and 1; group 2 has none yet
        sums = np.array([beta[0, m].sum() for m in parts.members[:2]])
        interference = pilots.pilot_interference(sums, np.array([0, 1]), 3)
        assert interference.shape == (3,)
        assert interference[0] == pytest.approx(1.0)
        assert interference[1] == pytest.approx(0.75)
        # a pilot nobody holds yet has zero accumulated interference
        assert interference[2] == pytest.approx(0.0)


class TestHandWorkedPlan:
    """Three singleton groups, two APs, two pilots; every step is hand checkable."""

    def build(self):
        beta = np.array(
            [
                [1.0, 0.8, 0.1],
                [0.2, 0.9, 1.0],
            ]
        )
        parts = make_parts([0, 1, 2], 3)
        return beta, parts, pilots.assign_pilots_and_cluster(beta, parts, tau_p=2)

    def test_pilot_labels(self):
        # first two groups take orthogonal pilots; the third reuses the pilot
        # with the least accumulated gain at its strongest AP (AP 1):
        # pilot 0 carries 0.2, pilot 1 carries 0.9, so pilot 0 wins
        _, _, plan = self.build()
        assert np.array_equal(plan.pilot_of, [0, 1, 0])

    def test_serving_sets(self):
        # AP0/pilot0 prefers its claimant group 0 over the stronger-by-gain
        # rule alone; AP1/pilot0 prefers claimant group 2
        _, _, plan = self.build()
        assert np.array_equal(plan.serving[0], [0])
        assert np.array_equal(plan.serving[1], [0, 1])
        assert np.array_equal(plan.serving[2], [1])

    def test_served_duality_and_masters(self):
        beta, parts, plan = self.build()
        assert np.array_equal(np.flatnonzero(plan.serving_mask[0]), [0, 1])
        assert np.array_equal(np.flatnonzero(plan.serving_mask[1]), [1, 2])
        assert strongest_serving(beta, parts, plan) == [0, 1, 1]

    def test_cohort_and_neighborhood(self):
        _, _, plan = self.build()
        assert len(plan.on_pilot) == 2
        assert np.array_equal(plan.on_pilot[0], [0, 2])
        assert np.array_equal(plan.on_pilot[1], [1])
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
        parts = make_parts([0, 1], 2)
        plan = pilots.assign_pilots_and_cluster(beta, parts, tau_p=1)
        assert np.array_equal(plan.pilot_of, [0, 0])
        assert np.array_equal(plan.serving[0], [1])
        assert np.array_equal(plan.serving[1], [0])
        assert strongest_serving(beta, parts, plan) == [1, 0]

    def test_oversubscribed_pilot_still_serves_everyone(self):
        # four groups, one pilot, two APs: uniqueness per (AP, pilot) cannot
        # hold, but every group must still end up with a serving AP
        rng = np.random.default_rng(5)
        beta = 10.0 ** rng.normal(-8, 1.0, size=(2, 4))
        parts = make_parts([0, 1, 2, 3], 4)
        plan = pilots.assign_pilots_and_cluster(beta, parts, tau_p=1)
        assert all(plan.serving[g].size >= 1 for g in range(4))


class TestInvariants:
    def test_orthogonal_prefix(self, rng):
        for _ in range(20):
            inst = random_service_instance(rng)
            plan = pilots.assign_pilots_and_cluster(inst.beta, inst.parts, inst.tau_p)
            head = min(inst.parts.n_groups, inst.tau_p)
            assert np.array_equal(plan.pilot_of[:head], np.arange(head))
            assert plan.pilot_of.min() >= 0
            assert plan.pilot_of.max() < inst.tau_p

    def test_fuzzed_plan_invariants(self, rng):
        for _ in range(150):
            inst = random_service_instance(rng)
            parts = inst.parts
            plan = pilots.assign_pilots_and_cluster(inst.beta, parts, inst.tau_p)
            n_groups, n_aps = parts.n_groups, inst.n_aps
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
            # the per-pilot lists hold each group once, on its own pilot
            assert len(plan.on_pilot) == inst.tau_p
            for g in range(n_groups):
                assert g in plan.on_pilot[plan.pilot_of[g]]
            assert np.array_equal(np.sort(np.concatenate(plan.on_pilot)), np.arange(n_groups))
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
        parts = inst.parts
        tau_p = parts.n_groups + 2
        plan = pilots.assign_pilots_and_cluster(inst.beta, parts, tau_p)
        assert np.unique(plan.pilot_of).size == parts.n_groups
        for g in range(parts.n_groups):
            assert np.array_equal(plan.on_pilot[plan.pilot_of[g]], [g])
        assert sum(groups.size == 0 for groups in plan.on_pilot) == 2

    def test_rejects_bad_tau_p(self):
        parts = make_parts([0, 1], 2)
        with pytest.raises(ValueError):
            pilots.assign_pilots_and_cluster(np.ones((2, 2)), parts, 0)
