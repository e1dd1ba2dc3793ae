"""Workload definitions shared by run.py and its campaign process.

A workload is a preset plus the overrides that pin its Monte Carlo size and a
worker count.  Realizations and workers are part of the definition; the
snapshot count is chosen so that one campaign fits a run's time budget.  The
master seed comes from the benchmark's ``--seed`` argument.  README.md in this
directory says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    preset: str
    overrides: dict = field(default_factory=dict)
    workers: int = 1

    def config(self, seed: int):
        from cfmcast import preset

        return preset(self.preset).with_overrides(master_seed=int(seed), **self.overrides)


WORKLOADS = {
    # fig2_100 unicast ipmmse: precoding ~95 %, n = |L_g|*N ~ 80, |S_g| ~ 76
    "fig2_ipmmse": Workload("fig2_100", {"realizations": 64, "snapshots": 1}),
    # fig3 clustered, G=30 subgroups, ipmmse: n up to 400 >> |S_g| <= 30
    "fig3_ipmmse": Workload("fig3", {"precoder": "ipmmse", "realizations": 32, "snapshots": 1}),
    # fig3 as preset (cb): evaluation + channel sampling, precoding idle
    "fig3_cb": Workload("fig3", {"realizations": 64, "snapshots": 1}),
    # many small snapshots through the 2-worker process pool
    "desk_pool": Workload("desk_uniform", {"realizations": 100, "snapshots": 50}, workers=2),
    # smoke-test size only; not listed in BENCHMARK.json
    "tiny": Workload("desk_uniform", {"realizations": 8, "snapshots": 4}, workers=2),
}
