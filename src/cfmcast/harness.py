"""Campaign orchestration: seeding, snapshot pipeline, parallel runs, outputs.

Every random draw derives from (master_seed, snapshot index, stage tag), so
each pipeline stage has an isolated stream: changing how many draws one stage
consumes never perturbs another stage, and results are bit-identical for any
worker count.  A campaign maps the snapshot pipeline over indices, pools one
sum-SE sample per snapshot and reports the empirical CDF.  No service-shape
field enters a seed, so one campaign can run several shapes on each
snapshot's shared deployment and channels.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import covariance, estimation, evaluation, geometry, grouping, openblas, pilots, precoding
from .config import DL_POWER_W, SystemConfig
from .errors import CampaignError, ConfigError

# realizations are processed in fixed-size chunks to bound memory
CHUNK = 64

STAGES = {
    "aps": 0,
    "ms": 1,
    "shadowing": 2,
    "grouping": 3,
    "channels": 4,
    "pilot_noise": 5,
}


def stage_rng(master_seed: int, snapshot: int, stage: str, chunk: int = 0) -> np.random.Generator:
    """Independent generator for one stage of one snapshot (and chunk)."""
    return np.random.default_rng(
        np.random.SeedSequence((int(master_seed), int(snapshot), STAGES[stage], int(chunk)))
    )


@dataclass
class SnapshotResult:
    index: int
    report: evaluation.SeReport
    per_ap_power: np.ndarray  # (L,) mean radiated power

    def summary(self) -> dict:
        rep = self.report
        return {
            "snapshot": self.index,
            "sum_se_per_user": rep.sum_se_per_user,
            "sum_se_per_group": rep.sum_se_per_group,
            "min_user_se": float(rep.se_user.min()),
            "median_user_se": float(np.median(rep.se_user)),
            "clamped": rep.clamped,
            "n_groups": int(rep.se_group.size),
            "radiated_frac": float(self.per_ap_power.sum() / (self.per_ap_power.size * DL_POWER_W)),
        }


@dataclass
class CampaignResult:
    config: SystemConfig
    samples: np.ndarray  # (snapshots,) per-user sum SE
    summaries: list
    wall_time_s: float
    workers: int


def empirical_cdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted samples and their empirical probabilities i/n, i = 1..n."""
    values = np.sort(np.asarray(samples, dtype=float))
    probs = np.arange(1, values.size + 1) / values.size
    return values, probs


def deployment_setup(cfg: SystemConfig, index: int) -> tuple[geometry.Deployment, np.ndarray, np.ndarray]:
    """The deployment, its (L, K, N, N) link covariances and their MS-major (K, L, N, N) factors."""
    rngs = (stage_rng(cfg.master_seed, index, stage) for stage in ("aps", "ms", "shadowing"))
    dep = geometry.build_deployment(cfg, *rngs)
    angles = geometry.nominal_angles(dep.ap_positions, dep.ms_positions, cfg.side_m)
    r_cov = covariance.covariance_field(dep.beta, angles, cfg.n_antennas)
    return dep, r_cov, covariance.covariance_factors(r_cov)


def service_setup(
    cfg: SystemConfig, index: int, beta: np.ndarray, r_cov: np.ndarray
) -> tuple[pilots.PilotPlan, estimation.CompositeStats]:
    """One service shape's plan and estimation statistics on a built deployment."""
    group_of = grouping.make_plan(beta, stage_rng(cfg.master_seed, index, "grouping"), cfg.n_groups)
    plan = pilots.assign_pilots_and_cluster(beta, group_of, cfg.tau_p)
    return plan, estimation.composite_stats(r_cov, plan)


def run_snapshot(cfg: SystemConfig, index: int) -> SnapshotResult:
    """Execute the full pipeline for one geometry draw."""
    return run_shapes([cfg], index)[0]


def run_shapes(cfgs: list[SystemConfig], index: int) -> list[SnapshotResult]:
    """One snapshot's pipeline for configs that differ only in ``n_groups`` and ``precoder``.

    The deployment, its covariances and each chunk's channels are built once
    and shared; every shape then runs its own plan, pilot projection,
    estimates, precoder and SINR update, so each result equals that config's
    own snapshot bit for bit.  Each chunk's channel normals are drawn on a
    second thread into the chunk's channel buffer: chunk 0's while the
    deployment and the plans are built, chunk ci + 1's while chunk ci is
    processed.  The draw thread only draws, so the results do not depend on
    it, and it ends with the snapshot.  ``covariance.sample_channels``
    correlates a chunk on the calling thread and a helper thread of its own,
    which ends with the call and leaves the channels bitwise as one thread
    would make them.  numpy's and SciPy's OpenBLAS run on one thread for the
    snapshot, so no BLAS thread spins beside these and the results do not
    depend on the caller's counts, restored after.
    """
    with openblas.one_thread(), ThreadPoolExecutor(1) as drawer:
        return _run_shapes(cfgs, index, drawer)


def _run_shapes(cfgs: list[SystemConfig], index: int, drawer: ThreadPoolExecutor) -> list[SnapshotResult]:
    cfg = cfgs[0]  # every field the shapes share
    starts = range(0, cfg.realizations, CHUNK)

    def draw(ci):
        normals = np.empty(
            (min(CHUNK, cfg.realizations - starts[ci]), cfg.n_ms, cfg.n_aps, cfg.n_antennas), dtype=complex
        )
        rng = stage_rng(cfg.master_seed, index, "channels", ci)
        return normals, drawer.submit(covariance.draw_normals, normals, rng)

    pending = draw(0)
    dep, r_cov, factors = deployment_setup(cfg, index)
    shapes = [service_setup(c, index, dep.beta, r_cov) for c in cfgs]
    del r_cov  # the link covariances are not read past composite_stats
    accs = [evaluation.SinrAccumulator(cfg.n_ms, plan.n_groups) for plan, _ in shapes]
    pair_sq_norms = [np.zeros(plan.pair_ap.size) for plan, _ in shapes]

    # a chunk's large arrays are dropped after their last reader, and its
    # buffer when the next chunk's is taken up: at most two buffers are alive;
    # the factors go after the last chunk's correlation
    for ci in range(len(starts)):
        channels, drawn = pending
        drawn.result()
        if ci + 1 < len(starts):
            pending = draw(ci + 1)
        channels = covariance.sample_channels(factors, channels)  # the normals, correlated in place
        if ci + 1 == len(starts):
            del factors
        for c, (plan, stats), acc, sq_norms in zip(cfgs, shapes, accs, pair_sq_norms):
            y = estimation.project_pilots(channels, plan, stage_rng(cfg.master_seed, index, "pilot_noise", ci))
            estimates = estimation.estimate_composites(y, stats, plan)
            del y
            if c.precoder == "ipmmse":
                w = precoding.ipmmse_directions(estimates, stats, plan)
                sq_norms += np.sum(np.abs(w[:, :-1]) ** 2, axis=(0, 2))
            else:
                w = precoding.cb_precoders(estimates, stats, plan)
            del estimates
            acc.update(channels, w, plan)
            del w

    results = []
    for c, (plan, stats), acc, sq_norms in zip(cfgs, shapes, accs, pair_sq_norms):
        if c.precoder == "ipmmse":
            power_scale, per_ap_power = precoding.centralized_power(sq_norms, acc.count, stats, plan)
        else:
            power_scale = np.ones(plan.n_groups)
            # every serving AP splits its whole budget over the groups it serves
            per_ap_power = precoding.apa_power(stats.trace_r_comp, plan).sum(axis=1)
        _, _, sinr, clamped = acc.finalize(power_scale, plan.group_of)
        results.append(SnapshotResult(index, evaluation.build_report(sinr, clamped, plan), per_ap_power))
    return results


def _snapshot_summaries(job: tuple[list[SystemConfig], int]) -> list[dict]:
    cfgs, index = job
    # one config goes through the module's run_snapshot, which tracers wrap
    results = [run_snapshot(cfgs[0], index)] if len(cfgs) == 1 else run_shapes(cfgs, index)
    return [r.summary() for r in results]


def run_campaign(cfg: SystemConfig, workers: int = 1) -> CampaignResult:
    """Run all snapshots of one config and pool their sum-SE samples (see ``run_campaigns``)."""
    return run_campaigns([cfg], workers)[0]


def run_campaigns(cfgs: list[SystemConfig], workers: int = 1) -> list[CampaignResult]:
    """Run all snapshots of configs that differ only in ``n_groups`` and ``precoder``.

    Each snapshot's deployment and channels are built once and shared by every
    config (``run_shapes``); each result equals that config's own campaign,
    apart from the wall time, which all results share.  An empty list, configs
    that differ in another field, or a worker count below 1 raise ConfigError.
    Results are independent of the worker count.  A pool starts at most one
    process per snapshot; the result keeps the requested count.  A failed
    snapshot, or a pool worker that dies, aborts the campaign: snapshots not
    yet handed to a worker are cancelled, and CampaignError carries the
    completed summaries, snapshot by snapshot and in config order within each.
    Every snapshot runs BLAS on one thread (``run_shapes``), in process or in
    a pool.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if not cfgs:
        raise ConfigError("a campaign needs at least one config")
    cfg = cfgs[0]
    fixed = {k: v for k, v in cfg.to_dict().items() if k not in ("n_groups", "precoder")}
    differ = sorted({k for c in cfgs for k, v in c.to_dict().items() if k in fixed and v != fixed[k]})
    if differ:
        raise ConfigError(f"the configs of one campaign may differ only in n_groups and precoder, not in {differ}")
    t0 = time.monotonic()
    jobs = [(cfgs, i) for i in range(cfg.snapshots)]
    summaries = []  # snapshot-major, configs in order within a snapshot
    broken = ()  # the exception type of a dead pool worker
    with contextlib.ExitStack() as stack:
        if workers == 1:
            results = map(_snapshot_summaries, jobs)
        else:
            # imported here, so an in-process campaign never loads multiprocessing
            import multiprocessing
            from concurrent.futures.process import BrokenProcessPool as broken, ProcessPoolExecutor

            # a fork-context pool starts every process at its first submit
            pool = stack.enter_context(
                ProcessPoolExecutor(
                    min(workers, cfg.snapshots),
                    # forked workers start without re-importing numpy or the package
                    mp_context=multiprocessing.get_context("fork"),
                )
            )
            results = pool.map(_snapshot_summaries, jobs)
        for i in range(cfg.snapshots):
            try:
                summaries.extend(next(results))
            except Exception as exc:
                # a raising map cancels the futures it has not yet yielded
                broke = "the worker pool broke: " if isinstance(exc, broken) else ""
                raise CampaignError(
                    f"snapshot {i} failed: {broke}{exc}",
                    partial=summaries,
                    failed_snapshot=i,
                ) from exc
    wall_time_s = time.monotonic() - t0
    return [
        CampaignResult(
            config=c,
            samples=np.array([s["sum_se_per_user"] for s in summaries[k :: len(cfgs)]]),
            summaries=summaries[k :: len(cfgs)],
            wall_time_s=wall_time_s,
            workers=workers,
        )
        for k, c in enumerate(cfgs)
    ]


def write_outputs(result: CampaignResult, out_dir: str) -> None:
    """Emit cdf.csv and report.json into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    cdf_path = os.path.join(out_dir, "cdf.csv")
    with open(cdf_path, "w", encoding="utf-8") as fh:
        fh.write("sum_se_bps_hz,cdf\n")
        for v, p in zip(*empirical_cdf(result.samples)):
            # repr of a Python float is the shortest exact round-trip form
            fh.write(f"{float(v)!r},{float(p)!r}\n")
    report = {
        "config": result.config.to_dict(),
        "config_hash": result.config.config_hash(),
        "workers": result.workers,
        # every snapshot runs OpenBLAS on one thread; None without a bundled OpenBLAS
        "worker_blas_threads": 1 if openblas.thread_counts() else None,
        "wall_time_s": result.wall_time_s,
        "snapshots": result.summaries,
        "diagnostics": {
            "clamped_total": int(sum(s["clamped"] for s in result.summaries)),
            "median_sum_se": float(np.median(result.samples)),
        },
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)


def write_partial(partial: list, failed_snapshot: int, message: str, out_dir: str) -> None:
    """Emit the completed snapshot summaries after an aborted campaign."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "failed_snapshot": failed_snapshot,
        "error": message,
        "completed": partial,
    }
    with open(os.path.join(out_dir, "report_partial.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
