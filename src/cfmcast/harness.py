"""Campaign orchestration: seeding, snapshot pipeline, parallel runs, outputs.

Every random draw derives from (master_seed, snapshot index, stage tag), so
each pipeline stage has an isolated stream: changing how many draws one stage
consumes never perturbs another stage, and results are bit-identical for any
worker count.  A campaign maps the snapshot pipeline over indices, pools one
sum-SE sample per snapshot and reports the empirical CDF.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import NamedTuple

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


def _chunk_bounds(total: int, chunk: int = CHUNK):
    for start in range(0, total, chunk):
        yield start, min(start + chunk, total)


@dataclass
class SnapshotResult:
    index: int
    report: evaluation.SeReport
    group_sizes: np.ndarray
    per_ap_power: np.ndarray  # (L,) mean radiated power
    radiated_frac: float  # per_ap_power.sum() / (L * DL_POWER_W)

    def summary(self) -> dict:
        rep = self.report
        return {
            "snapshot": self.index,
            "sum_se_per_user": rep.sum_se_per_user,
            "sum_se_per_group": rep.sum_se_per_group,
            "min_user_se": float(rep.se_user.min()),
            "median_user_se": float(np.median(rep.se_user)),
            "clamped": rep.clamped,
            "n_groups": int(self.group_sizes.size),
            "radiated_frac": self.radiated_frac,
        }


@dataclass
class CampaignResult:
    config: SystemConfig
    samples: np.ndarray  # (snapshots,) per-user sum SE
    cdf_values: np.ndarray
    cdf_probs: np.ndarray
    summaries: list
    wall_time_s: float
    workers: int
    worker_blas_threads: int | None  # OpenBLAS threads snapshots ran at; None without a bundled OpenBLAS


def empirical_cdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted samples and their empirical probabilities i/n, i = 1..n."""
    values = np.sort(np.asarray(samples, dtype=float))
    probs = np.arange(1, values.size + 1) / values.size
    return values, probs


class SnapshotSetup(NamedTuple):
    """Everything one deployment fixes before the first channel realization."""

    r_cov: np.ndarray  # (L, K, N, N) link covariances
    factors: np.ndarray  # (K, L, N, N) their square-root factors, MS-major like the channels
    plan: pilots.PilotPlan
    stats: estimation.CompositeStats


def snapshot_setup(cfg: SystemConfig, index: int, dep: geometry.Deployment) -> SnapshotSetup:
    """Covariances, service plan and estimation statistics of a built deployment."""
    angles = geometry.nominal_angles(dep.ap_positions, dep.ms_positions, cfg.side_m)
    r_cov = covariance.covariance_field(dep.beta, angles, cfg.n_antennas)
    factors = covariance.covariance_factors(r_cov)
    group_of = grouping.make_plan(dep.beta, stage_rng(cfg.master_seed, index, "grouping"), cfg.n_groups)
    plan = pilots.assign_pilots_and_cluster(dep.beta, group_of, cfg.tau_p)
    stats = estimation.composite_stats(r_cov, plan)
    return SnapshotSetup(r_cov, factors, plan, stats)


def run_snapshot(cfg: SystemConfig, index: int) -> SnapshotResult:
    """Execute the full pipeline for one geometry draw.

    Each chunk's channel normals are drawn on a second thread into the chunk's
    channel buffer: chunk 0's while the deployment's statistics are built,
    chunk ci + 1's while chunk ci is processed.  The draw thread only draws,
    so the results do not depend on it, and it ends with the snapshot.
    ``covariance.sample_channels`` correlates a chunk on the calling thread
    and a helper thread of its own, which ends with the call and leaves the
    channels bitwise as one thread would make them.  numpy's and SciPy's
    OpenBLAS run on one thread for the snapshot, so no BLAS thread spins beside
    these and the results do not depend on the caller's counts, restored after.
    """
    with openblas.one_thread(), ThreadPoolExecutor(1) as drawer:
        return _run_snapshot(cfg, index, drawer)


def _run_snapshot(cfg: SystemConfig, index: int, drawer: ThreadPoolExecutor) -> SnapshotResult:
    bounds = list(_chunk_bounds(cfg.realizations))

    def draw(ci):
        start, stop = bounds[ci]
        normals = np.empty((stop - start, cfg.n_ms, cfg.n_aps, cfg.n_antennas), dtype=complex)
        rng = stage_rng(cfg.master_seed, index, "channels", ci)
        return normals, drawer.submit(covariance.draw_normals, normals, rng)

    dep = geometry.build_deployment(
        cfg,
        stage_rng(cfg.master_seed, index, "aps"),
        stage_rng(cfg.master_seed, index, "ms"),
        stage_rng(cfg.master_seed, index, "shadowing"),
    )
    pending = draw(0)
    # the link covariances are not read past composite_stats
    factors, plan, stats = snapshot_setup(cfg, index, dep)[1:]
    acc = evaluation.SinrAccumulator(cfg.n_ms, plan.n_groups)
    centralized = cfg.precoder == "ipmmse"
    pair_sq_norms = np.zeros(plan.pair_ap.size)

    # a chunk's large arrays are dropped after their last reader, and its
    # buffer when the next chunk's is taken up: at most two buffers are alive;
    # the factors go after the last chunk's correlation
    for ci in range(len(bounds)):
        channels, drawn = pending
        drawn.result()
        if ci + 1 < len(bounds):
            pending = draw(ci + 1)
        channels = covariance.sample_channels(factors, channels)  # the normals, correlated in place
        if ci + 1 == len(bounds):
            del factors
        y = estimation.project_pilots(channels, plan, stage_rng(cfg.master_seed, index, "pilot_noise", ci))
        estimates = estimation.estimate_composites(y, stats, plan)
        del y
        if centralized:
            w = precoding.ipmmse_directions(estimates, stats, plan)
            pair_sq_norms += np.sum(np.abs(w[:, :-1]) ** 2, axis=(0, 2))
        else:
            w = precoding.cb_precoders(estimates, stats, plan)
        del estimates
        acc.update(channels, w, plan)

    if centralized:
        power_scale, per_ap_power = precoding.centralized_power(pair_sq_norms, acc.count, stats, plan)
    else:
        power_scale = np.ones(plan.n_groups)
        # every serving AP splits its whole budget over the groups it serves
        per_ap_power = precoding.apa_power(stats.trace_r_comp, plan).sum(axis=1)

    _, _, sinr, clamped = acc.finalize(power_scale, plan.group_of)
    report = evaluation.build_report(sinr, clamped, plan)
    radiated_frac = float(per_ap_power.sum() / (cfg.n_aps * DL_POWER_W))
    return SnapshotResult(index, report, plan.sizes, per_ap_power, radiated_frac)


def _summary(job: tuple[SystemConfig, int]) -> dict:
    cfg, index = job
    return run_snapshot(cfg, index).summary()


def run_campaign(cfg: SystemConfig, workers: int = 1) -> CampaignResult:
    """Run all snapshots and pool their sum-SE samples into the CDF.

    A worker count below 1 raises ConfigError.  Results are independent of
    the worker count.  A pool starts at most one process per snapshot; the
    result keeps the requested count.  A failed snapshot, or a pool worker
    that dies, aborts the campaign: snapshots not yet handed to a worker are
    cancelled, and CampaignError carries the completed prefix.  Every snapshot
    runs BLAS on one thread (``run_snapshot``), in process or in a pool.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    t0 = time.monotonic()
    jobs = [(cfg, i) for i in range(cfg.snapshots)]
    summaries = []
    with contextlib.ExitStack() as stack:
        if workers == 1:
            results = map(_summary, jobs)
        else:
            # a fork-context pool starts every process at its first submit
            pool = stack.enter_context(
                ProcessPoolExecutor(
                    min(workers, cfg.snapshots),
                    # forked workers start without re-importing numpy or the package
                    mp_context=multiprocessing.get_context("fork"),
                )
            )
            results = pool.map(_summary, jobs)
        for i in range(cfg.snapshots):
            try:
                summaries.append(next(results))
            except Exception as exc:
                # a raising map cancels the futures it has not yet yielded
                broke = "the worker pool broke: " if isinstance(exc, BrokenProcessPool) else ""
                raise CampaignError(
                    f"snapshot {i} failed: {broke}{exc}",
                    partial=summaries,
                    failed_snapshot=i,
                ) from exc
    samples = np.array([s["sum_se_per_user"] for s in summaries])
    values, probs = empirical_cdf(samples)
    return CampaignResult(
        config=cfg,
        samples=samples,
        cdf_values=values,
        cdf_probs=probs,
        summaries=summaries,
        wall_time_s=time.monotonic() - t0,
        workers=workers,
        worker_blas_threads=1 if openblas.thread_counts() else None,
    )


def write_outputs(result: CampaignResult, out_dir: str) -> None:
    """Emit cdf.csv and report.json into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    cdf_path = os.path.join(out_dir, "cdf.csv")
    with open(cdf_path, "w", encoding="utf-8") as fh:
        fh.write("sum_se_bps_hz,cdf\n")
        for v, p in zip(result.cdf_values, result.cdf_probs):
            # repr of a Python float is the shortest exact round-trip form
            fh.write(f"{float(v)!r},{float(p)!r}\n")
    report = {
        "config": result.config.to_dict(),
        "config_hash": result.config.config_hash(),
        "workers": result.workers,
        "worker_blas_threads": result.worker_blas_threads,
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
