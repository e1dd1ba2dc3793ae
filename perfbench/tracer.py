"""Span tracing of the cfmcast pipeline from outside the program.

The harness calls every stage through its module attribute
(``covariance.sample_channels(...)``), so replacing those attributes with
timing wrappers traces each stage without touching ``src/``.  Spans are kept
in memory as (name, start, end, parent, snapshot) and written out when the
traced campaign ends.  Counts are computed from argument and result shapes at
the same boundaries; they are not measured by the program.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

import numpy as np

from cfmcast import covariance, estimation, evaluation, geometry, grouping, harness, pilots, precoding

# (owner object, attribute, layer metric its busy time adds to)
STAGES = [
    (geometry, "build_deployment", "geometry.busy_s"),
    (geometry, "nominal_angles", "geometry.busy_s"),
    (covariance, "covariance_field", "covariance.field_busy_s"),
    (covariance, "covariance_factors", "covariance.field_busy_s"),
    (covariance, "sample_channels", "covariance.sample_busy_s"),
    (grouping, "make_plan", "grouping.busy_s"),
    (pilots, "assign_pilots_and_cluster", "pilots.busy_s"),
    (estimation, "composite_stats", "estimation.stats_busy_s"),
    (estimation, "project_pilots", "estimation.busy_s"),
    (estimation, "estimate_composites", "estimation.busy_s"),
    (precoding, "ipmmse_direction", "precoding.busy_s"),
    (precoding, "cb_precoders", "precoding.busy_s"),
    (evaluation.SinrAccumulator, "update", "evaluation.busy_s"),
    (evaluation.SinrAccumulator, "finalize", "evaluation.busy_s"),
    (evaluation, "build_report", "evaluation.busy_s"),
]
SNAPSHOT_SPAN = "harness.run_snapshot"

# percentile ladder for the tail: the highest level with >= 10 samples beyond it
TAIL_LEVELS = (0.5, 0.9, 0.99, 0.999)


def span_name(owner, attr: str) -> str:
    """``module.function`` or ``module.Class.method``, without the package."""
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def tail_level(n_samples: int) -> float:
    """Highest ladder percentile that leaves at least ten samples beyond it."""
    fit = [p for p in TAIL_LEVELS if n_samples * (1.0 - p) >= 10]
    return fit[-1] if fit else TAIL_LEVELS[0]


def ipmmse_direct_flops(n_real: int, n: int, c: int) -> float:
    """Real flops of the direct IP-MMSE path for one group: Gram plus LU solve.

    Complex multiply-add = 8 real flops; Gram (T, C, n) -> (T, n, n) is
    8*T*C*n^2, complex LU is 8/3*n^3 and the two triangular solves 8*n^2 per
    realization.
    """
    return n_real * (8.0 * c * n * n + 8.0 / 3.0 * n**3 + 8.0 * n * n)


class Tracer:
    """Records spans and shape-derived counts for a single-process campaign."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or None, snapshot]
        self._stack: list = []
        self._snapshot = None
        self._snap: dict = {}
        self._plan = None
        self._stats = None
        self.per_snapshot: list = []

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _ in STAGES:
            self._wrap(owner, attr, span_name(owner, attr), getattr(self, f"_after_{attr}", None))
        self._wrap(harness, "run_snapshot", SNAPSHOT_SPAN, None, snapshot=True)

    def _wrap(self, owner, attr, name, after, snapshot=False):
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if snapshot:
                tracer._begin_snapshot(args[1])
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = [name, start, end, parent, tracer._snapshot]
            if after is not None:
                after(args, result)
            if snapshot:
                tracer._end_snapshot(args[0], result)
            return result

        setattr(owner, attr, traced)

    # --- per-snapshot counts ---------------------------------------------------

    def _begin_snapshot(self, index):
        self._snapshot = int(index)
        self._snap = defaultdict(float)
        self._snap["snapshot"] = int(index)

    def _end_snapshot(self, cfg, result):
        """Counts that need the config; runs after the snapshot's span has closed."""
        s = self._snap
        s["serving_dim_max"] = max(aps.size for aps in self._plan.serving) * cfg.n_antennas
        if result.per_ap_power is not None:
            radiated = result.per_ap_power.sum()
        else:  # cb: each serving AP splits its full budget over its groups
            radiated = precoding.apa_power(
                self._stats.trace_r_comp, self._plan, cfg.dl_power_w, cfg.resolved_nu()
            ).sum()
        s["radiated_frac"] = float(radiated) / (cfg.n_aps * cfg.dl_power_w)
        self.per_snapshot.append(dict(s))
        self._snapshot = self._plan = self._stats = None

    def _after_covariance_field(self, args, result):
        self._snap["eigh_matrices"] += np.asarray(args[0]).size

    def _after_covariance_factors(self, args, result):
        self._snap["eigh_matrices"] += math.prod(args[0].shape[:-2])

    def _after_sample_channels(self, args, result):
        self._snap["channel_mb"] = max(self._snap["channel_mb"], result.nbytes / 1e6)

    def _after_assign_pilots_and_cluster(self, args, plan):
        self._snap["neighborhood_max"] = max(s.size for s in plan.s_set)
        self._plan = plan

    def _after_composite_stats(self, args, stats):
        self._stats = stats

    def _after_estimate_composites(self, args, estimates):
        self._snap["estimates"] = len(estimates)

    def _after_ipmmse_direction(self, args, directions):
        estimates, stats, plan, _, group = args[:5]
        n_real = directions.shape[0]
        n = plan.serving[group].size * stats.r_comp.shape[-1]
        self._snap["precoding_calls"] += 1
        self._snap["direct_flop"] += ipmmse_direct_flops(n_real, n, plan.s_set[group].size)

    def _after_cb_precoders(self, args, result):
        self._snap["precoding_calls"] += 1

    def _after_finalize(self, args, result):
        self._snap["clamped"] += result[3]

    # --- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: busy times, counts and flops per snapshot; *_mb and *_max are maxima."""
        if not self.per_snapshot:
            raise RuntimeError("traced campaign completed no snapshot")
        children = defaultdict(float)
        busy = defaultdict(float)
        layer_of = {span_name(o, a): m for o, a, m in STAGES}
        snap_durations = []
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
            if name in layer_of:
                busy[layer_of[name]] += end - start
        self_s = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name == SNAPSHOT_SPAN:
                snap_durations.append(end - start)
                self_s += end - start - children[i]
        per = self.per_snapshot
        n_snap = len(snap_durations)  # a snapshot that raised has a span but no counts

        def mean(key):
            return sum(s.get(key, 0.0) for s in per) / len(per)

        out = {m: busy[m] / n_snap for _, _, m in STAGES}
        out.update(
            {
                "covariance.eigh_matrices": mean("eigh_matrices"),
                "covariance.channel_mb": max(s["channel_mb"] for s in per),
                "pilots.serving_dim_max": max(s["serving_dim_max"] for s in per),
                "pilots.neighborhood_max": max(s["neighborhood_max"] for s in per),
                "estimation.estimates": mean("estimates"),
                "precoding.calls": mean("precoding_calls"),
                "precoding.direct_gflop": mean("direct_flop") / 1e9,
                "precoding.radiated_frac": mean("radiated_frac"),
                "evaluation.clamped": mean("clamped"),
                "harness.self_s": self_s / n_snap,
            }
        )
        busy_prec = out["precoding.busy_s"]
        out["precoding.effective_gflops"] = out["precoding.direct_gflop"] / busy_prec if busy_prec > 0 else 0.0
        snap_sorted = np.sort(snap_durations)
        out["harness.snapshot_s_p50"] = float(np.percentile(snap_sorted, 50))
        level = tail_level(len(snap_sorted))
        out["harness.snapshot_s_tail"] = float(np.percentile(snap_sorted, 100 * level))
        out["harness.snapshot_s_sum"] = float(snap_sorted.sum())
        out["harness.snapshot_count"] = len(snap_sorted)
        out["harness.tail_level"] = level
        return out

    def counts(self) -> list:
        """Shape-derived counts per snapshot, for the exact-repeat self-check."""
        keys = ("snapshot", "eigh_matrices", "channel_mb", "serving_dim_max", "neighborhood_max",
                "estimates", "precoding_calls", "direct_flop", "clamped")
        return [{k: s.get(k, 0.0) for k in keys} for s in self.per_snapshot]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "snapshot"], "spans": self.spans}, fh)
