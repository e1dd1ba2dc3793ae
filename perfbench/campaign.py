"""One workload's campaign in a fresh interpreter; started by run.py.

The process imports cfmcast from this checkout's ``src/``, builds the
workload's config and records the monotonic time at which it enters
``run_campaign`` (run.py subtracts its own spawn time to get set-up time).
It then repeats the identical campaign at least ``--min-repeats`` times and
stops at the repeat count whose total lies nearest to ``--seconds``; it prints one JSON line with per-repeat
wall and CPU time, the sum-SE samples and the peak resident memory.  With ``--trace 1`` the
pipeline stages are wrapped by tracer.Tracer and the per-layer metrics and
shape-derived counts are added; spans go to ``--spans``.

    python3 perfbench/campaign.py --workload fig3_cb --seed 0 --seconds 30 --min-repeats 2 --workers 1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    """Interpreter, numpy/BLAS build and thread settings of this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0, help="time budget for the repeats")
    ap.add_argument("--min-repeats", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="exit on entering run_campaign")
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import cfmcast
    from cfmcast import CampaignError, run_campaign

    if not os.path.abspath(cfmcast.__file__).startswith(SRC + os.sep):
        print(f"cfmcast imported from {cfmcast.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cfg = WORKLOADS[args.workload].config(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_enter = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_enter": t_enter}))
        return 0

    repeats = []
    while True:
        c0 = _cpu_seconds()
        t0 = time.monotonic()
        error = None
        try:
            samples = run_campaign(cfg, workers=args.workers).samples.tolist()
        except CampaignError as exc:
            key = "sum_se_per_user" if cfg.sum_convention == "per_user" else "sum_se_per_group"
            samples = [s[key] for s in exc.partial]
            error = {"snapshot": exc.failed_snapshot, "message": str(exc)}
        wall = time.monotonic() - t0
        repeats.append({"wall_s": wall, "cpu_s": _cpu_seconds() - c0, "samples": samples, "error": error})
        if error is not None or tracer is not None:
            break
        # stop at the repeat count that ends nearest to the time budget
        if len(repeats) >= args.min_repeats and time.monotonic() - t_enter + 0.5 * wall >= args.seconds:
            break

    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {
        "t_enter": t_enter,
        "snapshots": cfg.snapshots,
        "repeats": repeats,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "env": environment(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["counts"] = tracer.counts()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
