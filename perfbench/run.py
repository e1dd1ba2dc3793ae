"""cfmcast benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fig3_cb --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the workload's campaign runs untraced in its own process
(campaign.py), repeated at least twice and for about ``--seconds``, after a
few set-up-only processes; the end-to-end metrics of BENCHMARK.json are
printed.  With ``--trace 1`` one untraced and one traced campaign run and the
per-layer metrics are printed.  Every snapshot's sum SE is checked; the last
stdout line is the JSON result, and the exit code is 1 when a check failed.
README.md in this directory documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

SETUP_PROBES = 4  # set-up-only processes; with the campaign process, five set-up samples
# two repeats at least, so that every seed's outputs are also checked against a repeat
MIN_REPEATS = 2
# relative tolerance on sum SE: 1000x the 1e-9 drift seen between BLAS thread counts
SAMPLE_RTOL = 1e-6
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing program, crashed child)."""


def machine_info() -> dict:
    """CPU model, cache sizes and CPU count of the host, read from the kernel."""
    info = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, entry)
            with open(os.path.join(base, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                info[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    except OSError:
        pass
    return info


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("benchmark run exceeded its deadline")
        return left


def spawn(deadline: Deadline, workload: str, seed: int, workers: int, *extra: str) -> tuple[float, dict]:
    """Run campaign.py to completion; return (spawn time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "campaign.py"), "--workload", workload,
           "--seed", str(seed), "--workers", str(workers), *extra]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} campaign process timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} campaign process exited with code {proc.returncode}")
    return t_spawn, json.loads(lines[-1])


class SampleCheck:
    """Checks every snapshot's sum SE of every repeat a run makes.

    A snapshot fails when its campaign raised on it, when its sum SE is not
    finite and non-negative, or when it differs by more than SAMPLE_RTOL from
    the pinned value (at the pinned seed) or from the run's first complete
    repeat (at any other seed).
    """

    def __init__(self, pinned: list | None):
        self.ref = pinned
        self.pinned = pinned is not None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, repeat: dict, snapshots: int) -> None:
        samples, error = repeat["samples"], repeat["error"]
        if self.ref is not None and len(self.ref) != snapshots:
            raise BenchError(f"pinned samples hold {len(self.ref)} snapshots, workload runs {snapshots}")
        for i, value in enumerate(samples):
            self.attempted += 1
            bad = None
            if not (math.isfinite(value) and value >= 0.0):
                bad = f"sum SE {value!r}"
            elif self.ref is not None and not math.isclose(value, self.ref[i], rel_tol=SAMPLE_RTOL):
                bad = f"sum SE {value!r} != {'pinned' if self.pinned else 'first repeat'} {self.ref[i]!r}"
            if bad:
                self.failed += 1
                self.problems.append(f"snapshot {i}: {bad}")
        if error is not None:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"snapshot {error['snapshot']} raised: {error['message']}")
        elif self.ref is None:
            self.ref = samples


def load_pinned(path: str, workload: str, seed: int) -> list | None:
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    if seed != golden["seed"]:
        return None
    return golden["workloads"].get(workload)


def per_snapshot(repeats: list, key: str) -> float:
    """Median over repeats of ``key`` per snapshot attempted in the repeat."""
    complete = [r for r in repeats if r["error"] is None] or repeats
    return statistics.median(r[key] / (len(r["samples"]) + (r["error"] is not None)) for r in complete)


def end_to_end(deadline, args, workers, check) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_PROBES):
        t_spawn, probe = spawn(deadline, args.workload, args.seed, workers, "--setup-only")
        setups.append(probe["t_enter"] - t_spawn)
    t_spawn, res = spawn(deadline, args.workload, args.seed, workers,
                         "--seconds", str(args.seconds), "--min-repeats", str(MIN_REPEATS))
    setups.append(res["t_enter"] - t_spawn)
    for r in res["repeats"]:
        check.add(r, res["snapshots"])
    metrics = {
        "snapshot_s": per_snapshot(res["repeats"], "wall_s"),
        "cpu_per_snapshot_s": per_snapshot(res["repeats"], "cpu_s"),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "ok_frac": 1.0 - check.failed / max(1, check.attempted),
    }
    notes = {
        "summary": f"snapshot_s, cpu_per_snapshot_s: median over {len(res['repeats'])} repeats of "
                   f"{res['snapshots']} snapshots; setup_s: median of {len(setups)} processes",
        "setup_samples": setups,
        "walls_s": [r["wall_s"] for r in res["repeats"]],
        "env": res["env"],
    }
    return metrics, notes


def per_layer(deadline, args, workers, check) -> tuple[dict, dict]:
    """Untraced campaign at the workload's worker count, then a traced one.

    Spans in forked pool workers do not come back, so the traced campaign runs
    one worker; tracing overhead is taken against an untraced one-worker run.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    runs = {}
    runs["untraced"] = spawn(deadline, args.workload, args.seed, workers)[1]
    if workers > 1:
        runs["untraced_1w"] = spawn(deadline, args.workload, args.seed, 1)[1]
    runs["traced"] = spawn(deadline, args.workload, args.seed, 1, "--trace", "1", "--spans", spans)[1]
    for res in runs.values():
        for r in res["repeats"]:
            check.add(r, res["snapshots"])
    traced = runs["traced"]
    layers = dict(traced["layers"])
    wall = {k: v["repeats"][0]["wall_s"] for k, v in runs.items()}
    one_worker = wall.get("untraced_1w", wall["untraced"])
    layers["harness.tracing_overhead_frac"] = wall["traced"] / one_worker - 1.0
    layers["harness.parallel_efficiency"] = layers["harness.snapshot_s_sum"] / (workers * wall["untraced"])
    n_snap = layers["harness.snapshot_count"]
    snap_mean = layers["harness.snapshot_s_sum"] / n_snap
    shares = {k: v / snap_mean for k, v in layers.items() if k.endswith("busy_s") or k == "harness.self_s"}
    notes = {
        "summary": f"per traced snapshot, {n_snap} snapshots; tail = p{100 * layers['harness.tail_level']:g}; "
                   "share of snapshot time: "
                   + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
        "campaign_walls_s": wall,
        "traced_snapshot_s_mean": snap_mean,
        "counts": traced["counts"],
        "spans_file": os.path.relpath(spans, ROOT),
        "env": traced["env"],
    }
    return layers, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cfmcast benchmark: one workload, one run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--golden", default=GOLDEN, help="pinned per-snapshot sum SE (default: golden.json)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cfmcast", "__init__.py")):
        print(f"benchmark: no cfmcast sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workers = WORKLOADS[args.workload].workers
    check = SampleCheck(load_pinned(args.golden, args.workload, args.seed))
    deadline = Deadline(RUN_DEADLINE_S)
    try:
        values, notes = (per_layer if args.trace else end_to_end)(deadline, args, workers, check)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    correct = check.failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pinned_check": check.pinned,
        "problems": check.problems,
        "machine": machine_info(),
        "notes": notes,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in check.problems:
        print(f"CHECK FAILED {problem}")
    for name, m in metrics.items():
        print(f"{args.workload}  {name:32s} {m['value']:.6g} {m['unit']}")
    print(notes["summary"])
    print("env " + json.dumps({"machine": record["machine"], **notes["env"]}))
    print(json.dumps({"correct": correct, "attempted": check.attempted, "failed": check.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
