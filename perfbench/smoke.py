"""Smoke test of the benchmark at a tiny size; exit 0 when every check holds.

    python3 perfbench/smoke.py

1. An untraced and a traced run of the ``tiny`` workload exit 0 with
   ``correct: true`` and print every metric of BENCHMARK.json with its unit.
2. The shape-derived counts of two traced runs are identical, and the layer
   busy times plus ``harness.self_s`` add up to the traced snapshot time.
3. A run checked against a wrong pinned value exits non-zero with
   ``correct: false``.
4. In a directory holding only BENCHMARK.json and this directory, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def bench(trace: int, *extra: str, cwd: str = ROOT) -> tuple[int, list]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "0",
           "--seconds", "2", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: list):
    try:
        res = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return res if isinstance(res, dict) and "metrics" in res else None


def record(trace: int) -> dict:
    with open(os.path.join(OUT, f"tiny-seed0-trace{trace}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_metrics(trace: int, code: int, lines: list) -> None:
    kind = "per_layer" if trace else "end_to_end"
    res = result_of(lines)
    expect(code == 0 and res is not None and res["correct"], f"trace {trace}: exit 0, correct")
    for m in SPEC[kind]:
        printed = any(m["name"] in line.split() and m["unit"] in line.split() for line in lines[:-1])
        got = res["metrics"].get(m["name"]) if res else None
        expect(printed and got is not None and got["unit"] == m["unit"] and math.isfinite(got["value"]),
               f"trace {trace}: {m['name']} printed in {m['unit']}")


def main() -> int:
    code, lines = bench(0)
    check_metrics(0, code, lines)

    code, lines = bench(1)
    check_metrics(1, code, lines)
    first = record(1)
    bench(1)
    second = record(1)
    expect(first["notes"]["counts"] == second["notes"]["counts"], "counts repeat exactly across traced runs")
    metrics = first["metrics"]
    busy = sum(v["value"] for k, v in metrics.items() if k.endswith("busy_s")) + metrics["harness.self_s"]["value"]
    expect(math.isclose(busy, first["notes"]["traced_snapshot_s_mean"], rel_tol=1e-9),
           "layer busy times plus harness.self_s equal the traced snapshot time")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    golden["workloads"]["tiny"] = [v * 1.001 for v in golden["workloads"]["tiny"]]
    wrong = os.path.join(OUT, "wrong_golden.json")
    with open(wrong, "w", encoding="utf-8") as fh:
        json.dump(golden, fh)
    code, lines = bench(0, "--golden", wrong)
    res = result_of(lines)
    expect(code != 0 and res is not None and not res["correct"] and res["failed"] > 0,
           "a wrong pinned value fails the output check with a non-zero exit")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, lines = bench(0, cwd=bare)
    expect(code != 0 and result_of(lines) is None, "without the program: non-zero exit, no result")
    shutil.rmtree(bare)

    print(f"smoke: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
