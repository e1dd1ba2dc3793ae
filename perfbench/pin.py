"""Write golden.json: every workload's per-snapshot sum SE at the pinned seed.

    python3 perfbench/pin.py [workload ...]

Run this only at a commit whose outputs are the reference; run.py compares
every snapshot at the pinned seed against these values.
"""

from __future__ import annotations

import json
import os
import sys

from run import GOLDEN, Deadline, spawn
from workloads import DEFAULT_SEED, WORKLOADS


def main(names) -> int:
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    else:
        golden = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in names or WORKLOADS:
        _, res = spawn(Deadline(900.0), name, golden["seed"], WORKLOADS[name].workers)
        repeat = res["repeats"][0]
        if repeat["error"] is not None:
            raise SystemExit(f"{name}: {repeat['error']['message']}")
        golden["workloads"][name] = repeat["samples"]
        print(name, repeat["samples"][:4], flush=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
