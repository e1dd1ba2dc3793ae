"""Golden anchor: pinned per-snapshot outputs of ``harness.run_snapshot``.

Refactors of the snapshot pipeline must reproduce these values to rel 1e-9.
At 70 realizations one chunk straddles ``harness.CHUNK`` (64).  The pinned
values in ``golden_snapshots.json`` are the program's own output; regenerate
them only for a change that is meant to move results:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys

import numpy as np
import pytest

from cfmcast import harness
from cfmcast.config import preset

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_snapshots.json")
SNAPSHOTS = (0, 1)
REALIZATIONS = 70
RTOL = 1e-9

CASES = {
    "desk_uniform-ipmmse": ("desk_uniform", {}),
    "desk_uniform-cb": ("desk_uniform", {"precoder": "cb"}),
    "desk_uniform-ipmmse-single": ("desk_uniform", {"n_groups": 1}),
    "desk_clustered-cb": ("desk_clustered", {}),
    "desk_clustered-ipmmse": ("desk_clustered", {"precoder": "ipmmse"}),
    "desk_clustered-ipmmse-single": (
        "desk_clustered",
        {"precoder": "ipmmse", "n_groups": 1},
    ),
}


def case_config(name):
    base, overrides = CASES[name]
    return preset(base).with_overrides(realizations=REALIZATIONS, **overrides)


def measure(name):
    """Pinned outputs of one case: sum SE per user, and per-AP power for IP-MMSE."""
    cfg = case_config(name)
    out = []
    for index in SNAPSHOTS:
        res = harness.run_snapshot(cfg, index)
        entry = {"sum_se_per_user": res.report.sum_se_per_user}
        if cfg.precoder == "ipmmse":
            entry["per_ap_power"] = res.per_ap_power.tolist()
        out.append(entry)
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_snapshot_outputs_match_golden(name, golden):
    want = golden[name]
    got = measure(name)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g["sum_se_per_user"] == pytest.approx(w["sum_se_per_user"], rel=RTOL)
        assert ("per_ap_power" in g) == ("per_ap_power" in w)
        if "per_ap_power" in w:
            np.testing.assert_allclose(g["per_ap_power"], w["per_ap_power"], rtol=RTOL, atol=0)


def test_draw_handoff_under_fast_thread_switching(golden):
    # each chunk's normals are drawn on the draw thread while the main thread
    # works; switching threads every microsecond would expose a buffer read
    # before its draw finished
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = {name: measure(name) for name in sorted(CASES)}
    finally:
        sys.setswitchinterval(interval)
    for name, outputs in got.items():
        for g, w in zip(outputs, golden[name]):
            assert g["sum_se_per_user"] == pytest.approx(w["sum_se_per_user"], rel=RTOL), name

if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({name: measure(name) for name in sorted(CASES)}, fh, indent=1)
        fh.write("\n")
