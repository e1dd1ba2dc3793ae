"""The benchmark's span tracer (``perfbench/tracer.py``) still fits the program.

The tracer wraps pipeline stages by module attribute name and reads argument
and result shapes, so a rename or a layout change in ``src/`` that breaks it
fails here rather than only when the benchmark runs.
"""

import os

import numpy as np
import pytest

from cfmcast import harness

from conftest import small_config

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracer_module(monkeypatch):
    """The tracer module, with every attribute it wraps restored after the test."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    for owner, attr, _ in tracer.STAGES:
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    monkeypatch.setattr(harness, "run_snapshot", harness.run_snapshot)
    return tracer


@pytest.mark.parametrize("precoder, idle", [("ipmmse", "cb_precoders"), ("cb", "ipmmse_direction")])
def test_traced_snapshot_covers_every_stage(tracer_module, precoder, idle):
    tracer = tracer_module.Tracer()
    tracer.install()
    harness.run_snapshot(small_config(precoder=precoder), 0)
    metrics = tracer.metrics()
    assert all(np.isfinite(v) for v in metrics.values())
    traced = {span[0] for span in tracer.spans}
    expected = {
        tracer_module.span_name(owner, attr) for owner, attr, _ in tracer_module.STAGES if attr != idle
    }
    assert expected <= traced
    assert tracer_module.SNAPSHOT_SPAN in traced
    assert metrics["precoding.calls"] > 0


def test_spans_partition_a_two_chunk_snapshot(tracer_module):
    # the channel draw runs on a second thread; a wrapped stage called from it
    # would break the span stack and with it this sum
    tracer = tracer_module.Tracer()
    tracer.install()
    cfg = small_config(realizations=harness.CHUNK + 6)
    harness.run_snapshot(cfg, 0)
    metrics = tracer.metrics()
    chunk_mb = harness.CHUNK * cfg.n_ms * cfg.n_aps * cfg.n_antennas * 16 / 1e6
    assert metrics["covariance.channel_mb"] == pytest.approx(chunk_mb, rel=1e-12)
    layers = {metric for _, _, metric in tracer_module.STAGES}
    covered = sum(metrics[m] for m in layers) + metrics["harness.self_s"]
    assert metrics["harness.snapshot_count"] == 1
    assert covered == pytest.approx(metrics["harness.snapshot_s_sum"], rel=1e-9)
