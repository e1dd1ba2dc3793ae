"""Campaign orchestration: seeding, determinism, outputs and the CLI."""

import contextlib
import csv
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from cfmcast import cli, config, covariance, evaluation, harness, openblas, precoding
from cfmcast.config import DL_POWER_W, preset
from cfmcast.errors import CampaignError, ConfigError

from conftest import build_pipeline, ipmmse_with_power, sinr_terms, small_config

SRC = os.path.dirname(os.path.dirname(harness.__file__))


def tiny_campaign_config(**overrides):
    base = dict(snapshots=3, realizations=30, n_aps=4, n_antennas=2, n_ms=8, n_groups=3, tau_p=2)
    base.update(overrides)
    return small_config(**base)


class TestStageSeeding:
    def test_stage_rng_reproducible(self):
        a = harness.stage_rng(7, 3, "channels", 2).standard_normal(5)
        b = harness.stage_rng(7, 3, "channels", 2).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_distinct_across_axes(self):
        base = harness.stage_rng(7, 3, "channels", 2).standard_normal(5)
        for other in (
            harness.stage_rng(8, 3, "channels", 2),
            harness.stage_rng(7, 4, "channels", 2),
            harness.stage_rng(7, 3, "pilot_noise", 2),
            harness.stage_rng(7, 3, "channels", 3),
        ):
            assert not np.array_equal(base, other.standard_normal(5))

    def test_geometry_shared_across_service_configs(self):
        # group count and precoder do not enter the seed path, so paired comparisons
        # see the same deployments
        pipe_args = lambda cfg: (
            cfg,
            harness.stage_rng(cfg.master_seed, 0, "aps"),
            harness.stage_rng(cfg.master_seed, 0, "ms"),
            harness.stage_rng(cfg.master_seed, 0, "shadowing"),
        )
        from cfmcast import geometry

        a = geometry.build_deployment(*pipe_args(tiny_campaign_config(precoder="ipmmse")))
        b = geometry.build_deployment(*pipe_args(tiny_campaign_config(precoder="cb", n_groups=1)))
        assert np.array_equal(a.beta, b.beta)

    def test_service_choice_keeps_grouping(self):
        # switching the precoder leaves the partition untouched, label for label
        a = build_pipeline(tiny_campaign_config(precoder="ipmmse")).plan
        b = build_pipeline(tiny_campaign_config(precoder="cb")).plan
        assert np.array_equal(a.group_of, b.group_of)


class TestSnapshot:
    def test_snapshot_deterministic(self):
        cfg = tiny_campaign_config()
        a = harness.run_snapshot(cfg, 1)
        b = harness.run_snapshot(cfg, 1)
        assert np.array_equal(a.report.sinr, b.report.sinr)

    def test_draw_thread_ends_with_the_snapshot(self):
        before = threading.active_count()
        harness.run_snapshot(tiny_campaign_config(realizations=harness.CHUNK + 5), 0)
        assert threading.active_count() == before

    def test_factors_are_freed_after_the_last_correlation(self, monkeypatch):
        # a two-chunk snapshot correlates both chunks with the one set of
        # factors, held through chunk 0 and dropped before chunk 1's update
        factors = []
        alive = []
        sample_channels = covariance.sample_channels
        update = evaluation.SinrAccumulator.update

        def sample_and_watch(f, normals):
            factors.append(weakref.ref(f))
            return sample_channels(f, normals)

        def update_and_check(self, *args):
            alive.append(factors[0]() is not None)
            return update(self, *args)

        monkeypatch.setattr(covariance, "sample_channels", sample_and_watch)
        monkeypatch.setattr(evaluation.SinrAccumulator, "update", update_and_check)
        harness.run_snapshot(tiny_campaign_config(realizations=harness.CHUNK + 5), 0)
        assert len(factors) == 2 and factors[0]() is factors[1]()
        assert alive == [True, False]

    def test_slab_helper_threads_end_with_the_snapshot(self, monkeypatch):
        # with three realizations per slab every chunk is correlated on two
        # threads; the SINRs match the one-slab run bit for bit
        cfg = tiny_campaign_config(realizations=harness.CHUNK + 5)
        want = harness.run_snapshot(cfg, 0)
        monkeypatch.setattr(covariance, "SLAB_ELEMENTS", 3 * cfg.n_ms * cfg.n_aps * cfg.n_antennas)
        before = threading.active_count()
        got = harness.run_snapshot(cfg, 0)
        assert threading.active_count() == before
        assert np.array_equal(got.report.sinr, want.report.sinr)

    def test_outputs_do_not_depend_on_the_callers_blas_threads(self, monkeypatch):
        # about the smallest fig3-like IP-MMSE snapshot whose products OpenBLAS
        # splits over two threads when allowed to, which moves its SINRs by ~1e-12
        caller = openblas.thread_counts()
        if not caller:
            pytest.skip("neither numpy nor SciPy ships an OpenBLAS")
        cfg = preset("fig3").with_overrides(precoder="ipmmse", n_aps=64, n_ms=50, realizations=1)
        sinr = {}
        try:
            for count in (1, 2):
                openblas.set_thread_counts([count] * len(caller))
                want = openblas.thread_counts()
                sinr[count] = harness.run_snapshot(cfg, 0).report.sinr
                assert openblas.thread_counts() == want
            # restored after a snapshot that raises, too
            def failing(factors, normals):
                raise RuntimeError("synthetic sampling failure")

            monkeypatch.setattr(covariance, "sample_channels", failing)
            with pytest.raises(RuntimeError, match="synthetic sampling failure"):
                harness.run_snapshot(cfg, 0)
            assert openblas.thread_counts() == want
        finally:
            openblas.set_thread_counts(caller)
        assert np.array_equal(sinr[1], sinr[2])

    def test_peak_memory_of_a_mid_size_clustered_snapshot(self):
        # with 4 realizations the (L, K, N, N) covariance field is as large as
        # the channel chunk; the field and its MS-major factors are built
        # without a full-size temporary and the field is dropped after
        # composite_stats, so the traced peak is 3.95 fields, in set-up (field,
        # factors, chunk and the stage's temporaries), and the correlation
        # holds 3.75 (chunk, factors, two slab buffers); reading the factors
        # through an MS-major copy reached 4.75, out-of-place synthesis 6.3
        cfg = preset("fig3").with_overrides(n_aps=60, n_ms=300, n_groups=20, realizations=4)
        field_bytes = cfg.n_aps * cfg.n_ms * cfg.n_antennas**2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            harness.run_snapshot(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * field_bytes, peak / field_bytes

    def test_chunk_boundary_sizes(self):
        # realization counts below, at and above the chunk size must all work
        for t in (harness.CHUNK - 1, harness.CHUNK, harness.CHUNK + 5):
            cfg = tiny_campaign_config(realizations=t)
            res = harness.run_snapshot(cfg, 0)
            assert np.all(np.isfinite(res.report.sinr))

    def test_centralized_power_audit(self):
        cfg = tiny_campaign_config(precoder="ipmmse")
        res = harness.run_snapshot(cfg, 0)
        assert res.per_ap_power is not None
        assert res.per_ap_power.max() <= DL_POWER_W * 1.01

    def test_single_group_busiest_ap_binds_exactly(self):
        # with one group the fractional rule leaves no slack: the busiest
        # serving AP radiates the whole downlink budget
        cfg = tiny_campaign_config(n_groups=1, precoder="ipmmse")
        res = harness.run_snapshot(cfg, 0)
        assert res.per_ap_power.max() == pytest.approx(DL_POWER_W, rel=1e-9)

    def test_distributed_serving_aps_radiate_full_budget(self):
        # every AP serves at least one group and splits its whole budget over them
        cfg = tiny_campaign_config(precoder="cb")
        res = harness.run_snapshot(cfg, 0)
        assert res.per_ap_power == pytest.approx(np.full(cfg.n_aps, DL_POWER_W), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("precoder", ["ipmmse", "cb"])
    def test_tests_pipeline_is_the_snapshot_pipeline(self, precoder):
        # one chunk: the pipeline the oracle tests build reproduces run_snapshot bitwise
        cfg = small_config(precoder=precoder)
        assert cfg.realizations <= harness.CHUNK
        pipe = build_pipeline(cfg)
        plan = pipe.plan
        if precoder == "ipmmse":
            w, power_scale, per_ap_power = ipmmse_with_power(pipe.estimates, pipe.stats, plan)
        else:
            w = precoding.cb_precoders(pipe.estimates, pipe.stats, plan)
            power_scale = np.ones(plan.n_groups)
        _, _, sinr, _ = sinr_terms(pipe.channels, w, power_scale, plan, pipe.plan.group_of)
        res = harness.run_snapshot(cfg, 0)
        assert np.array_equal(sinr, res.report.sinr)
        if precoder == "ipmmse":
            assert np.array_equal(per_ap_power, res.per_ap_power)

    def test_summary_fields(self):
        cfg = tiny_campaign_config()
        res = harness.run_snapshot(cfg, 2)
        s = res.summary()
        assert s["snapshot"] == 2
        assert s["n_groups"] == 3
        assert s["sum_se_per_user"] >= s["sum_se_per_group"] >= 0.0
        assert s["min_user_se"] <= s["median_user_se"]
        assert 0.0 < s["radiated_frac"] <= 1.0
        assert s["radiated_frac"] == pytest.approx(
            res.per_ap_power.sum() / (cfg.n_aps * DL_POWER_W), rel=1e-12
        )


class TestCampaign:
    def test_serial_deterministic(self):
        cfg = tiny_campaign_config()
        a = harness.run_campaign(cfg, workers=1)
        b = harness.run_campaign(cfg, workers=1)
        assert np.array_equal(a.samples, b.samples)
        assert len(a.summaries) == cfg.snapshots

    def test_worker_count_invariance(self):
        cfg = tiny_campaign_config(snapshots=4)
        serial = harness.run_campaign(cfg, workers=1)
        parallel = harness.run_campaign(cfg, workers=3)
        assert np.array_equal(serial.samples, parallel.samples)
        assert serial.summaries == parallel.summaries

    def test_samples_are_per_user_sums(self):
        result = harness.run_campaign(tiny_campaign_config(), workers=1)
        per_user = np.array([s["sum_se_per_user"] for s in result.summaries])
        assert np.array_equal(result.samples, per_user)
        assert np.array_equal(harness.empirical_cdf(result.samples)[0], np.sort(per_user))

    @pytest.mark.parametrize("workers", [1, 2], ids=["in_process", "pool"])
    def test_abort_carries_prefix(self, monkeypatch, tmp_path, workers):
        # forked pool workers inherit the patched run_snapshot
        cfg = tiny_campaign_config(snapshots=40)
        real = harness.run_snapshot

        def failing(c, index):
            (tmp_path / f"started_{index}").touch()
            if index == 2:
                raise RuntimeError("synthetic failure")
            if index > 2:
                time.sleep(0.2)  # outlasts the pool's round trip, as a real snapshot does
            return real(c, index)

        monkeypatch.setattr(harness, "run_snapshot", failing)
        with pytest.raises(CampaignError) as err:
            harness.run_campaign(cfg, workers=workers)
        assert err.value.failed_snapshot == 2
        assert len(err.value.partial) == 2
        assert [s["snapshot"] for s in err.value.partial] == [0, 1]
        assert "synthetic failure" in str(err.value)
        # the queued snapshots are cancelled: past the failure, only those that
        # a worker holds (one each) or the pool has queued (workers + 1) start
        started = len(list(tmp_path.glob("started_*")))
        assert 3 <= started <= 3 + 2 * workers + 1

    def test_killed_worker_aborts_instead_of_hanging(self):
        # in a subprocess, so that a hanging pool fails the test at its timeout
        result = _run_isolated(
            """
            import os, signal
            from cfmcast import harness

            real = harness.run_snapshot

            def killing(cfg, index):
                if index == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(cfg, index)

            harness.run_snapshot = killing
            """,
            workers=2,
        )
        # snapshot 0 may finish or be lost with the pool; 1 never finishes
        assert result["failed"] == result["done"] <= 1
        assert "pool broke" in result["message"]

    @pytest.mark.parametrize("workers", [1, 2], ids=["in_process", "pool"])
    def test_failed_draw_aborts_instead_of_hanging(self, workers):
        # the draw runs on the snapshot's second thread; its failure must reach
        # the campaign as the snapshot's
        result = _run_isolated(
            """
            from cfmcast import covariance, harness

            real_snapshot, real_draw = harness.run_snapshot, covariance.draw_normals
            current = []

            def tracking(cfg, index):
                current.append(index)
                return real_snapshot(cfg, index)

            def failing(out, rng):
                if current[-1] == 1:
                    raise RuntimeError("synthetic draw failure")
                return real_draw(out, rng)

            harness.run_snapshot, covariance.draw_normals = tracking, failing
            """,
            workers=workers,
        )
        assert result["failed"] == result["done"] == 1
        assert "synthetic draw failure" in result["message"]

    def test_pool_workers_run_one_blas_thread(self, tmp_path):
        # snapshots run one BLAS thread in a pool and in process alike
        cfg = preset("desk_uniform").with_overrides(realizations=8, snapshots=4)
        in_process = openblas.thread_counts()
        # null only where no bundled OpenBLAS is there to set the count through
        one = 1 if in_process else None
        result = harness.run_campaign(cfg, workers=2)
        harness.write_outputs(result, str(tmp_path))
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["worker_blas_threads"] == one
        assert openblas.thread_counts() == in_process
        serial = harness.run_campaign(cfg, workers=1)
        harness.write_outputs(serial, str(tmp_path / "serial"))
        report = json.loads((tmp_path / "serial" / "report.json").read_text())
        assert report["worker_blas_threads"] == one
        assert openblas.thread_counts() == in_process
        assert serial.summaries == result.summaries

    def test_pool_forks_after_in_process_campaign(self):
        # the forked workers inherit an interpreter whose draw threads have run
        cfg = preset("desk_uniform").with_overrides(realizations=harness.CHUNK + 6, snapshots=4)
        serial = harness.run_campaign(cfg, workers=1)
        pooled = harness.run_campaign(cfg, workers=2)
        assert pooled.summaries == serial.summaries

    def test_pool_starts_no_more_processes_than_snapshots(self, monkeypatch):
        # a recording stand-in that maps in process, so no process is started
        sizes = []

        class InProcessPool(contextlib.AbstractContextManager):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)

            def __exit__(self, *exc):
                return None

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        cfg = tiny_campaign_config(snapshots=2)
        result = harness.run_campaign(cfg, workers=500)
        assert sizes == [2]
        assert result.workers == 500
        harness.run_campaign(cfg.with_overrides(snapshots=3), workers=2)
        assert sizes == [2, 2]

    def test_zero_workers_raise(self):
        with pytest.raises(ConfigError):
            harness.run_campaign(tiny_campaign_config(), workers=0)


def _run_isolated(patch: str, workers: int) -> dict:
    """Run a 4-snapshot desk_uniform campaign after ``patch`` in a fresh process.

    Returns the CampaignError it must raise as a dict; the process and any pool
    workers it leaves behind are killed after 30 s, so a hang fails the test.
    """
    script = textwrap.dedent(patch) + textwrap.dedent(
        f"""
        import json
        from cfmcast import harness
        from cfmcast.config import preset
        from cfmcast.errors import CampaignError

        cfg = preset("desk_uniform").with_overrides(realizations=8, snapshots=4)
        try:
            harness.run_campaign(cfg, workers={workers})
        except CampaignError as exc:
            print(json.dumps({{"failed": exc.failed_snapshot, "done": len(exc.partial), "message": str(exc)}}))
        """
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=30)
    finally:
        # also reaps pool workers that a hung campaign leaves behind
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 0, err
    return json.loads(out)


class TestCdf:
    def test_empirical_cdf_invariants(self, rng):
        samples = rng.normal(size=37)
        values, probs = harness.empirical_cdf(samples)
        assert values.size == probs.size == 37
        assert np.all(np.diff(values) >= 0)
        assert np.all(np.diff(probs) > 0)
        assert probs[-1] == pytest.approx(1.0)
        assert probs[0] == pytest.approx(1 / 37)


class TestOutputs:
    def test_write_outputs_files(self, tmp_path):
        cfg = tiny_campaign_config()
        result = harness.run_campaign(cfg, workers=1)
        out = tmp_path / "run"
        harness.write_outputs(result, str(out))
        with open(out / "cdf.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sum_se_bps_hz", "cdf"]
        assert len(rows) == 1 + cfg.snapshots
        # repr round-trips the samples exactly
        values = np.array([float(r[0]) for r in rows[1:]])
        assert np.array_equal(values, np.sort(result.samples))
        report = json.loads((out / "report.json").read_text())
        assert report["config_hash"] == result.config.config_hash()
        assert report["config"]["n_aps"] == cfg.n_aps
        assert len(report["snapshots"]) == cfg.snapshots
        assert "median_sum_se" in report["diagnostics"]

    def test_write_partial(self, tmp_path):
        harness.write_partial([{"snapshot": 0}], 1, "boom", str(tmp_path / "p"))
        payload = json.loads((tmp_path / "p" / "report_partial.json").read_text())
        assert payload["failed_snapshot"] == 1
        assert payload["completed"] == [{"snapshot": 0}]


# a valid one-snapshot JSON config and preset arguments
_SMALL = {"n_ms": 12, "n_aps": 6, "n_groups": 4, "snapshots": 1, "realizations": 8}
_DESK = ("--preset", "desk_uniform", "--snapshots", "2", "--realizations", "8")

# id: (the --config file's JSON object or raw bytes, or None for no file;
# further arguments; an excerpt of the error message); the CLI runs in an empty
# directory, so nope.json does not exist
EXIT_TWO = {
    "bad_key": ({"n_aps": 4, "bogus_key": 1}, (), "unknown config keys: ['bogus_key']"),
    # a UTF-16 byte-order mark does not decode as UTF-8
    "non_utf8": (b"\xff\xfe" + json.dumps({"n_groups": 4}).encode("utf-16-le"), (), "is not valid UTF-8 JSON"),
    # valid JSON that is not an object
    "json_list": ([], (), "config file cfg.json must hold a JSON object"),
    "json_number": (3, (), "config file cfg.json must hold a JSON object"),
    "n_groups_str": (dict(_SMALL, n_groups="4"), (), "must be of type"),
    "cluster_side_m_str": (dict(_SMALL, clusters=3, cluster_side_m="10"), (), "must be of type"),
    "realizations_float": (dict(_SMALL, realizations=8.5), (), "must be of type"),
    # the layout is the flat clusters / cluster_side_m pair; the old nested key is unknown
    "nested_deployment_object": (
        dict(_SMALL, deployment={"kind": "clustered", "clusters": 3, "cluster_side_m": 10.0}),
        (),
        "unknown config keys: ['deployment']",
    ),
    "nested_deployment_null": (dict(_SMALL, deployment=None), (), "unknown config keys: ['deployment']"),
    # kappa is fixed in code: a config that sets it, in range or not, names an unknown key
    "kappa": (dict(_SMALL, kappa=-5.0), (), "unknown config keys: ['kappa']"),
    # every campaign samples the per-user sum SE: the former convention key is unknown
    "sum_convention": (dict(_SMALL, sum_convention="per_group"), (), "unknown config keys: ['sum_convention']"),
    "negative_seed": (None, _DESK + ("--seed", "-1", "--workers", "2"), "master_seed must be non-negative"),
    "missing_file": (None, ("--config", "nope.json"), "No such file or directory"),
    "zero_workers": (None, _DESK + ("--workers", "0"), "workers must be at least 1"),
}


class TestCli:
    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_preset_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = self.run_cli(
            "--preset", "desk_uniform", "--snapshots", "2", "--realizations", "20",
            "--workers", "1", "--out", str(out),
        )
        assert code == 0
        assert (out / "cdf.csv").exists()
        assert (out / "report.json").exists()
        assert "median sum SE" in capsys.readouterr().out

    def test_config_file_run(self, tmp_path):
        cfg = tiny_campaign_config(snapshots=2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "run"
        code = self.run_cli("--config", str(path), "--workers", "1", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["n_ms"] == cfg.n_ms

    def test_overrides_apply(self, tmp_path):
        out = tmp_path / "run"
        code = self.run_cli(
            "--preset", "desk_uniform", "--groups", "1", "--precoder", "cb",
            "--snapshots", "1", "--realizations", "15", "--seed", "5",
            "--workers", "1", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["n_groups"] == 1
        assert report["config"]["precoder"] == "cb"
        assert report["config"]["master_seed"] == 5
        assert "sum_convention" not in report["config"]

    @pytest.mark.parametrize("case", EXIT_TWO.values(), ids=EXIT_TWO.keys())
    def test_bad_input_exits_two_creating_nothing(self, tmp_path, monkeypatch, capsys, case):
        config, args, message = case
        monkeypatch.chdir(tmp_path)
        if config is not None:
            raw = config if isinstance(config, bytes) else json.dumps(config).encode()
            (tmp_path / "cfg.json").write_bytes(raw)
            args = ("--config", "cfg.json") + args
        assert self.run_cli(*args, "--out", "run") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_finite_powers_fail_the_campaign(self, tmp_path, capsys, monkeypatch):
        # nu = 50 underflows every fractional power weight to zero, and the
        # 0 / 0 powers would make every SINR NaN: the snapshot fails instead
        monkeypatch.setitem(config.NU, "ipmmse", 50.0)
        data = {"n_ms": 12, "n_aps": 6, "n_groups": 4, "snapshots": 1, "realizations": 8}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert self.run_cli("--config", str(path), "--out", str(out)) == 1
        assert "fractional powers are not finite" in capsys.readouterr().err
        partial = json.loads((out / "report_partial.json").read_text())
        assert partial["failed_snapshot"] == 0 and partial["completed"] == []
        assert not (out / "cdf.csv").exists()
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under_file"])
    def test_out_not_a_directory_exits_two_before_the_campaign(self, tmp_path, monkeypatch, capsys, under):
        def never(cfg, workers=None):
            raise AssertionError("the campaign ran before --out was checked")

        monkeypatch.setattr(cli, "run_campaign", never)
        taken = tmp_path / "cdf.csv"
        taken.write_text("sum_se_bps_hz,cdf\n")
        out = taken / under if under else taken
        assert self.run_cli("--preset", "desk_uniform", "--snapshots", "1", "--out", str(out)) == 2
        assert "not a directory" in capsys.readouterr().err
        assert taken.read_text() == "sum_se_bps_hz,cdf\n"

    def test_campaign_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, workers=None):
            raise CampaignError("snapshot 0 failed", partial=[], failed_snapshot=0)

        monkeypatch.setattr(cli, "run_campaign", boom)
        out = tmp_path / "run"
        code = self.run_cli(
            "--preset", "desk_uniform", "--snapshots", "1", "--out", str(out), "--workers", "1"
        )
        assert code == 1
        assert (out / "report_partial.json").exists()

    def test_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_sum_convention_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            self.run_cli("--preset", "desk_uniform", "--sum-convention", "per_group", "--out", str(out))
        assert exc.value.code == 2
        assert "unrecognized arguments: --sum-convention" in capsys.readouterr().err
        assert not out.exists()
