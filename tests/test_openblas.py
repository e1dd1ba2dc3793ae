"""The bundled OpenBLAS builds: SciPy's Cholesky through ctypes, and start-up without scipy.linalg or the process pool."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.linalg import cholesky

from cfmcast import geometry, harness, openblas
from cfmcast.config import preset
from cfmcast.errors import SynthesisError

SRC = os.path.dirname(os.path.dirname(openblas.__file__))


def shadowing_correlation(name: str, index: int) -> np.ndarray:
    """The correlation matrix that snapshot ``index`` of preset ``name`` factors."""
    cfg = preset(name)
    seen = []

    def recording(corr):
        seen.append(corr.copy())
        return openblas.cholesky_lower(corr)

    stages = [harness.stage_rng(cfg.master_seed, index, stage) for stage in ("aps", "ms", "shadowing")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "cholesky_lower", recording)
        geometry.build_deployment(cfg, *stages)
    (corr,) = seen
    return corr


@pytest.fixture(params=["bundled", "fallback"])
def path(request, monkeypatch):
    """Run cholesky_lower through SciPy's bundled dpotrf, or force the scipy.linalg fallback."""
    if request.param == "bundled" and openblas._DPOTRF is None:
        pytest.skip("SciPy ships no bundled OpenBLAS")
    if request.param == "fallback":
        monkeypatch.setattr(openblas, "_DPOTRF", None)
    return request.param


@pytest.mark.parametrize("package", ["json", "glob", "no_such_package"])
def test_no_build_without_a_libs_directory(package):
    # a package without <package>.libs, a plain module, and a name find_spec cannot find
    assert openblas._load(package) is None


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("name", ["fig3", "desk_clustered", "fig2_100"])
def test_factor_is_scipys_in_values_and_layout(name, index, path):
    corr = shadowing_correlation(name, index)
    got = openblas.cholesky_lower(corr)
    want = cholesky(corr, lower=True)
    assert np.array_equal(got, want)
    # z @ factor.T reproduces the shadowing's floats only with SciPy's layout
    assert got.strides == want.strides
    assert got.flags.f_contiguous


def test_indefinite_matrix_raises(path):
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        openblas.cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
    # sample_shadowing reports it as a synthesis failure on either path
    axis = np.arange(4) * 2.5
    pos = np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
    with pytest.raises(SynthesisError):
        geometry.sample_shadowing(pos, 3, 10.0, np.random.default_rng(0))


def loaded_after_campaign(*modules: str) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after a one-worker campaign, as printed booleans."""
    script = textwrap.dedent(
        f"""
        import sys
        import cfmcast

        cfg = cfmcast.preset("desk_uniform").with_overrides(snapshots=1, realizations=4)
        cfmcast.run_campaign(cfg)
        print(*(name in sys.modules for name in {modules!r}))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_campaign_runs_without_importing_scipy_linalg():
    assert loaded_after_campaign("scipy.linalg") == ["False"]


def test_in_process_campaign_runs_without_importing_the_process_pool():
    assert loaded_after_campaign("multiprocessing", "concurrent.futures.process") == ["False", "False"]
