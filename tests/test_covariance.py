"""Local scattering covariance synthesis and channel sampling."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cfmcast import covariance, geometry, harness, preset
from cfmcast.errors import SynthesisError

from conftest import as_field, draw_channels, out_of_place_field, serial_sample_channels

# Reference entries from direct numerical integration of the angular model
# (Gaussian angle spread entering through its first-order deviation term),
# frozen so the closed form is checked against an independent route.
# Case A: beta=2.5, phi=30 deg, asd=15 deg, N=4; first column of the Toeplitz
# matrix, i.e. entries (d, 0) for antenna offsets d = 0..3.
ORACLE_A = {
    "beta": 2.5,
    "phi_deg": 30.0,
    "asd_deg": 15.0,
    "n": 4,
    "col": np.array(
        [
            2.5 + 0.0j,
            5.698671321437648e-16 + 1.9398705110635523j,
            -0.9062978268686389 + 5.634304900778961e-16j,
            -1.5638692937434154e-15 - 0.2549380156547211j,
        ]
    ),
}
# Case B: beta=0.7, phi=67 deg, asd=9 deg, N=3.
ORACLE_B = {
    "beta": 0.7,
    "phi_deg": 67.0,
    "asd_deg": 9.0,
    "n": 3,
    "col": np.array(
        [
            0.7 + 0.0j,
            -0.6657910489818979 + 0.16982095607399283j,
            0.5704473494656342 - 0.31125378109712065j,
        ]
    ),
}


def _link(beta, phi_rad, asd_deg, n):
    """Covariances through the field's entry point, at an angular spread of asd_deg."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(covariance, "ASD_DEG", asd_deg)
        return covariance.covariance_field(np.asarray(beta), np.asarray(phi_rad), n)


def _build(case):
    return _link(case["beta"], np.deg2rad(case["phi_deg"]), case["asd_deg"], case["n"])


class TestClosedForm:
    @pytest.mark.parametrize("case", [ORACLE_A, ORACLE_B], ids=["a", "b"])
    def test_matches_integration_oracle(self, case):
        r = _build(case)
        got = r[:, 0]
        # relative error against the column magnitude scale (beta)
        err = np.abs(got - case["col"]) / case["beta"]
        assert np.all(err < 0.02)
        # the closed form should in fact agree far more tightly
        assert np.all(err < 1e-9)

    @pytest.mark.parametrize("case", [ORACLE_A, ORACLE_B], ids=["a", "b"])
    def test_toeplitz_structure(self, case):
        r = _build(case)
        n = case["n"]
        for d in range(n):
            diag = np.diagonal(r, offset=-d)
            assert np.allclose(diag, diag[0])

    def test_hermitian_psd_trace(self, rng):
        for _ in range(50):
            beta = float(10.0 ** rng.uniform(-10, -4))
            phi = float(rng.uniform(-np.pi, np.pi))
            asd_deg = float(rng.uniform(0.0, 30.0))
            n = int(rng.integers(1, 6))
            r = _link(beta, phi, asd_deg, n)
            assert np.allclose(r, r.conj().T, atol=1e-12 * beta)
            w = np.linalg.eigvalsh(r)
            assert w.min() >= -1e-10 * n * beta
            assert np.trace(r).real == pytest.approx(n * beta, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("asd_deg", [0.0, 1.0, 15.0, 60.0])
    def test_closed_form_psd_before_clip(self, rng, asd_deg, n):
        # the closed form itself, not its clipped projection, is PSD to rounding
        beta = 10.0 ** rng.uniform(-10, 0, size=500)
        phi = rng.uniform(-np.pi, np.pi, size=500)
        r = covariance._closed_form(beta, phi, np.deg2rad(asd_deg), n)
        w = np.linalg.eigvalsh(r)
        assert np.all(w[:, 0] >= -1e-12 * n * beta)

    def test_zero_spread_is_rank_one(self):
        beta, phi, n = 3.0, 0.7, 4
        r = _link(beta, phi, 0.0, n)
        a = np.exp(1j * np.pi * np.arange(n) * np.sin(phi))
        want = beta * np.outer(a, a.conj())
        assert np.allclose(r, want, atol=1e-9 * beta)
        w = np.linalg.eigvalsh(r)
        assert w[-1] == pytest.approx(n * beta, rel=1e-9)
        assert np.all(np.abs(w[:-1]) < 1e-9 * n * beta)

    def test_wider_spread_decorrelates(self):
        r_narrow = _link(1.0, 0.4, 5.0, 4)
        r_wide = _link(1.0, 0.4, 25.0, 4)
        assert abs(r_wide[1, 0]) < abs(r_narrow[1, 0])

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(SynthesisError):
            covariance.covariance_field(np.asarray(0.0), np.asarray(0.1), 2)
        with pytest.raises(SynthesisError):
            covariance.covariance_field(np.asarray(-1.0), np.asarray(0.1), 2)


class TestField:
    def test_matches_single_link(self, rng):
        beta = 10.0 ** rng.uniform(-9, -5, size=(3, 4))
        phi = rng.uniform(-np.pi, np.pi, size=(3, 4))
        field = covariance.covariance_field(beta, phi, 3)
        assert field.shape == (3, 4, 3, 3)
        for l in range(3):
            for k in range(4):
                single = _link(beta[l, k], phi[l, k], covariance.ASD_DEG, 3)
                assert np.allclose(field[l, k], single, atol=1e-14 * beta[l, k])

    def test_rejects_nonpositive_beta(self, rng):
        beta = np.ones((2, 2))
        beta[1, 1] = 0.0
        with pytest.raises(SynthesisError):
            covariance.covariance_field(beta, np.zeros((2, 2)), 2)

    def test_clip_tolerance(self, rng):
        # a negative eigenvalue past the tolerance raises; a rounding-sized one is clipped
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))

        def field(w):
            return ((u * np.asarray(w)) @ u.conj().T)[None, None]

        with pytest.raises(SynthesisError, match="clip tolerance"):
            covariance._clip_psd(field([-3e-6, 1, 1, 1]))
        r = field([-3e-13, 1, 1, 1])
        trace = np.trace(r[0, 0]).real
        clipped = covariance._clip_psd(r)
        assert np.linalg.eigvalsh(clipped).min() >= -1e-15 * trace


class TestInPlace:
    """The in-place synthesis and the blocked MS-major factors give the
    out-of-place floats exactly; the factor eigendecomposition is
    phase-sensitive, so rounding would move every channel draw."""

    @pytest.mark.parametrize("shape", [(), (9,), (7, 9)], ids=["link", "row", "field"])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_matches_out_of_place_oracle(self, rng, shape, n):
        for asd_deg in (0.0, 5.0, 15.0, 40.0):
            beta = 10.0 ** rng.uniform(-10, -4, size=shape)
            phi = rng.uniform(-np.pi, np.pi, size=shape)
            want_r, want_a = out_of_place_field(beta, phi, np.deg2rad(asd_deg), n)
            r = _link(beta, phi, asd_deg, n)
            assert np.array_equal(r, want_r)
            factors = covariance.covariance_factors(as_field(r))
            assert factors.flags["C_CONTIGUOUS"]
            assert np.array_equal(factors, want_a)

    def test_matches_out_of_place_oracle_on_fig3_links(self):
        # 20 of fig3 snapshot 0's 100 APs against all 500 clustered MSs
        cfg = preset("fig3")
        dep = geometry.build_deployment(
            cfg, *(harness.stage_rng(cfg.master_seed, 0, stage) for stage in ("aps", "ms", "shadowing"))
        )
        beta = dep.beta[:20]
        phi = geometry.nominal_angles(dep.ap_positions[:20], dep.ms_positions, cfg.side_m)
        want_r, want_a = out_of_place_field(beta, phi, np.deg2rad(covariance.ASD_DEG), cfg.n_antennas)
        r = covariance.covariance_field(beta, phi, cfg.n_antennas)
        assert r.shape == (20, 500, 4, 4)
        assert np.array_equal(r, want_r)
        # 500 MSs are eight blocks of FACTOR_BLOCK_MS, the last one short
        factors = covariance.covariance_factors(r)
        assert factors.shape == (500, 20, 4, 4)
        assert factors.flags["C_CONTIGUOUS"]
        assert np.array_equal(factors, want_a)


class TestSampling:
    def test_factor_reconstructs_covariance(self, rng):
        beta = 10.0 ** rng.uniform(-9, -5, size=(2, 3))
        phi = rng.uniform(-np.pi, np.pi, size=(2, 3))
        r = _link(beta, phi, 10.0, 4)
        a = np.swapaxes(covariance.covariance_factors(r), 0, 1)
        recon = a @ np.conj(np.swapaxes(a, -1, -2))
        assert np.allclose(recon, r, atol=1e-12 * beta.max())

    def test_sample_covariance_converges(self):
        rng = np.random.default_rng(17)
        r = _link(1.0, 0.9, 15.0, 3)
        factors = covariance.covariance_factors(r[None, None])
        h = draw_channels(factors, 200_000, rng)[:, 0, 0, :]
        sample_cov = h.T @ h.conj() / h.shape[0]
        rel = np.linalg.norm(sample_cov - r) / np.linalg.norm(r)
        assert rel < 0.02
        assert np.abs(h.mean(axis=0)).max() < 0.01

    def test_rank_deficient_factors_work(self):
        rng = np.random.default_rng(23)
        r = _link(2.0, 0.3, 0.0, 4)
        factors = covariance.covariance_factors(r[None, None])
        h = draw_channels(factors, 50_000, rng)[:, 0, 0, :]
        sample_cov = h.T @ h.conj() / h.shape[0]
        assert np.linalg.norm(sample_cov - r) / np.linalg.norm(r) < 0.03

    def test_shapes_and_determinism(self, rng):
        r = _link(np.full((2, 3), 1e-7), np.zeros((2, 3)), np.rad2deg(0.2), 2)
        factors = covariance.covariance_factors(r)
        h1 = draw_channels(factors, 5, np.random.default_rng(4))
        h2 = draw_channels(factors, 5, np.random.default_rng(4))
        assert h1.shape == (5, 3, 2, 2)
        assert np.array_equal(h1, h2)

    def test_ms_major_layout_keeps_the_link_draws(self, rng):
        # the normals are drawn link-major, as (T, L, K, N), and each link's
        # channel is its factor times its own normal vector, bit for bit
        factors = _random_factors(rng)
        h = draw_channels(factors, 7, np.random.default_rng(8))
        want = _link_major_channels(factors, 7, np.random.default_rng(8))
        assert h.shape == (7, 4, 3, 4)
        assert h.flags["C_CONTIGUOUS"]
        assert np.array_equal(h, want)

    @pytest.mark.parametrize("per_slab", [1, 2, 3], ids=["one", "two", "ragged"])
    def test_slabs_keep_the_link_draws(self, rng, monkeypatch, per_slab):
        # 7 realizations in slabs of 1, 2 (2+2+2+1) and 3 (3+3+1)
        factors = _random_factors(rng)
        monkeypatch.setattr(covariance, "SLAB_ELEMENTS", per_slab * 4 * 3 * 4)
        h = draw_channels(factors, 7, np.random.default_rng(8))
        assert np.array_equal(h, _link_major_channels(factors, 7, np.random.default_rng(8)))

    @pytest.mark.parametrize("switch_s", [None, 1e-6], ids=["default", "fast_switching"])
    @pytest.mark.parametrize("n_slabs", [1, 2, 3])
    def test_helper_thread_keeps_the_serial_slabs(self, rng, monkeypatch, n_slabs, switch_s):
        # 60 realizations in one slab, 2 x 30 or 3 x 20: the odd slabs go to
        # the helper thread, which is gone when the call returns
        factors = _random_factors(rng)
        monkeypatch.setattr(covariance, "SLAB_ELEMENTS", 60 // n_slabs * 4 * 3 * 4)
        normals = np.empty((60, 4, 3, 4), dtype=complex)
        covariance.draw_normals(normals, np.random.default_rng(8))
        assert len(list(covariance._slabs(normals))) == n_slabs
        want = serial_sample_channels(factors, normals.copy())
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        if switch_s is not None:
            sys.setswitchinterval(switch_s)
        try:
            h = covariance.sample_channels(factors, normals)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        assert np.array_equal(h, want)

    def test_helper_buffer_fits_its_own_slabs(self, rng, monkeypatch):
        # at 2^19 entries per slab, a 60-AP, 300-MS, 4-antenna chunk of 8
        # realizations splits into slabs of 7 and 1, and the helper thread
        # correlates only the 1-realization slab: the two slab buffers together
        # hold one chunk of normals, where sizing both by the first slab took 6
        # realizations (6.9 MB) more
        monkeypatch.setattr(covariance, "SLAB_ELEMENTS", 1 << 19)
        factors = rng.standard_normal((300, 60, 4, 4)) + 1j * rng.standard_normal((300, 60, 4, 4))
        normals = np.empty((8, 300, 60, 4), dtype=complex)
        covariance.draw_normals(normals, np.random.default_rng(8))
        assert [len(slab) for slab, _ in covariance._slabs(normals)] == [7, 1]
        want = serial_sample_channels(factors, normals.copy())
        tracemalloc.start()
        try:
            covariance.sample_channels(factors, normals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two buffers and 1 MB for everything else: the factors are read as they are
        assert peak < normals.nbytes + 2**20, peak / 2**20
        assert np.array_equal(normals, want)

    def test_correlates_in_place(self, rng):
        factors = _random_factors(rng)
        normals = np.empty((5, 4, 3, 4), dtype=complex)
        covariance.draw_normals(normals, np.random.default_rng(2))
        h = covariance.sample_channels(factors, normals)
        assert h is normals
        assert np.shares_memory(h, normals)
        assert h.flags["C_CONTIGUOUS"]


def _random_factors(rng):
    """MS-major (K, L, N, N) = (4, 3, 4, 4) factors of random links."""
    beta = 10.0 ** rng.uniform(-9, -5, size=(3, 4))
    phi = rng.uniform(-np.pi, np.pi, size=(3, 4))
    return covariance.covariance_factors(_link(beta, phi, 10.0, 4))


def _link_major_channels(factors, n_real, gen):
    """Channels from one (T, L, K, N) real and one imaginary draw, correlated
    by a link-major copy of the MS-major factors and swapped to (T, K, L, N)."""
    link_major = np.ascontiguousarray(np.swapaxes(factors, 0, 1))
    shape = (n_real,) + link_major.shape[:2] + (link_major.shape[-1],)
    z = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    z *= np.sqrt(0.5)
    return np.swapaxes((link_major @ z[..., None])[..., 0], 1, 2)
