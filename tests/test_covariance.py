"""Local scattering covariance synthesis and channel sampling."""

import sys
import threading

import numpy as np
import pytest

from cfmcast import covariance
from cfmcast.errors import SynthesisError

from conftest import draw_channels, serial_sample_channels

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


def _link(beta, phi_rad, asd_rad, n):
    """Covariance of one link through the field's entry point."""
    return covariance.covariance_field(np.asarray(beta), np.asarray(phi_rad), asd_rad, n)


def _build(case):
    return _link(case["beta"], np.deg2rad(case["phi_deg"]), np.deg2rad(case["asd_deg"]), case["n"])


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
            asd = float(rng.uniform(0.0, np.deg2rad(30)))
            n = int(rng.integers(1, 6))
            r = _link(beta, phi, asd, n)
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
        r_narrow = _link(1.0, 0.4, np.deg2rad(5), 4)
        r_wide = _link(1.0, 0.4, np.deg2rad(25), 4)
        assert abs(r_wide[1, 0]) < abs(r_narrow[1, 0])

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(SynthesisError):
            _link(0.0, 0.1, 0.1, 2)
        with pytest.raises(SynthesisError):
            _link(-1.0, 0.1, 0.1, 2)


class TestField:
    def test_matches_single_link(self, rng):
        beta = 10.0 ** rng.uniform(-9, -5, size=(3, 4))
        phi = rng.uniform(-np.pi, np.pi, size=(3, 4))
        asd = np.deg2rad(15.0)
        field = covariance.covariance_field(beta, phi, asd, 3)
        assert field.shape == (3, 4, 3, 3)
        for l in range(3):
            for k in range(4):
                single = _link(beta[l, k], phi[l, k], asd, 3)
                assert np.allclose(field[l, k], single, atol=1e-14 * beta[l, k])

    def test_rejects_nonpositive_beta(self, rng):
        beta = np.ones((2, 2))
        beta[1, 1] = 0.0
        with pytest.raises(SynthesisError):
            covariance.covariance_field(beta, np.zeros((2, 2)), 0.1, 2)


class TestSampling:
    def test_factor_reconstructs_covariance(self, rng):
        beta = 10.0 ** rng.uniform(-9, -5, size=(2, 3))
        phi = rng.uniform(-np.pi, np.pi, size=(2, 3))
        r = covariance.covariance_field(beta, phi, np.deg2rad(10.0), 4)
        a = covariance.covariance_factors(r)
        recon = a @ np.conj(np.swapaxes(a, -1, -2))
        assert np.allclose(recon, r, atol=1e-12 * beta.max())

    def test_sample_covariance_converges(self):
        rng = np.random.default_rng(17)
        r = _link(1.0, 0.9, np.deg2rad(15.0), 3)
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
        r = covariance.covariance_field(
            np.full((2, 3), 1e-7), np.zeros((2, 3)), 0.2, 2
        )
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

    def test_correlates_in_place(self, rng):
        factors = _random_factors(rng)
        normals = np.empty((5, 4, 3, 4), dtype=complex)
        covariance.draw_normals(normals, np.random.default_rng(2))
        h = covariance.sample_channels(factors, normals)
        assert h is normals
        assert np.shares_memory(h, normals)
        assert h.flags["C_CONTIGUOUS"]


def _random_factors(rng):
    """(L, K, N, N) = (3, 4, 4, 4) factors of random links."""
    beta = 10.0 ** rng.uniform(-9, -5, size=(3, 4))
    phi = rng.uniform(-np.pi, np.pi, size=(3, 4))
    return covariance.covariance_factors(covariance.covariance_field(beta, phi, np.deg2rad(10.0), 4))


def _link_major_channels(factors, n_real, gen):
    """Channels from one (T, L, K, N) real and one imaginary draw, swapped to (T, K, L, N)."""
    shape = (n_real,) + factors.shape[:2] + (factors.shape[-1],)
    z = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    z *= np.sqrt(0.5)
    return np.swapaxes((factors @ z[..., None])[..., 0], 1, 2)
