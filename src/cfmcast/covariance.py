"""Spatial channel covariance synthesis and correlated Rayleigh sampling.

Each (AP, MS) link has an N x N covariance from the local scattering model on
a half-wavelength uniform linear array: a nominal azimuth angle plus Gaussian
angular spread, evaluated with the standard first-order closed form.  Channels
are drawn as h = A z with A a PSD factor of the covariance and z circularly
symmetric standard normal.
"""

from __future__ import annotations

import numpy as np

from .errors import SynthesisError

# eigenvalues may only dip below zero by this fraction of the trace
EIG_CLIP_REL_TOL = 1e-10


def _closed_form(beta: np.ndarray, phi_rad: np.ndarray, asd_rad: float, n_antennas: int) -> np.ndarray:
    """Closed-form local scattering covariance entries, broadcast over links."""
    idx = np.arange(n_antennas)
    diff = idx[:, None] - idx[None, :]
    phi = np.asarray(phi_rad, dtype=float)[..., None, None]
    b = np.asarray(beta, dtype=float)[..., None, None]
    phase = np.exp(1j * np.pi * diff * np.sin(phi))
    spread = np.exp(-0.5 * (asd_rad * np.pi * diff * np.cos(phi)) ** 2)
    return b * phase * spread


def _clip_psd(r: np.ndarray) -> np.ndarray:
    """Project stacked Hermitian matrices onto the PSD cone.

    Eigenvalues below -EIG_CLIP_REL_TOL * trace indicate a synthesis bug and
    raise; small negatives from rounding are clipped to zero.
    """
    w, u = np.linalg.eigh(r)
    trace = np.einsum("...ii->...", r).real
    floor = -EIG_CLIP_REL_TOL * trace
    if np.any(w[..., 0] < floor):
        worst = float(np.min(w[..., 0] / np.maximum(trace, np.finfo(float).tiny)))
        raise SynthesisError(f"covariance has eigenvalue {worst:.3e} * trace below the clip tolerance")
    w = np.clip(w, 0.0, None)
    return (u * w[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))


def covariance_field(
    beta: np.ndarray, phi_rad: np.ndarray, asd_rad: float, n_antennas: int
) -> np.ndarray:
    """Covariances for all links at once: (L, K) inputs -> (L, K, N, N)."""
    if np.any(beta <= 0):
        raise SynthesisError("all beta values must be positive")
    return _clip_psd(_closed_form(beta, phi_rad, asd_rad, n_antennas))


def covariance_factors(r: np.ndarray) -> np.ndarray:
    """PSD factor A with A A^H = R per stacked matrix, via eigendecomposition.

    Robust to rank-deficient covariances (e.g. zero angular spread).
    """
    w, u = np.linalg.eigh(r)
    w = np.clip(w, 0.0, None)
    return u * np.sqrt(w)[..., None, :]


def sample_channels(factors: np.ndarray, n_realizations: int, rng: np.random.Generator) -> np.ndarray:
    """Draw correlated Rayleigh channel realizations, shape (T, K, L, N).

    ``factors`` is the (L, K, N, N) output of :func:`covariance_factors`; each
    realization is independent across links and time.  The normals are drawn
    in (T, L, K, N) order, so each link gets the draw a link-major layout gets.
    """
    shape = (n_realizations,) + factors.shape[:-2] + (factors.shape[-1],)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z *= np.sqrt(0.5)
    ms_major = np.ascontiguousarray(np.swapaxes(factors, 0, 1))
    return np.matmul(ms_major, np.swapaxes(z, 1, 2)[..., None], order="C")[..., 0]
