"""Spatial channel covariance synthesis and correlated Rayleigh sampling.

Each (AP, MS) link has an N x N covariance from the local scattering model on
a half-wavelength uniform linear array: a nominal azimuth angle plus Gaussian
angular spread, evaluated with the standard first-order closed form.  Channels
are drawn as h = A z with A a PSD factor of the covariance and z circularly
symmetric standard normal.  The covariances are link-major, (L, K, N, N); the
factors are MS-major, (K, L, N, N), the layout of the channels they correlate.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import SynthesisError

# angular standard deviation of the local scattering model, degrees
ASD_DEG = 15.0

# eigenvalues may only dip below zero by this fraction of the trace
EIG_CLIP_REL_TOL = 1e-10

# channels are correlated in slabs of realizations holding at most this many
# complex entries (4 MB); each of the two threads builds its slabs' complex
# normals in one buffer of at most that size, the only temporary
SLAB_ELEMENTS = 1 << 18

# the factors are eigendecomposed in blocks of this many MSs
FACTOR_BLOCK_MS = 64


def _closed_form(beta: np.ndarray, phi_rad: np.ndarray, asd_rad: float, n_antennas: int) -> np.ndarray:
    """Closed-form local scattering covariance entries, broadcast over links.

    The entries are beta * exp(1j pi d sin(phi)) * exp(-(asd pi d cos(phi))^2 / 2)
    for antenna offset d, built in the returned complex array and one real
    array of the same shape, with no other temporary of that size.
    """
    idx = np.arange(n_antennas)
    diff = idx[:, None] - idx[None, :]
    phi = np.asarray(phi_rad, dtype=float)[..., None, None]
    b = np.asarray(beta, dtype=float)[..., None, None]
    r = np.multiply(1j * np.pi * diff, np.sin(phi))
    np.exp(r, out=r)
    spread = np.multiply(asd_rad * np.pi * diff, np.cos(phi))
    np.square(spread, out=spread)
    np.multiply(-0.5, spread, out=spread)
    np.exp(spread, out=spread)
    np.multiply(b, r, out=r)
    np.multiply(r, spread, out=r)
    return r


def _clip_psd(r: np.ndarray) -> np.ndarray:
    """Project stacked Hermitian matrices onto the PSD cone, overwriting ``r``.

    Eigenvalues below -EIG_CLIP_REL_TOL * trace indicate a synthesis bug and
    raise; small negatives from rounding are clipped to zero.  The projection
    U diag(w) U^H is formed one slice at a time in the eigenvector array,
    which is returned, while ``r`` holds U diag(w).
    """
    w, u = np.linalg.eigh(r)
    trace = np.einsum("...ii->...", r).real
    floor = -EIG_CLIP_REL_TOL * trace
    if np.any(w[..., 0] < floor):
        worst = float(np.min(w[..., 0] / np.maximum(trace, np.finfo(float).tiny)))
        raise SynthesisError(f"covariance has eigenvalue {worst:.3e} * trace below the clip tolerance")
    np.clip(w, 0.0, None, out=w)
    scaled = np.multiply(u, w[..., None, :], out=r)
    np.conj(u, out=u)
    # one (K, N, N) slice per AP of a field; each product is formed before it overwrites its slice
    for i in np.ndindex(u.shape[:-3]):
        u[i] = scaled[i] @ np.swapaxes(u[i], -1, -2)
    return u


def covariance_field(beta: np.ndarray, phi_rad: np.ndarray, n_antennas: int) -> np.ndarray:
    """Covariances for all links at once, at the ASD_DEG spread: (L, K) inputs -> (L, K, N, N)."""
    if np.any(beta <= 0):
        raise SynthesisError("all beta values must be positive")
    return _clip_psd(_closed_form(beta, phi_rad, np.deg2rad(ASD_DEG), n_antennas))


def covariance_factors(r: np.ndarray) -> np.ndarray:
    """PSD factors A with A A^H = R, via eigendecomposition: (L, K, N, N) -> C-contiguous (K, L, N, N).

    Robust to rank-deficient covariances (e.g. zero angular spread).  The
    link covariances are decomposed in blocks of FACTOR_BLOCK_MS MSs, each
    block's eigenvectors scaled straight into the one MS-major output, so the
    factors take no full-size temporary beside ``r`` and themselves.  eigh
    works one matrix at a time, so every link's factor is the same floats in
    any block.
    """
    n_aps, n_ms = r.shape[:2]
    out = np.empty((n_ms, n_aps) + r.shape[2:], dtype=r.dtype)
    for start in range(0, n_ms, FACTOR_BLOCK_MS):
        w, u = np.linalg.eigh(np.swapaxes(r[:, start : start + FACTOR_BLOCK_MS], 0, 1))
        np.clip(w, 0.0, None, out=w)
        np.sqrt(w, out=w)
        np.multiply(u, w[..., None, :], out=out[start : start + FACTOR_BLOCK_MS])
    return out


def _slabs(normals: np.ndarray):
    """Slabs of at most SLAB_ELEMENTS entries, at least one realization each.

    Yields each slab and its own bytes viewed as (2, t, L, K, N) floats: the
    real parts, then the imaginary parts.
    """
    n_real, n_ms, n_aps, n_ant = normals.shape
    step = max(1, SLAB_ELEMENTS // (n_ms * n_aps * n_ant))
    for start in range(0, n_real, step):
        slab = normals[start : start + step]
        yield slab, slab.view(np.float64).reshape(2, len(slab), n_aps, n_ms, n_ant)


def draw_normals(out: np.ndarray, rng: np.random.Generator) -> None:
    """Fill a C-contiguous complex (T, K, L, N) buffer with the normals of :func:`sample_channels`.

    The stream is read in the order of one (T, L, K, N) draw of real parts
    followed by one of imaginary parts; each slab of realizations keeps its
    share of both in its own bytes, so the correlation can overwrite it in
    place.  Only the generator is touched, so this may run on another thread.
    """
    slabs = [parts for _, parts in _slabs(out)]
    for part in range(2):
        for parts in slabs:
            rng.standard_normal(out=parts[part])


def sample_channels(factors: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Correlate the normals of :func:`draw_normals` in place into channels, shape (T, K, L, N).

    ``factors`` is the C-contiguous (K, L, N, N) output of
    :func:`covariance_factors`, read as it is; each realization is independent
    across links and time.  Link (l, k) of
    realization t is its factor times the circularly symmetric normal vector
    (a + 1j b) / sqrt(2), where a and b are the link's entries of the
    (T, L, K, N) real and imaginary draws.  Returns ``normals``.

    With more than one slab, the calling thread correlates the even slabs and
    a helper thread, alive only during the call, the odd ones.  Each slab is
    written by one thread alone with the same products, so the channels do not
    depend on the split.
    """
    slabs = list(_slabs(normals))

    def correlate(slabs, z_buf):
        for slab, (re, im) in slabs:
            # the floats of (re + 1j * im) * sqrt(0.5), without its temporaries
            z = z_buf[: len(slab)]
            np.multiply(re, np.sqrt(0.5), out=z.real)
            np.multiply(im, np.sqrt(0.5), out=z.imag)
            np.matmul(factors, np.swapaxes(z, 1, 2)[..., None], out=slab[..., None])

    def buffer(first):
        # a thread's first slab is its longest, since only the last slab is short
        return np.empty(slabs[first][1].shape[1:], dtype=complex)

    # both threads' buffers are allocated on this thread: memory that a helper
    # thread frees stays in its own allocator arena after the thread ends
    if len(slabs) == 1:
        correlate(slabs, buffer(0))
        return normals
    with ThreadPoolExecutor(1) as helper:
        odd = helper.submit(correlate, slabs[1::2], buffer(1))
        correlate(slabs[::2], buffer(0))
        odd.result()
    return normals
