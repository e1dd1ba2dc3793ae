"""The OpenBLAS builds bundled in numpy's and SciPy's wheels, called through ctypes.

Each of the two wheels ships its own OpenBLAS (``libscipy_openblas*.so``) in a
``<package>.libs`` directory beside the package.  Both are found without
importing SciPy and loaded once, at import, so forked pool workers inherit
the handles.  numpy's build has the 64-bit integer API, whose symbols end in
``64_``; SciPy's has 32-bit integers.  A package built from source links a
system BLAS instead, which this module leaves alone: it has no thread call
here, and ``cholesky_lower`` then falls back to ``scipy.linalg``.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.util
import os

import numpy as np


def _load(package: str):
    """``package``'s bundled OpenBLAS, or None without one."""
    spec = importlib.util.find_spec(package)
    for location in (spec.submodule_search_locations or []) if spec else []:
        for path in sorted(glob.glob(os.path.join(location + ".libs", "libscipy_openblas*.so"))):
            return ctypes.CDLL(path)
    return None


def _function(lib, name: str, restype, *argtypes):
    fn = getattr(lib, name)
    fn.restype, fn.argtypes = restype, list(argtypes)
    return fn


_NUMPY, _SCIPY = _load("numpy"), _load("scipy")
# (library, symbol suffix) of each bundled build, numpy's first
_BUILDS = [(lib, suffix) for lib, suffix in ((_NUMPY, "64_"), (_SCIPY, "")) if lib is not None]
_GET_THREADS = [_function(lib, f"scipy_openblas_get_num_threads{sfx}", ctypes.c_int) for lib, sfx in _BUILDS]
_SET_THREADS = [
    _function(lib, f"scipy_openblas_set_num_threads{sfx}", None, ctypes.c_int) for lib, sfx in _BUILDS
]
# SciPy's LAPACK Cholesky, the routine scipy.linalg.cholesky runs: uplo, n, a,
# lda, info, then the hidden length of the Fortran character argument uplo
_INT_P = ctypes.POINTER(ctypes.c_int)
_DPOTRF = (
    _function(_SCIPY, "scipy_dpotrf_", None, ctypes.c_char_p, _INT_P, ctypes.c_void_p, _INT_P, _INT_P,
              ctypes.c_size_t)
    if _SCIPY is not None
    else None
)


def thread_counts() -> list[int]:
    """Thread count of each bundled build, numpy's first; empty without one."""
    return [get() for get in _GET_THREADS]


def set_thread_counts(counts) -> None:
    """Set each bundled build's thread count, in the order of ``thread_counts``."""
    for set_threads, count in zip(_SET_THREADS, counts):
        set_threads(count)


@contextlib.contextmanager
def one_thread():
    """Run every bundled build on one thread inside the block, then restore the counts.

    The counts are process-wide: BLAS calls that other threads make meanwhile
    run on one thread too.
    """
    caller = thread_counts()
    set_thread_counts([1] * len(caller))
    try:
        yield
    finally:
        set_thread_counts(caller)


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix, Fortran-ordered.

    Gives the floats and the layout of ``scipy.linalg.cholesky(a, lower=True)``:
    it runs the same LAPACK routine of the same build, on a Fortran-ordered
    copy of ``a`` whose strict upper triangle is zeroed.  Raises
    ``np.linalg.LinAlgError`` if ``a`` is not positive definite.
    """
    if _DPOTRF is None:
        from scipy.linalg import cholesky

        return cholesky(a, lower=True)
    factor = np.array(np.tril(a), dtype=np.float64, order="F")
    n, info = ctypes.c_int(factor.shape[0]), ctypes.c_int(0)
    _DPOTRF(b"L", n, factor.ctypes.data, n, info, 1)
    if info.value > 0:
        raise np.linalg.LinAlgError(f"{info.value}-th leading minor of the array is not positive definite")
    return factor
