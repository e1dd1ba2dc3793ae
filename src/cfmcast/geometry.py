"""Network geometry: AP/MS placement, wrap-around metric and large-scale fading.

The service area is a square torus: the square of side ``side_m`` is wrapped so
that every node sees a statistically identical neighborhood (no border
effects).  Distances and displacements are therefore taken to the nearest of
the nine replica images of the target point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky

from .errors import SynthesisError

# 3GPP-style urban microcell fit, distances in meters
PATHLOSS_OFFSET_DB = -30.5
PATHLOSS_SLOPE_DB = 36.7


@dataclass
class Deployment:
    """One snapshot of the network: positions plus large-scale fading.

    ``beta`` is the linear channel gain per (AP, MS) link, combining distance
    path loss and correlated shadowing.
    """

    ap_positions: np.ndarray  # (L, 2)
    ms_positions: np.ndarray  # (K, 2)
    shadowing_db: np.ndarray  # (L, K)
    beta: np.ndarray  # (L, K), linear


def place_uniform(n: int, side_m: float, rng: np.random.Generator) -> np.ndarray:
    """Drop n nodes (APs, or MSs of a uniform layout) uniformly over the square."""
    return rng.uniform(0.0, side_m, size=(n, 2))


def place_ms_clustered(
    clusters: int,
    per_cluster: int,
    cluster_side_m: float,
    side_m: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Drop MSs in hotspot squares, positions (K, 2).

    Cluster centers are uniform over the area, redrawn until the hotspot
    square lies fully inside the bounds; members are uniform inside their
    square.  MS k lies in hotspot ``k // per_cluster``.
    """
    half = cluster_side_m / 2.0
    centers = np.empty((clusters, 2))
    for c in range(clusters):
        while True:
            candidate = rng.uniform(0.0, side_m, size=2)
            if np.all(candidate >= half) and np.all(candidate <= side_m - half):
                centers[c] = candidate
                break
    offsets = rng.uniform(-half, half, size=(clusters, per_cluster, 2))
    return (centers[:, None, :] + offsets).reshape(-1, 2)


def wrapped_displacement(a: np.ndarray, b: np.ndarray, side_m: float) -> np.ndarray:
    """Minimum-norm displacement from ``a`` to ``b`` on the square torus.

    Equivalent to enumerating the nine replica images of ``b`` and keeping the
    closest; both per-axis components end up in [-side/2, side/2].
    Broadcasts over leading axes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.mod(b - a + side_m / 2.0, side_m) - side_m / 2.0


def wrapped_distance(a: np.ndarray, b: np.ndarray, side_m: float) -> np.ndarray:
    d = wrapped_displacement(a, b, side_m)
    return np.sqrt(np.sum(d * d, axis=-1))


def path_gain_db(distance_3d_m: np.ndarray) -> np.ndarray:
    """Distance-dependent channel gain in dB (log-distance fit, no shadowing)."""
    return PATHLOSS_OFFSET_DB - PATHLOSS_SLOPE_DB * np.log10(distance_3d_m)


def sample_shadowing(
    ms_positions: np.ndarray,
    n_aps: int,
    side_m: float,
    std_db: float,
    decorrelation_m: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Correlated log-normal shadowing field in dB, shape (L, K).

    Within one AP row the MS values are jointly Gaussian with covariance
    ``std_db**2 * 2**(-d/decorrelation_m)`` over wrapped MS-MS distances; rows
    are independent across APs.  MSs at one point of the torus share one draw,
    since the field is a function of position.  Raises SynthesisError if the
    correlation matrix of the distinct points is not positive definite.
    """
    n_ms = ms_positions.shape[0]
    if std_db == 0.0:
        return np.zeros((n_aps, n_ms))
    dist = wrapped_distance(ms_positions[:, None, :], ms_positions[None, :, :], side_m)
    first = np.argmax(dist == 0.0, axis=1)  # lowest index at each MS's point
    sites = np.unique(first)
    corr = 2.0 ** (-dist[np.ix_(sites, sites)] / decorrelation_m)
    try:
        factor = cholesky(corr, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(f"shadowing correlation matrix is not positive definite: {exc}") from exc
    z = rng.standard_normal((n_aps, sites.size))
    return std_db * (z @ factor.T)[:, np.searchsorted(sites, first)]


def large_scale_matrix(
    ap_positions: np.ndarray,
    ms_positions: np.ndarray,
    side_m: float,
    ap_height_m: float,
    ms_height_m: float,
    shadowing_db: np.ndarray,
) -> np.ndarray:
    """Linear channel gain beta per (AP, MS) link.

    Uses the 3-D distance (wrapped horizontal distance plus the AP/MS height
    difference) in the path loss and adds the shadowing realization in dB.
    """
    d2 = wrapped_distance(ap_positions[:, None, :], ms_positions[None, :, :], side_m)
    d3 = np.sqrt(d2**2 + (ap_height_m - ms_height_m) ** 2)
    gain_db = path_gain_db(d3) + shadowing_db
    return 10.0 ** (gain_db / 10.0)


def nominal_angles(
    ap_positions: np.ndarray, ms_positions: np.ndarray, side_m: float
) -> np.ndarray:
    """Azimuth angle of each MS as seen from each AP, via wrapped displacement."""
    d = wrapped_displacement(ap_positions[:, None, :], ms_positions[None, :, :], side_m)
    return np.arctan2(d[..., 1], d[..., 0])


def build_deployment(
    cfg,
    rng_aps: np.random.Generator,
    rng_ms: np.random.Generator,
    rng_shadow: np.random.Generator,
) -> Deployment:
    """Draw one geometry snapshot for a SystemConfig."""
    ap_positions = place_uniform(cfg.n_aps, cfg.side_m, rng_aps)
    dep = cfg.deployment
    if dep.kind == "clustered":
        ms_positions = place_ms_clustered(
            dep.clusters, cfg.n_ms // dep.clusters, dep.cluster_side_m, cfg.side_m, rng_ms
        )
    else:
        ms_positions = place_uniform(cfg.n_ms, cfg.side_m, rng_ms)
    shadowing_db = sample_shadowing(
        ms_positions,
        cfg.n_aps,
        cfg.side_m,
        cfg.shadowing_std_db,
        cfg.shadowing_decorrelation_m,
        rng_shadow,
    )
    beta = large_scale_matrix(
        ap_positions, ms_positions, cfg.side_m, cfg.ap_height_m, cfg.ms_height_m, shadowing_db
    )
    return Deployment(
        ap_positions=ap_positions,
        ms_positions=ms_positions,
        shadowing_db=shadowing_db,
        beta=beta,
    )
