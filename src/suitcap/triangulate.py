"""Batched multi-view triangulation: Linear-LS initialization + Levenberg-Marquardt.

The whole reconstruction stage runs on flat observation arrays so that one
frame's corners (and all candidate camera pairs of the mislabel filter) are
triangulated in a handful of vectorized passes instead of per-point Python
loops. B denotes the number of observations, N the number of points being
solved; `point_index` maps each observation to its point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraArrays, normalized_coords, project_cams, project_jacobian

GRADIENT_TOL = 1e-10
MAX_ITERATIONS = 100
MIN_RAY_ANGLE_DEG = 0.1

__all__ = ["TriangulationResult", "triangulate_points"]


def _sums(index, values, n):
    """Per-point sums of the rows of `values` (B, ...), one `np.bincount` per column.

    `bincount` adds each point's rows in row order, so a sum's bits depend only
    on the order of its point's rows, never on the other points in the batch.
    """
    out = np.empty((n,) + values.shape[1:])
    for k in np.ndindex(values.shape[1:]):
        out[(slice(None), *k)] = np.bincount(index, weights=values[(slice(None), *k)], minlength=n)
    return out


def linear_initialization(arr: CameraArrays, point_index, cam_idx, pixels, n_points):
    """Linear-LS triangulation (normalized DLT rows, per-point normal equations)."""
    nc = normalized_coords(arr, cam_idx, pixels)
    R = arr.R[cam_idx]
    t = arr.t[cam_idx]
    a1 = nc[:, 0, None] * R[:, 2, :] - R[:, 0, :]
    b1 = t[:, 0] - nc[:, 0] * t[:, 2]
    a2 = nc[:, 1, None] * R[:, 2, :] - R[:, 1, :]
    b2 = t[:, 1] - nc[:, 1] * t[:, 2]

    # each sum runs over the a1 rows, then the a2 rows; one weight column at a
    # time keeps the temporaries at (2B,)
    index = np.concatenate([point_index, point_index])
    AtA = np.empty((n_points, 3, 3))
    Atb = np.empty((n_points, 3))
    for j in range(3):
        for k in range(j, 3):
            w = np.concatenate([a1[:, j] * a1[:, k], a2[:, j] * a2[:, k]])
            AtA[:, j, k] = AtA[:, k, j] = np.bincount(index, weights=w, minlength=n_points)
        w = np.concatenate([a1[:, j] * b1, a2[:, j] * b2])
        Atb[:, j] = np.bincount(index, weights=w, minlength=n_points)
    # tiny Tikhonov keeps near-parallel geometry solvable; such points are flagged upstream
    AtA += 1e-12 * np.trace(AtA, axis1=1, axis2=2)[:, None, None] * np.eye(3)
    try:
        return np.linalg.solve(AtA, Atb[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty((n_points, 3))
        for i in range(n_points):
            out[i] = np.linalg.lstsq(AtA[i], Atb[i], rcond=None)[0]
        return out


def ray_spread_flags(arr: CameraArrays, point_index, cam_idx, pixels, n_points):
    """True where all of a point's observation rays fall within the minimum angle."""
    nc = normalized_coords(arr, cam_idx, pixels)
    d_cam = np.concatenate([nc, np.ones((len(nc), 1))], axis=1)
    d = np.einsum("bji,bj->bi", arr.R[cam_idx], d_cam)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    mean = _sums(point_index, d, n_points)
    counts = np.bincount(point_index, minlength=n_points).astype(float)
    mean /= np.maximum(counts, 1.0)[:, None]
    mean_norm = np.linalg.norm(mean, axis=1)
    dev = np.zeros(n_points)
    cosang = np.clip(np.sum(d * mean[point_index], axis=1) / np.maximum(mean_norm[point_index], 1e-30), -1, 1)
    np.maximum.at(dev, point_index, np.arccos(cosang))
    # all pairwise angles <= 2 * max deviation from the mean direction
    return 2.0 * dev < np.radians(MIN_RAY_ANGLE_DEG)


@dataclass
class TriangulationResult:
    points: np.ndarray        # (N, 3)
    converged: np.ndarray     # (N,) bool
    parallel: np.ndarray      # (N,) bool
    obs_errors: np.ndarray    # (B,) pixel residual norms at the solution
    mean_error: np.ndarray    # (N,) mean over each point's observations


def _point_costs(point_index, n_points, residuals, depths):
    sq = np.sum(residuals * residuals, axis=1)
    cost = np.bincount(point_index, weights=sq, minlength=n_points)
    # `~(depths > 0)` also holds for a NaN depth, which must price its point at inf
    cost[point_index[~(depths > 0)]] = np.inf
    return cost


def triangulate_points(arr: CameraArrays, point_index, cam_idx, pixels, n_points) -> TriangulationResult:
    """Solve all points of an observation batch by LM from the Linear-LS start."""
    point_index = np.asarray(point_index, dtype=int)
    cam_idx = np.asarray(cam_idx, dtype=int)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)

    parallel = ray_spread_flags(arr, point_index, cam_idx, pixels, n_points)
    p = linear_initialization(arr, point_index, cam_idx, pixels, n_points)

    uv, z = project_cams(arr, cam_idx, p[point_index])
    cost = _point_costs(point_index, n_points, uv - pixels, z)
    lam = np.full(n_points, 1e-3)
    converged = np.zeros(n_points, dtype=bool)
    active = ~parallel & np.isfinite(cost)
    eye = np.eye(3)

    for _ in range(MAX_ITERATIONS):
        # work on the still-active points only, renumbered 0..a-1, and their rows
        ai = np.flatnonzero(active)
        if len(ai) == 0:
            break
        rows = np.flatnonzero(active[point_index])
        local = (np.cumsum(active) - 1)[point_index[rows]]
        uv, z, J = project_jacobian(arr, cam_idx[rows], p[ai][local])
        r = uv - pixels[rows]
        g = _sums(local, np.einsum("bij,bi->bj", J, r), len(ai))
        H = _sums(local, np.einsum("bij,bik->bjk", J, J), len(ai))

        grad_ok = np.linalg.norm(2.0 * g, axis=1) < GRADIENT_TOL
        converged[ai[grad_ok]] = True
        active[ai[grad_ok]] = False
        if grad_ok.all():
            break
        keep = ~grad_ok
        ai, g, H = ai[keep], g[keep], H[keep]
        in_kept = keep[local]
        rows = rows[in_kept]
        local = (np.cumsum(keep) - 1)[local[in_kept]]

        Ha = H + lam[ai, None, None] * (H * eye) + 1e-15 * eye
        try:
            delta = np.linalg.solve(Ha, -g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            delta = np.stack([np.linalg.lstsq(Ha[k], -g[k], rcond=None)[0] for k in range(len(ai))])

        trial = p[ai] + delta
        uv_t, z_t = project_cams(arr, cam_idx[rows], trial[local])
        cost_t = _point_costs(local, len(ai), uv_t - pixels[rows], z_t)

        cost_a = cost[ai]
        with np.errstate(invalid="ignore"):
            decrease = cost_a - cost_t
        improved = np.isfinite(cost_t) & (cost_t <= cost_a)
        negligible = improved & (decrease <= 1e-14 * (cost_a + 1e-30))
        up = ai[improved]
        p[up] = trial[improved]
        cost[up] = cost_t[improved]
        lam[up] = np.maximum(lam[up] / 3.0, 1e-12)
        lam[ai[~improved]] *= 4.0
        # runaway damping or float-floor improvements: no further progress possible
        stuck = ~improved & (lam[ai] > 1e10)
        active[ai[stuck | negligible]] = False

    uv, z = project_cams(arr, cam_idx, p[point_index])
    obs_err = np.linalg.norm(uv - pixels, axis=1)
    counts = np.bincount(point_index, minlength=n_points)
    mean_err = np.bincount(point_index, weights=obs_err, minlength=n_points) / np.maximum(counts, 1)
    converged[parallel] = False
    return TriangulationResult(p, converged, parallel, obs_err, mean_err)
