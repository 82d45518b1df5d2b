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

from .geometry import CameraArrays, distort_normalized, project_cams, undistort_normalized

GRADIENT_TOL = 1e-10
MAX_ITERATIONS = 100
MIN_RAY_ANGLE_DEG = 0.1

__all__ = ["TriangulationResult", "triangulate_points"]


def project_jacobian(arr: CameraArrays, cam_idx, pts):
    """Projection plus its (B, 2, 3) Jacobian with respect to the world point."""
    R = arr.R[cam_idx]
    pc = np.einsum("bij,bj->bi", R, pts) + arr.t[cam_idx]
    z = pc[:, 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_z = 1.0 / z
    x = pc[:, 0] * inv_z
    y = pc[:, 1] * inv_z

    # d(normalized)/d(camera point)
    dn = np.zeros((len(z), 2, 3))
    dn[:, 0, 0] = inv_z
    dn[:, 0, 2] = -x * inv_z
    dn[:, 1, 1] = inv_z
    dn[:, 1, 2] = -y * inv_z

    if arr.any_distortion:
        dist = arr.dist[cam_idx]
        k1, k2, p1, p2, k3 = (dist[:, i] for i in range(5))
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        dr = k1 + r2 * (2 * k2 + 3 * k3 * r2)
        dd = np.empty((len(z), 2, 2))
        dd[:, 0, 0] = radial + 2 * x * x * dr + 2 * p1 * y + 6 * p2 * x
        dd[:, 0, 1] = 2 * x * y * dr + 2 * p1 * x + 2 * p2 * y
        dd[:, 1, 0] = 2 * x * y * dr + 2 * p1 * x + 2 * p2 * y
        dd[:, 1, 1] = radial + 2 * y * y * dr + 6 * p1 * y + 2 * p2 * x
        dn = dd @ dn
        x, y = distort_normalized(np.stack([x, y], axis=-1), dist).T

    fx = arr.fx[cam_idx]
    fy = arr.fy[cam_idx]
    sk = arr.skew[cam_idx]
    u = fx * x + sk * y + arr.cx[cam_idx]
    v = fy * y + arr.cy[cam_idx]
    # rows of K act on the distorted normalized coords, then chain through R
    Jn = np.empty_like(dn)
    Jn[:, 0] = fx[:, None] * dn[:, 0] + sk[:, None] * dn[:, 1]
    Jn[:, 1] = fy[:, None] * dn[:, 1]
    J = Jn @ R
    return np.stack([u, v], axis=-1), z, J


def normalized_coords(arr: CameraArrays, cam_idx, pixels):
    """Undistorted normalized image coordinates of observed pixels."""
    yn = (pixels[:, 1] - arr.cy[cam_idx]) / arr.fy[cam_idx]
    xn = (pixels[:, 0] - arr.cx[cam_idx] - arr.skew[cam_idx] * yn) / arr.fx[cam_idx]
    out = np.stack([xn, yn], axis=-1)
    if not arr.any_distortion:
        return out
    res = np.empty_like(out)
    for c in np.unique(cam_idx):
        m = cam_idx == c
        res[m] = undistort_normalized(out[m], arr.dist[c])
    return res


def linear_initialization(arr: CameraArrays, point_index, cam_idx, pixels, n_points):
    """Linear-LS triangulation (normalized DLT rows, per-point normal equations)."""
    nc = normalized_coords(arr, cam_idx, pixels)
    R = arr.R[cam_idx]
    t = arr.t[cam_idx]
    a1 = nc[:, 0, None] * R[:, 2, :] - R[:, 0, :]
    b1 = t[:, 0] - nc[:, 0] * t[:, 2]
    a2 = nc[:, 1, None] * R[:, 2, :] - R[:, 1, :]
    b2 = t[:, 1] - nc[:, 1] * t[:, 2]

    AtA = np.zeros((n_points, 3, 3))
    Atb = np.zeros((n_points, 3))
    for a, b in ((a1, b1), (a2, b2)):
        np.add.at(AtA, point_index, a[:, :, None] * a[:, None, :])
        np.add.at(Atb, point_index, a * b[:, None])
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
    mean = np.zeros((n_points, 3))
    np.add.at(mean, point_index, d)
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
    cost = np.zeros(n_points)
    np.add.at(cost, point_index, sq)
    all_in_front = np.ones(n_points, dtype=bool)
    np.logical_and.at(all_in_front, point_index, depths > 0)
    cost[~all_in_front] = np.inf
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

    counts = np.bincount(point_index, minlength=n_points)
    eye = np.eye(3)

    for _ in range(MAX_ITERATIONS):
        if not np.any(active):
            break
        uv, z, J = project_jacobian(arr, cam_idx, p[point_index])
        r = uv - pixels
        g = np.zeros((n_points, 3))
        H = np.zeros((n_points, 3, 3))
        gr = np.einsum("bij,bi->bj", J, r)
        Hs = np.einsum("bij,bik->bjk", J, J)
        np.add.at(g, point_index, gr)
        np.add.at(H, point_index, Hs)

        grad_ok = np.linalg.norm(2.0 * g, axis=1) < GRADIENT_TOL
        newly = active & grad_ok
        converged[newly] = True
        active &= ~grad_ok
        if not np.any(active):
            break

        ai = np.where(active)[0]
        Ha = H[ai] + lam[ai, None, None] * (H[ai] * eye) + 1e-15 * eye
        try:
            delta = np.linalg.solve(Ha, -g[ai][..., None])[..., 0]
        except np.linalg.LinAlgError:
            delta = np.stack([np.linalg.lstsq(Ha[k], -g[ai[k]], rcond=None)[0] for k in range(len(ai))])

        trial = p.copy()
        trial[ai] += delta
        uv_t, z_t = project_cams(arr, cam_idx, trial[point_index])
        cost_t = _point_costs(point_index, n_points, uv_t - pixels, z_t)

        with np.errstate(invalid="ignore"):
            decrease = cost - cost_t
        improved = active & np.isfinite(cost_t) & (cost_t <= cost)
        negligible = improved & (decrease <= 1e-14 * (cost + 1e-30))
        p[improved] = trial[improved]
        cost[improved] = cost_t[improved]
        lam[improved] = np.maximum(lam[improved] / 3.0, 1e-12)
        worsened = active & ~improved
        lam[worsened] *= 4.0
        # runaway damping or float-floor improvements: no further progress possible
        stuck = worsened & (lam > 1e10)
        active &= ~(stuck | negligible)

    uv, z = project_cams(arr, cam_idx, p[point_index])
    obs_err = np.linalg.norm(uv - pixels, axis=1)
    mean_err = np.zeros(n_points)
    np.add.at(mean_err, point_index, obs_err)
    mean_err /= np.maximum(counts, 1)
    converged[parallel] = False
    return TriangulationResult(p, converged, parallel, obs_err, mean_err)
