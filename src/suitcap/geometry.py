"""The camera model: quaternions, calibrated cameras and the projection kernel.

Conventions used throughout the package:

* world units are millimeters, image units are pixels,
* image y grows downward,
* quaternions are (w, x, y, z) and rotate world points into the camera frame,
* distortion is the 5-coefficient radial-tangential model (k1, k2, p1, p2, k3);
  all-zero coefficients give a pure pinhole camera.

One kernel maps world points to pixels: it divides by depth as x / z, then
distorts with `distort_normalized` and applies the intrinsics. `project_cams`
(simulation, the mislabel filter, evaluation, LM's costs) and `project_jacobian`
(LM's residuals and gradient) share it, so their pixels agree bit for bit.
`normalized_coords` maps observed pixels back through `undistort_normalized`.
`crowded` marks the image points that have a neighbour within a radius.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError

UNDISTORT_ITERATIONS = 12  # fixed-point steps of `undistort_normalized`

__all__ = [
    "Camera",
    "CameraRig",
    "project_cams",
    "project_jacobian",
    "normalized_coords",
    "project_many",
    "crowded",
    "distort_normalized",
    "undistort_normalized",
    "quat_to_rot",
    "quat_mul",
    "quat_from_rotvec",
    "quat_normalize",
    "load_calibration",
    "save_calibration",
]


# ---------------------------------------------------------------------------
# quaternions


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_to_rot(q):
    """Rotation matrix of a unit quaternion (w, x, y, z). Supports leading batch dims."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def quat_mul(a, b):
    """Hamilton product a*b, batched."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quat_from_rotvec(v):
    """Exponential map: rotation vector (batched) to unit quaternion."""
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v, axis=-1, keepdims=True)
    half = 0.5 * angle
    small = angle < 1e-12
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(small, 0.5, np.sin(half) / np.where(small, 1.0, angle))
    q = np.concatenate([np.cos(half), s * v], axis=-1)
    return q


def rot_to_quat(R):
    """Unit quaternion (w, x, y, z) of a single rotation matrix."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(R[i, i] - R[j, j] - R[k, k] + 1.0, 0.0)) * 2
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


# ---------------------------------------------------------------------------
# cameras


@dataclass
class Camera:
    """One calibrated camera.

    Parameters
    ----------
    id : int
        Small unique integer identifying the camera in the rig.
    intrinsics : (3, 3) array
        Upper-triangular K with positive focal entries, in pixels.
    distortion : (5,) array
        Radial-tangential coefficients (k1, k2, p1, p2, k3).
    rotation : (4,) array
        Unit quaternion (w, x, y, z) rotating world into camera frame.
    translation : (3,) array
        Camera-frame translation in millimeters: X_cam = R @ X_world + t.
    image_size : (width, height)
        Image size in pixels.
    """

    id: int
    intrinsics: np.ndarray
    distortion: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    image_size: tuple[int, int]
    rot: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.intrinsics = np.asarray(self.intrinsics, dtype=float).reshape(3, 3)
        self.distortion = np.asarray(self.distortion, dtype=float).reshape(5)
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(4)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        size = np.asarray(self.image_size, dtype=float).reshape(2)
        if not np.all(np.isfinite(size) & (size > 0) & (size == np.floor(size))):
            raise ValueError(f"image size must be 2 positive integers, got {self.image_size}")
        self.image_size = (int(size[0]), int(size[1]))
        if abs(np.linalg.norm(self.rotation) - 1.0) > 1e-9:
            raise ValueError("rotation quaternion must be unit norm")
        K = self.intrinsics
        if K[1, 0] != 0 or K[2, 0] != 0 or K[2, 1] != 0 or K[2, 2] != 1:
            raise ValueError("K must be upper-triangular with K[2,2] == 1")
        if K[0, 0] <= 0 or K[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        self.rot = quat_to_rot(self.rotation)
        for a in (self.intrinsics, self.distortion, self.rotation, self.translation, self.rot):
            a.setflags(write=False)

    @property
    def center(self):
        """Camera center in world coordinates."""
        return -self.rot.T @ self.translation


@dataclass
class CameraRig:
    """Ordered cameras with unique ids, their parameters stacked once for the projection kernel.

    Row c of every stack belongs to `cameras[c]`: `ids` (C,), `R` (C, 3, 3),
    `t` (C, 3), the intrinsics `fx`, `fy`, `cx`, `cy` and `skew` (C,), and
    `dist` (C, 5). The stacks are read-only; `any_distortion` is False for an
    all-pinhole rig. World units are millimeters.
    """

    cameras: list[Camera]

    def __post_init__(self):
        cams = self.cameras
        self.ids = np.array([c.id for c in cams], dtype=int)
        if len(np.unique(self.ids)) != len(self.ids):
            raise ValueError("camera ids must be unique")
        K = np.array([c.intrinsics for c in cams]).reshape(-1, 3, 3)
        self.R = np.array([c.rot for c in cams]).reshape(-1, 3, 3)
        self.t = np.array([c.translation for c in cams]).reshape(-1, 3)
        self.dist = np.array([c.distortion for c in cams]).reshape(-1, 5)
        for a in (self.ids, K, self.R, self.t, self.dist):
            a.setflags(write=False)
        self.fx, self.fy, self.cx, self.cy, self.skew = K[:, 0, 0], K[:, 1, 1], K[:, 0, 2], K[:, 1, 2], K[:, 0, 1]
        self.any_distortion = bool(np.any(self.dist != 0.0))

    def __len__(self):
        return len(self.cameras)

    def __iter__(self):
        return iter(self.cameras)

    def rows_of(self, camera_ids) -> np.ndarray:
        """Row of each camera id; ValueError for an id not in the rig."""
        camera_ids = np.asarray(camera_ids, dtype=int)
        order = np.argsort(self.ids)
        at = np.searchsorted(self.ids, camera_ids, sorter=order)
        known = at < len(order)
        known[known] = self.ids[order[at[known]]] == camera_ids[known]
        if not known.all():
            raise ValueError(f"camera id {camera_ids[~known][0]} is not in the rig")
        return order[at]


def distort_normalized(xn, dist):
    """Apply radial-tangential distortion to normalized coordinates (..., 2).

    `dist` is one camera's (5,) coefficients or per-row (B, 5) coefficients.
    """
    k1, k2, p1, p2, k3 = np.moveaxis(np.asarray(dist), -1, 0)
    x, y = xn[..., 0], xn[..., 1]
    r2 = x * x + y * y
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    xd = x * radial + 2 * p1 * x * y + p2 * (r2 + 2 * x * x)
    yd = y * radial + p1 * (r2 + 2 * y * y) + 2 * p2 * x * y
    return np.stack([xd, yd], axis=-1)


def undistort_normalized(xd, dist):
    """Invert the distortion polynomial by fixed-point iteration; `dist` as in `distort_normalized`."""
    k1, k2, p1, p2, k3 = np.moveaxis(np.asarray(dist), -1, 0)
    xd = np.asarray(xd, dtype=float)
    x = xd[..., 0].copy()
    y = xd[..., 1].copy()
    for _ in range(UNDISTORT_ITERATIONS):
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        dx = 2 * p1 * x * y + p2 * (r2 + 2 * x * x)
        dy = p1 * (r2 + 2 * y * y) + 2 * p2 * x * y
        x = (xd[..., 0] - dx) / radial
        y = (xd[..., 1] - dy) / radial
    return np.stack([x, y], axis=-1)


def _camera_normalized(rig: CameraRig, cam_idx, pts):
    """Rotate pts[b] into camera cam_idx[b] and divide by depth: ((B,2) x / z, (B,) z, (B,3,3) R)."""
    R = rig.R[cam_idx]
    pc = np.einsum("bij,bj->bi", R, pts) + rig.t[cam_idx]
    z = pc[:, 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        xn = pc[:, :2] / z[:, None]
    return xn, z, R


def _to_pixels(rig: CameraRig, cam_idx, xn):
    """Distort (B, 2) normalized coordinates and apply the intrinsics of camera cam_idx[b]."""
    if rig.any_distortion:
        xn = distort_normalized(xn, rig.dist[cam_idx])
    u = rig.fx[cam_idx] * xn[:, 0] + rig.skew[cam_idx] * xn[:, 1] + rig.cx[cam_idx]
    v = rig.fy[cam_idx] * xn[:, 1] + rig.cy[cam_idx]
    return np.stack([u, v], axis=-1)


def project_cams(rig: CameraRig, cam_idx, pts):
    """Project pts[b] through camera cam_idx[b]; returns ((B,2) pixels, (B,) depth).

    Does not raise on non-positive depth; callers mask on the returned depth.
    """
    xn, z, _ = _camera_normalized(rig, cam_idx, pts)
    return _to_pixels(rig, cam_idx, xn), z


def project_jacobian(rig: CameraRig, cam_idx, pts):
    """`project_cams` plus the (B, 2, 3) Jacobian of the pixels with respect to the world point."""
    xn, z, R = _camera_normalized(rig, cam_idx, pts)
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_z = 1.0 / z

    # d(normalized)/d(camera point)
    dn = np.zeros((len(z), 2, 3))
    dn[:, 0, 0] = dn[:, 1, 1] = inv_z
    dn[:, :, 2] = -xn * inv_z[:, None]

    if rig.any_distortion:
        x, y = xn[:, 0], xn[:, 1]
        k1, k2, p1, p2, k3 = rig.dist[cam_idx].T
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        dr = k1 + r2 * (2 * k2 + 3 * k3 * r2)
        dd = np.empty((len(z), 2, 2))
        dd[:, 0, 0] = radial + 2 * x * x * dr + 2 * p1 * y + 6 * p2 * x
        dd[:, 0, 1] = dd[:, 1, 0] = 2 * x * y * dr + 2 * p1 * x + 2 * p2 * y
        dd[:, 1, 1] = radial + 2 * y * y * dr + 6 * p1 * y + 2 * p2 * x
        dn = dd @ dn

    # rows of K act on the distorted normalized coords, then chain through R
    Jn = np.empty_like(dn)
    Jn[:, 0] = rig.fx[cam_idx][:, None] * dn[:, 0] + rig.skew[cam_idx][:, None] * dn[:, 1]
    Jn[:, 1] = rig.fy[cam_idx][:, None] * dn[:, 1]
    return _to_pixels(rig, cam_idx, xn), z, Jn @ R


def normalized_coords(rig: CameraRig, cam_idx, pixels):
    """Undistorted normalized image coordinates of observed pixels."""
    yn = (pixels[:, 1] - rig.cy[cam_idx]) / rig.fy[cam_idx]
    xn = (pixels[:, 0] - rig.cx[cam_idx] - rig.skew[cam_idx] * yn) / rig.fx[cam_idx]
    out = np.stack([xn, yn], axis=-1)
    if not rig.any_distortion:
        return out
    return undistort_normalized(out, rig.dist[cam_idx])


def project_many(camera: Camera, points):
    """Project (N, 3) world points through one camera with `project_cams`."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return project_cams(CameraRig([camera]), np.zeros(len(pts), dtype=int), pts)


# ---------------------------------------------------------------------------
# image-plane neighbours

# each cell has side r times this, so that rounding in `points / side` cannot
# put two points within r of each other more than one cell apart
_CELL_MARGIN = 1.0 + 1e-9


def crowded(points, r):
    """Mask (n,) of the 2D `points` (n, 2) that have another point at distance <= r > 0.

    A pair is near when `dx*dx + dy*dy <= r*r`, the test `cKDTree.query_pairs`
    makes. The points are hashed into square cells a hair wider than r and
    sorted by cell key `x * width + y`. Each point is then compared with the
    points after it in its own cell and in cell (x, y + 1), and with those in
    cells (x + 1, y - 1..y + 1): both are runs of the sorted order, and each
    candidate pair is tested once.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(p)
    near = np.zeros(n, dtype=bool)
    if n < 2:
        return near
    cell = np.floor(p / (r * _CELL_MARGIN)).astype(np.int64)
    cell -= cell.min(axis=0) - 1  # so that y - 1 and y + 1 stay in 0..width-1
    width = int(cell[:, 1].max()) + 2
    key = cell[:, 0] * width + cell[:, 1]
    order = np.argsort(key)
    key = key[order]
    p = p[order]
    lo = np.concatenate([np.arange(1, n + 1), np.searchsorted(key, key + (width - 1), "left")])
    hi = np.concatenate([np.searchsorted(key, key + 1, "right"), np.searchsorted(key, key + (width + 1), "right")])
    count = hi - lo
    # the candidate pairs (i, j): i repeated count times, j counting up from lo
    i = np.repeat(np.tile(np.arange(n), 2), count)
    j = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(len(i))
    dx = p[j, 0] - p[i, 0]
    dy = p[j, 1] - p[i, 1]
    hit = dx * dx + dy * dy <= r * r
    near[order[i[hit]]] = True
    near[order[j[hit]]] = True
    return near


# ---------------------------------------------------------------------------
# calibration files

# each list field of a calibration entry, with its length
_CALIB_LISTS = {"K": 9, "dist": 5, "q": 4, "t": 3, "size": 2}


def _finite(x) -> bool:
    """A JSON number that is finite as a float; NaN, the infinities, booleans and huge integers are not."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def load_calibration(path) -> CameraRig:
    """Read a JSON calibration file: a non-empty list of `{id, K:[9], dist:[5], q:[4], t:[3], size:[2]}`.

    Raises `CalibrationError` naming the file, and the entry (both entries for a
    repeated id), for anything that is not such a list of valid cameras.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CalibrationError(f"cannot read calibration file {path}: {e}") from e
    if not isinstance(raw, list) or not raw:
        raise CalibrationError(f"{path}: calibration file must contain a non-empty JSON array of cameras")
    cameras, entry_of = [], {}
    for i, entry in enumerate(raw):
        where = f"{path}: camera entry {i}"
        if not isinstance(entry, dict):
            raise CalibrationError(f"{where} is not an object")
        missing = [k for k in ("id", *_CALIB_LISTS) if k not in entry]
        if missing:
            raise CalibrationError(f"{where} is missing fields {missing}")
        cam_id = entry["id"]
        if type(cam_id) is not int:
            raise CalibrationError(f"{where}: 'id' must be an integer, got {json.dumps(cam_id)}")
        if cam_id in entry_of:
            raise CalibrationError(f"{path}: camera entries {entry_of[cam_id]} and {i} both have id {cam_id}")
        entry_of[cam_id] = i
        for k, n in _CALIB_LISTS.items():
            v = entry[k]
            if not (isinstance(v, list) and len(v) == n and all(_finite(x) for x in v)):
                raise CalibrationError(f"{where}: {k!r} must be {n} finite numbers, got {json.dumps(v)}")
        try:
            cameras.append(Camera(cam_id, entry["K"], entry["dist"], entry["q"], entry["t"], entry["size"]))
        except ValueError as e:
            raise CalibrationError(f"{where}: {e}") from e
    return CameraRig(cameras)


def save_calibration(rig: CameraRig, path) -> None:
    entries = []
    for c in rig:
        entries.append(
            {
                "id": c.id,
                "K": c.intrinsics.ravel().tolist(),
                "dist": c.distortion.tolist(),
                "q": c.rotation.tolist(),
                "t": c.translation.tolist(),
                "size": [c.image_size[0], c.image_size[1]],
            }
        )
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(entries) + "\n")
