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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError

__all__ = [
    "Camera",
    "CameraRig",
    "CameraArrays",
    "project_cams",
    "project_jacobian",
    "normalized_coords",
    "project_many",
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
        self.image_size = (int(self.image_size[0]), int(self.image_size[1]))
        if abs(np.linalg.norm(self.rotation) - 1.0) > 1e-9:
            raise ValueError("rotation quaternion must be unit norm")
        K = self.intrinsics
        if K[1, 0] != 0 or K[2, 0] != 0 or K[2, 1] != 0 or K[2, 2] != 1:
            raise ValueError("K must be upper-triangular with K[2,2] == 1")
        if K[0, 0] <= 0 or K[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        if self.image_size[0] <= 0 or self.image_size[1] <= 0:
            raise ValueError("image size must be positive")
        self.rot = quat_to_rot(self.rotation)
        for a in (self.intrinsics, self.distortion, self.rotation, self.translation, self.rot):
            a.setflags(write=False)

    @property
    def center(self):
        """Camera center in world coordinates."""
        return -self.rot.T @ self.translation


@dataclass
class CameraRig:
    """Ordered collection of cameras with unique ids. World units are millimeters."""

    cameras: list[Camera]

    def __post_init__(self):
        ids = [c.id for c in self.cameras]
        if len(set(ids)) != len(ids):
            raise ValueError("camera ids must be unique")
        self._by_id = {c.id: c for c in self.cameras}

    def __len__(self):
        return len(self.cameras)

    def __iter__(self):
        return iter(self.cameras)

    def camera(self, cam_id: int) -> Camera:
        return self._by_id[cam_id]


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


def undistort_normalized(xd, dist, iterations: int = 12):
    """Invert the distortion polynomial by fixed-point iteration; `dist` as in `distort_normalized`."""
    k1, k2, p1, p2, k3 = np.moveaxis(np.asarray(dist), -1, 0)
    xd = np.asarray(xd, dtype=float)
    x = xd[..., 0].copy()
    y = xd[..., 1].copy()
    for _ in range(iterations):
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        dx = 2 * p1 * x * y + p2 * (r2 + 2 * x * x)
        dy = p1 * (r2 + 2 * y * y) + 2 * p2 * x * y
        x = (xd[..., 0] - dx) / radial
        y = (xd[..., 1] - dy) / radial
    return np.stack([x, y], axis=-1)


@dataclass
class CameraArrays:
    """Rig parameters stacked for vectorized projection; row order == rig order."""

    R: np.ndarray          # (C, 3, 3)
    t: np.ndarray          # (C, 3)
    fx: np.ndarray
    fy: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    skew: np.ndarray
    dist: np.ndarray       # (C, 5)
    ids: np.ndarray        # (C,) camera ids
    any_distortion: bool

    @classmethod
    def from_rig(cls, rig) -> "CameraArrays":
        """Stack a CameraRig, or any sequence of cameras."""
        cams = list(rig)
        K = np.array([c.intrinsics for c in cams])
        R = np.array([c.rot for c in cams])
        t = np.array([c.translation for c in cams])
        dist = np.array([c.distortion for c in cams])
        return cls(
            R=R,
            t=t,
            fx=K[:, 0, 0],
            fy=K[:, 1, 1],
            cx=K[:, 0, 2],
            cy=K[:, 1, 2],
            skew=K[:, 0, 1],
            dist=dist,
            ids=np.array([c.id for c in cams], dtype=int),
            any_distortion=bool(np.any(dist != 0.0)),
        )

    def rows_of(self, camera_ids) -> np.ndarray:
        """Row of each camera id; ValueError for an id not in the rig."""
        camera_ids = np.asarray(camera_ids, dtype=int)
        order = np.argsort(self.ids)
        at = np.searchsorted(self.ids, camera_ids, sorter=order).clip(max=len(order) - 1)
        rows = order[at]
        unknown = self.ids[rows] != camera_ids
        if unknown.any():
            raise ValueError(f"camera id {camera_ids[unknown][0]} is not in the rig")
        return rows


def _camera_normalized(arr: CameraArrays, cam_idx, pts):
    """Rotate pts[b] into camera cam_idx[b] and divide by depth: ((B,2) x / z, (B,) z, (B,3,3) R)."""
    R = arr.R[cam_idx]
    pc = np.einsum("bij,bj->bi", R, pts) + arr.t[cam_idx]
    z = pc[:, 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        xn = pc[:, :2] / z[:, None]
    return xn, z, R


def _to_pixels(arr: CameraArrays, cam_idx, xn):
    """Distort (B, 2) normalized coordinates and apply the intrinsics of camera cam_idx[b]."""
    if arr.any_distortion:
        xn = distort_normalized(xn, arr.dist[cam_idx])
    u = arr.fx[cam_idx] * xn[:, 0] + arr.skew[cam_idx] * xn[:, 1] + arr.cx[cam_idx]
    v = arr.fy[cam_idx] * xn[:, 1] + arr.cy[cam_idx]
    return np.stack([u, v], axis=-1)


def project_cams(arr: CameraArrays, cam_idx, pts):
    """Project pts[b] through camera cam_idx[b]; returns ((B,2) pixels, (B,) depth).

    Does not raise on non-positive depth; callers mask on the returned depth.
    """
    xn, z, _ = _camera_normalized(arr, cam_idx, pts)
    return _to_pixels(arr, cam_idx, xn), z


def project_jacobian(arr: CameraArrays, cam_idx, pts):
    """`project_cams` plus the (B, 2, 3) Jacobian of the pixels with respect to the world point."""
    xn, z, R = _camera_normalized(arr, cam_idx, pts)
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_z = 1.0 / z

    # d(normalized)/d(camera point)
    dn = np.zeros((len(z), 2, 3))
    dn[:, 0, 0] = dn[:, 1, 1] = inv_z
    dn[:, :, 2] = -xn * inv_z[:, None]

    if arr.any_distortion:
        x, y = xn[:, 0], xn[:, 1]
        k1, k2, p1, p2, k3 = arr.dist[cam_idx].T
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
    Jn[:, 0] = arr.fx[cam_idx][:, None] * dn[:, 0] + arr.skew[cam_idx][:, None] * dn[:, 1]
    Jn[:, 1] = arr.fy[cam_idx][:, None] * dn[:, 1]
    return _to_pixels(arr, cam_idx, xn), z, Jn @ R


def normalized_coords(arr: CameraArrays, cam_idx, pixels):
    """Undistorted normalized image coordinates of observed pixels."""
    yn = (pixels[:, 1] - arr.cy[cam_idx]) / arr.fy[cam_idx]
    xn = (pixels[:, 0] - arr.cx[cam_idx] - arr.skew[cam_idx] * yn) / arr.fx[cam_idx]
    out = np.stack([xn, yn], axis=-1)
    if not arr.any_distortion:
        return out
    return undistort_normalized(out, arr.dist[cam_idx])


def project_many(camera: Camera, points):
    """Project (N, 3) world points through one camera with `project_cams`."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return project_cams(CameraArrays.from_rig([camera]), np.zeros(len(pts), dtype=int), pts)


# ---------------------------------------------------------------------------
# calibration files

_CALIB_FIELDS = ("id", "K", "dist", "q", "t", "size")


def load_calibration(path) -> CameraRig:
    """Read a JSON calibration file: a list of `{id, K:[9], dist:[5], q:[4], t:[3], size:[2]}`."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CalibrationError(f"cannot read calibration file {path}: {e}") from e
    if not isinstance(raw, list):
        raise CalibrationError("calibration file must contain a JSON array of cameras")
    cameras = []
    for entry in raw:
        missing = [k for k in _CALIB_FIELDS if k not in entry]
        if missing:
            raise CalibrationError(f"camera entry missing fields {missing}")
        if len(entry["dist"]) != 5:
            raise CalibrationError(
                f"unsupported distortion model with {len(entry['dist'])} coefficients (expected 5)"
            )
        if len(entry["K"]) != 9:
            raise CalibrationError("K must have 9 entries")
        try:
            cameras.append(
                Camera(
                    id=int(entry["id"]),
                    intrinsics=np.array(entry["K"], dtype=float).reshape(3, 3),
                    distortion=np.array(entry["dist"], dtype=float),
                    rotation=np.array(entry["q"], dtype=float),
                    translation=np.array(entry["t"], dtype=float),
                    image_size=(entry["size"][0], entry["size"][1]),
                )
            )
        except ValueError as e:
            raise CalibrationError(str(e)) from e
    return CameraRig(cameras)


def save_calibration(rig: CameraRig, path) -> None:
    entries = []
    for c in rig:
        entries.append(
            {
                "id": c.id,
                "K": [float(v) for v in c.intrinsics.ravel()],
                "dist": [float(v) for v in c.distortion],
                "q": [float(v) for v in c.rotation],
                "t": [float(v) for v in c.translation],
                "size": [c.image_size[0], c.image_size[1]],
            }
        )
    with open(path, "w", encoding="utf-8") as f:
        json.dump(entries, f)
        f.write("\n")
