"""Per-frame labeled 3D reconstruction.

Pipeline per camera frame: duplicate clustering -> label consolidation with the
two-code redundancy check -> triangulation and pairwise mislabel filtering over
all cameras that claim each corner. Every emitted point is held to the 1.5 px
mean reprojection error contract; everything else lands in the discard list
with a reason.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .detection import DetectionFrame, cluster_frame
from .errors import ConfigError
from .geometry import CameraArrays, CameraRig, project_cams
from .layout import SuitLayout
from .triangulate import linear_initialization, triangulate_points

MAX_MEAN_REPROJECTION = 1.5  # px, absolute discard threshold

REASON_CONFLICT = "LabelConflict"
REASON_MISLABEL = "MislabelSuspect"
REASON_RESIDUAL = "HighResidual"
REASON_TOO_FEW = "TooFewCameras"

__all__ = [
    "DiscardRecord",
    "PointRecord",
    "LabeledPointCloud",
    "CloudArrays",
    "consolidate_labels",
    "filter_mislabels",
    "reconstruct_frame",
    "group_frames",
    "write_clouds",
    "iter_clouds",
    "read_clouds",
    "count_clouds",
]


@dataclass(frozen=True)
class DiscardRecord:
    corner_id: int
    reason: str
    camera_id: int | None = None


@dataclass
class PointRecord:
    position: np.ndarray
    cameras: tuple
    mean_reproj_err: float
    per_camera_err: tuple = ()  # pixels, aligned with `cameras`; empty when unknown


@dataclass
class LabeledPointCloud:
    frame_index: int
    points: dict[int, PointRecord] = field(default_factory=dict)
    discarded: list[DiscardRecord] = field(default_factory=list)

    def observed(self, n_vertices: int | None = None):
        """Sorted ids of the points below `n_vertices` (all when None), and their (k, 3) positions."""
        ids = np.sort(np.fromiter(self.points, dtype=int, count=len(self.points)))
        if n_vertices is not None:
            ids = ids[ids < n_vertices]
        positions = np.array([self.points[i].position for i in ids.tolist()], dtype=float)
        return ids, positions.reshape(-1, 3)


@dataclass
class CloudArrays:
    """One frame of a point-cloud file, read into arrays; point rows are in id order.

    Point r has cameras `cams[cam_offsets[r]:cam_offsets[r + 1]]` and
    per-camera errors `errs[err_offsets[r]:err_offsets[r + 1]]`, which are
    empty when the file gives none and otherwise aligned with its cameras.
    """

    frame_index: int
    ids: np.ndarray          # (k,) strictly increasing
    positions: np.ndarray    # (k, 3)
    mean_err: np.ndarray     # (k,) px
    cam_offsets: np.ndarray  # (k + 1,)
    cams: np.ndarray
    err_offsets: np.ndarray  # (k + 1,)
    errs: np.ndarray         # px
    discarded: list[DiscardRecord]

    def observed(self, n_vertices: int | None = None):
        """Sorted ids of the points below `n_vertices` (all when None), and their (k, 3) positions."""
        k = len(self.ids) if n_vertices is None else int(np.searchsorted(self.ids, n_vertices))
        return self.ids[:k], self.positions[:k]


def consolidate_labels(frame: DetectionFrame, layout: SuitLayout):
    """Turn code readings into labeled observations, cross-checking shared corners.

    Each reading of a layout code proposes `label(code, i_q)` for its four
    detections. A detection proposed two different labels is dropped, with a
    conflict for each label. A corner ID claimed by two distinct detections in
    the same camera is contradictory and drops both, with one conflict.

    Returns
    -------
    (obs, conflicts) : ((k, 2) int array, list[DiscardRecord])
        One `(corner_id, detection_index)` row per labeled observation, in
        corner ID order.
    """
    known = [r for r, code in enumerate(frame.codes) if code in layout.quad_table]
    labels = np.array([layout.quad_table[frame.codes[r]] for r in known], dtype=int)
    # distinct (detection, label) proposals, in detection then label order
    proposals = np.unique(np.stack([frame.quads[known].ravel(), labels.ravel()], axis=1), axis=0)
    _, per_detection, n_labels = np.unique(
        proposals[:, 0], return_inverse=True, return_counts=True
    )
    ambiguous = n_labels[per_detection] > 1
    claims = proposals[~ambiguous]
    ids, first, n_claims = np.unique(claims[:, 1], return_index=True, return_counts=True)
    single = n_claims == 1
    obs = np.stack([ids[single], claims[first[single], 0]], axis=1)
    conflicts = [
        DiscardRecord(cid, REASON_CONFLICT, frame.camera_id)
        for cid in np.concatenate([proposals[ambiguous, 1], ids[~single]]).tolist()
    ]
    return obs, conflicts


def filter_mislabels(corner_id, camera_id, pixel, rig: CameraRig, frame_index: int = 0) -> LabeledPointCloud:
    """Pairwise-search mislabel filter with the 1.5 x IQR rule.

    Takes one frame's labeled observations as flat arrays, sorted by
    (corner_id, camera_id), with at most one observation per corner and
    camera. Per corner: reconstruct from every camera pair, keep the pair whose
    point has the lowest mean reprojection error over all claiming cameras,
    flag cameras beyond Q3 + 1.5 IQR of those errors as outliers,
    re-triangulate the survivors, and apply the absolute 1.5 px mean-error
    test. With exactly two cameras the IQR step is skipped and only the
    absolute test applies.
    """
    arr = CameraArrays.from_rig(rig)
    corner_id = np.asarray(corner_id, dtype=int)
    camera_id = np.asarray(camera_id, dtype=int)
    pixel = np.asarray(pixel, dtype=float).reshape(-1, 2)
    cam_idx = arr.rows_of(camera_id)
    cloud = LabeledPointCloud(frame_index)

    ids, start, count = np.unique(corner_id, return_index=True, return_counts=True)
    survives = np.ones(len(corner_id), dtype=bool)  # observations that reach the final solve
    for m in np.unique(count).tolist():
        corner_ids = ids[count == m]
        rows = start[count == m][:, None] + np.arange(m)  # (g, m): each corner's block
        if m < 2:
            survives[rows] = False
            cloud.discarded += [DiscardRecord(cid, REASON_TOO_FEW) for cid in corner_ids.tolist()]
            continue
        if m == 2:
            continue

        g = len(corner_ids)
        cams = cam_idx[rows]
        pix = pixel[rows]  # (g, m, 2)

        pairs = np.array(list(itertools.combinations(range(m), 2)))  # (P, 2) lexicographic
        n_pairs = len(pairs)
        hyp_cams = cams[:, pairs].reshape(-1)  # (g * P * 2,)
        hyp_pix = pix[:, pairs, :].reshape(-1, 2)
        hyp_index = np.repeat(np.arange(g * n_pairs), 2)
        hyps = linear_initialization(arr, hyp_index, hyp_cams, hyp_pix, g * n_pairs)
        hyps = hyps.reshape(g, n_pairs, 3)

        # evaluate every hypothesis in every claiming camera, one camera column at a time
        err_sum = np.zeros((g, n_pairs))
        err_at = np.empty((g, n_pairs, m))
        for c in range(m):
            uv, z = project_cams(arr, np.repeat(cams[:, c], n_pairs), hyps.reshape(-1, 3))
            e = np.linalg.norm(uv.reshape(g, n_pairs, 2) - pix[:, c][:, None, :], axis=-1)
            e[z.reshape(g, n_pairs) <= 0] = np.inf
            err_at[:, :, c] = e
            err_sum += e

        best = np.argmin(err_sum, axis=1)  # first minimum wins: lexicographic pair tie-break
        best_err = err_at[np.arange(g), best, :]  # (g, m)

        q1 = np.quantile(best_err, 0.25, axis=1)
        q3 = np.quantile(best_err, 0.75, axis=1)
        # the epsilon floor keeps an all-exact (noiseless) error set from
        # flagging float dust; real mislabels sit orders of magnitude higher
        fence = q3 + 1.5 * (q3 - q1) + 1e-6
        outliers = best_err > fence[:, None]
        too_few = m - outliers.sum(axis=1) < 2
        survives[rows[outliers]] = False
        survives[rows[too_few]] = False
        cloud.discarded += [
            DiscardRecord(int(corner_ids[r]), REASON_MISLABEL, int(camera_id[rows[r, c]]))
            for r, c in np.argwhere(outliers).tolist()
        ]
        cloud.discarded += [DiscardRecord(cid, REASON_TOO_FEW) for cid in corner_ids[too_few].tolist()]

    if not survives.any():
        return cloud

    batch = np.flatnonzero(survives)
    point_ids, first, point_index = np.unique(
        corner_id[batch], return_index=True, return_inverse=True
    )
    res = triangulate_points(arr, point_index, cam_idx[batch], pixel[batch], len(point_ids))

    bounds = np.append(first, len(batch)).tolist()
    cameras = camera_id[batch].tolist()
    obs_errors = res.obs_errors.tolist()
    for i, cid in enumerate(point_ids.tolist()):
        mean_err = float(res.mean_error[i])
        if res.parallel[i]:
            cloud.discarded.append(DiscardRecord(cid, REASON_TOO_FEW))
            continue
        if not mean_err <= MAX_MEAN_REPROJECTION:  # NaN included
            cloud.discarded.append(DiscardRecord(cid, REASON_RESIDUAL))
            continue
        b0, b1 = bounds[i], bounds[i + 1]
        cloud.points[cid] = PointRecord(
            position=res.points[i],
            cameras=tuple(cameras[b0:b1]),
            mean_reproj_err=mean_err,
            per_camera_err=tuple(obs_errors[b0:b1]),
        )
    return cloud


def reconstruct_frame(frames: list[DetectionFrame], rig: CameraRig, layout: SuitLayout) -> LabeledPointCloud:
    """All per-camera detections of one time step -> labeled point cloud."""
    if not frames:
        raise ValueError("no detection frames supplied")
    frame_index = frames[0].frame_index
    corner_id, camera_id, pixel = [], [], []
    conflicts: list[DiscardRecord] = []
    for f in frames:
        if f.frame_index != frame_index:
            raise ValueError("reconstruct_frame expects a single time step")
        f = cluster_frame(f)
        obs, conf = consolidate_labels(f, layout)
        conflicts.extend(conf)
        corner_id.append(obs[:, 0])
        camera_id.append(np.full(len(obs), f.camera_id))
        pixel.append(f.corners[obs[:, 1]])
    corner_id, camera_id, pixel = (np.concatenate(a) for a in (corner_id, camera_id, pixel))
    order = np.lexsort((camera_id, corner_id))
    cloud = filter_mislabels(corner_id[order], camera_id[order], pixel[order], rig, frame_index)
    cloud.discarded = sorted(
        conflicts + cloud.discarded,
        key=lambda d: (d.corner_id, d.reason, -1 if d.camera_id is None else d.camera_id),
    )
    return cloud


def group_frames(frames) -> list[list[DetectionFrame]]:
    """A detection stream's per-camera frames grouped by frame index, in rising index order."""
    by_frame: dict[int, list[DetectionFrame]] = defaultdict(list)
    for f in frames:
        by_frame[f.frame_index].append(f)
    return [by_frame[k] for k in sorted(by_frame)]


# ---------------------------------------------------------------------------
# point-cloud files (JSON lines, one frame per line)


def cloud_to_json(cloud: LabeledPointCloud) -> str:
    points = []
    for cid in sorted(cloud.points):
        rec = cloud.points[cid]
        points.append(
            {
                "id": cid,
                "p": [float(v) for v in rec.position],
                "cams": [int(c) for c in rec.cameras],
                "err": float(rec.mean_reproj_err),
            }
        )
        if rec.per_camera_err:
            points[-1]["errs"] = [float(e) for e in rec.per_camera_err]
    discarded = []
    for d in cloud.discarded:
        e: dict = {"id": d.corner_id, "reason": d.reason}
        if d.camera_id is not None:
            e["cam"] = d.camera_id
        discarded.append(e)
    return json.dumps({"frame": cloud.frame_index, "points": points, "discarded": discarded})


def cloud_from_json(line: str, where: str = "point-cloud line") -> CloudArrays:
    """Parse one point-cloud line into arrays sorted by id.

    Raises `ConfigError`, prefixed with `where`, for a line that is not a JSON
    object with "frame", "points" and "discarded"; a point without "id", "p",
    "cams" or "err"; a "p" that is not 3 finite numbers; an "err" or "errs"
    that is not finite; an "errs" that is present but not as long as "cams";
    a negative or repeated id; and a discard without an integer "id" and a
    "reason".
    """
    try:
        doc = json.loads(line)
        frame_index, pts, discards = int(doc["frame"]), doc["points"], doc["discarded"]
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{where}: not a point-cloud line ({type(e).__name__}: {e})") from None
    if not isinstance(pts, list) or not isinstance(discards, list):
        raise ConfigError(f"{where}: 'points' and 'discarded' must be lists")
    k = len(pts)
    ids = _column(pts, "id", np.int64, where)
    ps = _fields(pts, "p", where)
    bad = np.flatnonzero(_lengths(ps, "p", where) != 3)
    if bad.size:
        raise ConfigError(f"{where}: points[{bad[0]}] 'p' is not 3 numbers")
    positions = _numbers(itertools.chain.from_iterable(ps), float, 3 * k, where, "p").reshape(k, 3)
    bad = np.flatnonzero(~np.isfinite(positions).all(axis=1))
    if bad.size:
        raise ConfigError(f"{where}: points[{bad[0]}] 'p' is not 3 finite numbers")
    mean_err = _column(pts, "err", float, where)
    bad = np.flatnonzero(~np.isfinite(mean_err))
    if bad.size:
        raise ConfigError(f"{where}: points[{bad[0]}] 'err' is not a finite number")
    cams = _fields(pts, "cams", where)
    n_cams = _lengths(cams, "cams", where)
    errs = list(map(dict.get, pts, itertools.repeat("errs"), itertools.repeat(())))
    n_errs = _lengths(errs, "errs", where)
    bad = np.flatnonzero((n_errs != n_cams) & (n_errs > 0))
    if bad.size:
        r = bad[0]
        raise ConfigError(
            f"{where}: points[{r}] 'errs' has {n_errs[r]} per-camera errors for {n_cams[r]} cameras"
        )
    cam_offsets, err_offsets = _offsets(n_cams), _offsets(n_errs)
    cams = _numbers(itertools.chain.from_iterable(cams), np.int64, cam_offsets[-1], where, "cams")
    errs = _numbers(itertools.chain.from_iterable(errs), float, err_offsets[-1], where, "errs")
    bad = np.flatnonzero(~np.isfinite(errs))
    if bad.size:
        r = np.searchsorted(err_offsets, bad[0], side="right") - 1
        raise ConfigError(f"{where}: points[{r}] 'errs' holds a non-finite number")

    if np.any(ids[1:] <= ids[:-1]):
        order = np.argsort(ids, kind="stable")
        ids, positions, mean_err = ids[order], positions[order], mean_err[order]
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if repeated.size:
            raise ConfigError(f"{where}: id {repeated[0]} repeated")
        cam_offsets, cams = _csr_take(cam_offsets, cams, order)
        err_offsets, errs = _csr_take(err_offsets, errs, order)
    if k and ids[0] < 0:
        raise ConfigError(f"{where}: id {ids[0]} is negative")

    discarded = []
    for r, d in enumerate(discards):
        try:
            discarded.append(DiscardRecord(int(d["id"]), d["reason"], d.get("cam")))
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{where}: discarded[{r}] needs an integer 'id' and a 'reason'") from None
    return CloudArrays(frame_index, ids, positions, mean_err, cam_offsets, cams, err_offsets, errs, discarded)


def _fields(pts, key, where) -> list:
    """Every point's `key`; ConfigError naming the first point that has none."""
    try:
        return list(map(itemgetter(key), pts))
    except (KeyError, TypeError):
        r = next(r for r, p in enumerate(pts) if not isinstance(p, dict) or key not in p)
        raise ConfigError(f"{where}: points[{r}] has no {key!r}") from None


def _column(pts, key, dtype, where) -> np.ndarray:
    """Every point's number `key` as an array."""
    try:
        return np.fromiter(map(itemgetter(key), pts), dtype, len(pts))
    except (KeyError, TypeError, ValueError):
        return _numbers(_fields(pts, key, where), dtype, len(pts), where, key)  # raises the reason


def _lengths(values, key, where) -> np.ndarray:
    try:
        return np.fromiter(map(len, values), np.int64, len(values))
    except TypeError:
        r = next(r for r, v in enumerate(values) if not isinstance(v, (list, tuple)))
        raise ConfigError(f"{where}: points[{r}] {key!r} is not a list") from None


def _numbers(values, dtype, count, where, key) -> np.ndarray:
    try:
        return np.fromiter(values, dtype, int(count))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: a point's {key!r} holds a non-number ({e})") from None


def _offsets(lengths) -> np.ndarray:
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _csr_take(offsets, values, order):
    """CSR rows `order` of (offsets, values), as new (offsets, values)."""
    lengths = np.diff(offsets)[order]
    new = _offsets(lengths)
    return new, values[np.repeat(offsets[:-1][order] - new[:-1], lengths) + np.arange(new[-1])]


def write_clouds(clouds, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for c in clouds:
            f.write(cloud_to_json(c) + "\n")


def iter_clouds(path):
    """Parse a point-cloud file line by line: one `CloudArrays` per non-blank line.

    Raises `ConfigError` naming the file, the line and the field when it
    reaches a malformed line (see `cloud_from_json`).
    """
    with open(path, "r", encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            if not line.isspace():
                yield cloud_from_json(line, f"{path}: line {n}")


def read_clouds(path) -> list[CloudArrays]:
    """Every frame of a point-cloud file (`iter_clouds`), parsed before it returns."""
    return list(iter_clouds(path))


def count_clouds(path) -> int:
    """How many frames `iter_clouds(path)` yields, counted without parsing a line."""
    with open(path, "r", encoding="utf-8") as f:
        return sum(not line.isspace() for line in f)
