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

import numpy as np

from .detection import DetectionFrame, cluster_frame
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
    "consolidate_labels",
    "filter_mislabels",
    "reconstruct_frame",
    "reconstruct_sequence",
    "write_clouds",
    "read_clouds",
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
        if mean_err > MAX_MEAN_REPROJECTION:
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


def reconstruct_frame(
    frames: list[DetectionFrame],
    rig: CameraRig,
    layout: SuitLayout,
    cluster_radius: float = 3.0,
) -> LabeledPointCloud:
    """All per-camera detections of one time step -> labeled point cloud."""
    if not frames:
        raise ValueError("no detection frames supplied")
    frame_index = frames[0].frame_index
    corner_id, camera_id, pixel = [], [], []
    conflicts: list[DiscardRecord] = []
    for f in frames:
        if f.frame_index != frame_index:
            raise ValueError("reconstruct_frame expects a single time step")
        f = cluster_frame(f, cluster_radius)
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


def reconstruct_sequence(
    frames,
    rig: CameraRig,
    layout: SuitLayout,
    cluster_radius: float = 3.0,
) -> list[LabeledPointCloud]:
    """Group a detection stream by frame index and reconstruct each independently.

    No state is carried between frames; per-frame failures are recorded in the
    clouds rather than aborting the stream.
    """
    by_frame: dict[int, list[DetectionFrame]] = defaultdict(list)
    for f in frames:
        by_frame[f.frame_index].append(f)
    clouds = []
    for k in sorted(by_frame):
        clouds.append(reconstruct_frame(by_frame[k], rig, layout, cluster_radius))
    return clouds


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


def cloud_from_json(line: str) -> LabeledPointCloud:
    doc = json.loads(line)
    cloud = LabeledPointCloud(int(doc["frame"]))
    for p in doc["points"]:
        cloud.points[int(p["id"])] = PointRecord(
            position=np.array(p["p"], dtype=float),
            cameras=tuple(p["cams"]),
            mean_reproj_err=float(p["err"]),
            per_camera_err=tuple(p.get("errs", ())),
        )
    for d in doc["discarded"]:
        cloud.discarded.append(DiscardRecord(int(d["id"]), d["reason"], d.get("cam")))
    return cloud


def write_clouds(clouds, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for c in clouds:
            f.write(cloud_to_json(c) + "\n")


def read_clouds(path) -> list[LabeledPointCloud]:
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                out.append(cloud_from_json(line))
    return out
