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
    "LabeledObservation",
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


@dataclass
class LabeledObservation:
    """One corner seen by one camera, with the number of supporting codes."""

    corner_id: int
    camera_id: int
    pixel: np.ndarray
    source: int = 1

    def __post_init__(self):
        self.pixel = np.asarray(self.pixel, dtype=float).reshape(2)


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
    converged: bool = True
    per_camera_err: tuple = ()  # pixels, aligned with `cameras`; empty when unknown


@dataclass
class LabeledPointCloud:
    frame_index: int
    points: dict[int, PointRecord] = field(default_factory=dict)
    discarded: list[DiscardRecord] = field(default_factory=list)


def consolidate_labels(frame: DetectionFrame, layout: SuitLayout):
    """Turn code readings into labeled observations, cross-checking shared corners.

    Each reading proposes `label(code, i_q)` for its four corners. Agreement of
    two readings on a corner raises its source to 2; any disagreement drops the
    corner from this camera. A corner ID claimed by two distinct detections in
    the same camera is contradictory and drops both.

    Returns
    -------
    (observations, conflicts) : (list[LabeledObservation], list[DiscardRecord])
    """
    proposals: dict[int, list[int]] = defaultdict(list)
    for reading in frame.readings:
        if reading.code not in layout.quad_table:
            continue
        for i_q in (1, 2, 3, 4):
            proposals[reading.quad[i_q - 1]].append(layout.label(reading.code, i_q))

    conflicts: list[DiscardRecord] = []
    by_id: dict[int, list[tuple[int, int]]] = defaultdict(list)  # corner_id -> [(det_idx, source)]
    for det_idx in sorted(proposals):
        ids = proposals[det_idx]
        if len(set(ids)) != 1:
            for cid in sorted(set(ids)):
                conflicts.append(DiscardRecord(cid, REASON_CONFLICT, frame.camera_id))
            continue
        by_id[ids[0]].append((det_idx, min(len(ids), 2)))

    observations = []
    for cid in sorted(by_id):
        claims = by_id[cid]
        if len(claims) != 1:
            conflicts.append(DiscardRecord(cid, REASON_CONFLICT, frame.camera_id))
            continue
        det_idx, source = claims[0]
        observations.append(
            LabeledObservation(cid, frame.camera_id, frame.corners[det_idx].position, source)
        )
    return observations, conflicts


def _group_by_count(per_corner):
    groups = defaultdict(list)
    for cid, obs in per_corner.items():
        groups[len(obs)].append(cid)
    return {m: sorted(ids) for m, ids in groups.items()}


def filter_mislabels(
    per_corner: dict[int, list[LabeledObservation]],
    rig: CameraRig,
    frame_index: int = 0,
    arr: CameraArrays | None = None,
    diagnostics: list | None = None,
) -> LabeledPointCloud:
    """Pairwise-search mislabel filter with the 1.5 x IQR rule.

    Per corner: reconstruct from every camera pair, keep the pair whose point
    has the lowest mean reprojection error over all claiming cameras, flag
    cameras beyond Q3 + 1.5 IQR of those errors as outliers, re-triangulate the
    survivors, and apply the absolute 1.5 px mean-error test. With exactly two
    cameras the IQR step is skipped and only the absolute test applies.
    """
    arr = arr or CameraArrays.from_rig(rig)
    idx_of = arr.index_of_id()
    cloud = LabeledPointCloud(frame_index)

    survivors_batch: list[tuple[int, list[LabeledObservation]]] = []

    for m, corner_ids in sorted(_group_by_count(per_corner).items()):
        if m < 2:
            for cid in corner_ids:
                cloud.discarded.append(DiscardRecord(cid, REASON_TOO_FEW))
            continue
        if m == 2:
            survivors_batch.extend((cid, sorted(per_corner[cid], key=lambda o: o.camera_id)) for cid in corner_ids)
            continue

        g = len(corner_ids)
        obs_sorted = [sorted(per_corner[cid], key=lambda o: o.camera_id) for cid in corner_ids]
        cams = np.array([[idx_of[o.camera_id] for o in obs] for obs in obs_sorted])  # (g, m)
        pix = np.array([[o.pixel for o in obs] for obs in obs_sorted])  # (g, m, 2)

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

        for row, cid in enumerate(corner_ids):
            surv = [obs_sorted[row][c] for c in range(m) if not outliers[row, c]]
            for c in range(m):
                if outliers[row, c]:
                    cloud.discarded.append(
                        DiscardRecord(cid, REASON_MISLABEL, obs_sorted[row][c].camera_id)
                    )
            if len(surv) < 2:
                cloud.discarded.append(DiscardRecord(cid, REASON_TOO_FEW))
                continue
            survivors_batch.append((cid, surv))
            if diagnostics is not None:
                diagnostics.append(
                    {
                        "corner": cid,
                        "mean_err_best_pair": float(err_sum[row, best[row]] / m),
                        "n_outliers": int(outliers[row].sum()),
                    }
                )

    if not survivors_batch:
        return cloud

    survivors_batch.sort(key=lambda t: t[0])
    point_index = []
    cam_idx = []
    pixels = []
    for i, (_, obs) in enumerate(survivors_batch):
        for o in obs:
            point_index.append(i)
            cam_idx.append(idx_of[o.camera_id])
            pixels.append(o.pixel)
    res = triangulate_points(
        arr, np.array(point_index), np.array(cam_idx), np.array(pixels), len(survivors_batch)
    )

    bounds = np.cumsum([0] + [len(obs) for _, obs in survivors_batch])
    for i, (cid, obs) in enumerate(survivors_batch):
        mean_err = float(res.mean_error[i])
        if diagnostics is not None:
            for d in diagnostics:
                if d.get("corner") == cid and "mean_err_final" not in d:
                    d["mean_err_final"] = mean_err
        if res.parallel[i]:
            cloud.discarded.append(DiscardRecord(cid, REASON_TOO_FEW))
            continue
        if mean_err > MAX_MEAN_REPROJECTION:
            cloud.discarded.append(DiscardRecord(cid, REASON_RESIDUAL))
            continue
        cloud.points[cid] = PointRecord(
            position=res.points[i],
            cameras=tuple(o.camera_id for o in obs),
            mean_reproj_err=mean_err,
            converged=bool(res.converged[i]),
            per_camera_err=tuple(float(e) for e in res.obs_errors[bounds[i] : bounds[i + 1]]),
        )
    return cloud


def reconstruct_frame(
    frames: list[DetectionFrame],
    rig: CameraRig,
    layout: SuitLayout,
    cluster_radius: float = 3.0,
    arr: CameraArrays | None = None,
) -> LabeledPointCloud:
    """All per-camera detections of one time step -> labeled point cloud."""
    if not frames:
        raise ValueError("no detection frames supplied")
    frame_index = frames[0].frame_index
    per_corner: dict[int, list[LabeledObservation]] = defaultdict(list)
    conflicts: list[DiscardRecord] = []
    for f in sorted(frames, key=lambda f: f.camera_id):
        if f.frame_index != frame_index:
            raise ValueError("reconstruct_frame expects a single time step")
        obs, conf = consolidate_labels(cluster_frame(f, cluster_radius), layout)
        conflicts.extend(conf)
        for o in obs:
            per_corner[o.corner_id].append(o)
    cloud = filter_mislabels(dict(per_corner), rig, frame_index, arr=arr)
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
    arr = CameraArrays.from_rig(rig)
    by_frame: dict[int, list[DetectionFrame]] = defaultdict(list)
    for f in frames:
        by_frame[f.frame_index].append(f)
    clouds = []
    for k in sorted(by_frame):
        clouds.append(reconstruct_frame(by_frame[k], rig, layout, cluster_radius, arr=arr))
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
