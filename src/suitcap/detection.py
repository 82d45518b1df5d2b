"""The pluggable detector boundary.

A detector is anything that yields :class:`DetectionFrame` objects; image-based
detectors live outside this package. Included here: the duplicate-corner
clustering rule, a synthetic oracle detector driven by simulator ground truth,
and the JSON-lines detection file format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import Camera, project_many

__all__ = [
    "Corner2D",
    "CodeReading",
    "DetectionFrame",
    "OracleNoiseConfig",
    "cluster_duplicates",
    "cluster_frame",
    "oracle_detect",
    "write_detections",
    "read_detections",
]


@dataclass
class Corner2D:
    """A detected checkerboard-like corner: subpixel position and confidence."""

    position: np.ndarray
    confidence: float = 1.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(2)


@dataclass
class CodeReading:
    """A recognized two-letter code on an oriented quad of detected corners.

    `quad` holds four indices into the frame's corner list, ordered so that
    position i corresponds to corner index i_q = i + 1 of the upright code.
    """

    quad: tuple[int, int, int, int]
    code: str
    confidence: float = 1.0


@dataclass
class DetectionFrame:
    """Per-camera, per-frame 2D corner observations plus code readings."""

    frame_index: int
    camera_id: int
    corners: list[Corner2D] = field(default_factory=list)
    readings: list[CodeReading] = field(default_factory=list)


@dataclass(frozen=True)
class OracleNoiseConfig:
    """Noise model for the simulator-backed detector."""

    pixel_sigma: float = 0.0
    dropout_prob: float = 0.0
    mislabel_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.pixel_sigma < 0:
            raise ValueError("pixel_sigma must be >= 0")
        for p in (self.dropout_prob, self.mislabel_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")


def cluster_duplicates(corners, radius: float = 3.0):
    """Suppress near-duplicate corners: within `radius` px, the higher confidence wins.

    Greedy over descending confidence (ties broken by lower list index), so the
    result is deterministic and idempotent.
    """
    survivors, _ = _cluster_with_map(corners, radius)
    return survivors


def _cluster_with_map(corners, radius):
    n = len(corners)
    if n == 0:
        return [], {}
    conf = np.array([c.confidence for c in corners], dtype=float)
    pos = np.array([c.position for c in corners], dtype=float).reshape(n, 2)
    order = np.lexsort((np.arange(n), -conf))
    cells = pos // radius if radius > 0 else pos
    r2 = radius * radius
    grid: dict[tuple, list[int]] = {}
    kept_idx = []
    assign = {}
    for i in order:
        i = int(i)
        cx, cy = int(cells[i, 0]), int(cells[i, 1])
        winner = -1
        best_d2 = r2
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for j in grid.get((gx, gy), ()):
                    dx = pos[j, 0] - pos[i, 0]
                    dy = pos[j, 1] - pos[i, 1]
                    d2 = dx * dx + dy * dy
                    if d2 < best_d2:
                        best_d2 = d2
                        winner = j
        if winner >= 0:
            assign[i] = winner
        else:
            kept_idx.append(i)
            assign[i] = i
            grid.setdefault((cx, cy), []).append(i)
    kept_idx.sort()
    remap = {orig: new for new, orig in enumerate(kept_idx)}
    index_map = {i: remap[assign[i]] for i in range(n)}
    return [corners[i] for i in kept_idx], index_map


def cluster_frame(frame: DetectionFrame, radius: float = 3.0) -> DetectionFrame:
    """Apply duplicate clustering to a frame, remapping reading indices onto survivors."""
    survivors, index_map = _cluster_with_map(frame.corners, radius)
    readings = [
        CodeReading(tuple(index_map[i] for i in r.quad), r.code, r.confidence)
        for r in frame.readings
    ]
    return DetectionFrame(frame.frame_index, frame.camera_id, survivors, readings)


def oracle_detect(
    frame_index: int,
    camera: Camera,
    truth_positions,
    visible_corner_ids,
    visible_quads,
    layout,
    noise: OracleNoiseConfig,
) -> DetectionFrame:
    """Synthetic stand-in for an image-based detector.

    Emits each visible corner at its true projection plus isotropic Gaussian
    pixel noise, independently dropped with `dropout_prob`; each fully detected
    code quad yields a reading carrying the true code, or (with
    `mislabel_prob`) a uniformly random different code. Deterministic given the
    noise seed, camera and frame index.

    Parameters
    ----------
    truth_positions : (N, 3) array
        World positions of every layout corner this frame.
    visible_corner_ids : int array
        Corner IDs visible in this camera.
    visible_quads : list[(code, (id1..id4))]
        Code quads fully visible in this camera, corner IDs in i_q order.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=noise.seed, spawn_key=(frame_index, camera.id))
    )
    visible_corner_ids = np.asarray(visible_corner_ids, dtype=int)
    truth_positions = np.asarray(truth_positions, dtype=float)

    corners: list[Corner2D] = []
    index_of: dict[int, int] = {}
    if len(visible_corner_ids):
        uv, _ = project_many(camera, truth_positions[visible_corner_ids])
        keep = rng.random(len(visible_corner_ids)) >= noise.dropout_prob
        offsets = rng.normal(0.0, 1.0, size=uv.shape) * noise.pixel_sigma
        confs = rng.uniform(0.5, 1.0, size=len(visible_corner_ids))
        for k, cid in enumerate(visible_corner_ids):
            if not keep[k]:
                continue
            index_of[int(cid)] = len(corners)
            corners.append(Corner2D(uv[k] + offsets[k], confidence=float(confs[k])))

    readings: list[CodeReading] = []
    codes = layout.codes
    for code, quad_ids in visible_quads:
        if any(int(c) not in index_of for c in quad_ids):
            continue
        emitted = code
        if noise.mislabel_prob > 0 and rng.random() < noise.mislabel_prob:
            other = int(rng.integers(0, len(codes) - 1))
            if other >= codes.index(code):
                other += 1
            emitted = codes[other]
        readings.append(
            CodeReading(tuple(index_of[int(c)] for c in quad_ids), emitted, confidence=1.0)
        )
    return DetectionFrame(frame_index, camera.id, corners, readings)


# ---------------------------------------------------------------------------
# JSON-lines detection files


def frame_to_json(frame: DetectionFrame) -> str:
    doc = {
        "frame": frame.frame_index,
        "cam": frame.camera_id,
        "corners": [
            {"x": float(c.position[0]), "y": float(c.position[1]), "conf": float(c.confidence)}
            for c in frame.corners
        ],
        "readings": [
            {"idx": list(r.quad), "code": r.code, "conf": float(r.confidence)}
            for r in frame.readings
        ],
    }
    return json.dumps(doc)


def frame_from_json(line: str) -> DetectionFrame:
    doc = json.loads(line)
    return DetectionFrame(
        frame_index=int(doc["frame"]),
        camera_id=int(doc["cam"]),
        corners=[Corner2D((c["x"], c["y"]), confidence=c["conf"]) for c in doc["corners"]],
        readings=[CodeReading(tuple(r["idx"]), r["code"], r["conf"]) for r in doc["readings"]],
    )


def write_detections(frames, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for frame in frames:
            f.write(frame_to_json(frame) + "\n")


def read_detections(path) -> list[DetectionFrame]:
    frames = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                frames.append(frame_from_json(line))
    return frames
