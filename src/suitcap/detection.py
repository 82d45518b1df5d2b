"""The pluggable detector boundary.

A detector is anything that yields :class:`DetectionFrame` objects; image-based
detectors live outside this package. Included here: the duplicate-corner
clustering rule, a synthetic oracle detector driven by simulator ground truth,
and the JSON-lines detection file format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import Camera, crowded, project_many

CLUSTER_RADIUS_PX = 3.0  # corners closer than this are one corner detected twice

__all__ = [
    "DetectionFrame",
    "OracleNoiseConfig",
    "cluster_frame",
    "oracle_detect",
    "write_detections",
    "read_detections",
]


@dataclass
class DetectionFrame:
    """One camera's corner detections and code readings at one time step, as arrays.

    `corners` (n, 2) holds subpixel corner positions and `corner_conf` (n,)
    their confidences. Each code reading is a row of `quads` (r, 4): indices
    into `corners`, ordered so that column i holds corner i_q = i + 1 of the
    upright code `codes[r]`, read with confidence `code_conf[r]`.
    """

    frame_index: int
    camera_id: int
    corners: np.ndarray = ()
    corner_conf: np.ndarray = ()
    quads: np.ndarray = ()
    codes: list[str] = ()
    code_conf: np.ndarray = ()

    def __post_init__(self):
        self.corners = np.asarray(self.corners, dtype=float).reshape(-1, 2)
        self.corner_conf = np.asarray(self.corner_conf, dtype=float).reshape(-1)
        quads = np.asarray(self.quads)
        if quads.dtype.kind == "f":
            bad = quads[np.mod(quads, 1) != 0]  # NaN and inf included
            if bad.size:
                raise ValueError(
                    f"frame {self.frame_index} camera {self.camera_id}: "
                    f"reading index {bad[0]} is not an integer"
                )
        self.quads = quads.astype(int).reshape(-1, 4)
        self.codes = list(self.codes)
        self.code_conf = np.asarray(self.code_conf, dtype=float).reshape(-1)
        if len(self.corner_conf) != len(self.corners) or not (
            len(self.quads) == len(self.codes) == len(self.code_conf)
        ):
            raise ValueError("detection frame arrays differ in length")


@dataclass(frozen=True)
class OracleNoiseConfig:
    """Noise model for the simulator-backed detector."""

    pixel_sigma: float = 0.0
    dropout_prob: float = 0.0
    mislabel_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.pixel_sigma < np.inf:  # NaN fails this test too
            raise ValueError(f"pixel_sigma must be a finite number >= 0, got {self.pixel_sigma}")
        for p in (self.dropout_prob, self.mislabel_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")


def _cluster(pos, conf):
    """Greedy duplicate suppression: the surviving indices, and each corner's
    survivor as an index into them."""
    n = len(pos)
    winner = np.arange(n)
    if n > 1:
        # only corners with a neighbour closer than the radius can suppress or be suppressed
        near = crowded(pos, CLUSTER_RADIUS_PX * (1 + 1e-9))
        order = np.lexsort((np.arange(n), -conf))
        cells = pos // CLUSTER_RADIUS_PX
        r2 = CLUSTER_RADIUS_PX * CLUSTER_RADIUS_PX
        grid: dict[tuple, list[int]] = {}
        for i in order[near[order]].tolist():
            cx, cy = int(cells[i, 0]), int(cells[i, 1])
            best = -1
            best_d2 = r2
            for gx in (cx - 1, cx, cx + 1):
                for gy in (cy - 1, cy, cy + 1):
                    for j in grid.get((gx, gy), ()):
                        dx = pos[j, 0] - pos[i, 0]
                        dy = pos[j, 1] - pos[i, 1]
                        d2 = dx * dx + dy * dy
                        if d2 < best_d2:
                            best_d2 = d2
                            best = j
            if best >= 0:
                winner[i] = best
            else:
                grid.setdefault((cx, cy), []).append(i)
    survives = winner == np.arange(n)
    return np.flatnonzero(survives), (np.cumsum(survives) - 1)[winner]


def cluster_frame(frame: DetectionFrame) -> DetectionFrame:
    """Suppress near-duplicate corners: within `CLUSTER_RADIUS_PX`, the higher confidence wins.

    Greedy over descending confidence (ties broken by lower index), so the
    result is deterministic and idempotent. Survivors keep their order, and
    reading indices are remapped onto them.
    """
    kept, survivor = _cluster(frame.corners, frame.corner_conf)
    return DetectionFrame(
        frame.frame_index, frame.camera_id, frame.corners[kept], frame.corner_conf[kept],
        survivor[frame.quads], frame.codes, frame.code_conf,
    )


def oracle_detect(
    frame_index: int,
    camera: Camera,
    truth_positions,
    visible,
    layout,
    noise: OracleNoiseConfig,
) -> DetectionFrame:
    """Synthetic stand-in for an image-based detector.

    Emits each visible corner at its true projection plus isotropic Gaussian
    pixel noise, independently dropped with `dropout_prob`; each code quad
    whose four corners were all detected yields a reading carrying the true
    code, or (with `mislabel_prob`) a uniformly random different code.
    Deterministic given the noise seed, camera and frame index.

    Parameters
    ----------
    truth_positions : (N, 3) array
        World positions of every layout vertex this frame.
    visible : (N,) bool array
        The vertices this camera sees: its row of `simulator.compute_visibility`.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=noise.seed, spawn_key=(frame_index, camera.id))
    )
    ids = np.flatnonzero(visible)
    truth_positions = np.asarray(truth_positions, dtype=float)

    corners = conf = ()
    index_of = np.full(len(truth_positions), -1)  # corner ID -> detection index
    if len(ids):
        uv, _ = project_many(camera, truth_positions[ids])
        keep = rng.random(len(ids)) >= noise.dropout_prob
        offsets = rng.normal(0.0, 1.0, size=uv.shape) * noise.pixel_sigma
        confs = rng.uniform(0.5, 1.0, size=len(ids))
        corners = (uv + offsets)[keep]
        conf = confs[keep]
        index_of[ids[keep]] = np.arange(len(corners))

    quads = index_of[layout.quads]
    detected = np.flatnonzero((quads >= 0).all(axis=1))
    codes = layout.codes
    emitted = []
    for q in detected.tolist():
        if noise.mislabel_prob > 0 and rng.random() < noise.mislabel_prob:
            other = int(rng.integers(0, len(codes) - 1))
            q = other + (other >= q)  # any code but its own
        emitted.append(codes[q])
    return DetectionFrame(
        frame_index, camera.id, corners, conf, quads[detected], emitted, np.ones(len(emitted))
    )


# ---------------------------------------------------------------------------
# JSON-lines detection files


def frame_to_json(frame: DetectionFrame) -> str:
    corners = zip(frame.corners.tolist(), frame.corner_conf.tolist())
    readings = zip(frame.quads.tolist(), frame.codes, frame.code_conf.tolist())
    doc = {
        "frame": frame.frame_index,
        "cam": frame.camera_id,
        "corners": [{"x": x, "y": y, "conf": c} for (x, y), c in corners],
        "readings": [{"idx": q, "code": code, "conf": c} for q, code, c in readings],
    }
    return json.dumps(doc)


NUMBER = {int, float}  # the types json.loads gives a number; true and false load as bool


def _typed(values: list, types: set, what: str) -> list:
    """`values`, once the set of their types is checked against `types`; TypeError otherwise."""
    wrong = set(map(type, values)) - types
    if wrong:
        raise TypeError(f"{what} must be {'/'.join(sorted(t.__name__ for t in types))}, "
                        f"got {'/'.join(sorted(t.__name__ for t in wrong))}")
    return values


def _integer(value, what: str) -> int:
    """A JSON integer, or a float with an integral value, as an int."""
    n = int(value)  # raises first, so that "a" stays a ValueError and null a TypeError
    _typed([value], NUMBER, what)
    if n != value:
        raise ValueError(f"{what} {value} is not an integer")
    return n


def frame_from_json(line: str) -> DetectionFrame:
    """One detection record. `frame`, `cam` and each `idx` must be integers (3.0
    reads as 3), `x`, `y` and each `conf` numbers, and each `code` a string;
    anything else raises KeyError, TypeError or ValueError."""
    doc = json.loads(line)
    corners, readings = doc["corners"], doc["readings"]
    xs = _typed([c["x"] for c in corners], NUMBER, "x")
    ys = _typed([c["y"] for c in corners], NUMBER, "y")
    idx = [r["idx"] for r in readings]
    _typed([i for quad in idx for i in quad], NUMBER, "idx")
    return DetectionFrame(
        _integer(doc["frame"], "frame"),
        _integer(doc["cam"], "cam"),
        list(zip(xs, ys)),
        _typed([c["conf"] for c in corners], NUMBER, "corner conf"),
        idx,
        _typed([r["code"] for r in readings], {str}, "code"),
        _typed([r["conf"] for r in readings], NUMBER, "reading conf"),
    )


def write_detections(frames, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for frame in frames:
            f.write(frame_to_json(frame) + "\n")


def read_detections(path) -> list[DetectionFrame]:
    """Parse a detection file, rejecting records that would silently change results.

    Raises `ConfigError` naming the file and the line, with the parser's
    message, for a line that `frame_from_json` cannot read. Raises it naming
    the frame, the camera and the bad value for a reading index outside the
    frame's corners, a non-finite pixel or confidence, or a repeated
    (frame, camera) record.
    """
    frames = []
    seen = set()
    with open(path, "r", encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                frame = frame_from_json(line)
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise ConfigError(f"{path}: line {n}: not a detection record ({type(e).__name__}: {e})") from None
            where = f"{path}: frame {frame.frame_index} camera {frame.camera_id}"
            if (frame.frame_index, frame.camera_id) in seen:
                raise ConfigError(f"{where}: repeated (frame, camera) record")
            seen.add((frame.frame_index, frame.camera_id))
            n = len(frame.corners)
            bad = frame.quads[(frame.quads < 0) | (frame.quads >= n)]
            if bad.size:
                raise ConfigError(f"{where}: reading index {bad[0]} outside [0, {n})")
            for name, values in (
                ("pixel", frame.corners),
                ("corner confidence", frame.corner_conf),
                ("reading confidence", frame.code_conf),
            ):
                bad = values[~np.isfinite(values)]
                if bad.size:
                    raise ConfigError(f"{where}: non-finite {name} {bad[0]}")
            frames.append(frame)
    return frames
