"""Synthetic ground-truth generator.

Builds an articulated capsule-chain body whose surface carries a coded corner
layout, animates it with smooth per-joint rotation curves plus an optional
sinusoidal breathing field on the rest pose, surrounds it with a circular
camera rig, and computes per-camera corner/quad visibility. Every stage of the
real pipeline can be checked against the values generated here.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .geometry import Camera, CameraRig, crowded, project_many, rot_to_quat
from .layout import SuitLayout, concat_layouts, generate_synthetic_layout
from .meshes import pack_triangles, segments_hit_triangles, triangulate_faces, vertex_normals
from .skinning import SkinnedBodyModel, joint_transforms, skin_with_transforms

# the ring rig: cameras on a circle about the volume's center, aimed at it
RIG_CENTER = (0.0, 0.0, 1000.0)  # mm
RIG_RADIUS = 3200.0  # mm
RIG_HEIGHT = 1000.0  # mm, camera height above the floor
RIG_FOCAL = 2400.0  # px
RIG_IMAGE_SIZE = (4000, 2160)  # px
ROOT_PERIOD = 240.0  # frames of one turn of the root's sway
MIN_PIXEL_SEPARATION = 4.0  # a detector cannot resolve corners closer than this

__all__ = [
    "SyntheticScene",
    "VisibilityRecord",
    "build_default_rig",
    "build_tube_body",
    "stick_figure_scene",
    "tube_scene",
    "animate_and_sample",
    "compute_visibility",
    "truth_clouds",
    "truth_cloud",
]


def build_default_rig(n_cameras: int = 16) -> CameraRig:
    """Cameras evenly spaced on the ring rig's circle, all aimed at the center of the volume."""
    if n_cameras < 2:
        raise ValueError("a rig needs at least two cameras")
    center = np.array(RIG_CENTER)
    w, h = RIG_IMAGE_SIZE
    K = np.array([[RIG_FOCAL, 0.0, w / 2.0], [0.0, RIG_FOCAL, h / 2.0], [0.0, 0.0, 1.0]])
    cams = []
    for i in range(n_cameras):
        phi = 2.0 * np.pi * i / n_cameras
        pos = center + np.array([RIG_RADIUS * np.cos(phi), RIG_RADIUS * np.sin(phi), RIG_HEIGHT - center[2]])
        z = center - pos
        z /= np.linalg.norm(z)
        x = np.cross(z, np.array([0.0, 0.0, 1.0]))
        x /= np.linalg.norm(x)
        y = np.cross(z, x)
        R = np.stack([x, y, z])
        cams.append(
            Camera(
                id=i,
                intrinsics=K,
                distortion=np.zeros(5),
                rotation=rot_to_quat(R),
                translation=-R @ pos,
                image_size=RIG_IMAGE_SIZE,
            )
        )
    return CameraRig(cams)


@dataclass
class JointAnimation:
    """Smooth per-joint rotation curves: angle_j(k) = amp_j * sin(2*pi*k/period_j + phase_j)."""

    axes: np.ndarray        # (M, 3) unit
    amplitudes: np.ndarray  # (M,) radians
    periods: np.ndarray     # (M,) frames
    phases: np.ndarray      # (M,)
    root_sway: float = 0.0  # mm

    def pose(self, k: int):
        angles = self.amplitudes * np.sin(2.0 * np.pi * k / self.periods + self.phases)
        rotvecs = self.axes * angles[:, None]
        from .geometry import quat_from_rotvec

        quats = quat_from_rotvec(rotvecs)
        phi = 2.0 * np.pi * k / ROOT_PERIOD
        root_t = self.root_sway * np.array([np.cos(phi), np.sin(phi), 0.0])
        return quats, root_t

    @classmethod
    def random(cls, n_joints: int, rng, strength: float = 1.0, root_sway: float = 60.0):
        axes = rng.normal(size=(n_joints, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        amplitudes = np.radians(rng.uniform(8.0, 25.0, n_joints)) * strength
        periods = rng.uniform(60.0, 160.0, n_joints)
        phases = rng.uniform(0.0, 2.0 * np.pi, n_joints)
        # keep the root near identity so the rig always faces the body
        amplitudes[0] *= 0.3
        return cls(axes, amplitudes, periods, phases, root_sway=root_sway * strength)


@dataclass
class SyntheticScene:
    model: SkinnedBodyModel
    layout: SuitLayout
    rig: CameraRig
    animation: JointAnimation
    breathing_amplitude: np.ndarray  # (N,) mm
    breathing_dirs: np.ndarray       # (N, 3) unit
    vertex_tube: np.ndarray          # (N,) tube index per vertex
    breathing_period: float = 100.0
    triangles: np.ndarray = field(init=False, repr=False)
    quad_codes: list = field(init=False, repr=False)
    quad_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.triangles = triangulate_faces(self.layout.faces, self.model.rest_vertices)
        self.quad_codes = list(self.layout.codes)
        self.quad_ids = np.array([self.layout.quad_table[c] for c in self.quad_codes], dtype=int)

    def rest_displacements(self, k: int):
        s = np.sin(2.0 * np.pi * k / self.breathing_period)
        return (self.breathing_amplitude * s)[:, None] * self.breathing_dirs

    def pose(self, k: int):
        return self.animation.pose(k)

    def positions(self, k: int):
        """Ground-truth corner positions: skin(rest + breathing) at frame k."""
        quats, root_t = self.pose(k)
        G = joint_transforms(self.model, quats, root_t)
        rest_k = self.model.rest_vertices + self.rest_displacements(k)
        return skin_with_transforms(self.model, G, rest_k)

    def posed_model(self, n_frames: int) -> SkinnedBodyModel:
        """Copy of the generative model with the first n_frames poses baked in."""
        m = self.model.copy()
        quats = []
        roots = []
        for k in range(n_frames):
            q, r = self.pose(k)
            quats.append(q)
            roots.append(r)
        m.pose_quats = np.array(quats)
        m.root_translations = np.array(roots)
        m.validate()
        return m


def _orthonormal_frame(ez):
    ez = ez / np.linalg.norm(ez)
    a = np.array([1.0, 0.0, 0.0]) if abs(ez[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    ex = np.cross(a, ez)
    ex /= np.linalg.norm(ex)
    ey = np.cross(ez, ex)
    return ex, ey, ez


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def build_tube_body(joints, parents, bones):
    """Assemble a multi-tube body: layout, rest vertices, weights, tube index.

    Each bone entry is (parent_joint, child_joint, radius, strips, codes_per_strip);
    a cylindrical corner grid wraps each bone. Skinning weight rests on the
    bone's parent joint, blending smoothly into the child joint near the far
    end and into the grandparent joint near the near end.
    """
    joints = np.asarray(joints, dtype=float)
    parents = np.asarray(parents, dtype=int)
    M = len(joints)

    parts = []
    rest = []
    weights = []
    tube_of = []
    code_offset = 0
    for tube_idx, (jp, jc, radius, strips, codes_per_strip) in enumerate(bones):
        part = generate_synthetic_layout(strips, codes_per_strip, code_offset)
        code_offset += strips * codes_per_strip
        parts.append(part)
        cols = 2 * codes_per_strip
        rows = strips + 1
        p0, p1 = joints[jp], joints[jc]
        ex, ey, ez = _orthonormal_frame(p1 - p0)
        for r in range(rows):
            t = 0.1 + 0.8 * (r / max(strips, 1))
            centre = p0 + t * (p1 - p0)
            w_child = 0.5 * _smoothstep((t - 0.7) / 0.3)
            w_grand = 0.5 * _smoothstep((0.3 - t) / 0.3) if parents[jp] >= 0 else 0.0
            w_row = np.zeros(M)
            w_row[jc] = w_child
            if parents[jp] >= 0:
                w_row[parents[jp]] += w_grand
            w_row[jp] += 1.0 - w_row.sum()
            for c in range(cols):
                theta = 2.0 * np.pi * c / cols
                rest.append(centre + radius * (np.cos(theta) * ex + np.sin(theta) * ey))
                weights.append(w_row)
                tube_of.append(tube_idx)
    layout = concat_layouts(parts)
    rest = np.array(rest)
    if len(rest) != layout.n_corners:
        raise AssertionError("tube grids and layout disagree on corner count")
    model = SkinnedBodyModel(rest, joints, parents, np.array(weights))
    return layout, model, np.array(tube_of, dtype=int)


STICK_FIGURE_JOINTS = np.array(
    [
        [0, 0, 1000],      # 0 pelvis (root)
        [0, 0, 1150],      # 1 spine1
        [0, 0, 1300],      # 2 spine2
        [0, 0, 1450],      # 3 chest
        [130, 0, 1480],    # 4 l_shoulder
        [430, 0, 1480],    # 5 l_elbow
        [700, 0, 1480],    # 6 l_wrist
        [-130, 0, 1480],   # 7 r_shoulder
        [-430, 0, 1480],   # 8 r_elbow
        [-700, 0, 1480],   # 9 r_wrist
        [95, 0, 950],      # 10 l_hip
        [95, 0, 520],      # 11 l_knee
        [95, 0, 90],       # 12 l_ankle
        [-95, 0, 950],     # 13 r_hip
        [-95, 0, 520],     # 14 r_knee
        [-95, 0, 90],      # 15 r_ankle
    ],
    dtype=float,
)

STICK_FIGURE_PARENTS = np.array([-1, 0, 1, 2, 3, 4, 5, 3, 7, 8, 0, 10, 11, 0, 13, 14])

# (parent_joint, child_joint, radius mm, strips, codes_per_strip)
STICK_FIGURE_BONES = [
    (0, 1, 150.0, 3, 20),
    (1, 2, 150.0, 3, 20),
    (2, 3, 145.0, 3, 20),
    (3, 4, 70.0, 2, 9),
    (4, 5, 55.0, 3, 10),
    (5, 6, 45.0, 3, 9),
    (3, 7, 70.0, 2, 9),
    (7, 8, 55.0, 3, 10),
    (8, 9, 45.0, 3, 9),
    (0, 10, 85.0, 2, 8),
    (10, 11, 75.0, 4, 13),
    (11, 12, 55.0, 4, 12),
    (0, 13, 85.0, 2, 8),
    (13, 14, 75.0, 4, 13),
    (14, 15, 55.0, 4, 12),
]


def _body_scene(joints, parents, bones, n_cameras, seed, breathing_amplitude, breathing_period, **motion):
    """Tube body, random joint animation and breathing field; `motion` goes to JointAnimation.random."""
    if not 0 < breathing_period < np.inf:  # NaN fails this test too
        raise ValueError(f"breathing_period must be a finite number > 0, got {breathing_period}")
    rng = np.random.default_rng(seed)
    layout, model, tube_of = build_tube_body(joints, parents, bones)
    animation = JointAnimation.random(model.n_joints, rng, **motion)
    amp, dirs = _breathing_field(model, layout, breathing_amplitude)
    return SyntheticScene(
        model=model,
        layout=layout,
        rig=build_default_rig(n_cameras),
        animation=animation,
        breathing_amplitude=amp,
        breathing_dirs=dirs,
        vertex_tube=tube_of,
        breathing_period=breathing_period,
    )


def stick_figure_scene(
    n_cameras: int = 16,
    seed: int = 0,
    breathing_amplitude: float = 0.0,
    breathing_period: float = 100.0,
    animation_strength: float = 1.0,
) -> SyntheticScene:
    """Full 16-joint capsule-chain body wrapped with roughly 1.5k coded corners."""
    return _body_scene(
        STICK_FIGURE_JOINTS, STICK_FIGURE_PARENTS, STICK_FIGURE_BONES, n_cameras, seed,
        breathing_amplitude, breathing_period, strength=animation_strength,
    )


def tube_scene(
    n_cameras: int = 16,
    strips: int = 6,
    codes_per_strip: int = 10,
    radius: float = 150.0,
    seed: int = 0,
    breathing_amplitude: float = 0.0,
    breathing_period: float = 100.0,
    animation_strength: float = 1.0,
) -> SyntheticScene:
    """Single articulated cylinder: a 3-joint chain wrapped with one corner grid."""
    joints = np.array([[0, 0, 600], [0, 0, 1000], [0, 0, 1400]], dtype=float)
    parents = np.array([-1, 0, 1])
    tube = (radius, strips, codes_per_strip // 2 or 1)
    bones = [(0, 1, *tube), (1, 2, *tube)]
    return _body_scene(
        joints, parents, bones, n_cameras, seed,
        breathing_amplitude, breathing_period, strength=animation_strength, root_sway=30.0,
    )


def _breathing_field(model: SkinnedBodyModel, layout: SuitLayout, amplitude: float):
    """Smooth radial displacement field; amplitude varies softly along the body height."""
    tris = triangulate_faces(layout.faces, model.rest_vertices)
    dirs = vertex_normals(model.rest_vertices, tris)
    z = model.rest_vertices[:, 2]
    span = np.ptp(z) or 1.0
    amp = amplitude * (0.6 + 0.4 * np.sin(2.0 * np.pi * (z - z.min()) / span))
    return amp, dirs


def animate_and_sample(scene: SyntheticScene, n_frames: int):
    """Ground-truth corner positions for frames 0..n_frames-1, shape (K, N, 3)."""
    return np.stack([scene.positions(k) for k in range(n_frames)])


@dataclass
class VisibilityRecord:
    frame_index: int
    visible_corners: dict   # cam_id -> int array of corner ids
    visible_quads: dict     # cam_id -> list[(code, (id1..id4))]


def compute_visibility(scene: SyntheticScene, frame_index: int, positions=None) -> VisibilityRecord:
    """Corner/quad visibility per camera at one frame.

    A corner is visible when it projects with positive depth inside the image,
    its outward normal faces the camera, no other candidate corner projects
    within `MIN_PIXEL_SEPARATION` px (detector resolution), and the camera-to-corner
    segment is not blocked. Occlusion rays are tested against the triangles of
    other tubes whose bounding boxes the segment crosses; each straight tube
    segment is treated as self-occluding only through its back-face test.
    """
    pos = scene.positions(frame_index) if positions is None else positions
    normals = vertex_normals(pos, scene.triangles)
    n_tubes = int(scene.vertex_tube.max()) + 1
    tube_boxes = np.empty((n_tubes, 2, 3))
    tri_tube = scene.vertex_tube[scene.triangles[:, 0]]
    tube_packs = []
    for t in range(n_tubes):
        pts = pos[scene.vertex_tube == t]
        tube_boxes[t, 0] = pts.min(axis=0)
        tube_boxes[t, 1] = pts.max(axis=0)
        tube_packs.append(pack_triangles(pos[scene.triangles[tri_tube == t]]))

    cand_per_cam = {}
    for cam in scene.rig:
        uv, z = project_many(cam, pos)
        w, h = cam.image_size
        ok = (z > 0) & (uv[:, 0] >= 0) & (uv[:, 0] < w) & (uv[:, 1] >= 0) & (uv[:, 1] < h)
        view = cam.center - pos
        ok &= np.einsum("ij,ij->i", normals, view) > 0
        ok[scene.layout.n_corners :] = False  # hole-closing vertices are never detected
        cand = np.where(ok)[0]
        cand_per_cam[cam.id] = cand[~crowded(uv[cand], MIN_PIXEL_SEPARATION)]

    origins = np.concatenate(
        [np.broadcast_to(scene.rig.camera(c).center, (len(ids), 3)) for c, ids in cand_per_cam.items()]
    )
    corner_ids = np.concatenate(list(cand_per_cam.values())).astype(int)
    clear = _unoccluded(scene, origins, pos[corner_ids], scene.vertex_tube[corner_ids], tube_boxes, tube_packs)
    off = 0
    for c, ids in cand_per_cam.items():
        cand_per_cam[c] = ids[clear[off : off + len(ids)]]
        off += len(ids)

    visible_corners = {}
    visible_quads = {}
    for cam_id, cand in cand_per_cam.items():
        vis_mask = np.zeros(scene.model.n_vertices, dtype=bool)
        vis_mask[cand] = True
        visible_corners[cam_id] = cand
        qmask = vis_mask[scene.quad_ids].all(axis=1)
        visible_quads[cam_id] = [
            (scene.quad_codes[q], tuple(int(v) for v in scene.quad_ids[q]))
            for q in np.where(qmask)[0]
        ]
    return VisibilityRecord(frame_index, visible_corners, visible_quads)


def _unoccluded(scene, origins, targets, own_tube, tube_boxes, tube_packs):
    """Flat occlusion pass: segment s runs origin->target, skipping its own tube."""
    d = targets - origins

    # segment vs tube AABB, slab test vectorized over (segments, tubes)
    lo = tube_boxes[None, :, 0, :]
    hi = tube_boxes[None, :, 1, :]
    o = origins[:, None, :]
    dd = d[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(np.abs(dd) > 1e-12, 1.0 / dd, np.inf)
    t1 = (lo - o) * inv
    t2 = (hi - o) * inv
    tmin = np.minimum(t1, t2)
    tmax = np.maximum(t1, t2)
    # degenerate axes: inside-slab check
    flat = np.abs(dd) <= 1e-12
    inside = (o >= lo) & (o <= hi)
    tmin = np.where(flat, np.where(inside, -np.inf, np.inf), tmin)
    tmax = np.where(flat, np.where(inside, np.inf, -np.inf), tmax)
    enter = tmin.max(axis=2)
    exit_ = tmax.min(axis=2)
    crosses = (enter <= exit_) & (exit_ > 0) & (enter < 1.0)
    crosses[np.arange(len(origins)), own_tube] = False

    clear = np.ones(len(origins), dtype=bool)
    for t in range(tube_boxes.shape[0]):
        seg_rows = np.where(crosses[:, t])[0]
        if not len(seg_rows):
            continue
        hit = segments_hit_triangles(origins[seg_rows], targets[seg_rows], pack=tube_packs[t])
        clear[seg_rows] &= ~hit
    return clear


def truth_clouds(scene: SyntheticScene, n_frames: int, min_cameras: int = 2):
    """Per-frame ground-truth clouds of corners visible in at least `min_cameras`."""
    clouds = []
    for k in range(n_frames):
        pos = scene.positions(k)
        clouds.append(truth_cloud(k, pos, compute_visibility(scene, k, positions=pos), min_cameras))
    return clouds


def truth_cloud(k: int, positions, vis: VisibilityRecord, min_cameras: int):
    """Ground-truth cloud of frame k: the corners that `vis` puts in at least `min_cameras`, by id."""
    from .reconstruct import LabeledPointCloud, PointRecord

    cams: dict[int, list] = {}
    for cam_id, ids in vis.visible_corners.items():
        for cid in ids.tolist():
            cams.setdefault(cid, []).append(cam_id)
    cloud = LabeledPointCloud(k)
    for cid in sorted(cid for cid, seen_by in cams.items() if len(seen_by) >= min_cameras):
        cloud.points[cid] = PointRecord(positions[cid].copy(), tuple(sorted(cams[cid])), 0.0)
    return cloud


# ---------------------------------------------------------------------------
# scene spec files


PRESETS = {"stick_figure": stick_figure_scene, "tube": tube_scene}


def scene_from_spec(spec: dict) -> SyntheticScene:
    """Build a scene from a JSON-able spec dict: a preset name plus any of its
    builder's arguments. Keys the builder does not take (such as `frames`) are
    ignored, and an argument the spec leaves out takes the builder's default."""
    preset = spec.get("preset", "stick_figure")
    if preset not in PRESETS:
        raise ValueError(f"unknown scene preset {preset!r}")
    build = PRESETS[preset]
    params = inspect.signature(build).parameters
    return build(**{k: v for k, v in spec.items() if k in params})
