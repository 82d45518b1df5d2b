"""Linear blend skinning body model.

A model holds rest-pose vertices, a joint tree, row-stochastic skinning
weights, and per-frame poses (one unit quaternion per joint plus a root
translation). Joint rotations act about the rest-pose joint positions and
compose along the kinematic chain, so the identity pose reproduces the rest
pose exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import quat_to_rot

__all__ = [
    "SkinnedBodyModel",
    "joint_transforms",
    "blend_transforms",
    "blend_rows", "stacked_transforms", "parent_frames", "arm_map", "pose_jacobian",
    "save_model",
    "load_model",
    "weights_from_entries",
    "parents_from_entries",
    "export_obj",
]


@dataclass
class SkinnedBodyModel:
    rest_vertices: np.ndarray     # (N, 3) mm
    joints: np.ndarray            # (M, 3) mm
    parents: np.ndarray           # (M,) int, root = -1
    weights: np.ndarray           # (N, M), rows on the simplex
    pose_quats: np.ndarray = None        # (K, M, 4)
    root_translations: np.ndarray = None  # (K, 3)
    never_observed: np.ndarray = None    # (N,) bool, hole-closing vertices
    levels: list = field(init=False, repr=False)  # joint indices by depth, roots first
    subtree: np.ndarray = field(init=False, repr=False)  # (M, M), 1 where joint j is in m's subtree

    def __post_init__(self):
        self.rest_vertices = np.asarray(self.rest_vertices, dtype=float).reshape(-1, 3)
        self.joints = np.asarray(self.joints, dtype=float).reshape(-1, 3)
        self.parents = np.asarray(self.parents, dtype=int).reshape(-1)
        self.weights = np.asarray(self.weights, dtype=float).reshape(len(self.rest_vertices), -1)
        if self.pose_quats is None:
            self.pose_quats = np.zeros((0, self.n_joints, 4))
        if self.root_translations is None:
            self.root_translations = np.zeros((0, 3))
        self.pose_quats = np.asarray(self.pose_quats, dtype=float).reshape(-1, self.n_joints, 4)
        self.root_translations = np.asarray(self.root_translations, dtype=float).reshape(-1, 3)
        if self.never_observed is None:
            self.never_observed = np.zeros(len(self.rest_vertices), dtype=bool)
        self.never_observed = np.asarray(self.never_observed, dtype=bool)
        self.levels = _tree_levels(self.parents)
        self.subtree = _subtree_matrix(self.parents)
        self.validate()

    @property
    def n_vertices(self) -> int:
        return len(self.rest_vertices)

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    @property
    def n_frames(self) -> int:
        return len(self.pose_quats)

    def validate(self):
        rows = self.weights.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError("weight rows must sum to 1")
        if np.any(self.weights < -1e-12):
            raise ValueError("weights must be nonnegative")
        if self.n_frames:
            norms = np.linalg.norm(self.pose_quats, axis=-1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise ValueError("pose quaternions must be unit norm")
        if len(self.root_translations) != self.n_frames:
            raise ValueError("one root translation per pose frame required")

    def identity_pose(self):
        q = np.zeros((self.n_joints, 4))
        q[:, 0] = 1.0
        return q, np.zeros(3)

    def copy(self) -> "SkinnedBodyModel":
        return SkinnedBodyModel(
            self.rest_vertices.copy(),
            self.joints.copy(),
            self.parents.copy(),
            self.weights.copy(),
            self.pose_quats.copy(),
            self.root_translations.copy(),
            self.never_observed.copy(),
        )


def _tree_levels(parents):
    """Joint indices grouped by depth in the tree, roots first; raises ValueError on a cycle."""
    levels = [np.flatnonzero(parents == -1)]
    placed = len(levels[0])
    while placed < len(parents):
        levels.append(np.flatnonzero(np.isin(parents, levels[-1])))
        if not len(levels[-1]):
            raise ValueError(f"joint parents {parents.tolist()} must form an acyclic tree")
        placed += len(levels[-1])
    return levels


def _subtree_matrix(parents):
    """subtree[j, m] = 1 when joint j is in the subtree rooted at m (j == m included).

    The walk up from j ends only on an acyclic tree, which `_tree_levels` checks first."""
    M = len(parents)
    sub = np.zeros((M, M))
    for j in range(M):
        a = j
        while a != -1:
            sub[j, a] = 1.0
            a = parents[a]
    return sub


def joint_transforms(model: SkinnedBodyModel, quats, root_translation):
    """World 4x4 transform per joint for one pose.

    Each joint rotates about its rest position; the root additionally carries
    the frame's global translation. Transforms compose parent-to-child, one
    batched product per tree depth, so the identity pose yields identity
    transforms (plus the root translation).
    """
    quats = np.asarray(quats, dtype=float).reshape(model.n_joints, 4)
    R = quat_to_rot(quats)
    G = np.zeros((model.n_joints, 4, 4))  # the local transforms, composed in place level by level
    G[:, :3, :3] = R
    G[:, :3, 3] = model.joints - (R @ model.joints[:, :, None])[:, :, 0]
    G[:, 3, 3] = 1.0
    G[model.levels[0], :3, 3] += np.asarray(root_translation, dtype=float)
    for level in model.levels[1:]:
        G[level] = G[model.parents[level]] @ G[level]
    return G


def blend_transforms(model: SkinnedBodyModel, G, vertex_ids=None):
    """Per-vertex blended affine transform: (linear (n,3,3), translation (n,3))."""
    W = model.weights if vertex_ids is None else model.weights[vertex_ids]
    A = np.einsum("nm,mij->nij", W, G[:, :3, :])
    return A[:, :, :3], A[:, :, 3]


# Skinning is linear in the stacked joint transforms T = [R_j | t_j] (3, 4M):
# v_i = U_i T' with U = W * [x, 1] (n, 4M). So is the lever arm
# a_im = sum_{j in subtree(m)} w_ij (G_j x_i - c_m) = F_m U_i, where block (m, j)
# of F (3M, 4M) is subtree[j, m] [R_j | t_j - c_m]. Refine and registration skin
# and take their arms in these forms only.


def blend_rows(weights, points):
    """U = W * [x, 1] (n, 4M) of points x (n, 3) with weight rows W (n, M), whose skinned positions are U T'."""
    x1 = np.concatenate([points, np.ones((len(points), 1))], axis=1)
    return (weights[:, :, None] * x1[:, None, :]).reshape(len(points), 4 * weights.shape[1])


def stacked_transforms(G):
    """T' (4M, 3): the joint transforms [R_j | t_j] of G stacked, contiguous for the GEMM."""
    return G[:, :3, :].transpose(0, 2, 1).reshape(-1, 3)


def parent_frames(model: SkinnedBodyModel, G):
    """Parent-chain rotations (the identity at a root) and world joint centers of the joint transforms G."""
    Rp = G[np.maximum(model.parents, 0), :3, :3]
    Rp[model.parents == -1] = np.eye(3)
    centers = np.einsum("mij,mj->mi", G[:, :3, :3], model.joints) + G[:, :3, 3]
    return Rp, centers


def arm_map(model: SkinnedBodyModel, G):
    """(F, Rp): F (3M, 4M) maps U_i to the lever arms (a_i1, ..., a_iM), and Rp are
    the parent-chain rotations."""
    M = len(G)
    Rp, centers = parent_frames(model, G)
    Tc = G[:, :3, :].transpose(1, 0, 2) - centers[:, :, None, None] * np.eye(4)[3]  # [R_j | t_j - c_m]
    return (model.subtree.T[:, None, :, None] * Tc).reshape(3 * M, 4 * M), Rp


def pose_jacobian(arms, Rp):
    """Jacobian (n, 3, 3M+3) of skinned points w.r.t. (per-joint tangent, root translation)
    from their lever arms a (n, M, 3) and the parent-chain rotations Rp (M, 3, 3).

    The tangent d of joint m turns its local rotation R_m into Exp(d) R_m, which
    moves point i by (Rp_m d) x a_im: block (i, m) is -[a_im]_x Rp_m, the root block I.
    """
    n, M = arms.shape[:2]
    ax, ay, az = arms[..., 0], arms[..., 1], arms[..., 2]
    Jac = np.zeros((n, 3, 3 * M + 3))
    blocks = Jac[:, :, : 3 * M].reshape(n, 3, M, 3)  # a view: blocks[i, :, m] = Jac[i, :, 3m:3m+3]
    for k in range(3):  # column k of each block, as two-term cross products
        px, py, pz = Rp[:, 0, k], Rp[:, 1, k], Rp[:, 2, k]
        blocks[:, 0, :, k] = az * py - ay * pz
        blocks[:, 1, :, k] = ax * pz - az * px
        blocks[:, 2, :, k] = ay * px - ax * py
    Jac[:, :, 3 * M :] = np.eye(3)
    return Jac


def skin_with_transforms(model: SkinnedBodyModel, G, rest):
    """Every vertex's `rest` position (N, 3) posed by the joint transforms G."""
    lin, tr = blend_transforms(model, G)
    return np.einsum("nij,nj->ni", lin, rest) + tr


def unskin_with_transforms(model: SkinnedBodyModel, G, vertex_ids, points):
    """Rest-space points through the blended inverses, and a mask of singular rows.

    A row whose blended matrix has |det| <= 1e-9 is marked in the mask and is NaN.
    """
    vertex_ids = np.asarray(vertex_ids, dtype=int)
    pts = np.asarray(points, dtype=float).reshape(len(vertex_ids), 3)
    lin, tr = blend_transforms(model, G, vertex_ids)
    singular = np.abs(np.linalg.det(lin)) <= 1e-9
    rest = np.full_like(pts, np.nan)
    rest[~singular] = np.linalg.solve(lin[~singular], (pts - tr)[~singular, :, None])[..., 0]
    return rest, singular


# ---------------------------------------------------------------------------
# model files


def save_model(model: SkinnedBodyModel, path) -> None:
    """Write the model as JSON with sparse weight triplets and flat per-frame poses."""
    ii, jj = np.nonzero(model.weights)
    K, M = model.n_frames, model.n_joints
    doc = {
        "rest": model.rest_vertices.tolist(),
        "joints": model.joints.tolist(),
        "parents": model.parents.tolist(),
        "weights": list(zip(ii.tolist(), jj.tolist(), model.weights[ii, jj].tolist())),
        "poses": np.concatenate([model.pose_quats.reshape(K, 4 * M), model.root_translations], axis=1).tolist(),
        "never_observed": np.flatnonzero(model.never_observed).tolist(),
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc) + "\n")


def weights_from_entries(entries, n_vertices: int, n_joints: int, path) -> np.ndarray:
    """(V, M) weights from a file's `[i, j, w]` entries.

    Raises ConfigError naming the file and the entry of an index that is not an
    integer inside V x M (1.0 and true included).
    """
    W = np.zeros((n_vertices, n_joints))
    for k, (i, j, w) in enumerate(entries):
        if not (type(i) is int and type(j) is int and 0 <= i < n_vertices and 0 <= j < n_joints):
            raise ConfigError(
                f"{path}: weights[{k}] = [{i}, {j}, {w}] is outside the integer indices of"
                f" {n_vertices} vertices x {n_joints} joints"
            )
        W[i, j] = w
    return W


def parents_from_entries(entries, n_joints: int, path) -> np.ndarray:
    """(M,) parents from a file's entries, each -1 or a joint index below M.

    Raises ConfigError naming the file for a count other than M, or naming the
    entry for one that is not such an integer (0.7 and 1.0 included).
    """
    if len(entries) != n_joints:
        raise ConfigError(f"{path}: {len(entries)} parents for {n_joints} joints")
    for k, p in enumerate(entries):
        if type(p) is not int or not -1 <= p < n_joints:
            raise ConfigError(f"{path}: parents[{k}] = {p} is neither -1 nor a joint index below {n_joints}")
    return np.array(entries, dtype=int)


def load_model(path) -> SkinnedBodyModel:
    """Read a model file written by `save_model`.

    Raises ConfigError naming the file, and the entry where there is one, for
    a parent count other than M, a parent that is neither -1 nor a joint
    index, a pose whose length is not 4M + 3, a weight outside the model, a
    `never_observed` index that is not a vertex, or a model that
    `SkinnedBodyModel` rejects, such as parents that form a cycle.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rest = np.array(doc["rest"], dtype=float)
    joints = np.array(doc["joints"], dtype=float)
    n_joints = len(joints)
    parents = parents_from_entries(doc["parents"], n_joints, path)
    W = weights_from_entries(doc["weights"], len(rest), n_joints, path)
    quats = []
    roots = []
    for k, flat in enumerate(doc["poses"]):
        if len(flat) != 4 * n_joints + 3:
            raise ConfigError(
                f"{path}: poses[{k}] has {len(flat)} values, not 4 x {n_joints} joints + 3 = {4 * n_joints + 3}"
            )
        arr = np.asarray(flat, dtype=float)
        quats.append(arr[: n_joints * 4].reshape(n_joints, 4))
        roots.append(arr[n_joints * 4 :])
    never_observed = doc.get("never_observed", [])
    for k, i in enumerate(never_observed):
        if type(i) is not int or not 0 <= i < len(rest):
            raise ConfigError(f"{path}: never_observed[{k}] = {i} is not a vertex index below {len(rest)}")
    never = np.zeros(len(rest), dtype=bool)
    never[np.array(never_observed, dtype=int)] = True
    quats = np.array(quats).reshape(-1, n_joints, 4)
    roots = np.array(roots).reshape(-1, 3)
    try:
        return SkinnedBodyModel(rest, joints, parents, W, quats, roots, never)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def export_obj(vertices, faces, path) -> None:
    """Write a quad/triangle mesh as Wavefront OBJ (1-indexed)."""
    with open(path, "w", encoding="utf-8") as f:
        for v in vertices:
            f.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for face in faces:
            f.write("f " + " ".join(str(int(i) + 1) for i in face) + "\n")
