"""Filling missing observations in rest-pose displacement space.

Observed corners are unposed through the refined model (Eq.-style generative
direction: world = skin(rest + displacement)), stacked into a frames-by-vertex
displacement matrix, and the unobserved entries are interpolated by minimizing
a spatio-temporal quadratic: the cotangent Laplacian of the rest mesh applied
per frame plus a weighted per-vertex acceleration penalty. Observed entries
keep their values exactly; only the unobserved ones are unknowns, so each
window is one sparse symmetric positive-definite solve. Long sequences are
solved in overlapping windows whose overlaps are blended smoothly.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import SingularKKT
from .layout import SuitLayout
from .meshes import triangulate_faces
from .skinning import SkinnedBodyModel, joint_transforms, skin_with_transforms, unskin_with_transforms

logger = logging.getLogger(__name__)

DEFAULT_TEMPORAL_WEIGHT = 100.0
COT_CLAMP = 1e4

__all__ = [
    "WindowPlan",
    "Constraints",
    "unpose_observations",
    "build_spatial_laplacian",
    "solve_window",
    "solve_sequence",
    "complete_mesh",
    "spatiotemporal_objective",
]


@dataclass(frozen=True)
class WindowPlan:
    window_length: int = 150
    overlap: int = 50

    def __post_init__(self):
        if not 0 < self.overlap < self.window_length:
            raise ValueError("need 0 < overlap < window_length")

    def blend_weights(self) -> np.ndarray:
        """Weight of the newer window across the overlap; smoothstep from 0 to 1."""
        t = np.linspace(0.0, 1.0, self.overlap)
        return t * t * (3.0 - 2.0 * t)

    def starts(self, n_frames: int):
        step = self.window_length - self.overlap
        out = [0]
        while out[-1] + self.window_length < n_frames:
            out.append(out[-1] + step)
        return out


@dataclass
class Constraints:
    """Observed entries of the displacement field: X[frame_idx, vertex_idx] = targets."""

    frame_idx: np.ndarray
    vertex_idx: np.ndarray
    targets: np.ndarray
    n_frames: int
    skipped: list = field(default_factory=list)

    def in_window(self, start: int, stop: int) -> "Constraints":
        m = (self.frame_idx >= start) & (self.frame_idx < stop)
        return Constraints(
            self.frame_idx[m] - start,
            self.vertex_idx[m],
            self.targets[m],
            stop - start,
        )


def unpose_observations(model: SkinnedBodyModel, clouds) -> Constraints:
    """Map observed corners to rest-pose displacement targets.

    For observation p of vertex i at frame k the target is
    unskin(p) - rest_i. Observations whose blended transform is singular are
    skipped, logged and recorded as (frame, vertex) in `skipped`.
    Hole-closing (never-observed) vertices are never constrained.
    """
    # per-frame arrays, each list led by an empty one so that no frames still concatenate
    frame_idx = [np.zeros(0, dtype=int)]
    vertex_idx = [np.zeros(0, dtype=int)]
    targets = [np.zeros((0, 3))]
    skipped = []
    for k, cloud in enumerate(clouds):
        ids, pts = cloud.observed(model.n_vertices)
        constrained = ~model.never_observed[ids]
        ids, pts = ids[constrained], pts[constrained]
        G = joint_transforms(model, model.pose_quats[k], model.root_translations[k])
        rest_pts, singular = unskin_with_transforms(model, G, ids, pts)
        for i in ids[singular].tolist():
            skipped.append((k, i))
            logger.warning("singular blend at frame %d vertex %d; observation skipped", k, i)
        ok = ~singular
        frame_idx.append(np.full(np.count_nonzero(ok), k))
        vertex_idx.append(ids[ok])
        targets.append(rest_pts[ok] - model.rest_vertices[ids[ok]])
    return Constraints(
        np.concatenate(frame_idx),
        np.concatenate(vertex_idx),
        np.concatenate(targets),
        len(clouds),
        skipped,
    )


def build_spatial_laplacian(layout_or_faces, rest_vertices) -> sparse.csr_matrix:
    """Cotangent-weighted Laplacian of the rest mesh, PSD with constants in its null space.

    Quads are split along their shorter rest-pose diagonal. Cotangents of
    degenerate triangles are clamped to |cot| <= 1e4 and logged.
    """
    faces = layout_or_faces.faces if isinstance(layout_or_faces, SuitLayout) else layout_or_faces
    V = np.asarray(rest_vertices, dtype=float)
    tris = triangulate_faces(faces, V)
    n = len(V)

    rows = []
    cols = []
    vals = []
    clamped = 0
    for corner in range(3):
        a = tris[:, corner]
        b = tris[:, (corner + 1) % 3]
        c = tris[:, (corner + 2) % 3]
        u = V[b] - V[a]
        w = V[c] - V[a]
        cross = np.linalg.norm(np.cross(u, w), axis=1)
        dot = np.einsum("ij,ij->i", u, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = np.where(cross > 0, dot / np.where(cross > 0, cross, 1.0), COT_CLAMP)
        over = np.abs(cot) > COT_CLAMP
        clamped += int(over.sum())
        cot = np.clip(cot, -COT_CLAMP, COT_CLAMP)
        half = 0.5 * cot
        rows.extend([b, c])
        cols.extend([c, b])
        vals.extend([-half, -half])
    if clamped:
        logger.warning("clamped %d degenerate cotangents", clamped)

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    L = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    L = L + sparse.diags(-np.asarray(L.sum(axis=1)).ravel())
    return L.tocsr()


def _second_difference(n_frames: int) -> sparse.csr_matrix:
    """Interior-frame acceleration operator; empty for fewer than 3 frames."""
    if n_frames < 3:
        return sparse.csr_matrix((0, n_frames))
    rows = np.repeat(np.arange(n_frames - 2), 3)
    cols = (np.arange(n_frames - 2)[:, None] + np.array([0, 1, 2])[None, :]).ravel()
    vals = np.tile([1.0, -2.0, 1.0], n_frames - 2)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n_frames - 2, n_frames))


def spatiotemporal_objective(L, X, w_temporal: float = DEFAULT_TEMPORAL_WEIGHT) -> float:
    """Eq.-form energy of a (F, N, 3) displacement block."""
    X = np.asarray(X, dtype=float)
    total = 0.0
    for k in range(X.shape[0]):
        total += float(np.sum(X[k] * (L @ X[k])))
    if X.shape[0] >= 3:
        acc = X[:-2] - 2.0 * X[1:-1] + X[2:]
        total += w_temporal * float(np.sum(acc * acc))
    return total


def solve_window(
    L: sparse.spmatrix,
    constraints: Constraints,
    w_temporal: float = DEFAULT_TEMPORAL_WEIGHT,
):
    """Solve the quadratic for one window on its unobserved entries only.

    Observed entries are assigned their targets; the free ones solve the SPD
    system Q_ff X_f = -Q_fc X_c, one factorization for all three coordinates.

    Returns (X (F, N, 3), zeroed_components list). Mesh components with no
    constraint anywhere in the window are set to zero displacement and
    reported. A solution that is not unique raises SingularKKT: a constrained
    component seen in fewer than min(F, 2) frames, a duplicate (frame, vertex)
    constraint, or a failed factorization.
    """
    F = constraints.n_frames
    N = L.shape[0]
    if len(constraints.frame_idx) == 0:
        raise SingularKKT("window has no constraints")

    n_comp, comp = connected_components(L != 0, directed=False)
    constrained_comps = np.unique(comp[constraints.vertex_idx])
    zeroed = sorted(set(range(n_comp)) - set(constrained_comps.tolist()))
    active_vertices = np.where(np.isin(comp, constrained_comps))[0]
    if zeroed:
        logger.warning("components %s have no constraints in window; displacements set to 0", zeroed)

    # a field constant in space and affine in time (any function of time
    # below three frames) costs nothing within a component
    constraint_comp = comp[constraints.vertex_idx]
    for c in constrained_comps:
        frames = np.unique(constraints.frame_idx[constraint_comp == c])
        if len(frames) < min(F, 2):
            raise SingularKKT(f"component {c} is constrained only in frames {frames.tolist()} of {F}")

    # restrict the solve to constrained components
    Ns = len(active_vertices)
    Ls = L[np.ix_(active_vertices, active_vertices)].tocsr()

    S = _second_difference(F)
    Q = sparse.kron(sparse.identity(F, format="csr"), Ls, format="csr")
    if S.shape[0]:
        Q = Q + w_temporal * sparse.kron(S.T @ S, sparse.identity(Ns, format="csr"), format="csr")

    known = constraints.frame_idx * Ns + np.searchsorted(active_vertices, constraints.vertex_idx)
    is_free = np.ones(F * Ns, dtype=bool)
    is_free[known] = False
    free = np.flatnonzero(is_free)
    if len(free) + len(known) != F * Ns:
        raise SingularKKT("duplicate (frame, vertex) constraints")

    x = np.empty((F * Ns, 3))
    x[known] = constraints.targets
    if len(free):
        Q_f = Q[free]
        try:
            lu = splu(Q_f[:, free].tocsc())
        except RuntimeError as e:
            raise SingularKKT(f"factorization of the free block failed: {e}") from e
        x[free] = lu.solve(-(Q_f[:, known] @ constraints.targets))
        if not np.all(np.isfinite(x[free])):
            raise SingularKKT("solve produced non-finite values (rank deficient)")

    X = np.zeros((F, N, 3))
    X[:, active_vertices] = x.reshape(F, Ns, 3)
    return X, zeroed


def solve_sequence(
    L: sparse.spmatrix,
    constraints: Constraints,
    plan: WindowPlan | None = None,
    w_temporal: float = DEFAULT_TEMPORAL_WEIGHT,
) -> np.ndarray:
    """Windowed solve with smooth overlap blending: the (K, N, 3) displacements.

    A sequence no longer than one window is one window, so its result is
    bitwise identical to `solve_window`'s.
    """
    plan = plan or WindowPlan()
    K = constraints.n_frames
    out = np.zeros((K, L.shape[0], 3))
    weights_new = plan.blend_weights()
    prev_end = None
    for s in plan.starts(K):
        stop = min(s + plan.window_length, K)
        Xw, _ = solve_window(L, constraints.in_window(s, stop), w_temporal)
        if prev_end is None:
            out[s:stop] = Xw
        else:
            overlap_len = prev_end - s
            w = weights_new[:overlap_len, None, None]
            out[s : s + overlap_len] = (1.0 - w) * out[s : s + overlap_len] + w * Xw[:overlap_len]
            out[s + overlap_len : stop] = Xw[overlap_len:]
        prev_end = stop
    return out


def complete_mesh(model: SkinnedBodyModel, displacements: np.ndarray, frame: int):
    """Forward-skin the displaced rest pose: full mesh positions at one frame.

    `displacements` is the (K, N, 3) result of `solve_sequence`.
    """
    G = joint_transforms(model, model.pose_quats[frame], model.root_translations[frame])
    rest_k = model.rest_vertices + displacements[frame]
    return skin_with_transforms(model, G, rest_override=rest_k)


# ---------------------------------------------------------------------------
# completed-animation export


def write_animation_binary(path, positions) -> None:
    """Binary stream: one JSON header line, then float32 frame-major positions."""
    positions = np.asarray(positions, dtype=np.float32)
    K, N, _ = positions.shape
    header = json.dumps({"K": int(K), "N": int(N), "dtype": "float32", "layout": "frame_major"})
    with open(path, "wb") as f:
        f.write(header.encode("utf-8") + b"\n")
        f.write(positions.tobytes(order="C"))


def read_animation_binary(path):
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        data = np.frombuffer(f.read(), dtype=np.float32)
    return data.reshape(header["K"], header["N"], 3)
