"""Filling missing observations in rest-pose displacement space.

Observed corners are unposed through the refined model (Eq.-style generative
direction: world = skin(rest + displacement)), stacked into a frames-by-vertex
displacement matrix, and the unobserved entries are interpolated by minimizing
a spatio-temporal quadratic: the cotangent Laplacian of the rest mesh applied
per frame plus a weighted per-vertex acceleration penalty. Observed entries
keep their values exactly; only the unobserved ones are unknowns, so each
window is one sparse symmetric positive-definite solve. Long sequences are
solved in overlapping windows whose overlaps are blended smoothly; frames
stream in and out, so a take is held at most one window at a time.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
import scipy

from .errors import SingularKKT
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
    "solve_frames",
    "complete_mesh",
    "spatiotemporal_objective",
]


@dataclass(frozen=True)
class WindowPlan:
    window_length: int
    overlap: int

    def __post_init__(self):
        if not 0 < self.overlap < self.window_length:
            raise ValueError(
                "window.overlap must satisfy 0 < overlap < window.length,"
                f" got overlap {self.overlap} and length {self.window_length}"
            )

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


def unpose_observations(model: SkinnedBodyModel, clouds, first_frame: int = 0) -> Constraints:
    """Map observed corners to rest-pose displacement targets.

    `clouds` are the model's pose frames `first_frame`, `first_frame + 1`, ...;
    the constraints count frames from the first cloud. For observation p of
    vertex i at frame k the target is unskin(p) - rest_i. Observations whose
    blended transform is singular are skipped, logged and recorded as
    (pose frame, vertex) in `skipped`. Hole-closing (never-observed) vertices
    are never constrained.
    """
    # per-frame arrays, each list led by an empty one so that no frames still concatenate
    frame_idx = [np.zeros(0, dtype=int)]
    vertex_idx = [np.zeros(0, dtype=int)]
    targets = [np.zeros((0, 3))]
    skipped = []
    for k, cloud in enumerate(clouds, first_frame):
        ids, pts = cloud.observed(model.n_vertices)
        constrained = ~model.never_observed[ids]
        ids, pts = ids[constrained], pts[constrained]
        G = joint_transforms(model, model.pose_quats[k], model.root_translations[k])
        rest_pts, singular = unskin_with_transforms(model, G, ids, pts)
        for i in ids[singular].tolist():
            skipped.append((k, i))
            logger.warning("singular blend at frame %d vertex %d; observation skipped", k, i)
        ok = ~singular
        frame_idx.append(np.full(np.count_nonzero(ok), k - first_frame))
        vertex_idx.append(ids[ok])
        targets.append(rest_pts[ok] - model.rest_vertices[ids[ok]])
    return Constraints(
        np.concatenate(frame_idx),
        np.concatenate(vertex_idx),
        np.concatenate(targets),
        len(clouds),
        skipped,
    )


def build_spatial_laplacian(faces, rest_vertices) -> scipy.sparse.csr_matrix:
    """Cotangent-weighted Laplacian of the rest mesh, PSD with constants in its null space.

    Quads are split along their shorter rest-pose diagonal. Cotangents of
    degenerate triangles are clamped to |cot| <= 1e4 and logged.
    """
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
    L = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    L = L + scipy.sparse.diags(-np.asarray(L.sum(axis=1)).ravel())
    return L.tocsr()


def _temporal_band(n_frames: int) -> np.ndarray:
    """(F, 5) band of SᵀS for the interior-frame acceleration operator S.

    Column 2 + d holds (SᵀS)[k, k + d]; every entry inside the matrix is a
    nonzero integer, and all entries are zero below three frames.
    """
    band = np.zeros((n_frames, 5))
    c = (1.0, -2.0, 1.0)
    for a in range(3):
        for b in range(3):
            band[a : n_frames - 2 + a, b - a + 2] += c[a] * c[b]
    return band


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


def _ranges(starts, lengths) -> np.ndarray:
    """The concatenated ranges starts[r] : starts[r] + lengths[r]."""
    run = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum(), dtype=starts.dtype) + np.repeat(starts - run, lengths)


def _with_diagonal(Ls):
    """Canonical `Ls` with an explicit zero on each diagonal entry it lacks."""
    n = Ls.shape[0]
    rows = np.repeat(np.arange(n), np.diff(Ls.indptr))
    has = np.zeros(n, dtype=bool)
    has[rows[Ls.indices == rows]] = True
    missing = np.flatnonzero(~has)
    if not len(missing):
        return Ls
    data = np.concatenate([Ls.data, np.zeros(len(missing))])
    ij = (np.concatenate([rows, missing]), np.concatenate([Ls.indices, missing]))
    return scipy.sparse.coo_matrix((data, ij), shape=Ls.shape).tocsr()


def _free_blocks(Ls, n_frames: int, free, known, w_temporal: float):
    """Rows `free` of the window's Q = I_F ⊗ Ls + w·SᵀS ⊗ I, assembled without Q.

    Unknown (k, i) of the (F, Ns) window is row and column k·Ns + i, and `Ls`
    is canonical CSR. Returns the columns `free` as canonical CSC (Q_ff) and
    the columns `known`, numbered in `known`'s order and stored in row-major
    column order, as CSR (Q_fc). Both carry the bits, order and explicit
    entries of the blocks sliced from the sparse sum, which keeps no zero from
    three frames on.
    """
    Ns = Ls.shape[0]
    # bounds every flat index and every entry count below
    itype = np.int32 if n_frames * (Ls.nnz + 5 * Ns) < 2**31 else np.int64
    temporal = n_frames >= 3
    if temporal:
        Ls = _with_diagonal(Ls)
    k, i = np.divmod(free.astype(itype), Ns)
    deg = np.diff(Ls.indptr)[i]
    # row r holds the temporal entries of frames k - 2 and k - 1, the spatial
    # row of frame k, then the temporal entries of frames k + 1 and k + 2
    before = np.minimum(k, 2) if temporal else np.zeros_like(k)
    after = np.minimum(n_frames - 1 - k, 2) if temporal else np.zeros_like(k)
    start = np.zeros(len(free) + 1, dtype=itype)
    np.cumsum(before + deg + after, out=start[1:])
    cols = np.empty(start[-1], dtype=itype)
    vals = np.empty(start[-1])

    e = _ranges(Ls.indptr[i], deg)
    at = _ranges(start[:-1] + before, deg)
    cols[at] = np.repeat(k * Ns, deg) + Ls.indices[e]
    vals[at] = Ls.data[e]
    if temporal:
        band = _temporal_band(n_frames)
        diag = at[Ls.indices[e] == np.repeat(i, deg)]
        vals[diag] = vals[diag] + w_temporal * band[k, 2]
        for d in (-2, -1, 1, 2):
            r = np.flatnonzero((k + d >= 0) & (k + d < n_frames))
            at = start[r] + before[r] + (d if d < 0 else deg[r] + d - 1)
            cols[at] = (k[r] + d) * Ns + i[r]
            vals[at] = w_temporal * band[k[r], d + 2]
        keep = vals != 0
        if not keep.all():
            start = np.concatenate([[0], np.cumsum(keep, dtype=itype)])[start]
            cols, vals = cols[keep], vals[keep]

    slot = np.empty(n_frames * Ns, dtype=itype)
    slot[free] = np.arange(len(free))
    slot[known] = np.arange(len(known))
    is_free = np.zeros(n_frames * Ns, dtype=bool)
    is_free[free] = True
    to_free = is_free[cols]

    def block(m, n_cols):
        indptr = np.concatenate([[0], np.cumsum(m, dtype=itype)])[start]
        return scipy.sparse.csr_matrix((vals[m], slot[cols[m]], indptr), shape=(len(free), n_cols))

    return block(to_free, len(free)).tocsc(), block(~to_free, len(known))


def solve_window(
    L: scipy.sparse.spmatrix,
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

    n_comp, comp = scipy.sparse.csgraph.connected_components(L != 0, directed=False)
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

    known = constraints.frame_idx * Ns + np.searchsorted(active_vertices, constraints.vertex_idx)
    is_free = np.ones(F * Ns, dtype=bool)
    is_free[known] = False
    free = np.flatnonzero(is_free)
    if len(free) + len(known) != F * Ns:
        raise SingularKKT("duplicate (frame, vertex) constraints")

    X = np.zeros((F, N, 3))
    # the active block's unknowns, row k·Ns + i; X itself when every vertex is active
    x = X.reshape(F * N, 3) if Ns == N else np.empty((F * Ns, 3))
    x[known] = constraints.targets
    if len(free):
        Q_ff, Q_fc = _free_blocks(Ls, F, free, known, w_temporal)
        try:
            lu = scipy.sparse.linalg.splu(Q_ff)
        except RuntimeError as e:
            raise SingularKKT(f"factorization of the free block failed: {e}") from e
        x[free] = lu.solve(-(Q_fc @ constraints.targets))
        if not np.all(np.isfinite(x[free])):
            raise SingularKKT("solve produced non-finite values (rank deficient)")
    if Ns < N:
        X[:, active_vertices] = x.reshape(F, Ns, 3)
    return X, zeroed


def _stack(frames) -> Constraints:
    """One window's constraints from its frames' single-frame constraints."""
    return Constraints(
        np.repeat(np.arange(len(frames)), [len(c.vertex_idx) for c in frames]),
        np.concatenate([np.zeros(0, dtype=int)] + [c.vertex_idx for c in frames]),
        np.concatenate([np.zeros((0, 3))] + [c.targets for c in frames]),
        len(frames),
    )


def solve_frames(
    L: scipy.sparse.spmatrix,
    frames,
    plan: WindowPlan,
    w_temporal: float = DEFAULT_TEMPORAL_WEIGHT,
):
    """Windowed solve with smooth overlap blending over a stream of frames.

    `frames` yields each frame's single-frame constraints in order, such as
    `unpose_observations(model, [cloud], k)`. Yields each frame's (N, 3)
    displacements once no later window overlaps it, so one window of
    constraints and one overlap of blended displacements are held at a time.
    A take no longer than one window is one window, bitwise identical to
    `solve_window`'s.
    """
    step = plan.window_length - plan.overlap
    blend = plan.blend_weights()[:, None, None]
    frames = iter(frames)
    window = []  # constraints of the frames from the window's first on
    tail = None  # blended displacements of the frames the window overlaps
    while True:
        window += islice(frames, plan.window_length - len(window))
        Xw, _ = solve_window(L, _stack(window), w_temporal)
        if tail is not None:
            Xw[: plan.overlap] = (1.0 - blend) * tail + blend * Xw[: plan.overlap]
        following = next(frames, None) if len(window) == plan.window_length else None
        if following is None:
            yield from Xw
            return
        yield from Xw[:step]
        tail = Xw[step:].copy()
        window = window[step:] + [following]


def complete_mesh(model: SkinnedBodyModel, displacement: np.ndarray, frame: int):
    """Forward-skin the displaced rest pose: full mesh positions at one frame.

    `displacement` is that frame's (N, 3) result of `solve_frames`.
    """
    G = joint_transforms(model, model.pose_quats[frame], model.root_translations[frame])
    return skin_with_transforms(model, G, model.rest_vertices + displacement)


# ---------------------------------------------------------------------------
# completed-animation export


def animation_header(n_frames: int, n_vertices: int) -> bytes:
    """The JSON header line of a binary animation of `n_frames` frames."""
    header = {"K": int(n_frames), "N": int(n_vertices), "dtype": "float32", "layout": "frame_major"}
    return json.dumps(header).encode("utf-8") + b"\n"


def write_animation_binary(f, positions) -> None:
    """Append (N, 3) or (k, N, 3) positions to the open binary animation `f` as float32, frame-major."""
    f.write(np.asarray(positions, dtype=np.float32).tobytes(order="C"))


def read_animation_binary(path):
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        data = np.frombuffer(f.read(), dtype=np.float32)
    return data.reshape(header["K"], header["N"], 3)
