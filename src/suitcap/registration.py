"""Non-rigid ICP registration of reconstructed corners to a template body.

The template is any skinned triangle mesh with joints and weights. Fitting
alternates between (a) solving the template's pose, root translation, and
per-joint scale against the current correspondences and (b) re-projecting each
reconstructed corner to the closest point of the deformed template surface,
stored as (triangle, barycentric). Corners unobserved in the initial frame are
registered from subsequent frames; anything still uncovered (including the
layout's hole-closing vertices) receives harmonically interpolated rest
positions and weights over the suit mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve
from scipy.spatial import cKDTree

from .errors import DivergedICP, InsufficientSeeds
from .geometry import quat_from_rotvec
from .layout import SuitLayout
from .meshes import closest_point_on_triangles, mesh_edges
from .skinning import SkinnedBodyModel, joint_transforms

__all__ = ["TemplateModel", "register_icp", "RegistrationResult"]


@dataclass
class TemplateModel:
    vertices: np.ndarray   # (V, 3)
    triangles: np.ndarray  # (F, 3)
    joints: np.ndarray     # (M, 3)
    parents: np.ndarray    # (M,)
    weights: np.ndarray    # (V, M) row-stochastic

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=int).reshape(-1, 3)
        self.joints = np.asarray(self.joints, dtype=float).reshape(-1, 3)
        self.parents = np.asarray(self.parents, dtype=int).reshape(-1)
        self.weights = np.asarray(self.weights, dtype=float)
        rows = self.weights.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-6):
            raise ValueError("template weights must be row-stochastic")

    @property
    def n_joints(self):
        return len(self.joints)


@dataclass
class RegistrationResult:
    model: SkinnedBodyModel
    correspondences: dict      # corner_id -> (triangle index, (3,) barycentric)
    mean_residuals: list       # per ICP iteration, mm
    registered: np.ndarray     # bool per layout vertex


def save_template(template: TemplateModel, path) -> None:
    import json

    ii, jj = np.nonzero(template.weights)
    doc = {
        "verts": [[float(v) for v in row] for row in template.vertices],
        "tris": [[int(v) for v in row] for row in template.triangles],
        "joints": [[float(v) for v in row] for row in template.joints],
        "parents": [int(p) for p in template.parents],
        "weights": [[int(i), int(j), float(template.weights[i, j])] for i, j in zip(ii, jj)],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")


def load_template(path) -> TemplateModel:
    import json

    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    verts = np.array(doc["verts"], dtype=float)
    joints = np.array(doc["joints"], dtype=float)
    W = np.zeros((len(verts), len(joints)))
    for i, j, w in doc["weights"]:
        W[int(i), int(j)] = w
    return TemplateModel(
        vertices=verts,
        triangles=np.array(doc["tris"], dtype=int),
        joints=joints,
        parents=np.array(doc["parents"], dtype=int),
        weights=W,
    )


class _TemplateFit:
    """Pose + root translation + per-joint log-scale deformation of the template."""

    def __init__(self, template: TemplateModel):
        self.t = template
        skeleton_weights = np.zeros((1, template.n_joints))
        skeleton_weights[0, 0] = 1.0
        self._chain = SkinnedBodyModel(
            rest_vertices=np.zeros((1, 3)),
            joints=template.joints,
            parents=template.parents,
            weights=skeleton_weights,
        )

    def n_params(self, with_scale=True):
        m = self.t.n_joints
        return 3 * m + 3 + (m if with_scale else 0)

    def unpack(self, params, with_scale=True):
        m = self.t.n_joints
        rotvecs = params[: 3 * m].reshape(m, 3)
        root_t = params[3 * m : 3 * m + 3]
        log_s = params[3 * m + 3 :] if with_scale else np.zeros(m)
        return rotvecs, root_t, np.exp(log_s)

    def scaled_rest(self, scales, vertex_ids=None):
        """Per-joint scaling about each joint, blended by the template weights."""
        ids = slice(None) if vertex_ids is None else vertex_ids
        x = self.t.vertices[ids]
        W = self.t.weights[ids]
        offs = x[:, None, :] - self.t.joints[None, :, :]
        scaled = self.t.joints[None, :, :] + scales[None, :, None] * offs
        return np.einsum("nm,nmi->ni", W, scaled)

    def deform(self, params, vertex_ids=None, with_scale=True):
        rotvecs, root_t, scales = self.unpack(params, with_scale)
        quats = quat_from_rotvec(rotvecs)
        G = joint_transforms(self._chain, quats, root_t)
        ids = slice(None) if vertex_ids is None else vertex_ids
        W = self.t.weights[ids]
        rest = self.scaled_rest(scales, vertex_ids)
        lin = np.einsum("nm,mij->nij", W, G[:, :3, :3])
        tr = W @ G[:, :3, 3]
        return np.einsum("nij,nj->ni", lin, rest) + tr

    def surface_points(self, params, tris, bary, with_scale=True):
        tri_vs = self.t.triangles[np.asarray(tris, dtype=int)]
        verts, inverse = np.unique(tri_vs, return_inverse=True)
        dv = self.deform(params, vertex_ids=verts, with_scale=with_scale)
        rows = inverse.reshape(tri_vs.shape)
        out = np.zeros((len(tri_vs), 3))
        for c in range(3):
            out += bary[:, c : c + 1] * dv[rows[:, c]]
        return out


def _fit_params(fit: _TemplateFit, params0, tris, bary, targets, with_scale=True, prior=1e-3):
    """Least-squares template fit to surface correspondences with weak priors."""
    n_params = fit.n_params(with_scale)
    params0 = np.asarray(params0, dtype=float)[:n_params]

    def residuals(p):
        r = (fit.surface_points(p, tris, bary, with_scale) - targets).ravel()
        return np.concatenate([r, prior * p])

    sol = least_squares(residuals, params0, method="lm", max_nfev=300)
    return sol.x


def _closest_on_surface(points, surface_vertices, triangles, k_candidates=48):
    """(tri, bary, distance) of the closest surface point for each query point."""
    centroids = surface_vertices[triangles].mean(axis=1)
    tree = cKDTree(centroids)
    k = min(k_candidates, len(triangles))
    _, cand = tree.query(points, k=k)
    cand = cand.reshape(len(points), -1)
    tris = np.empty(len(points), dtype=int)
    bary = np.empty((len(points), 3))
    dist = np.empty(len(points))
    for i, p in enumerate(points):
        tri_pts = surface_vertices[triangles[cand[i]]]
        cp, cb = closest_point_on_triangles(p, tri_pts)
        d = np.linalg.norm(cp - p, axis=1)
        j = int(np.argmin(d))
        tris[i] = cand[i][j]
        bary[i] = cb[j]
        dist[i] = d[j]
    return tris, bary, dist


def register_icp(
    cloud,
    template: TemplateModel,
    seeds: dict,
    layout: SuitLayout,
    extra_clouds=(),
    max_iterations: int = 50,
) -> RegistrationResult:
    """Build the initial body model by registering corners to the template.

    Parameters
    ----------
    cloud : LabeledPointCloud
        Rest-like frame with most corners observed.
    seeds : dict corner_id -> (triangle index, (3,) barycentric)
        At least 10 hand-picked correspondences initializing the fit.
    extra_clouds : iterable of LabeledPointCloud
        Later frames used to register corners unobserved in the initial frame.

    Raises
    ------
    InsufficientSeeds
        Fewer than 10 seed correspondences.
    DivergedICP
        Mean correspondence distance grew five consecutive iterations.
    """
    if len(seeds) < 10:
        raise InsufficientSeeds(f"got {len(seeds)} seed correspondences, need >= 10")
    fit = _TemplateFit(template)

    seed_ids = sorted(i for i in seeds if i in cloud.points)
    if len(seed_ids) < 10:
        raise InsufficientSeeds("fewer than 10 seeds are observed in the initial frame")
    tris = np.array([seeds[i][0] for i in seed_ids], dtype=int)
    bary = np.array([seeds[i][1] for i in seed_ids], dtype=float)
    targets = np.array([cloud.points[i].position for i in seed_ids])
    params = _fit_params(fit, np.zeros(fit.n_params()), tris, bary, targets)

    obs_ids, obs_pts = cloud.observed()

    correspondences: dict[int, tuple[int, np.ndarray]] = {}
    mean_residuals: list[float] = []
    prev_assign = None
    grew = 0
    for _ in range(max_iterations):
        deformed = fit.deform(params)
        tri_a, bary_a, dist = _closest_on_surface(obs_pts, deformed, template.triangles)
        mean_residuals.append(float(dist.mean()))
        if len(mean_residuals) > 1 and mean_residuals[-1] > mean_residuals[-2] + 1e-12:
            grew += 1
            if grew >= 5:
                raise DivergedICP("mean correspondence distance grew 5 consecutive iterations")
        else:
            grew = 0
        assign = tri_a.tolist()
        if assign == prev_assign:
            break
        prev_assign = assign
        params = _fit_params(fit, params, tri_a, bary_a, obs_pts)
    for i, cid in enumerate(obs_ids):
        correspondences[int(cid)] = (int(tri_a[i]), bary_a[i])

    # register corners revealed by subsequent frames (pose-only refits)
    for extra in extra_clouds:
        ids, pts = extra.observed()
        new = np.array([i not in correspondences for i in ids.tolist()], dtype=bool)
        if not new.any() or np.count_nonzero(~new) < 10:
            continue
        known = ids[~new].tolist()
        k_tris = np.array([correspondences[i][0] for i in known], dtype=int)
        k_bary = np.array([correspondences[i][1] for i in known], dtype=float)
        frame_params = _fit_params(fit, params, k_tris, k_bary, pts[~new])
        deformed = fit.deform(frame_params)
        tri_n, bary_n, _ = _closest_on_surface(pts[new], deformed, template.triangles)
        for i, cid in enumerate(ids[new].tolist()):
            correspondences[cid] = (int(tri_n[i]), bary_n[i])

    model, registered = _build_model(fit, params, correspondences, template, layout)
    return RegistrationResult(model, correspondences, mean_residuals, registered)


def _build_model(fit, params, correspondences, template, layout: SuitLayout):
    """Barycentric transport of registered corners to the scaled template rest pose."""
    _, _, scales = fit.unpack(params)
    rest_template = fit.scaled_rest(scales)

    n_total = layout.total_vertices
    M = template.n_joints
    rest = np.zeros((n_total, 3))
    W = np.zeros((n_total, M))
    registered = np.zeros(n_total, dtype=bool)
    for cid, (tri, bary) in correspondences.items():
        if cid >= n_total:
            continue
        vs = template.triangles[tri]
        rest[cid] = bary @ rest_template[vs]
        W[cid] = bary @ template.weights[vs]
        registered[cid] = True

    if not registered.all():
        rest, W = _harmonic_fill(layout, rest, W, registered)

    rows = W.sum(axis=1, keepdims=True)
    rows[rows == 0] = 1.0
    W = np.clip(W / rows, 0.0, None)
    W /= W.sum(axis=1, keepdims=True)

    never = np.zeros(n_total, dtype=bool)
    never[layout.n_corners :] = True
    model = SkinnedBodyModel(
        rest_vertices=rest,
        joints=template.joints.copy(),
        parents=template.parents.copy(),
        weights=W,
        never_observed=never,
    )
    return model, registered


def _harmonic_fill(layout: SuitLayout, rest, W, registered):
    """Graph-Laplacian interpolation of rest positions and weights onto unregistered vertices."""
    n = layout.total_vertices
    edges = mesh_edges(layout.faces)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    vals = np.ones(len(rows))
    A = csr_matrix((vals, (rows, cols)), shape=(n, n))
    deg = np.asarray(A.sum(axis=1)).ravel()
    L = csr_matrix((deg, (np.arange(n), np.arange(n))), shape=(n, n)) - A

    free = np.where(~registered)[0]
    fixed = np.where(registered)[0]
    if len(free) == 0 or len(fixed) == 0:
        return rest, W
    Lff = L[np.ix_(free, free)].tocsc()
    Lfo = L[np.ix_(free, fixed)]
    rhs = -Lfo @ np.concatenate([rest[fixed], W[fixed]], axis=1)
    sol = spsolve(Lff, rhs)
    sol = np.atleast_2d(sol)
    if sol.shape[0] != len(free):
        sol = sol.reshape(len(free), -1)
    rest[free] = sol[:, :3]
    W[free] = sol[:, 3:]
    return rest, W
