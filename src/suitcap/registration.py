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
from .skinning import SkinnedBodyModel, joint_transforms, skin_with_transforms

__all__ = ["TemplateModel", "register_icp", "RegistrationResult"]

FIT_PRIOR = 1e-3          # weight of the zero prior on every fit parameter
CLOSEST_CANDIDATES = 48   # triangles, nearest by centroid, searched per query point
ICP_ITERATIONS = 50       # closest-point passes before registration stops unconverged


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
    converged: bool            # the closest-point assignment repeated before ICP_ITERATIONS


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
    """Pose, root translation and per-joint log-scale (4M + 3 parameters) deformation of the template."""

    def __init__(self, template: TemplateModel):
        self.t = template
        # TemplateModel accepts rows that sum to 1 within 1e-6; the skinned model asks for 1e-9
        W = template.weights / template.weights.sum(axis=1, keepdims=True)
        self.model = SkinnedBodyModel(template.vertices, template.joints, template.parents, W)

    def unpack(self, params):
        m = self.t.n_joints
        rotvecs = params[: 3 * m].reshape(m, 3)
        root_t = params[3 * m : 3 * m + 3]
        return rotvecs, root_t, np.exp(params[3 * m + 3 :])

    def scaled_rest(self, scales, vertex_ids=None):
        """Per-joint scaling about each joint, blended by the template weights."""
        ids = slice(None) if vertex_ids is None else vertex_ids
        x = self.t.vertices[ids]
        W = self.t.weights[ids]
        offs = x[:, None, :] - self.t.joints[None, :, :]
        scaled = self.t.joints[None, :, :] + scales[None, :, None] * offs
        return np.einsum("nm,nmi->ni", W, scaled)

    def deform(self, params, vertex_ids=None):
        rotvecs, root_t, scales = self.unpack(params)
        G = joint_transforms(self.model, quat_from_rotvec(rotvecs), root_t)
        rest = self.scaled_rest(scales, vertex_ids)
        return skin_with_transforms(self.model, G, vertex_ids, rest_override=rest)

    def surface_points(self, params, tris, bary):
        tri_vs = self.t.triangles[np.asarray(tris, dtype=int)]
        verts, inverse = np.unique(tri_vs, return_inverse=True)
        dv = self.deform(params, vertex_ids=verts)
        rows = inverse.reshape(tri_vs.shape)
        out = np.zeros((len(tri_vs), 3))
        for c in range(3):
            out += bary[:, c : c + 1] * dv[rows[:, c]]
        return out


def _fit_params(fit: _TemplateFit, params0, tris, bary, targets):
    """Least-squares template fit to surface correspondences with weak priors."""

    def residuals(p):
        r = (fit.surface_points(p, tris, bary) - targets).ravel()
        return np.concatenate([r, FIT_PRIOR * p])

    return least_squares(residuals, params0, method="lm", max_nfev=300).x


def _closest_on_surface(points, surface_vertices, triangles):
    """(tri, bary, distance) of the closest surface point for each query point."""
    k = min(CLOSEST_CANDIDATES, len(triangles))
    _, cand = cKDTree(surface_vertices[triangles].mean(axis=1)).query(points, k=k)
    cand = cand.reshape(len(points), k)
    queries = np.repeat(points, k, axis=0)
    cp, cb = closest_point_on_triangles(queries, surface_vertices[triangles[cand.ravel()]])
    d = np.linalg.norm(cp - queries, axis=1).reshape(len(points), k)
    rows = np.arange(len(points))
    j = np.argmin(d, axis=1)
    return cand[rows, j], cb.reshape(len(points), k, 3)[rows, j], d[rows, j]


def register_icp(
    cloud,
    template: TemplateModel,
    seeds: dict,
    layout: SuitLayout,
    extra_clouds=(),
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
    params = _fit_params(fit, np.zeros(4 * template.n_joints + 3), tris, bary, targets)

    obs_ids, obs_pts = cloud.observed()

    mean_residuals: list[float] = []
    prev_assign = None
    grew = 0
    for _ in range(ICP_ITERATIONS):
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
        converged = assign == prev_assign
        if converged:
            break
        prev_assign = assign
        params = _fit_params(fit, params, tri_a, bary_a, obs_pts)
    correspondences = {int(cid): (int(t), b) for cid, t, b in zip(obs_ids, tri_a, bary_a)}

    # register corners revealed by subsequent frames: refit pose and scales to
    # each frame's known corners, then project its new corners onto the surface
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
        correspondences.update((cid, (int(t), b)) for cid, t, b in zip(ids[new].tolist(), tri_n, bary_n))

    model, registered = _build_model(fit, params, correspondences, template, layout)
    return RegistrationResult(model, correspondences, mean_residuals, registered, converged)


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
