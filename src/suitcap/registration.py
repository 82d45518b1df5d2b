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

import json
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import ConfigError, DivergedICP, InsufficientSeeds
from .geometry import quat_from_rotvec, quat_mul, quat_normalize
from .layout import SuitLayout
from .meshes import closest_point_on_triangles, edge_graph, geodesic_to_sources, mesh_edges
from .refine import damped_gauss_newton
from .skinning import SkinnedBodyModel, arm_map, blend_rows, blend_transforms, joint_transforms, parents_from_entries
from .skinning import pose_jacobian, stacked_transforms, weights_from_entries

__all__ = ["register_icp", "RegistrationResult"]

CLOSEST_CANDIDATES = 48   # triangles, nearest by centroid, searched per query point
ICP_ITERATIONS = 50       # closest-point passes before registration stops unconverged
FIT_ITERATIONS = 50       # damped Gauss-Newton iterations per template fit


@dataclass
class RegistrationResult:
    model: SkinnedBodyModel
    mean_residuals: list       # per ICP iteration, mm
    registered: np.ndarray     # bool per layout vertex
    converged: bool            # the closest-point assignment repeated before ICP_ITERATIONS


def save_template(template, path) -> None:
    """Write a template (model, (F, 3) triangles); the model's poses are not stored."""
    model, triangles = template
    ii, jj = np.nonzero(model.weights)
    doc = {
        "verts": model.rest_vertices.tolist(),
        "tris": np.asarray(triangles, dtype=int).tolist(),
        "joints": model.joints.tolist(),
        "parents": model.parents.tolist(),
        "weights": list(zip(ii.tolist(), jj.tolist(), model.weights[ii, jj].tolist())),
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc) + "\n")


def load_template(path):
    """Read a template file as (SkinnedBodyModel, (F, 3) triangles), each weight row divided by its sum.

    Raises ConfigError naming the file and the entry or row of an index that is
    not an integer in range, a parent that is not -1 or a joint index, a weight
    below -1e-12, a row sum off 1 by more than 1e-6 or parents that form a cycle.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    verts = np.array(doc["verts"], dtype=float)
    joints = np.array(doc["joints"], dtype=float)
    V, M = len(verts), len(joints)
    for k, t in enumerate(doc["tris"]):
        if not (isinstance(t, list) and len(t) == 3 and all(type(v) is int and 0 <= v < V for v in t)):
            raise ConfigError(f"{path}: tris[{k}] = {t} is not 3 integer vertex indices in 0..{V - 1}")
    tris = np.array(doc["tris"], dtype=int).reshape(-1, 3)
    parents = parents_from_entries(doc["parents"], M, path)
    W = weights_from_entries(doc["weights"], V, M, path)
    negative = np.flatnonzero((W < -1e-12).any(axis=1))
    if negative.size:
        raise ConfigError(f"{path}: weight row {negative[0]} has a negative weight {float(W[negative[0]].min())}")
    rows = W.sum(axis=1)
    off = np.flatnonzero(~(np.abs(rows - 1.0) <= 1e-6))  # a NaN sum is off too
    if off.size:
        raise ConfigError(f"{path}: weight row {off[0]} sums to {float(rows[off[0]])}, not 1 within 1e-6")
    try:
        return SkinnedBodyModel(verts, joints, parents, W / rows[:, None]), tris
    except ValueError as e:  # the parents form a cycle
        raise ConfigError(f"{path}: {e}") from e


def load_seeds(path, template, n_corners: int) -> dict:
    """Read seed correspondences {corner id: (triangle, (3,) barycentric)} of `template`.

    The file is a JSON list of {"id", "tri", "bary"} entries. Raises ConfigError
    naming the file and entry when one is malformed, its `id` is not an integer
    in 0..n_corners-1 (the layout's corners, which a detector can see) or
    repeats an earlier entry's, its `tri` is not the integer index of a
    triangle of the template, or its `bary` is not three finite numbers.
    """
    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    n_tris = len(template[1])
    seeds, entry_of = {}, {}
    for k, e in enumerate(entries):
        try:
            cid, tri, bary = e["id"], e["tri"], np.array(e["bary"], dtype=float)
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"{path}: seed entry {k} is not an {{id, tri, bary}} object: {err}") from err
        if type(cid) is not int:
            raise ConfigError(f"{path}: seed entry {k}: id {cid} is not an integer")
        if not 0 <= cid < n_corners:
            raise ConfigError(f"{path}: seed entry {k}: id {cid} is not a corner id in 0..{n_corners - 1}")
        if cid in entry_of:
            raise ConfigError(f"{path}: seed entries {entry_of[cid]} and {k} both have id {cid}")
        entry_of[cid] = k
        if type(tri) is not int or not 0 <= tri < n_tris:
            raise ConfigError(f"{path}: seed entry {k} (id {cid}): tri {tri} is not an integer in 0..{n_tris - 1}")
        if bary.shape != (3,) or not np.isfinite(bary).all():
            raise ConfigError(f"{path}: seed entry {k} (id {cid}): bary must be 3 finite numbers, got {e['bary']}")
        seeds[cid] = (tri, bary)
    return seeds


def _scaled_rest(model: SkinnedBodyModel, log_scales):
    """The rest vertices scaled by s = exp(log_scales) about each joint and blended by the
    weights, and their derivatives by the log-scales, the levers W_nm s_m (x_n - j_m) (N, M, 3)."""
    levers = model.weights[:, :, None] * np.exp(log_scales)[:, None] * (model.rest_vertices[:, None, :] - model.joints)
    return model.weights @ model.joints + levers.sum(axis=1), levers


def _deform(model: SkinnedBodyModel, state):
    """The model's vertices at a state (quats (M, 4), root translation (3,), log-scales (M,))."""
    quats, root_t, log_scales = state
    U = blend_rows(model.weights, _scaled_rest(model, log_scales)[0])
    return U @ stacked_transforms(joint_transforms(model, quats, root_t))


def _fit_params(model: SkinnedBodyModel, state, corners, bary, targets):
    """Damped Gauss-Newton fit of the template state to surface correspondences.

    Surface point n lies on the triangle of vertices `corners[n]` at barycentric
    `bary[n]`, row n of B. So with U = W * [x, 1] at the scaled rest x, the
    residuals are B U T' minus the targets and the lever arms are B U F'. The
    Jacobian is their `pose_jacobian` plus one log-scale column per joint m,
    B lin W_m s_m (x - j_m); it is formed, not taken from moments of U as in
    refine's pose solve, because U moves with the log-scales. The fit works on
    the sub-model of the triangles' vertices only.
    """
    M, n = model.n_joints, len(corners)
    verts, inverse = np.unique(corners, return_inverse=True)
    sub = SkinnedBodyModel(model.rest_vertices[verts], model.joints, model.parents, model.weights[verts])
    B = scipy.sparse.csr_matrix((bary.ravel(), (np.repeat(np.arange(n), 3), inverse.ravel())), shape=(n, len(verts)))

    def evaluate(state):
        quats, root_t, log_scales = state
        G = joint_transforms(sub, quats, root_t)
        rest, levers = _scaled_rest(sub, log_scales)
        BU = B @ blend_rows(sub.weights, rest)
        r = BU @ stacked_transforms(G) - targets

        def normal_equations():
            F, Rp = arm_map(sub, G)
            lin, _ = blend_transforms(sub, G)
            J_scale = B @ np.einsum("vij,vmj->vim", lin, levers).reshape(len(verts), 3 * M)
            J = np.concatenate([pose_jacobian((BU @ F.T).reshape(n, M, 3), Rp), J_scale.reshape(n, 3, M)], axis=2)
            J = J.reshape(-1, 4 * M + 3)
            return J.T @ J, J.T @ r.reshape(-1)

        return float(np.sum(r ** 2)), normal_equations

    def retract(state, delta):
        quats, root_t, log_scales = state
        dq = quat_from_rotvec(delta[: 3 * M].reshape(M, 3))
        root_step, scale_step = delta[3 * M : 3 * M + 3], delta[3 * M + 3 :]
        return quat_normalize(quat_mul(dq, quats)), root_t + root_step, log_scales + scale_step

    return damped_gauss_newton(state, evaluate, retract, FIT_ITERATIONS)[0]


def _closest_on_surface(points, surface_vertices, triangles):
    """(tri, bary, distance) of the closest surface point for each query point."""
    k = min(CLOSEST_CANDIDATES, len(triangles))
    _, cand = scipy.spatial.cKDTree(surface_vertices[triangles].mean(axis=1)).query(points, k=k)
    cand = cand.reshape(len(points), k)
    queries = np.repeat(points, k, axis=0)
    cp, cb = closest_point_on_triangles(queries, surface_vertices[triangles[cand.ravel()]])
    d = np.linalg.norm(cp - queries, axis=1).reshape(len(points), k)
    rows = np.arange(len(points))
    j = np.argmin(d, axis=1)
    return cand[rows, j], cb.reshape(len(points), k, 3)[rows, j], d[rows, j]


def register_icp(
    cloud,
    template,
    seeds: dict,
    layout: SuitLayout,
    extra_clouds=(),
) -> RegistrationResult:
    """Build the initial body model by registering corners to the template.

    Parameters
    ----------
    cloud : CloudArrays or LabeledPointCloud
        Rest-like frame with most corners observed.
    template : (SkinnedBodyModel, (F, 3) int array)
        The template body and its surface triangles, as `load_template` returns them.
    seeds : dict corner_id -> (triangle index, (3,) barycentric)
        At least 10 hand-picked correspondences initializing the fit.
    extra_clouds : iterable of CloudArrays or LabeledPointCloud
        Later frames used to register corners unobserved in the initial frame.

    Raises
    ------
    InsufficientSeeds
        Fewer than 10 seed correspondences, or a suit component without a
        registered corner.
    DivergedICP
        Mean correspondence distance grew five consecutive iterations.
    """
    if len(seeds) < 10:
        raise InsufficientSeeds(f"got {len(seeds)} seed correspondences, need >= 10")
    model, triangles = template

    obs_ids, obs_pts = cloud.observed()
    seen = np.isin(obs_ids, list(seeds))
    if np.count_nonzero(seen) < 10:
        raise InsufficientSeeds("fewer than 10 seeds are observed in the initial frame")
    seed_ids = obs_ids[seen].tolist()
    tris = np.array([seeds[i][0] for i in seed_ids], dtype=int)
    bary = np.array([seeds[i][1] for i in seed_ids], dtype=float)
    state = (*model.identity_pose(), np.zeros(model.n_joints))
    state = _fit_params(model, state, triangles[tris], bary, obs_pts[seen])

    mean_residuals: list[float] = []
    prev_assign = None
    grew = 0
    for _ in range(ICP_ITERATIONS):
        tri_a, bary_a, dist = _closest_on_surface(obs_pts, _deform(model, state), triangles)
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
        state = _fit_params(model, state, triangles[tri_a], bary_a, obs_pts)
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
        frame_state = _fit_params(model, state, triangles[k_tris], k_bary, pts[~new])
        tri_n, bary_n, _ = _closest_on_surface(pts[new], _deform(model, frame_state), triangles)
        correspondences.update((cid, (int(t), b)) for cid, t, b in zip(ids[new].tolist(), tri_n, bary_n))

    body, registered = _build_model(model, triangles, state, correspondences, layout)
    return RegistrationResult(body, mean_residuals, registered, converged)


def _build_model(model, triangles, state, correspondences, layout: SuitLayout):
    """Barycentric transport of registered corners to the scaled template rest pose."""
    rest_template = _scaled_rest(model, state[2])[0]

    n_total = layout.total_vertices
    rest = np.zeros((n_total, 3))
    W = np.zeros((n_total, model.n_joints))
    registered = np.zeros(n_total, dtype=bool)
    for cid, (tri, bary) in correspondences.items():
        if cid >= n_total:
            continue
        vs = triangles[tri]
        rest[cid] = bary @ rest_template[vs]
        W[cid] = bary @ model.weights[vs]
        registered[cid] = True

    if not registered.all():
        rest, W = _harmonic_fill(layout, rest, W, registered)

    rows = W.sum(axis=1, keepdims=True)
    rows[rows == 0] = 1.0
    W = np.clip(W / rows, 0.0, None)
    W /= W.sum(axis=1, keepdims=True)

    never = np.zeros(n_total, dtype=bool)
    never[layout.n_corners :] = True
    body = SkinnedBodyModel(
        rest_vertices=rest,
        joints=model.joints.copy(),
        parents=model.parents.copy(),
        weights=W,
        never_observed=never,
    )
    return body, registered


def _harmonic_fill(layout: SuitLayout, rest, W, registered):
    """Graph-Laplacian interpolation of rest positions and weights onto unregistered vertices.

    Raises InsufficientSeeds when a suit component holds no registered corner,
    since nothing then pins its vertices.
    """
    n = layout.total_vertices
    edges = mesh_edges(layout.faces)
    free = np.where(~registered)[0]
    fixed = np.where(registered)[0]
    unreached = np.flatnonzero(np.isinf(geodesic_to_sources(edge_graph(rest, edges), fixed)))
    if len(unreached):
        raise InsufficientSeeds(f"no corner is registered in the suit component(s) of corners {_id_runs(unreached)}")
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    vals = np.ones(len(rows))
    A = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    deg = np.asarray(A.sum(axis=1)).ravel()
    L = scipy.sparse.csr_matrix((deg, (np.arange(n), np.arange(n))), shape=(n, n)) - A

    Lff = L[np.ix_(free, free)].tocsc()
    Lfo = L[np.ix_(free, fixed)]
    rhs = -Lfo @ np.concatenate([rest[fixed], W[fixed]], axis=1)
    sol = scipy.sparse.linalg.spsolve(Lff, rhs)
    rest[free] = sol[:, :3]
    W[free] = sol[:, 3:]
    return rest, W


def _id_runs(ids) -> str:
    """Sorted ids as runs, e.g. [1, 2, 3, 7] -> '1-3, 7'."""
    runs = np.split(ids, np.flatnonzero(np.diff(ids) != 1) + 1)
    return ", ".join(f"{r[0]}-{r[-1]}" if len(r) > 1 else f"{r[0]}" for r in runs)
