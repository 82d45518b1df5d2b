"""Alternating refinement of the skinned body model.

Minimizes

    L(rest, joints, W, poses) = L_fit + lambda_g * sum_ij g_ij w_ij^2
                                + lambda_j * ||J - J0||_F^2

where L_fit is the observation-count-normalized sum of squared distances
between skinned vertices and reconstructed corners, and g_ij is the geodesic
distance from vertex i to the nearest vertex with initial support for joint j.
Each outer iteration solves four blocks in turn: per-frame poses (damped
Gauss-Newton on quaternion tangents + root translation), per-vertex weights
(simplex-constrained QPs, solved as one batch), joint positions (one linear
solve with the prior) and per-vertex rest positions (linear least squares).
Every block either decreases the total loss or leaves its variables unchanged,
so the loss trace is non-increasing. The poses live in the model, where the pose block writes them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .geometry import quat_from_rotvec, quat_mul, quat_normalize, quat_to_rot
from .layout import SuitLayout
from .meshes import edge_graph, geodesic_to_sources
from .skinning import SkinnedBodyModel, arm_map, blend_rows, blend_transforms, joint_transforms, parent_frames
from .skinning import pose_jacobian, stacked_transforms

log = logging.getLogger(__name__)

QP_MAX_ITERATIONS = 400  # active-set changes per weight QP, counted per problem
POSE_ITERATIONS = 12  # Gauss-Newton iterations per frame of refine's pose block
FIT_POSES_ITERATIONS = 20  # Gauss-Newton iterations per frame of `fit_poses`
GEODESIC_SUPPORT = 1e-6  # initial weight above which a vertex is a geodesic source

__all__ = [
    "RefineConfig",
    "RefineResult",
    "refine",
    "geodesic_weights",
    "fit_poses",
    "fitting_rms",
    "simplex_qp",
    "damped_gauss_newton",
    "pose_residual_jacobian",
]


@dataclass
class RefineConfig:
    lambda_g: float = 1000.0
    lambda_j: float = 1.0
    outer_iterations: int = 100
    convergence_tol: float = 1e-5
    prune_top: int = 4

    def __post_init__(self):
        for key in ("lambda_g", "lambda_j", "outer_iterations", "convergence_tol"):
            if not 0 < getattr(self, key) < np.inf:  # NaN fails this test too
                raise ValueError(f"refine.{key} must be a finite number > 0, got {getattr(self, key)}")
        if self.prune_top < 0:
            raise ValueError(f"refine.prune_top must be >= 0 (0 keeps every weight), got {self.prune_top}")


@dataclass
class RefineResult:
    model: SkinnedBodyModel
    loss_trace: list
    fit_rms_trace: list
    unobserved_vertices: np.ndarray


# ---------------------------------------------------------------------------
# geodesic regularizer weights


def geodesic_weights(layout: SuitLayout, rest_vertices, initial_weights):
    """g[i, j]: mesh geodesic from vertex i to the nearest vertex with initial
    weight above `GEODESIC_SUPPORT` for joint j; +inf where joint j is unreachable."""
    rest_vertices = np.asarray(rest_vertices, dtype=float)
    W0 = np.asarray(initial_weights, dtype=float)
    graph = edge_graph(rest_vertices, layout.edges())
    g = np.empty_like(W0)
    for j in range(W0.shape[1]):
        sources = np.where(W0[:, j] > GEODESIC_SUPPORT)[0]
        g[:, j] = geodesic_to_sources(graph, sources)
    return g


# ---------------------------------------------------------------------------
# simplex-constrained weight solve, all vertices at once


def _solve_kkt(KKT, rhs):
    """Solve a stack of KKT systems; a singular one falls back to least squares on its own."""
    try:
        return np.linalg.solve(KKT, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for i, (K, r) in enumerate(zip(KKT, rhs)):
            try:
                out[i] = np.linalg.solve(K, r)
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(K, r, rcond=None)[0]
        return out


def _row_sum(x):
    """Sum over the columns of x (n, m), one column after the other, so that a row's
    sum does not depend on the other rows or on zero columns appended to it."""
    s = x[:, 0].copy()
    for k in range(1, x.shape[1]):
        s += x[:, k]
    return s


def simplex_qp(Q, c, forced_zero):
    """Minimize 1/2 w'Qw - c'w over the probability simplex for each of n problems (active-set method).

    Q is (n, M, M), c and `forced_zero` are (n, M); `forced_zero` marks coordinates
    pinned to zero (unreachable joints). Each Q must be symmetric positive definite
    on its allowed coordinates; a relative ridge is added for safety. Returns the
    (n, M) minimizers.

    The problems run in lockstep, each on its allowed coordinates only. Every
    iteration solves the KKT systems of the problems still open, stacked by
    free-set size, then either takes the blocking step or prices the inactive
    coordinates. A problem's arithmetic does not depend on the others in the
    batch, so its result has the same bits alone. Raises `NotConverged`, naming
    how many problems are left, after `QP_MAX_ITERATIONS` active-set changes.
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    forced = np.asarray(forced_zero, dtype=bool)
    n, M = c.shape
    count = M - forced.sum(axis=1)
    if np.any(count == 0):
        raise ValueError(f"all coordinates forced to zero in {np.count_nonzero(count == 0)} of {n} weight QPs")
    out = np.zeros((n, M))
    if n == 0:
        return out

    # compact each problem to its allowed coordinates, in order; `slot` marks the real ones
    A = int(count.max())
    order = np.argsort(forced, axis=1, kind="stable")[:, :A]
    slot = np.arange(A) < count[:, None]
    ridge = 1e-12 * np.maximum(_row_sum(np.diagonal(Q, axis1=1, axis2=2)) / M, 1e-30)
    Qr = np.where(slot[:, None, :], np.take_along_axis(Q, order[:, None, :], axis=2), 0.0)  # (n, M, A)
    Qr[np.arange(n)[:, None], order, np.arange(A)] += np.where(slot, ridge[:, None], 0.0)
    Qc = np.take_along_axis(Qr, order[:, :, None], axis=1)  # (n, A, A)
    cc = np.take_along_axis(c, order, axis=1)

    w = np.where(slot, 1.0 / count[:, None], 0.0)
    free = slot.copy()
    live = np.arange(n)  # the problems still open
    for _ in range(QP_MAX_ITERATIONS):
        fo = free[live]
        k = fo.sum(axis=1)
        w_new = np.zeros((len(live), A))
        nu = np.empty(len(live))
        for size in np.unique(k):
            g = np.flatnonzero(k == size)
            p = live[g]
            idx = np.nonzero(fo[g])[1].reshape(len(g), size)
            KKT = np.zeros((len(g), size + 1, size + 1))
            KKT[:, :size, :size] = Qc[p[:, None, None], idx[:, :, None], idx[:, None, :]]
            KKT[:, :size, size] = 1.0
            KKT[:, size, :size] = 1.0
            rhs = np.ones((len(g), size + 1))
            rhs[:, :size] = cc[p[:, None], idx]
            sol = _solve_kkt(KKT, rhs)
            w_new[g[:, None], idx] = sol[:, :size]
            nu[g] = sol[:, size]

        feasible = ~np.any(fo & (w_new < -1e-12), axis=1)
        done = np.zeros(len(live), dtype=bool)
        f = np.flatnonzero(feasible)
        if len(f):
            p = live[f]
            wf = np.clip(w_new[f], 0.0, None)
            s = _row_sum(wf)
            np.divide(wf, s[:, None], out=wf, where=s[:, None] > 0)
            # the gradient over all M coordinates, whose largest entry scales the stopping test
            grad = Qr[p, :, 0] * wf[:, :1]
            for a in range(1, A):
                grad += Qr[p, :, a] * wf[:, a : a + 1]
            grad -= c[p]
            # on the free set Q w + nu = c, so a zero coordinate's price is grad_j + nu
            lam = np.take_along_axis(grad, order[p], axis=1) + nu[f, None]
            candidates = slot[p] & ~free[p]
            j = np.argmin(np.where(candidates, lam, np.inf), axis=1)
            stop = ~candidates.any(axis=1) | (
                lam[np.arange(len(f)), j] >= -1e-9 * (1.0 + np.abs(grad).max(axis=1))
            )
            w[p] = wf
            free[p[~stop], j[~stop]] = True
            done[f[stop]] = True
        b = np.flatnonzero(~feasible)
        if len(b):
            p = live[b]
            wb, wn = w[p], w_new[b]
            d = wn - wb
            blocking = free[p] & (wn < -1e-12) & (d < 0)
            alphas = np.full(wb.shape, np.inf)
            alphas[blocking] = wb[blocking] / (wb[blocking] - wn[blocking])
            j = np.argmin(alphas, axis=1)
            r = np.arange(len(b))
            wb = wb + alphas[r, j][:, None] * d
            wb[r, j] = 0.0
            w[p] = np.clip(wb, 0.0, None)
            free[p, j] = False
            free[p[~free[p].any(axis=1)], 0] = True
        closed = live[done]
        out[closed[:, None], order[closed]] = w[closed]
        live = live[~done]
        if not len(live):
            return out
    raise NotConverged(
        f"simplex QP: {len(live)} of {n} problems took more than {QP_MAX_ITERATIONS} iterations"
    )


# ---------------------------------------------------------------------------
# damped Gauss-Newton loop shared by refine's pose solve and registration's template fit


def damped_gauss_newton(x, evaluate, retract, iterations):
    """Minimize a cost from `x` with damped steps that never raise it; returns the final x
    and its evaluation, the last one the driver accepted.

    `evaluate(x)` gives a tuple that starts (cost, normal_equations), whose
    `normal_equations()` builds (H, g) at x from that same evaluation;
    `retract(x, delta)` applies a step. A trial whose cost is not finite is
    rejected like one that raises the cost. Stops at a vanishing gradient, a
    negligible decrease or 8 rejected tries.
    """
    evaluation = evaluate(x)
    lam = 1e-4
    for _ in range(iterations):
        c, normal_equations = evaluation[:2]
        H, g = normal_equations()
        if np.linalg.norm(g) < 1e-12 * (1.0 + c):
            break
        for _ in range(8):
            Hd = H + lam * np.diag(np.maximum(np.diag(H), 1e-12))
            try:
                delta = np.linalg.solve(Hd, -g)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(Hd, -g, rcond=None)[0]
            x_new = retract(x, delta)
            with np.errstate(over="ignore", invalid="ignore"):
                trial = evaluate(x_new)
            if np.isfinite(trial[0]) and trial[0] <= c:
                x, evaluation = x_new, trial
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 4.0
        else:
            break
        if c - evaluation[0] <= 1e-12 * (evaluation[0] + 1e-30):
            break
    return x, evaluation


# ---------------------------------------------------------------------------
# pose block


def pose_residual_jacobian(model: SkinnedBodyModel, quats, root_t, vertex_ids, targets):
    """Residuals v_i - p_i and their Jacobian w.r.t. (per-joint tangent, root translation),
    the `pose_jacobian` of the vertices' lever arms."""
    vertex_ids = np.asarray(vertex_ids, dtype=int)
    targets = np.asarray(targets, dtype=float).reshape(len(vertex_ids), 3)
    G = joint_transforms(model, quats, root_t)
    U = blend_rows(model.weights[vertex_ids], model.rest_vertices[vertex_ids])
    F, Rp = arm_map(model, G)
    arms = (U @ F.T).reshape(len(vertex_ids), model.n_joints, 3)
    return U @ stacked_transforms(G) - targets, pose_jacobian(arms, Rp)


def _skew(a):
    """[a]_x for each row of a (k, 3), as (k, 3, 3)."""
    K = np.zeros((len(a), 3, 3))
    K[:, 0, 1], K[:, 0, 2], K[:, 1, 2] = -a[:, 2], a[:, 1], -a[:, 0]
    K[:, 1, 0], K[:, 2, 0], K[:, 2, 1] = a[:, 2], -a[:, 1], a[:, 0]
    return K


def _pose_solve(model, quats, root_t, vertex_ids, targets, iterations):
    """Damped Gauss-Newton on one frame's pose: per-joint tangents plus root translation.

    Returns the pose (quats, root_t) and its residuals v_i - p_i (n, 3), from
    the driver's last accepted evaluation.

    U is fixed within the solve, so the normal equations of
    `pose_residual_jacobian` (block (i, m) is -[a_im]_x Rp_m, the root block I)
    come from the moments U'U and sum_i U_i without forming the arms: with
    S_ml = sum_i a_im a_il' (S = F U'U F'),
    H_ml = Rp_m' (tr(S_ml) I - S_ml') Rp_l, H_m,root = Rp_m' [sum_i a_im]_x,
    H_root,root = n I, g_m = Rp_m' sum_i a_im x r_i (from F U'r) and g_root = sum_i r_i.
    """
    M, n = model.n_joints, len(vertex_ids)
    U = blend_rows(model.weights[vertex_ids], model.rest_vertices[vertex_ids])
    UtU, U_sum = U.T @ U, U.sum(axis=0)
    diag, ones = np.arange(M), np.ones(n)

    def evaluate(pose):
        G = joint_transforms(model, *pose)
        r = U @ stacked_transforms(G) - targets

        def normal_equations():
            F, Rp = arm_map(model, G)
            S = (F @ UtU @ F.T).reshape(M, 3, M, 3)  # S[m, :, l] = sum_i a_im a_il'
            B, trace = -S.transpose(0, 3, 2, 1), np.einsum("mala->ml", S)  # block (m, l) is tr(S_ml) I - S_ml'
            for a in range(3):
                B[:, a, :, a] += trace
            P = np.zeros((M, 3, M, 3))
            P[diag, :, diag] = Rp  # the block diagonal of the Rp_m
            P = P.reshape(3 * M, 3 * M)
            H = np.empty((3 * M + 3, 3 * M + 3))
            H[: 3 * M, : 3 * M] = P.T @ B.reshape(3 * M, 3 * M) @ P
            H[: 3 * M, 3 * M :] = P.T @ _skew((F @ U_sum).reshape(M, 3)).reshape(3 * M, 3)
            H[3 * M :, : 3 * M] = H[: 3 * M, 3 * M :].T
            H[3 * M :, 3 * M :] = n * np.eye(3)
            C = (F @ (U.T @ r)).reshape(M, 3, 3)  # C[m] = sum_i a_im r_i'
            cross = np.stack([C[:, 1, 2] - C[:, 2, 1], C[:, 2, 0] - C[:, 0, 2], C[:, 0, 1] - C[:, 1, 0]], axis=1)
            return H, np.concatenate([P.T @ cross.reshape(3 * M), ones @ r])

        return float(np.sum(r ** 2)), normal_equations, r

    def retract(pose, delta):
        dq = quat_from_rotvec(delta[: 3 * M].reshape(M, 3))
        return quat_normalize(quat_mul(dq, pose[0])), pose[1] + delta[3 * M :]

    pose = (quat_normalize(quats), np.array(root_t, dtype=float))
    pose, (_, _, r) = damped_gauss_newton(pose, evaluate, retract, iterations)
    return pose, r


# ---------------------------------------------------------------------------
# joint block


def _joint_normal_equations(model, frames, transforms, lambda_j, joints0, total_obs):
    """Normal equations (H, g) of the joint loss at `model.joints`, whose joint transforms per
    frame are `transforms`.

    d v_i / d j_m = (sum_{j in subtree(m)} w_ij) * Rp_m (I - R_m) per frame, so
    they assemble from subtree weight sums and per-joint 3x3 blocks.
    """
    M = model.n_joints
    H = np.zeros((3 * M, 3 * M))
    g = np.zeros(3 * M)
    for (ids, pts), q, G in zip(frames, model.pose_quats, transforms):
        Rp, _ = parent_frames(model, G)
        D = np.einsum("mij,mjk->mik", Rp, np.eye(3)[None] - quat_to_rot(q))  # (M, 3, 3)
        Wsub = model.weights[ids] @ model.subtree  # (n, M)
        r = _residuals(model, ids, pts, G)
        S = Wsub.T @ Wsub  # (M, M) sum over obs of Wsub_im Wsub_im'
        DtD = np.einsum("mik,lij->mlkj", D, D)  # D_m' D_l as (M, M, 3, 3)
        H += (S[:, :, None, None] * DtD).transpose(0, 2, 1, 3).reshape(3 * M, 3 * M)
        rw = Wsub.T @ r  # (M, 3)
        g += np.einsum("mik,mi->mk", D, rw).reshape(3 * M)
    H = 2.0 * H / total_obs + 2.0 * lambda_j * np.eye(3 * M)
    g = 2.0 * g / total_obs + 2.0 * lambda_j * (model.joints - joints0).reshape(3 * M)
    return H, g


def _fit_joints(model, frames, transforms, lambda_j, joints0, total_obs):
    """One linear solve for `model.joints` (l2 prior to J0), kept only if the joint loss does not rise.

    At fixed rotations each joint's translation c - R c composes affinely down
    the chain, so the loss is quadratic in the joints and H is its exact Hessian.
    `transforms` are the frames' joint transforms at `model.joints`; returns
    those at the joints it keeps.
    """

    def loss(transforms):
        prior = lambda_j * float(np.sum((model.joints - joints0) ** 2))
        return _fit_sse(model, frames, transforms) / total_obs + prior

    joints, before = model.joints, loss(transforms)
    H, g = _joint_normal_equations(model, frames, transforms, lambda_j, joints0, total_obs)
    model.joints = joints - np.linalg.solve(H, g).reshape(joints.shape)
    moved = _frame_transforms(model)
    if not loss(moved) <= before:
        model.joints = joints
        return transforms
    return moved


# ---------------------------------------------------------------------------
# loss bookkeeping


def _frame_transforms(model):
    """Joint transforms (M, 4, 4) of each frame at the model's poses and joints."""
    return [joint_transforms(model, q, t) for q, t in zip(model.pose_quats, model.root_translations)]


def _residuals(model, ids, pts, G):
    """Skinned positions of vertices `ids` under joint transforms G minus their observations `pts`."""
    return blend_rows(model.weights[ids], model.rest_vertices[ids]) @ stacked_transforms(G) - pts


def _fit_sse(model, frames, transforms):
    """Sum of squared residuals over the (ids, pts) frames, whose joint transforms are `transforms`."""
    posed = zip(frames, transforms)
    return sum((float(np.sum(_residuals(model, ids, pts, G) ** 2)) for (ids, pts), G in posed), 0.0)


def _total_loss(model, frames, transforms, g_geo, joints0, cfg, total_obs):
    fit = _fit_sse(model, frames, transforms) / total_obs
    finite = np.isfinite(g_geo)
    reg_w = float(np.sum(g_geo[finite] * model.weights[finite] ** 2))
    reg_j = float(np.sum((model.joints - joints0) ** 2))
    return fit + cfg.lambda_g * reg_w + cfg.lambda_j * reg_j, fit


def refine(model0: SkinnedBodyModel, clouds, layout: SuitLayout, cfg: RefineConfig) -> RefineResult:
    """Alternating refinement of weights, joints, rest pose, and per-frame poses."""
    model = model0.copy()
    K = len(clouds)
    if model.n_frames != K:
        q0, t0 = model.identity_pose()
        model.pose_quats = np.tile(q0, (K, 1, 1))
        model.root_translations = np.tile(t0, (K, 1))

    frames = [cloud.observed(model.n_vertices) for cloud in clouds]  # (ids, pts) per frame
    total_obs = sum(len(ids) for ids, _ in frames)
    if total_obs == 0:
        raise ValueError("refine needs at least one observation")
    observed = np.zeros(model.n_vertices, dtype=bool)
    observed[np.concatenate([ids for ids, _ in frames])] = True

    g_geo = geodesic_weights(layout, model.rest_vertices, model.weights)
    joints0 = model.joints.copy()

    loss_trace = []
    fit_trace = []
    prev = np.inf
    for it in range(cfg.outer_iterations):
        # (1) poses, each frame independently, written into the model
        for k, (ids, pts) in enumerate(frames):
            q, t = model.pose_quats[k], model.root_translations[k]
            model.pose_quats[k], model.root_translations[k] = _pose_solve(model, q, t, ids, pts, POSE_ITERATIONS)[0]

        # the other blocks leave the poses alone, and the rest positions do not enter the transforms
        transforms = _frame_transforms(model)

        # (2) weights, all observed vertices in one batched QP
        _solve_weights(model, frames, transforms, observed, g_geo, cfg.lambda_g, total_obs)

        # (3) joints, and the transforms at the joints kept
        transforms = _fit_joints(model, frames, transforms, cfg.lambda_j, joints0, total_obs)

        # (4) rest positions
        _solve_rest(model, frames, transforms, observed)

        loss, fit = _total_loss(model, frames, transforms, g_geo, joints0, cfg, total_obs)
        loss_trace.append(loss)
        fit_trace.append(np.sqrt(fit))
        log.debug("outer %3d  loss %.9g  fit-rms %.6g mm", it, loss, np.sqrt(fit))
        if prev - loss <= cfg.convergence_tol * max(abs(prev), 1e-30) and it >= 1:
            break
        prev = loss

    if cfg.prune_top and cfg.prune_top < model.n_joints:
        _prune_weights(model, cfg.prune_top)

    model.validate()
    return RefineResult(model, loss_trace, fit_trace, np.flatnonzero(~observed))


def _solve_weights(model, frames, transforms, observed, g_geo, lambda_g, total_obs):
    """One batched simplex QP over the observed vertices' weight rows."""
    N, M = model.weights.shape
    Qacc = np.zeros((N, M, M))
    cacc = np.zeros((N, M))
    for (ids, pts), G in zip(frames, transforms):
        x1 = np.concatenate([model.rest_vertices[ids], np.ones((len(ids), 1))], axis=1)
        y = np.matmul(x1, stacked_transforms(G).reshape(M, 4, 3)).transpose(1, 0, 2)  # y_ij = [x_i, 1] T_j'
        Qacc[ids] += np.matmul(y, y.transpose(0, 2, 1))
        cacc[ids] += np.matmul(y, pts[:, :, None])[:, :, 0]

    idx = np.flatnonzero(observed)
    reachable = np.isfinite(g_geo[idx])
    scale = 2.0 / total_obs
    Q = Qacc[idx]
    Q *= scale
    diag = np.arange(M)
    Q[:, diag, diag] += 2.0 * lambda_g * np.where(reachable, g_geo[idx], 0.0)
    model.weights[idx] = simplex_qp(Q, scale * cacc[idx], ~reachable)


def _solve_rest(model, frames, transforms, observed):
    N = model.n_vertices
    H = np.zeros((N, 3, 3))
    b = np.zeros((N, 3))
    for (ids, pts), G in zip(frames, transforms):
        lin, tr = blend_transforms(model, G, ids)
        H[ids] += np.einsum("nij,nik->njk", lin, lin)
        b[ids] += np.einsum("nij,ni->nj", lin, pts - tr)
    idx = np.flatnonzero(observed)
    model.rest_vertices[idx] = np.linalg.solve(H[idx], b[idx][..., None])[..., 0]


def _prune_weights(model, top):
    W = model.weights
    order = np.argsort(W, axis=1)
    cut = order[:, : W.shape[1] - top]
    np.put_along_axis(W, cut, 0.0, axis=1)
    sums = W.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    model.weights = W / sums


# ---------------------------------------------------------------------------
# evaluation helpers


def fit_poses(model: SkinnedBodyModel, clouds):
    """Fit per-frame poses with shape frozen; returns (quats (K,M,4), roots (K,3), distances).

    `distances` holds each observation's distance (mm) at its fitted pose, in
    frame and then vertex order.
    """
    quats, roots, dists = [], [], []
    q0, t0 = model.identity_pose()
    for cloud in clouds:
        ids, pts = cloud.observed(model.n_vertices)
        (q, t), r = _pose_solve(model, q0, t0, ids, pts, FIT_POSES_ITERATIONS)
        quats.append(q)
        roots.append(t)
        dists.append(np.linalg.norm(r, axis=1))
    return np.array(quats), np.array(roots), np.concatenate(dists) if dists else np.zeros(0)


def fitting_rms(model: SkinnedBodyModel, clouds) -> float:
    """Held-out fitting error: RMS distance after pose-only fits (shape frozen)."""
    d = fit_poses(model, clouds)[2]
    return float(np.sqrt(np.sum(d * d) / max(d.size, 1)))
