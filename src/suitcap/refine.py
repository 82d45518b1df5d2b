"""Alternating refinement of the skinned body model.

Minimizes

    L(rest, joints, W, poses) = L_fit + lambda_g * sum_ij g_ij w_ij^2
                                + lambda_j * ||J - J0||_F^2

where L_fit is the observation-count-normalized sum of squared distances
between skinned vertices and reconstructed corners, and g_ij is the geodesic
distance from vertex i to the nearest vertex with initial support for joint j.
Each outer iteration solves four blocks in turn: per-frame poses (damped
Gauss-Newton on quaternion tangents + root translation), per-vertex weights
(simplex-constrained QP), joint positions (damped Gauss-Newton with the prior),
and per-vertex rest positions (linear least squares). Every block either
decreases the total loss or leaves its variables unchanged, so the loss trace
is non-increasing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .geometry import quat_from_rotvec, quat_mul, quat_normalize, quat_to_rot
from .layout import SuitLayout
from .meshes import edge_graph, geodesic_to_sources
from .skinning import SkinnedBodyModel, blend_transforms, joint_transforms

log = logging.getLogger(__name__)

QP_MAX_ITERATIONS = 400  # active-set changes per weight QP
POSE_ITERATIONS = 12  # Gauss-Newton iterations per frame of refine's pose block
JOINT_ITERATIONS = 6  # Gauss-Newton iterations of refine's joint block
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
        if min(self.lambda_g, self.lambda_j, self.outer_iterations, self.convergence_tol) <= 0:
            raise ValueError("refine parameters must be positive")
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
# simplex-constrained per-vertex weight solve


def simplex_qp(Q, c, forced_zero=None):
    """Minimize 1/2 w'Qw - c'w over the probability simplex (active-set method).

    `forced_zero` marks coordinates pinned to zero (unreachable joints). Q must
    be symmetric positive definite on the allowed coordinates; a relative ridge
    is added for safety. Raises `NotConverged` after `QP_MAX_ITERATIONS`
    active-set changes.
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    M = len(c)
    allowed = np.ones(M, dtype=bool) if forced_zero is None else ~np.asarray(forced_zero, bool)
    if not allowed.any():
        raise ValueError("all coordinates forced to zero")
    Q = Q + (1e-12 * max(np.trace(Q) / M, 1e-30)) * np.eye(M)

    w = np.zeros(M)
    w[allowed] = 1.0 / allowed.sum()
    free = w > 0

    for _ in range(QP_MAX_ITERATIONS):
        idx = np.where(free)[0]
        k = len(idx)
        KKT = np.empty((k + 1, k + 1))
        KKT[:k, :k] = Q[np.ix_(idx, idx)]
        KKT[:k, k] = 1.0
        KKT[k, :k] = 1.0
        KKT[k, k] = 0.0
        rhs = np.concatenate([c[idx], [1.0]])
        try:
            sol = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0]
        w_new = np.zeros(M)
        w_new[idx] = sol[:k]
        nu = sol[k]

        if np.all(w_new[idx] >= -1e-12):
            w = np.clip(w_new, 0.0, None)
            s = w.sum()
            if s > 0:
                w /= s
            # on the free set Q w + nu = c, so a zero coordinate's price is grad_j + nu
            grad = Q @ w - c
            lam = grad + nu
            candidates = allowed & ~free
            if not candidates.any():
                return w
            j = np.where(candidates)[0][np.argmin(lam[candidates])]
            if lam[j] >= -1e-9 * (1.0 + np.abs(grad).max()):
                return w
            free[j] = True
        else:
            d = w_new - w
            blocking = idx[(w_new[idx] < -1e-12) & (d[idx] < 0)]
            alphas = w[blocking] / (w[blocking] - w_new[blocking])
            step = float(np.min(alphas))
            j = blocking[int(np.argmin(alphas))]
            w = w + step * d
            w[j] = 0.0
            w = np.clip(w, 0.0, None)
            free[j] = False
            if not free.any():
                free[np.where(allowed)[0][0]] = True
    raise NotConverged(f"simplex QP over {M} coordinates took more than {QP_MAX_ITERATIONS} iterations")


# ---------------------------------------------------------------------------
# damped Gauss-Newton loop shared by the pose and joint blocks and registration's template fit


def damped_gauss_newton(x, cost, normal_equations, retract, iterations):
    """Minimize `cost` from `x` with damped steps that never raise it; returns the final x.

    `normal_equations(x)` gives (H, g) and `retract(x, delta)` applies a step.
    A trial whose cost is not finite is rejected like one that raises the cost.
    Stops at a vanishing gradient, a negligible decrease or 8 rejected tries.
    """
    c = cost(x)
    lam = 1e-4
    for _ in range(iterations):
        H, g = normal_equations(x)
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
                c_new = cost(x_new)
            if np.isfinite(c_new) and c_new <= c:
                x, c, decrease = x_new, c_new, c - c_new
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 4.0
        else:
            break
        if decrease <= 1e-12 * (c + 1e-30):
            break
    return x


# ---------------------------------------------------------------------------
# pose block


def _skin_ids(G, rest, W):
    """Skin rest positions `rest` (n, 3) with weight rows `W` (n, M) under joint transforms G (M, 4, 4).

    Returns the per-joint transformed rest positions y (n, M, 3), from one
    GEMM over all joints, and their weight blend v (n, 3).
    """
    M = len(G)
    y = (rest @ G[:, :3, :3].reshape(3 * M, 3).T + G[:, :3, 3].reshape(3 * M)).reshape(len(rest), M, 3)
    return y, np.matmul(W[:, None, :], y)[:, 0]


def _subtree_matrix(parents):
    """sub[j, m] = 1 when joint j is in the subtree rooted at m (j == m included)."""
    M = len(parents)
    sub = np.zeros((M, M))
    for j in range(M):
        a = j
        while a != -1:
            sub[j, a] = 1.0
            a = parents[a]
    return sub


def _chain_context(model, quats, root_t):
    """Per-joint world transforms plus parent-chain rotations and joint centers."""
    G = joint_transforms(model, quats, root_t)
    R_local = quat_to_rot(np.asarray(quats, dtype=float))
    Rp = np.empty((model.n_joints, 3, 3))
    for j in range(model.n_joints):
        p = model.parents[j]
        Rp[j] = np.eye(3) if p == -1 else G[p, :3, :3]
    centers = np.einsum("mij,mj->mi", G[:, :3, :3], model.joints) + G[:, :3, 3]
    return G, R_local, Rp, centers


def _lever_arms(y, W, Wsub, sub, centers):
    """Lever arm a_im = sum_{j in subtree(m)} w_ij (y_ij - c_m) of joint m at vertex i, (n, M, 3).

    `y` comes from `_skin_ids`, `Wsub` is `W @ sub` and `centers` the joints' world positions.
    """
    return np.matmul(sub.T, W[:, :, None] * y) - Wsub[:, :, None] * centers


def pose_residual_jacobian(model: SkinnedBodyModel, quats, root_t, vertex_ids, targets):
    """Residuals v_i - p_i and their Jacobian w.r.t. (per-joint tangent, root translation).

    The tangent of joint m perturbs its local rotation on the left
    (R_m <- Exp(d) R_m); the world-space effect on a blended vertex is
    sum_{j in subtree(m)} w_ij (Rp_m d) x (G_j v_i - c_m) = (Rp_m d) x a_im,
    giving the closed form used here.
    """
    vertex_ids = np.asarray(vertex_ids, dtype=int)
    targets = np.asarray(targets, dtype=float).reshape(len(vertex_ids), 3)
    M = model.n_joints
    G, _, Rp, centers = _chain_context(model, quats, root_t)
    sub = _subtree_matrix(model.parents)

    W = model.weights[vertex_ids]  # (n, M)
    y, v = _skin_ids(G, model.rest_vertices[vertex_ids], W)
    r = v - targets
    arms = _lever_arms(y, W, W @ sub, sub, centers)
    ax, ay, az = arms[..., 0], arms[..., 1], arms[..., 2]

    # block (i, m) is -[arm]_x Rp_m, written column by column as two-term cross products
    n = len(vertex_ids)
    Jac = np.zeros((n, 3, 3 * M + 3))
    blocks = Jac[:, :, : 3 * M].reshape(n, 3, M, 3)  # a view: blocks[i, :, m] = Jac[i, :, 3m:3m+3]
    for k in range(3):
        px, py, pz = Rp[:, 0, k], Rp[:, 1, k], Rp[:, 2, k]  # column k of each Rp_m
        blocks[:, 0, :, k] = az * py - ay * pz
        blocks[:, 1, :, k] = ax * pz - az * px
        blocks[:, 2, :, k] = ay * px - ax * py
    Jac[:, 0, 3 * M + 0] = 1.0
    Jac[:, 1, 3 * M + 1] = 1.0
    Jac[:, 2, 3 * M + 2] = 1.0
    return r, Jac


def _pose_normal_equations(arms, r, Rp):
    """J'J and J'r of `pose_residual_jacobian` from the lever arms (n, M, 3), without forming J.

    Block (i, m) of J is -[a_im]_x Rp_m and the root block is I, so with
    S_ml = sum_i a_im a_il' (one GEMM over the (n, 3M) arms):
    H_ml = Rp_m' (tr(S_ml) I - S_ml') Rp_l, H_m,root = Rp_m' [sum_i a_im]_x,
    H_root,root = n I, g_m = Rp_m' sum_i a_im x r_i and g_root = sum_i r_i.
    """
    n, M, _ = arms.shape
    A = arms.reshape(n, 3 * M)
    RpT = Rp.transpose(0, 2, 1)
    S = (A.T @ A).reshape(M, 3, M, 3).transpose(0, 2, 1, 3)  # S[m, l] = sum_i a_im a_il'
    B = np.trace(S, axis1=2, axis2=3)[:, :, None, None] * np.eye(3) - S.transpose(0, 1, 3, 2)
    H = np.empty((3 * M + 3, 3 * M + 3))
    H[: 3 * M, : 3 * M] = (RpT[:, None] @ B @ Rp[None]).transpose(0, 2, 1, 3).reshape(3 * M, 3 * M)
    H[: 3 * M, 3 * M :] = (RpT @ _skew(A.sum(axis=0).reshape(M, 3))).reshape(3 * M, 3)
    H[3 * M :, : 3 * M] = H[: 3 * M, 3 * M :].T
    H[3 * M :, 3 * M :] = n * np.eye(3)
    C = (A.T @ r).reshape(M, 3, 3)  # C[m] = sum_i a_im r_i'
    cross = np.stack([C[:, 1, 2] - C[:, 2, 1], C[:, 2, 0] - C[:, 0, 2], C[:, 0, 1] - C[:, 1, 0]], axis=1)
    g = np.concatenate([(RpT @ cross[:, :, None]).reshape(3 * M), r.sum(axis=0)])
    return H, g


def _skew(a):
    """[a]_x for each row of a (k, 3), as (k, 3, 3)."""
    K = np.zeros((len(a), 3, 3))
    K[:, 0, 1], K[:, 0, 2], K[:, 1, 2] = -a[:, 2], a[:, 1], -a[:, 0]
    K[:, 1, 0], K[:, 2, 0], K[:, 2, 1] = a[:, 2], -a[:, 1], a[:, 0]
    return K


def _fit_pose(model, quats, root_t, vertex_ids, targets, iterations):
    """Damped Gauss-Newton on one frame's pose: per-joint tangents plus root translation."""
    M = model.n_joints
    # fixed within the solve: the observed vertices' rest positions, weights and subtree weight sums
    rest, W = model.rest_vertices[vertex_ids], model.weights[vertex_ids]
    sub = _subtree_matrix(model.parents)
    Wsub = W @ sub

    def cost(pose):
        _, v = _skin_ids(joint_transforms(model, *pose), rest, W)
        return float(np.sum((v - targets) ** 2))

    def normal_equations(pose):
        G, _, Rp, centers = _chain_context(model, *pose)
        y, v = _skin_ids(G, rest, W)
        return _pose_normal_equations(_lever_arms(y, W, Wsub, sub, centers), v - targets, Rp)

    def retract(pose, delta):
        dq = quat_from_rotvec(delta[: 3 * M].reshape(M, 3))
        return quat_normalize(quat_mul(dq, pose[0])), pose[1] + delta[3 * M :]

    pose = (quat_normalize(quats), np.array(root_t, dtype=float))
    return damped_gauss_newton(pose, cost, normal_equations, retract, iterations)


# ---------------------------------------------------------------------------
# joint block


def _joint_normal_equations(model, frames_obs, lambda_j, joints0, total_obs):
    """Gauss-Newton normal equations (H, g) of the joint loss at `model.joints`.

    d v_i / d j_m = (sum_{j in subtree(m)} w_ij) * Rp_m (I - R_m) per frame, so
    they assemble from subtree weight sums and per-joint 3x3 blocks.
    """
    M = model.n_joints
    sub = _subtree_matrix(model.parents)
    H = np.zeros((3 * M, 3 * M))
    g = np.zeros(3 * M)
    for ids, pts, q, t in frames_obs:
        G, R_local, Rp, _ = _chain_context(model, q, t)
        D = np.einsum("mij,mjk->mik", Rp, np.eye(3)[None] - R_local)  # (M, 3, 3)
        W = model.weights[ids]
        Wsub = W @ sub  # (n, M)
        _, v = _skin_ids(G, model.rest_vertices[ids], W)
        r = v - pts
        S = Wsub.T @ Wsub  # (M, M) sum over obs of Wsub_im Wsub_im'
        DtD = np.einsum("mik,lij->mlkj", D, D)  # D_m' D_l as (M, M, 3, 3)
        H += (S[:, :, None, None] * DtD).transpose(0, 2, 1, 3).reshape(3 * M, 3 * M)
        rw = Wsub.T @ r  # (M, 3)
        g += np.einsum("mik,mi->mk", D, rw).reshape(3 * M)
    H = 2.0 * H / total_obs + 2.0 * lambda_j * np.eye(3 * M)
    g = 2.0 * g / total_obs + 2.0 * lambda_j * (model.joints - joints0).reshape(3 * M)
    return H, g


def _fit_joints(model, frames_obs, lambda_j, joints0, total_obs):
    """Damped Gauss-Newton on `model.joints` with the l2 prior to J0."""

    def loss(joints):
        model.joints = joints
        return _fit_sse(model, frames_obs) / total_obs + lambda_j * float(np.sum((joints - joints0) ** 2))

    def normal_equations(joints):
        model.joints = joints
        return _joint_normal_equations(model, frames_obs, lambda_j, joints0, total_obs)

    def retract(joints, delta):
        return joints + delta.reshape(joints.shape)

    model.joints = damped_gauss_newton(model.joints.copy(), loss, normal_equations, retract, JOINT_ITERATIONS)


# ---------------------------------------------------------------------------
# loss bookkeeping


def _prepare_frames(model, clouds):
    frames_obs = []
    for k, cloud in enumerate(clouds):
        ids, pts = cloud.observed(model.n_vertices)
        frames_obs.append([ids, pts, model.pose_quats[k].copy(), model.root_translations[k].copy()])
    return frames_obs


def _residuals(model, ids, pts, q, t):
    """Skinned positions of vertices `ids` at pose (q, t) minus their observations `pts`."""
    _, v = _skin_ids(joint_transforms(model, q, t), model.rest_vertices[ids], model.weights[ids])
    return v - pts


def _fit_sse(model, frames_obs):
    """Sum of squared residuals over (ids, pts, q, t) frames."""
    return sum((float(np.sum(_residuals(model, *fo) ** 2)) for fo in frames_obs), 0.0)


def _total_loss(model, frames_obs, g_geo, joints0, cfg, total_obs):
    fit = _fit_sse(model, frames_obs) / total_obs
    finite = np.isfinite(g_geo)
    reg_w = float(np.sum(g_geo[finite] * model.weights[finite] ** 2))
    reg_j = float(np.sum((model.joints - joints0) ** 2))
    return fit + cfg.lambda_g * reg_w + cfg.lambda_j * reg_j, fit


def refine(
    model0: SkinnedBodyModel,
    clouds,
    layout: SuitLayout,
    cfg: RefineConfig | None = None,
) -> RefineResult:
    """Alternating refinement of weights, joints, rest pose, and per-frame poses."""
    cfg = cfg or RefineConfig()
    model = model0.copy()
    K = len(clouds)
    if model.n_frames != K:
        q0, t0 = model.identity_pose()
        model.pose_quats = np.tile(q0, (K, 1, 1))
        model.root_translations = np.tile(t0, (K, 1))

    frames_obs = _prepare_frames(model, clouds)
    total_obs = sum(len(ids) for ids, _, _, _ in frames_obs)
    if total_obs == 0:
        raise ValueError("refine needs at least one observation")
    observed = np.zeros(model.n_vertices, dtype=bool)
    for ids, _, _, _ in frames_obs:
        observed[ids] = True
    unobserved = np.where(~observed)[0]

    g_geo = geodesic_weights(layout, model.rest_vertices, model.weights)
    joints0 = model.joints.copy()

    loss_trace = []
    fit_trace = []
    prev = np.inf
    for it in range(cfg.outer_iterations):
        # (1) poses, each frame independently
        for fo in frames_obs:
            ids, pts, q, t = fo
            fo[2], fo[3] = _fit_pose(model, q, t, ids, pts, POSE_ITERATIONS)

        # (2) weights, each vertex independently
        _solve_weights(model, frames_obs, g_geo, cfg.lambda_g, total_obs)

        # (3) joints
        _fit_joints(model, frames_obs, cfg.lambda_j, joints0, total_obs)

        # (4) rest positions
        _solve_rest(model, frames_obs)

        loss, fit = _total_loss(model, frames_obs, g_geo, joints0, cfg, total_obs)
        loss_trace.append(loss)
        fit_trace.append(np.sqrt(fit))
        log.debug("outer %3d  loss %.9g  fit-rms %.6g mm", it, loss, np.sqrt(fit))
        if prev - loss <= cfg.convergence_tol * max(abs(prev), 1e-30) and it >= 1:
            break
        prev = loss

    if cfg.prune_top and cfg.prune_top < model.n_joints:
        _prune_weights(model, cfg.prune_top)

    model.pose_quats = np.array([fo[2] for fo in frames_obs])
    model.root_translations = np.array([fo[3] for fo in frames_obs])
    model.validate()
    return RefineResult(model, loss_trace, fit_trace, unobserved)


def _solve_weights(model, frames_obs, g_geo, lambda_g, total_obs):
    N, M = model.weights.shape
    Qacc = np.zeros((N, M, M))
    cacc = np.zeros((N, M))
    seen = np.zeros(N, dtype=bool)
    for ids, pts, q, t in frames_obs:
        y, _ = _skin_ids(joint_transforms(model, q, t), model.rest_vertices[ids], model.weights[ids])
        Qacc[ids] += np.matmul(y, y.transpose(0, 2, 1))
        cacc[ids] += np.matmul(y, pts[:, :, None])[:, :, 0]
        seen[ids] = True

    scale = 2.0 / total_obs
    for i in np.where(seen)[0]:
        Q = scale * Qacc[i] + 2.0 * lambda_g * np.diag(np.where(np.isfinite(g_geo[i]), g_geo[i], 0.0))
        c = scale * cacc[i]
        forced = ~np.isfinite(g_geo[i])
        model.weights[i] = simplex_qp(Q, c, forced_zero=forced)


def _solve_rest(model, frames_obs):
    N = model.n_vertices
    H = np.zeros((N, 3, 3))
    b = np.zeros((N, 3))
    seen = np.zeros(N, dtype=bool)
    for ids, pts, q, t in frames_obs:
        lin, tr = blend_transforms(model, joint_transforms(model, q, t), ids)
        H[ids] += np.einsum("nij,nik->njk", lin, lin)
        b[ids] += np.einsum("nij,ni->nj", lin, pts - tr)
        seen[ids] = True
    idx = np.where(seen)[0]
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
        q, t = _fit_pose(model, q0, t0, ids, pts, FIT_POSES_ITERATIONS)
        quats.append(q)
        roots.append(t)
        dists.append(np.linalg.norm(_residuals(model, ids, pts, q, t), axis=1))
    return np.array(quats), np.array(roots), np.concatenate(dists) if dists else np.zeros(0)


def fitting_rms(model: SkinnedBodyModel, clouds) -> float:
    """Held-out fitting error: RMS distance after pose-only fits (shape frozen)."""
    d = fit_poses(model, clouds)[2]
    return float(np.sqrt(np.sum(d * d) / max(d.size, 1)))
