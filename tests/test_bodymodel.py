import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import suitcap.refine as refine_module
from suitcap.cli import _blur_weights
from suitcap.errors import NotConverged
from suitcap.geometry import quat_from_rotvec, quat_mul, quat_normalize, quat_to_rot
from suitcap.layout import SuitLayout, generate_synthetic_layout
from suitcap.refine import geodesic_weights, pose_residual_jacobian, simplex_qp
from suitcap.simulator import stick_figure_scene
from suitcap.skinning import (
    SkinnedBodyModel,
    arm_map,
    blend_rows,
    blend_transforms,
    joint_transforms,
    load_model,
    parent_frames,
    save_model,
    skin_with_transforms,
    stacked_transforms,
    unskin_with_transforms,
)


def chain_model(n_vertices=12, seed=0):
    """3-joint chain with random blended weights over adjacent joints."""
    rng = np.random.default_rng(seed)
    joints = np.array([[0.0, 0, 0], [0, 0, 100.0], [0, 0, 200.0]])
    parents = np.array([-1, 0, 1])
    rest = rng.uniform(-40, 40, (n_vertices, 3)) + np.array([0, 0, 100.0])
    W = np.zeros((n_vertices, 3))
    for i in range(n_vertices):
        a = rng.integers(0, 3)
        b = (a + 1) % 3
        t = rng.uniform(0, 1)
        W[i, a] = 1 - t
        W[i, b] = t
    return SkinnedBodyModel(rest, joints, parents, W)


def with_pose(model, quats, root_t):
    m = model.copy()
    m.pose_quats = np.asarray(quats, dtype=float).reshape(1, model.n_joints, 4)
    m.root_translations = np.asarray(root_t, dtype=float).reshape(1, 3)
    m.validate()
    return m


def pose_transforms(m, k=0):
    """The joint transforms of `m`'s stored pose k."""
    return joint_transforms(m, m.pose_quats[k], m.root_translations[k])


def identity_quats(M):
    q = np.zeros((M, 4))
    q[:, 0] = 1.0
    return q


def test_identity_pose_reproduces_rest():
    model = chain_model()
    m = with_pose(model, identity_quats(3), np.zeros(3))
    assert np.abs(skin_with_transforms(m, pose_transforms(m), m.rest_vertices) - m.rest_vertices).max() < 1e-12


def test_single_joint_rigid_rotation():
    joints = np.array([[10.0, 20.0, 30.0]])
    rest = np.array([[50.0, 20.0, 30.0], [10.0, 60.0, 30.0]])
    model = SkinnedBodyModel(rest, joints, np.array([-1]), np.ones((2, 1)))
    # 90 degrees about the z axis through the joint
    q = quat_from_rotvec(np.array([[0.0, 0.0, np.pi / 2]]))
    m = with_pose(model, q, np.zeros(3))
    got = skin_with_transforms(m, pose_transforms(m), rest)
    R = quat_to_rot(q[0])
    expected = (R @ (rest - joints[0]).T).T + joints[0]
    assert np.abs(got - expected).max() < 1e-9


def _skin_reference(model, quats, root_t, vertex):
    """Dual implementation: explicit 4x4 matrices expanded per vertex."""

    def rot_about(q, c):
        T = np.eye(4)
        T[:3, :3] = quat_to_rot(q)
        T[:3, 3] = c - T[:3, :3] @ c
        return T

    M = model.n_joints
    G = [None] * M
    for j in np.concatenate(model.levels):
        A = rot_about(quats[j], model.joints[j])
        p = model.parents[j]
        if p == -1:
            T = np.eye(4)
            T[:3, 3] = root_t
            G[j] = T @ A
        else:
            G[j] = G[p] @ A
    blended = sum(model.weights[vertex, j] * G[j] for j in range(M))
    vh = blended @ np.array([*model.rest_vertices[vertex], 1.0])
    return vh[:3] / vh[3]


def test_skin_matches_expanded_matrix_oracle(rng):
    model = chain_model(seed=3)
    for _ in range(20):
        quats = quat_normalize(rng.normal(size=(3, 4)))
        root_t = rng.uniform(-50, 50, 3)
        m = with_pose(model, quats, root_t)
        got = skin_with_transforms(m, pose_transforms(m), m.rest_vertices)
        for v in range(model.n_vertices):
            ref = _skin_reference(model, quats[...], root_t, v)
            assert np.abs(got[v] - ref).max() < 1e-9


def test_unskin_roundtrip_identity_pose():
    model = chain_model()
    m = with_pose(model, identity_quats(3), np.zeros(3))
    p = np.array([[12.0, 34.0, 56.0]])
    back, singular = unskin_with_transforms(m, pose_transforms(m), [0], p)
    assert not singular.any()
    assert np.abs(back - p).max() < 1e-9


def test_unskin_inverts_skin(rng):
    model = chain_model(seed=7)
    quats = quat_normalize(rng.normal(size=(3, 4)))
    m = with_pose(model, quats, rng.uniform(-30, 30, 3))
    G = pose_transforms(m)
    posed = skin_with_transforms(m, G, m.rest_vertices)
    back, singular = unskin_with_transforms(m, G, np.arange(model.n_vertices), posed)
    assert not singular.any()
    assert np.abs(back - model.rest_vertices).max() < 1e-9


def test_skin_of_unskin_roundtrip_many(rng):
    model = chain_model(n_vertices=25, seed=9)
    for _ in range(20):
        quats = quat_normalize(rng.normal(size=(3, 4)))
        m = with_pose(model, quats, rng.uniform(-30, 30, 3))
        ids = rng.integers(0, model.n_vertices, 500)
        pts = rng.uniform(-200, 200, (500, 3))
        G = pose_transforms(m)
        rest_pts, singular = unskin_with_transforms(m, G, ids, pts)
        assert not singular.any()
        # one model vertex per sampled id, so that the kernel skins every row
        per_id = SkinnedBodyModel(rest_pts, m.joints, m.parents, m.weights[ids])
        again = skin_with_transforms(per_id, G, rest_pts)
        assert np.abs(again - pts).max() < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    rotvecs=arrays(float, (3, 3), elements=st.floats(-np.pi, np.pi)),
    root_t=arrays(float, 3, elements=st.floats(-100, 100)),
    weights=arrays(float, (8, 3), elements=st.floats(0, 1)),
    pts=arrays(float, (8, 3), elements=st.floats(-200, 200)),
)
def test_skin_of_unskin_is_identity_on_non_singular_blends(rotvecs, root_t, weights, pts):
    """Any pose, any convex blend of the 3-joint chain: posing the unposed point returns it,
    to round-off scaled by the blended matrix's condition number."""
    base = chain_model(n_vertices=8)
    weights = weights + 1e-9  # a row of zeros becomes the even blend
    model = SkinnedBodyModel(base.rest_vertices, base.joints, base.parents, weights / weights.sum(axis=1, keepdims=True))
    m = with_pose(model, quat_from_rotvec(rotvecs), root_t)
    G = pose_transforms(m)
    rest_pts, singular = unskin_with_transforms(m, G, np.arange(8), pts)
    ok = ~singular
    assert np.isfinite(rest_pts[ok]).all()
    per_id = SkinnedBodyModel(rest_pts[ok], m.joints, m.parents, m.weights[ok])
    again = skin_with_transforms(per_id, G, rest_pts[ok])
    lin, tr = blend_transforms(m, G)
    scale = np.abs(pts[ok]).max(axis=1) + np.abs(tr[ok]).max(axis=1) + 1.0
    bound = 1e-13 * np.linalg.cond(lin[ok]) * scale
    assert (np.abs(again - pts[ok]).max(axis=1) <= bound).all()


def test_unskin_singular_blend_is_nan_and_marked():
    # two opposite 180-degree rotations blended half-half collapse the matrix
    joints = np.array([[0.0, 0, 0], [0.0, 0, 0]])
    parents = np.array([-1, -1])
    rest = np.array([[10.0, 0, 0], [0.0, 10.0, 0], [0.0, 0, 10.0]])
    W = np.array([[0.5, 0.5], [1.0, 0.0], [0.2, 0.8]])
    model = SkinnedBodyModel(rest, joints, parents, W)
    q = np.stack(
        [quat_from_rotvec(np.array([np.pi, 0, 0])), quat_from_rotvec(np.array([-0.0, 0, 0]))]
    )
    # blend of R(pi about x) and identity: diag(1, 0, 0) for vertex 0 -> singular,
    # R itself for vertex 1 and diag(1, 0.6, 0.6) for vertex 2
    m = with_pose(model, q, np.zeros(3))
    G = pose_transforms(m)
    pts = np.array([[4.0, 5.0, 6.0], [1.0, 2.0, 3.0], [7.0, 8.0, 9.0]])
    back, singular = unskin_with_transforms(m, G, [1, 0, 2], pts)
    assert singular.tolist() == [False, True, False]
    assert np.isnan(back[1]).all()
    without, none_singular = unskin_with_transforms(m, G, [1, 2], pts[[0, 2]])
    assert not none_singular.any()
    assert back[[0, 2]].tobytes() == without.tobytes()


def test_parents_must_be_acyclic():
    with pytest.raises(ValueError):
        SkinnedBodyModel(
            np.zeros((1, 3)), np.zeros((2, 3)), np.array([1, 0]), np.array([[1.0, 0.0]])
        )


# ---------------------------------------------------------------------------
# geodesic weights


def test_geodesic_zero_at_supported_vertices():
    layout = generate_synthetic_layout(3, 5)
    n = layout.n_corners
    rest = np.random.default_rng(0).uniform(0, 100, (n, 3))
    W0 = np.zeros((n, 2))
    W0[: n // 2, 0] = 1.0
    W0[n // 2 :, 1] = 1.0
    g = geodesic_weights(layout, rest, W0)
    assert np.all(g[: n // 2, 0] == 0.0)
    assert np.all(g[n // 2 :, 1] == 0.0)
    assert np.all(g[n // 2 :, 0] > 0.0)


def test_geodesic_path_graph_hop_counts():
    # a path of unit edges: distance to vertex 0 equals the hop count
    n = 6
    faces = [(i, i + 1, i) for i in range(0, 0)]  # no faces; use explicit edges via a layout stub

    class PathLayout:
        def edges(self):
            return np.array([[i, i + 1] for i in range(n - 1)])

    rest = np.stack([np.arange(n), np.zeros(n), np.zeros(n)], axis=1).astype(float)
    W0 = np.zeros((n, 1))
    W0[0, 0] = 1.0
    g = geodesic_weights(PathLayout(), rest, W0)
    assert np.allclose(g[:, 0], np.arange(n))


def _floyd_warshall(n, edges, lengths):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (a, b), w in zip(edges, lengths):
        d[a, b] = min(d[a, b], w)
        d[b, a] = min(d[b, a], w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def test_geodesic_matches_floyd_warshall(rng):
    layout = generate_synthetic_layout(3, 4)
    n = layout.n_corners
    rest = rng.uniform(0, 50, (n, 3))
    W0 = np.zeros((n, 3))
    for j in range(3):
        W0[rng.integers(0, n, 4), j] = 1.0
    W0 = W0 / np.maximum(W0.sum(axis=1, keepdims=True), 1.0)
    rows_any = W0.sum(axis=1) > 0
    W0[~rows_any, 0] = 0.0  # rows may be all-zero; geodesic_weights only reads columns
    g = geodesic_weights(layout, rest, W0)

    edges = layout.edges()
    lengths = np.linalg.norm(rest[edges[:, 0]] - rest[edges[:, 1]], axis=1)
    d = _floyd_warshall(n, edges, lengths)
    for j in range(3):
        sources = np.where(W0[:, j] > 1e-6)[0]
        expected = d[:, sources].min(axis=1)
        assert np.allclose(g[:, j], expected)


def test_geodesic_unreachable_is_infinite():
    layout = SuitLayout(
        n_corners=8,
        quad_table={"AA": (0, 1, 2, 3), "AB": (4, 5, 6, 7)},
        faces=[(0, 1, 2, 3), (4, 5, 6, 7)],
    )
    rest = np.random.default_rng(1).uniform(0, 10, (8, 3))
    W0 = np.zeros((8, 2))
    W0[0, 0] = 1.0
    W0[4, 1] = 1.0
    g = geodesic_weights(layout, rest, W0)
    assert np.isinf(g[4:, 0]).all()
    assert np.isinf(g[:4, 1]).all()
    assert np.isfinite(g[:4, 0]).all()


def _csgraph_geodesics(layout, rest, W0):
    """Reference: scipy's multi-source Dijkstra over the same edge lengths, joint by joint."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    e = layout.edges()
    w = np.linalg.norm(rest[e[:, 0]] - rest[e[:, 1]], axis=1)
    n = len(rest)
    graph = coo_matrix((np.concatenate([w, w]), (np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]]))),
                       shape=(n, n)).tocsr()
    return np.stack(
        [dijkstra(graph, directed=False, indices=np.where(W0[:, j] > refine_module.GEODESIC_SUPPORT)[0], min_only=True)
         for j in range(W0.shape[1])],
        axis=1,
    )


def _stick_figure_weights(blur):
    scene = stick_figure_scene(seed=0)
    W0 = scene.model.weights
    for _ in range(blur):
        W0 = _blur_weights(W0, scene.layout)
    return scene.layout, scene.model.rest_vertices, W0


def _two_quads_one_reached():
    layout = SuitLayout(
        n_corners=8,
        quad_table={"AA": (0, 1, 2, 3), "AB": (4, 5, 6, 7)},
        faces=[(0, 1, 2, 3), (4, 5, 6, 7)],
    )
    W0 = np.zeros((8, 2))
    W0[[0, 2], :] = 1.0
    return layout, np.random.default_rng(3).uniform(0, 10, (8, 3)), W0


def _no_sources():
    layout = generate_synthetic_layout(2, 3)
    n = layout.n_corners
    return layout, np.random.default_rng(4).uniform(0, 10, (n, 3)), np.zeros((n, 2))


@pytest.mark.parametrize(
    "case",
    # "blurred" blurs the truth weights twice, as the benchmark's fit workload does
    [lambda: _stick_figure_weights(0), lambda: _stick_figure_weights(2), _two_quads_one_reached, _no_sources],
    ids=["stick-figure-truth", "stick-figure-blurred", "unreached-component", "no-sources"],
)
def test_geodesic_weights_equal_csgraph_dijkstra_bitwise(case):
    layout, rest, W0 = case()
    g = geodesic_weights(layout, rest, W0)
    want = _csgraph_geodesics(layout, rest, W0)
    assert g.shape == want.shape
    assert g.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# simplex-constrained QP


def _qp_objective(Q, c, w):
    return 0.5 * w @ Q @ w - c @ w


def _brute_force_simplex(Q, c, forced_zero=None, grid=60):
    """Dense sampling oracle for tiny problems (M == 3): barycentric grid search."""
    best, best_val = None, np.inf
    for i in range(grid + 1):
        for j in range(grid + 1 - i):
            k = grid - i - j
            w = np.array([i, j, k]) / grid
            if forced_zero is not None and np.any(w[forced_zero] > 0):
                continue
            v = _qp_objective(Q, c, w)
            if v < best_val:
                best, best_val = w, v
    return best, best_val


def _simplex_qp_oracle(Q, c, forced_zero):
    """One problem at a time: the active-set rule that `simplex_qp` runs in lockstep."""
    M = len(c)
    allowed = ~forced_zero
    Q = Q + (1e-12 * max(np.trace(Q) / M, 1e-30)) * np.eye(M)

    w = np.zeros(M)
    w[allowed] = 1.0 / allowed.sum()
    free = w > 0

    for _ in range(refine_module.QP_MAX_ITERATIONS):
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
    raise NotConverged(f"simplex QP over {M} coordinates took more than {refine_module.QP_MAX_ITERATIONS} iterations")


def _one(Q, c, forced_zero=None):
    """`simplex_qp` on one problem, as a batch of one."""
    forced_zero = np.zeros(len(c), dtype=bool) if forced_zero is None else forced_zero
    return simplex_qp(Q[None], c[None], forced_zero[None])[0]


def _padded_batch(problems):
    """Stack (Q, c, forced) problems of different sizes, padding each with forced coordinates."""
    M = max(len(c) for _, c, _ in problems)
    Qb = np.zeros((len(problems), M, M))
    cb = np.zeros((len(problems), M))
    fb = np.ones((len(problems), M), dtype=bool)
    for i, (Q, c, forced) in enumerate(problems):
        m = len(c)
        Qb[i, :m, :m], cb[i, :m], fb[i, :m] = Q, c, forced
    return Qb, cb, fb


def test_simplex_qp_matches_grid_oracle(rng):
    problems = []
    for _ in range(40):
        A = rng.normal(size=(5, 3))
        problems.append((A.T @ A + 0.1 * np.eye(3), rng.normal(size=3), np.zeros(3, dtype=bool)))
    batch = simplex_qp(*_padded_batch(problems))
    for (Q, c, _), w_batch in zip(problems, batch):
        _, oracle_val = _brute_force_simplex(Q, c)
        for w in (_one(Q, c), w_batch):
            assert abs(w.sum() - 1.0) < 1e-9
            assert np.all(w >= -1e-12)
            assert _qp_objective(Q, c, w) <= oracle_val + 1e-6


def _random_simplex_qps(n=2000, seed=0):
    """SPD problems over 3-16 joints with about 20% of the coordinates forced to zero."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        M = int(rng.integers(3, 17))
        A = rng.normal(size=(M + 2, M))
        Q = A.T @ A + 0.1 * np.eye(M)
        c = 3.0 * rng.normal(size=M)
        forced = rng.random(M) < 0.2
        if forced.all():
            forced[rng.integers(M)] = False
        yield Q, c, forced


def _assert_simplex_kkt(Q, c, forced, w):
    """First-order optimality: equal gradients on the support, non-negative prices off it."""
    assert abs(w.sum() - 1.0) < 1e-9
    assert np.all(w >= 0.0)
    assert np.all(w[forced] == 0.0)
    grad = Q @ w - c
    tol = 1e-8 * (1.0 + np.abs(grad).max())
    support = w > 0
    assert np.ptp(grad[support]) <= tol
    nu = -grad[support].mean()  # Q w + nu = c on the support
    off = ~support & ~forced
    assert np.all(grad[off] + nu >= -tol)


def test_simplex_qp_meets_kkt_on_random_problems(monkeypatch):
    # Pricing an inactive coordinate with grad - nu instead of grad + nu stops
    # problem 1615 at -0.3393 (optimum -0.4066) and runs 824 of these problems
    # into a 400-iteration cap. The correct price needs at most 13 iterations
    # here, so a cap of 40 still catches any problem that heads for 400.
    monkeypatch.setattr(refine_module, "QP_MAX_ITERATIONS", 40)
    problems = list(_random_simplex_qps())
    batch = simplex_qp(*_padded_batch(problems))  # the cap counts each problem's own iterations
    for i, (Q, c, forced) in enumerate(problems):
        m = len(c)
        assert np.all(batch[i, m:] == 0.0)
        for w in (_one(Q, c, forced), batch[i, :m]):
            _assert_simplex_kkt(Q, c, forced, w)
            if i == 1615:
                assert _qp_objective(Q, c, w) < -0.4065


def test_simplex_qp_matches_per_problem_oracle():
    """Alone and in a padded batch, each result is the per-problem loop's to 1e-9 with the same
    support. The padding moves the relative ridge (its trace is over all M), hence no bitwise test."""
    problems = list(_random_simplex_qps(n=500, seed=2))
    batch = simplex_qp(*_padded_batch(problems))
    for (Q, c, forced), w_batch in zip(problems, batch):
        want = _simplex_qp_oracle(Q, c, forced)
        for w in (_one(Q, c, forced), w_batch[: len(c)]):
            assert np.abs(w - want).max() <= 1e-9
            assert np.array_equal(w > 0, want > 0)


def test_simplex_qp_result_has_same_bytes_alone_and_in_a_batch():
    """A problem's arithmetic does not depend on its batch: not on the other problems, their
    order, or how many allowed coordinates the widest of them has."""
    rng = np.random.default_rng(7)
    Q, c, forced = _padded_batch(list(_random_simplex_qps(n=300, seed=3)))
    alone = np.stack([simplex_qp(Q[i : i + 1], c[i : i + 1], forced[i : i + 1])[0] for i in range(len(c))])
    for size in (2, 37, 300):
        pick = rng.permutation(len(c))[:size]
        assert simplex_qp(Q[pick], c[pick], forced[pick]).tobytes() == alone[pick].tobytes()


def test_simplex_qp_raises_at_iteration_cap(monkeypatch):
    Q = np.stack([np.eye(3), np.eye(3)])
    c = np.array([[1.0, 2.0, 2.5], [1.0, 1.0, 1.0]])  # the first's equality-only solution has w_0 = -1/2
    forced = np.zeros((2, 3), dtype=bool)
    assert np.allclose(simplex_qp(Q, c, forced), [[0.0, 0.25, 0.75], [1 / 3, 1 / 3, 1 / 3]])
    monkeypatch.setattr(refine_module, "QP_MAX_ITERATIONS", 1)
    with pytest.raises(NotConverged, match="1 of 2 problems took more than 1 iterations"):
        simplex_qp(Q, c, forced)
    assert not issubclass(NotConverged, (ValueError, KeyError))


def test_simplex_qp_rejects_a_problem_with_every_coordinate_forced():
    forced = np.array([[False, True, True], [True, True, True]])
    with pytest.raises(ValueError, match="all coordinates forced to zero in 1 of 2"):
        simplex_qp(np.stack([np.eye(3)] * 2), np.ones((2, 3)), forced)


def test_kkt_solve_falls_back_to_least_squares_per_system(rng):
    """A singular system in the stack gets `lstsq`; the others keep `solve`'s bits."""
    KKT = np.stack([np.eye(3) + 0.1 * rng.normal(size=(3, 3)), np.ones((3, 3)), 2.0 * np.eye(3)])
    rhs = rng.normal(size=(3, 3))
    sol = refine_module._solve_kkt(KKT, rhs)
    assert sol[0].tobytes() == np.linalg.solve(KKT[0], rhs[0]).tobytes()
    assert np.array_equal(sol[1], np.linalg.lstsq(KKT[1], rhs[1], rcond=None)[0])
    assert np.array_equal(sol[2], rhs[2] / 2.0)


def test_simplex_qp_unconstrained_interior(rng):
    # when the unconstrained stationary point lies inside the simplex the
    # active-set solve must return it exactly
    Q = np.diag([2.0, 4.0, 8.0])
    target = np.array([0.5, 0.3, 0.2])
    nu = 1.0
    c = Q @ target - nu  # gradient Qw - c = nu * ones at the target
    w = _one(Q, c)
    assert np.abs(w - target).max() < 1e-9


def test_simplex_qp_forced_zero():
    Q = np.eye(3)
    c = np.array([1.0, 2.0, 3.0])
    w = _one(Q, c, np.array([False, False, True]))
    assert w[2] == 0.0
    assert abs(w.sum() - 1.0) < 1e-12


def test_large_sparsity_penalty_drives_weights_to_closed_form():
    """Two-joint toy: with huge penalty on joint 2, w -> (1, 0)."""
    B = np.array([[100.0, 120.0], [90.0, 95.0], [80.0, 70.0]])
    p = B @ np.array([0.5, 0.5])
    lam = 1e9
    g = np.array([0.0, 50.0])
    Q = 2 * B.T @ B + 2 * lam * np.diag(g)
    c = 2 * B.T @ p
    w = _one(Q, c)
    assert w[1] < 1e-5
    assert abs(w[0] - 1.0) < 1e-5


# ---------------------------------------------------------------------------
# pose jacobian (analytic vs central differences)


def test_pose_jacobian_matches_central_differences(rng):
    model = chain_model(n_vertices=9, seed=5)
    M = model.n_joints
    for _ in range(100):
        quats = quat_normalize(rng.normal(size=(M, 4)))
        root_t = rng.uniform(-40, 40, 3)
        ids = np.arange(model.n_vertices)
        targets = rng.uniform(-100, 100, (model.n_vertices, 3))
        r, J = pose_residual_jacobian(model, quats, root_t, ids, targets)

        h = 1e-6
        Jfd = np.zeros_like(J)

        def residual(q, t):
            rr, _ = pose_residual_jacobian(model, q, t, ids, targets)
            return rr

        for m in range(M):
            for a in range(3):
                d = np.zeros(3)
                d[a] = h
                qp = quats.copy()
                qp[m] = quat_mul(quat_from_rotvec(d), quats[m])
                qm = quats.copy()
                qm[m] = quat_mul(quat_from_rotvec(-d), quats[m])
                Jfd[:, :, 3 * m + a] = (
                    residual(quat_normalize(qp), root_t) - residual(quat_normalize(qm), root_t)
                ) / (2 * h)
        for a in range(3):
            d = np.zeros(3)
            d[a] = h
            Jfd[:, :, 3 * M + a] = (residual(quats, root_t + d) - residual(quats, root_t - d)) / (
                2 * h
            )
        scale = np.abs(Jfd).max() + 1e-12
        assert np.abs(J - Jfd).max() / scale < 1e-4


# ---------------------------------------------------------------------------
# pose kernels against their einsum forms


def _skin_oracle(model, G, ids):
    """Per-joint transformed rest positions y (n, M, 3) and their blend, as einsums over G."""
    y = np.einsum("mij,nj->nmi", G[:, :3, :3], model.rest_vertices[ids]) + G[:, :3, 3]
    return y, np.einsum("nm,nmi->ni", model.weights[ids], y)


def _arms_oracle(model, G, ids):
    """Lever arms a_im = sum_{j in subtree(m)} w_ij (y_ij - c_m) (n, M, 3), as an einsum subtree sum."""
    y, _ = _skin_oracle(model, G, ids)
    W = model.weights[ids]
    sub = np.zeros((model.n_joints, model.n_joints))  # sub[j, m] = 1 for j in subtree(m), walked up from j
    for j in range(model.n_joints):
        m = j
        while m != -1:
            sub[j, m] = 1.0
            m = model.parents[m]
    centers = parent_frames(model, G)[1]
    return np.einsum("njc,jm->nmc", W[:, :, None] * y, sub) - (W @ sub)[:, :, None] * centers


def _kernel_arms(model, G, ids):
    """The lever arms as refine takes them, U F' (n, M, 3), with the parent rotations."""
    F, Rp = arm_map(model, G)
    U = blend_rows(model.weights[ids], model.rest_vertices[ids])
    return (U @ F.T).reshape(len(ids), model.n_joints, 3), Rp


def _pose_jacobian_oracle(model, quats, root_t, ids, targets):
    """`pose_residual_jacobian` with each 3x3 block as -skew(arm) @ Rp in one einsum.

    It takes the kernel's own residuals and arms, so that the block assembly is compared bit for bit.
    """
    n, M = len(ids), model.n_joints
    G = joint_transforms(model, quats, root_t)
    arm, Rp = _kernel_arms(model, G, ids)
    ax, ay, az = arm[..., 0], arm[..., 1], arm[..., 2]
    skew = np.zeros((n, M, 3, 3))
    skew[:, :, 0, 1] = -az
    skew[:, :, 0, 2] = ay
    skew[:, :, 1, 0] = az
    skew[:, :, 1, 2] = -ax
    skew[:, :, 2, 0] = -ay
    skew[:, :, 2, 1] = ax
    blocks = -np.einsum("nmij,mjk->nmik", skew, Rp)
    Jac = np.zeros((n, 3, 3 * M + 3))
    Jac[:, :, : 3 * M] = blocks.transpose(0, 2, 1, 3).reshape(n, 3, 3 * M)
    Jac[:, :, 3 * M :] = np.eye(3)
    return refine_module._residuals(model, ids, targets, G), Jac


def _stick_figure_model():
    from suitcap.simulator import (
        STICK_FIGURE_BONES,
        STICK_FIGURE_JOINTS,
        STICK_FIGURE_PARENTS,
        build_tube_body,
    )

    return build_tube_body(STICK_FIGURE_JOINTS, STICK_FIGURE_PARENTS, STICK_FIGURE_BONES)[1]


@pytest.mark.parametrize("make_model", [chain_model, _stick_figure_model], ids=["chain", "stick_figure"])
def test_pose_kernels_match_einsum_oracles_bitwise(make_model):
    # the skin U T' and the arms U F' are GEMMs that sum in another order than the einsums: the
    # skin equals them to 1e-14 of its largest value, the arms (differences of terms as large as
    # the skin) to 1e-12 relative. The Jacobian's block assembly reorders no sum, so given the
    # same arms it must equal the oracle's exactly; array_equal, because an exactly zero block
    # entry can be +0.0 in the kernel where the oracle has -0.0
    model = make_model()
    M, N = model.n_joints, model.n_vertices
    rng = np.random.default_rng(2024)
    for _ in range(50):
        quats = quat_normalize(rng.normal(size=(M, 4)))
        root_t = rng.uniform(-300, 300, 3)
        ids = np.sort(rng.choice(N, rng.integers(1, N + 1), replace=False))
        targets = rng.uniform(-1000, 1000, (len(ids), 3))
        G = joint_transforms(model, quats, root_t)
        v = blend_rows(model.weights[ids], model.rest_vertices[ids]) @ stacked_transforms(G)
        v_ref = _skin_oracle(model, G, ids)[1]
        assert np.abs(v - v_ref).max() <= 1e-14 * np.abs(v_ref).max()
        arms, arms_ref = _kernel_arms(model, G, ids)[0], _arms_oracle(model, G, ids)
        assert np.abs(arms - arms_ref).max() <= 1e-12 * np.abs(arms_ref).max()
        r, J = pose_residual_jacobian(model, quats, root_t, ids, targets)
        r_ref, J_ref = _pose_jacobian_oracle(model, quats, root_t, ids, targets)
        assert np.array_equal(r, r_ref)
        assert np.array_equal(J, J_ref)


def _pose_solve_normal_equations(monkeypatch, model, ids, targets):
    """`normal_equations(pose)`: the (H, g) of the `evaluate` that `refine._pose_solve` hands to the driver."""
    captured = []

    def driver(x, evaluate, retract, iterations):
        captured.append(evaluate)
        return x, evaluate(x)

    monkeypatch.setattr(refine_module, "damped_gauss_newton", driver)
    q0, t0 = model.identity_pose()
    refine_module._pose_solve(model, q0, t0, ids, targets, 1)
    monkeypatch.undo()
    return lambda pose: captured[0](pose)[1]()


@pytest.mark.parametrize("make_model", [chain_model, _stick_figure_model], ids=["chain", "stick_figure"])
def test_pose_normal_equations_match_jacobian(monkeypatch, make_model):
    # the pose solve assembles H and g from lever arms; they must be J'J and J'r of the explicit Jacobian
    model = make_model()
    M, N = model.n_joints, model.n_vertices
    rng = np.random.default_rng(2025)
    for size in (0, 1, None):
        for _ in range(50):
            n = rng.integers(2, N + 1) if size is None else size
            ids = np.sort(rng.choice(N, n, replace=False))
            targets = rng.uniform(-1000, 1000, (n, 3))
            normal_equations = _pose_solve_normal_equations(monkeypatch, model, ids, targets)
            quats = quat_normalize(rng.normal(size=(M, 4)))
            root_t = rng.uniform(-300, 300, 3)
            H, g = normal_equations((quats, root_t))
            r, J = pose_residual_jacobian(model, quats, root_t, ids, targets)
            J = J.reshape(-1, 3 * M + 3)
            H_ref, g_ref = J.T @ J, J.T @ r.reshape(-1)
            assert np.abs(H - H_ref).max() <= 1e-12 * np.abs(H_ref).max()
            assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
            if n == 0:  # nothing to fit: a zero gradient, and the driver keeps the starting pose
                assert not g.any()
                q, t = refine_module._pose_solve(model, quats, root_t, ids, targets, refine_module.POSE_ITERATIONS)[0]
                assert np.array_equal(q, quat_normalize(quats))
                assert np.array_equal(t, root_t)


# ---------------------------------------------------------------------------
# joint transforms against the per-joint loop


def _joint_transforms_oracle(model, quats, root_translation):
    """`joint_transforms` as one 4x4 product per joint, in topological order."""
    quats = np.asarray(quats, dtype=float).reshape(model.n_joints, 4)
    R = quat_to_rot(quats)
    G = np.zeros((model.n_joints, 4, 4))
    for j in np.concatenate(model.levels):
        c = model.joints[j]
        A = np.eye(4)
        A[:3, :3] = R[j]
        A[:3, 3] = c - R[j] @ c
        p = model.parents[j]
        if p == -1:
            A[:3, 3] += np.asarray(root_translation, dtype=float)
            G[j] = A
        else:
            G[j] = G[p] @ A
    return G


def _reversed_stick_figure_model():
    """The stick figure with its joints numbered backwards, so every parent's index is above its children's."""
    model = _stick_figure_model()
    M = model.n_joints
    old = np.arange(M)[::-1]  # new joint k is old joint old[k]
    parents = np.where(model.parents[old] == -1, -1, M - 1 - model.parents[old])
    reversed_model = SkinnedBodyModel(model.rest_vertices, model.joints[old], parents, model.weights[:, old])
    assert all(p > j for j, p in enumerate(parents) if p != -1)
    return reversed_model


@pytest.mark.parametrize(
    "make_model",
    [chain_model, _stick_figure_model, _reversed_stick_figure_model],
    ids=["chain", "stick_figure", "reversed_stick_figure"],
)
def test_joint_transforms_match_per_joint_loop_bitwise(make_model):
    # one batched product per tree depth does each joint's products in the loop's order
    model = make_model()
    rng = np.random.default_rng(2026)
    for _ in range(50):
        quats = quat_normalize(rng.normal(size=(model.n_joints, 4)))
        root_t = rng.uniform(-300, 300, 3)
        assert np.array_equal(joint_transforms(model, quats, root_t), _joint_transforms_oracle(model, quats, root_t))


# ---------------------------------------------------------------------------
# model files


def test_model_file_roundtrip(tmp_path, rng):
    model = chain_model(seed=11)
    quats = quat_normalize(rng.normal(size=(4, 3, 4)))
    model.pose_quats = quats
    model.root_translations = rng.uniform(-10, 10, (4, 3))
    model.never_observed[2] = True
    model.validate()
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.rest_vertices, model.rest_vertices)
    assert np.array_equal(back.joints, model.joints)
    assert np.array_equal(back.parents, model.parents)
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.pose_quats, model.pose_quats)
    assert np.array_equal(back.root_translations, model.root_translations)
    assert np.array_equal(back.never_observed, model.never_observed)


def test_export_obj(tmp_path):
    from suitcap.skinning import export_obj

    path = tmp_path / "mesh.obj"
    export_obj(np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]]), [(0, 1, 2, 3)], path)
    text = path.read_text().splitlines()
    assert text[0].startswith("v ")
    assert text[-1] == "f 1 2 3 4"
