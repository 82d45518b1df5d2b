import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import null_space

from suitcap import inpaint
from suitcap.errors import SingularKKT
from suitcap.inpaint import (
    Constraints,
    WindowPlan,
    animation_header,
    build_spatial_laplacian,
    complete_mesh,
    read_animation_binary,
    solve_frames,
    solve_window,
    spatiotemporal_objective,
    unpose_observations,
    write_animation_binary,
)
from suitcap.layout import SuitLayout, generate_synthetic_layout
from suitcap.reconstruct import LabeledPointCloud, PointRecord
from suitcap.simulator import truth_clouds, tube_scene
from suitcap.skinning import joint_transforms, skin_with_transforms


def posed_vertices(model, k):
    """Every vertex of `model` at its stored pose k."""
    G = joint_transforms(model, model.pose_quats[k], model.root_translations[k])
    return skin_with_transforms(model, G, model.rest_vertices)


# ---------------------------------------------------------------------------
# unpose


@pytest.fixture(scope="module")
def posed_scene():
    scene = tube_scene(strips=4, codes_per_strip=8, seed=13, animation_strength=0.8)
    model = scene.posed_model(6)
    return scene, model


def test_unpose_zero_displacement_gives_zero_targets(posed_scene):
    scene, model = posed_scene
    clouds = []
    for k in range(4):
        cloud = LabeledPointCloud(k)
        posed = posed_vertices(model, k)
        for i in range(model.n_vertices):
            cloud.points[i] = PointRecord(posed[i], (0, 1), 0.0)
        clouds.append(cloud)
    cons = unpose_observations(model, clouds)
    assert np.abs(cons.targets).max() < 1e-9


def test_unpose_identity_pose_recovers_bump(posed_scene, rng):
    scene, model = posed_scene
    m = model.copy()
    q, t = m.identity_pose()
    m.pose_quats = np.tile(q, (2, 1, 1))
    m.root_translations = np.zeros((2, 3))
    bump = rng.uniform(-3, 3, (model.n_vertices, 3))
    cloud = LabeledPointCloud(0)
    for i in range(model.n_vertices):
        cloud.points[i] = PointRecord(m.rest_vertices[i] + bump[i], (0, 1), 0.0)
    cons = unpose_observations(m, [cloud])
    assert np.abs(cons.targets - bump[cons.vertex_idx]).max() < 1e-9


def test_unpose_generative_roundtrip(posed_scene, rng):
    scene, model = posed_scene
    bump = rng.uniform(-4, 4, (model.n_vertices, 3))
    clouds = []
    for k in range(3):
        G = joint_transforms(model, model.pose_quats[k], model.root_translations[k])
        posed = skin_with_transforms(model, G, model.rest_vertices + bump)
        cloud = LabeledPointCloud(k)
        for i in range(model.n_vertices):
            cloud.points[i] = PointRecord(posed[i], (0, 1), 0.0)
        clouds.append(cloud)
    cons = unpose_observations(model, clouds)
    assert np.abs(cons.targets - bump[cons.vertex_idx]).max() < 1e-8


def test_unpose_skips_singular_blend_and_keeps_other_targets(rng, caplog):
    # vertex 0 blends R(pi about x) half-half with the identity at frame 1:
    # diag(1, 0, 0), singular; every other blend stays invertible
    from suitcap.geometry import quat_from_rotvec
    from suitcap.skinning import SkinnedBodyModel

    n = 6
    W = np.tile([0.2, 0.8], (n, 1))
    W[0] = 0.5
    identity = quat_from_rotvec(np.zeros(3))
    flip = quat_from_rotvec(np.array([np.pi, 0.0, 0.0]))
    quats = np.stack([[identity, identity], [flip, identity]])
    model = SkinnedBodyModel(
        rng.uniform(-50, 50, (n, 3)), np.zeros((2, 3)), np.array([-1, -1]), W, quats, np.zeros((2, 3))
    )
    clouds = []
    for k in range(2):
        cloud = LabeledPointCloud(k)
        for i, p in enumerate(rng.uniform(-50, 50, (n, 3))):
            cloud.points[i] = PointRecord(p, (0, 1), 0.0)
        clouds.append(cloud)

    with caplog.at_level("WARNING", logger="suitcap.inpaint"):
        cons = unpose_observations(model, clouds)
    assert cons.skipped == [(1, 0)]
    assert "singular blend at frame 1 vertex 0" in caplog.text

    del clouds[1].points[0]
    ref = unpose_observations(model, clouds)
    assert ref.skipped == []
    assert np.array_equal(cons.frame_idx, ref.frame_idx)
    assert np.array_equal(cons.vertex_idx, ref.vertex_idx)
    assert cons.targets.tobytes() == ref.targets.tobytes()


def test_unpose_skips_never_observed(posed_scene):
    scene, model = posed_scene
    m = model.copy()
    m.never_observed[3] = True
    cloud = LabeledPointCloud(0)
    posed = posed_vertices(m, 0)
    for i in range(6):
        cloud.points[i] = PointRecord(posed[i], (0, 1), 0.0)
    cons = unpose_observations(m, [cloud])
    assert 3 not in set(cons.vertex_idx.tolist())


# ---------------------------------------------------------------------------
# cotangent Laplacian


def grid_layout(nx, ny):
    def vid(r, c):
        return r * nx + c

    faces = []
    for r in range(ny - 1):
        for c in range(nx - 1):
            faces.append((vid(r, c), vid(r, c + 1), vid(r + 1, c + 1), vid(r + 1, c)))
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    verts = np.stack([xs.ravel(), ys.ravel(), np.zeros(nx * ny)], axis=1)
    return faces, verts


def test_laplacian_annihilates_constants():
    layout = generate_synthetic_layout(3, 6)
    rest = np.random.default_rng(3).uniform(0, 100, (layout.n_corners, 3))
    L = build_spatial_laplacian(layout.faces, rest)
    assert np.abs(L @ np.ones(L.shape[0])).max() < 1e-9


def test_laplacian_grid_matches_five_point_stencil():
    faces, verts = grid_layout(5, 4)
    L = build_spatial_laplacian(faces, verts).toarray()
    n = len(verts)
    expected = np.zeros((n, n))

    def vid(r, c):
        return r * 5 + c

    for r in range(4):
        for c in range(5):
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = r + dr, c + dc
                if r2 < 4 and c2 < 5:
                    a, b = vid(r, c), vid(r2, c2)
                    # interior edges are shared by two right isoceles triangles
                    # (cot 45 deg = 1 each side), boundary edges by one
                    boundary = (dr == 0 and (r == 0 or r == 3)) or (
                        dc == 0 and (c == 0 or c == 4)
                    )
                    w = 0.5 if boundary else 1.0
                    expected[a, b] = expected[b, a] = -w
    np.fill_diagonal(expected, -expected.sum(axis=1))
    assert np.abs(L - expected).max() < 1e-12


def test_laplacian_is_psd_by_sampling(rng):
    layout = generate_synthetic_layout(4, 7)
    rest = rng.uniform(0, 100, (layout.n_corners, 3))
    L = build_spatial_laplacian(layout.faces, rest)
    for _ in range(1000):
        x = rng.normal(size=L.shape[0])
        assert x @ (L @ x) >= -1e-9 * (x @ x)


def test_laplacian_quads_split_along_shorter_diagonal():
    # a single skewed quad: the split choice changes the sparsity pattern
    faces = [(0, 1, 2, 3)]
    verts = np.array([[0.0, 0, 0], [4.0, 0, 0], [4.2, 1.0, 0], [0.1, 1.2, 0]])
    d02 = np.linalg.norm(verts[0] - verts[2])
    d13 = np.linalg.norm(verts[1] - verts[3])
    assert d13 < d02
    L = build_spatial_laplacian(faces, verts).toarray()
    assert L[1, 3] != 0.0  # the shorter diagonal carries weight
    assert L[0, 2] == 0.0


# ---------------------------------------------------------------------------
# window solve


def small_problem(rng, n_frames=3, observed_fraction=0.6, n_strips=2, codes=3):
    layout = generate_synthetic_layout(n_strips, codes)
    n = layout.n_corners
    rest = rng.uniform(0, 60, (n, 3))
    L = build_spatial_laplacian(layout.faces, rest)
    frame_idx = []
    vertex_idx = []
    targets = []
    for k in range(n_frames):
        for i in range(n):
            if rng.random() < observed_fraction:
                frame_idx.append(k)
                vertex_idx.append(i)
                targets.append(rng.uniform(-3, 3, 3))
    cons = Constraints(
        np.array(frame_idx), np.array(vertex_idx), np.array(targets).reshape(-1, 3), n_frames
    )
    return layout, L, cons


def test_fully_constrained_window_returns_targets(rng):
    layout, L, _ = small_problem(rng)
    n = layout.n_corners
    K = 3
    fi, vi = np.meshgrid(np.arange(K), np.arange(n), indexing="ij")
    targets = rng.uniform(-2, 2, (K * n, 3))
    cons = Constraints(fi.ravel(), vi.ravel(), targets, K)
    X, zeroed = solve_window(L, cons)
    assert not zeroed
    assert np.array_equal(X.reshape(-1, 3), targets)  # observed entries are assigned, not solved for


def test_zero_constraints_give_zero_field(rng):
    layout, L, cons = small_problem(rng)
    cons = Constraints(cons.frame_idx, cons.vertex_idx, np.zeros_like(cons.targets), 3)
    X, _ = solve_window(L, cons)
    assert np.abs(X).max() < 1e-10


def test_window_matches_dense_nullspace_oracle(rng):
    """<= 300-variable instance against a generic dense equality-constrained solve."""
    layout, L, cons = small_problem(rng, n_frames=3)  # 3 frames x <= 20 verts x 3 coords
    F, N = 3, L.shape[0]
    assert F * N * 3 <= 300 * 3
    X, _ = solve_window(L, cons)

    Ld = L.toarray()
    S = np.zeros((F - 2, F))
    for k in range(F - 2):
        S[k, k : k + 3] = (1.0, -2.0, 1.0)
    Q = np.kron(np.eye(F), Ld) + 100.0 * np.kron(S.T @ S, np.eye(N))
    flat = cons.frame_idx * N + cons.vertex_idx
    C = np.zeros((len(flat), F * N))
    C[np.arange(len(flat)), flat] = 1.0
    Z = null_space(C)
    for col in range(3):
        d = cons.targets[:, col]
        x_p = np.zeros(F * N)
        x_p[flat] = d
        y = np.linalg.solve(Z.T @ Q @ Z, -Z.T @ Q @ x_p)
        x = x_p + Z @ y
        assert np.abs(X[:, :, col].ravel() - x).max() < 1e-7


def test_window_constraint_satisfaction(rng):
    layout, L, cons = small_problem(rng, n_frames=4, observed_fraction=0.4)
    X, _ = solve_window(L, cons)
    assert np.array_equal(X[cons.frame_idx, cons.vertex_idx], cons.targets)


def test_window_local_optimality_probing(rng):
    layout, L, cons = small_problem(rng, n_frames=4, observed_fraction=0.5)
    X, _ = solve_window(L, cons)
    base = spatiotemporal_objective(L, X)
    constrained = set(zip(cons.frame_idx.tolist(), cons.vertex_idx.tolist()))
    F, N = X.shape[0], X.shape[1]
    probes = 0
    while probes < 1000:
        k = int(rng.integers(0, F))
        i = int(rng.integers(0, N))
        if (k, i) in constrained:
            continue
        c = int(rng.integers(0, 3))
        for eps in (1e-4, -1e-4):
            Xp = X.copy()
            Xp[k, i, c] += eps
            assert spatiotemporal_objective(L, Xp) >= base - 1e-12
        probes += 1


def test_single_frame_is_pure_spatial_hole_fill(rng):
    layout, L, _ = small_problem(rng)
    n = L.shape[0]
    observed = np.arange(0, n, 2)
    targets = rng.uniform(-2, 2, (len(observed), 3))
    cons = Constraints(np.zeros(len(observed), dtype=int), observed, targets, 1)
    X, _ = solve_window(L, cons)
    # classic Laplacian hole fill: L_ff x_f = -L_fo x_o per coordinate
    free = np.array([i for i in range(n) if i not in set(observed.tolist())])
    Ld = L.toarray()
    for col in range(3):
        rhs = -Ld[np.ix_(free, observed)] @ targets[:, col]
        x_free = np.linalg.solve(Ld[np.ix_(free, free)], rhs)
        assert np.abs(X[0, free, col] - x_free).max() < 1e-8


def test_unconstrained_component_zeroed(rng):
    layout = SuitLayout(
        n_corners=8,
        quad_table={"AA": (0, 1, 2, 3), "AB": (4, 5, 6, 7)},
        faces=[(0, 1, 2, 3), (4, 5, 6, 7)],
    )
    rest = rng.uniform(0, 10, (8, 3))
    L = build_spatial_laplacian(layout.faces, rest)
    cons = Constraints(
        np.array([0, 1, 2]), np.array([0, 1, 2]), rng.uniform(-1, 1, (3, 3)), 3
    )
    X, zeroed = solve_window(L, cons)
    assert zeroed  # the 4..7 component has no constraints
    assert np.abs(X[:, 4:]).max() == 0.0


def test_duplicate_constraints_raise(rng):
    layout, L, cons = small_problem(rng)
    dup = Constraints(
        np.append(cons.frame_idx, cons.frame_idx[0]),
        np.append(cons.vertex_idx, cons.vertex_idx[0]),
        np.vstack([cons.targets, cons.targets[:1] + 1.0]),
        cons.n_frames,
    )
    with pytest.raises(SingularKKT, match="duplicate"):
        solve_window(L, dup)


@pytest.mark.parametrize("n_frames", [2, 3, 5])
def test_component_constrained_in_one_frame_raises(rng, n_frames):
    # a spatially constant field, affine in time (arbitrary below three
    # frames), costs nothing and vanishes only at frame 0
    layout = generate_synthetic_layout(2, 3)
    n = layout.n_corners
    L = build_spatial_laplacian(layout.faces, rng.uniform(0, 60, (n, 3)))
    cons = Constraints(np.zeros(n, dtype=int), np.arange(n), rng.uniform(-1, 1, (n, 3)), n_frames)
    with pytest.raises(SingularKKT, match=r"component 0 is constrained only in frames \[0\] of"):
        solve_window(L, cons)


def test_two_frame_window_constrained_in_both_frames_solves(rng):
    layout, L, _ = small_problem(rng)
    n = L.shape[0]
    cons = Constraints(np.array([0, 1]), np.array([0, n - 1]), rng.uniform(-1, 1, (2, 3)), 2)
    X, _ = solve_window(L, cons)
    assert np.all(np.isfinite(X))
    assert np.array_equal(X[[0, 1], [0, n - 1]], cons.targets)


def test_empty_window_raises():
    layout = generate_synthetic_layout(2, 3)
    rest = np.random.default_rng(0).uniform(0, 10, (layout.n_corners, 3))
    L = build_spatial_laplacian(layout.faces, rest)
    with pytest.raises(SingularKKT):
        solve_window(L, Constraints(np.array([], int), np.array([], int), np.zeros((0, 3)), 3))


def second_difference(n_frames):
    """Interior-frame acceleration operator S; empty for fewer than 3 frames."""
    if n_frames < 3:
        return sparse.csr_matrix((0, n_frames))
    rows = np.repeat(np.arange(n_frames - 2), 3)
    cols = (np.arange(n_frames - 2)[:, None] + np.array([0, 1, 2])[None, :]).ravel()
    vals = np.tile([1.0, -2.0, 1.0], n_frames - 2)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n_frames - 2, n_frames))


def kron_blocks(Ls, n_frames, free, known, w_temporal):
    """Oracle: Q_ff and Q_fc sliced from Q = I_F ⊗ Ls + w·SᵀS ⊗ I built with two krons."""
    S = second_difference(n_frames)
    Q = sparse.kron(sparse.identity(n_frames, format="csr"), Ls, format="csr")
    if S.shape[0]:
        Q = Q + w_temporal * sparse.kron(S.T @ S, sparse.identity(Ls.shape[0], format="csr"), format="csr")
    Q_f = Q[free]
    return Q_f[:, free].tocsc(), Q_f[:, known]


@pytest.mark.parametrize("n_frames", [1, 2, 3, 7])
@pytest.mark.parametrize("w_temporal", [100.0, 0.0])
@pytest.mark.parametrize("shuffled", [False, True], ids=["frame-major", "shuffled"])
def test_free_blocks_equal_kron_blocks(rng, monkeypatch, n_frames, w_temporal, shuffled):
    # a tube, a quad strip that no constraint touches (the window zeroes it) and a
    # vertex in no face, observed in the first and last frames only
    scene = tube_scene(strips=4, codes_per_strip=8, seed=int(rng.integers(1000)))
    strip = generate_synthetic_layout(1, 3)
    n = scene.model.n_vertices
    lone = n + strip.n_corners
    faces = list(scene.layout.faces) + [tuple(int(v) + n for v in f) for f in strip.faces]
    rest = np.vstack([scene.model.rest_vertices, rng.uniform(0, 40, (strip.n_corners + 1, 3))])
    L = build_spatial_laplacian(faces, rest)
    observed = np.zeros((n_frames, lone + 1), dtype=bool)
    observed[:, :n] = rng.random((n_frames, n)) < 0.6
    observed[[0, -1], lone] = True
    fi, vi = np.nonzero(observed)
    order = rng.permutation(len(fi)) if shuffled else np.arange(len(fi))
    cons = Constraints(fi[order], vi[order], rng.uniform(-3, 3, (len(fi), 3)), n_frames)

    calls = []

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    real = inpaint._free_blocks
    monkeypatch.setattr(inpaint, "_free_blocks", recorded)
    try:
        X, zeroed = solve_window(L, cons, w_temporal)
        assert len(zeroed) == 1 and np.abs(X[:, n:lone]).max() == 0.0
    except SingularKKT:
        # without the temporal term nothing fills the lone vertex between its observations
        assert w_temporal == 0.0 and n_frames >= 3
    ((args, blocks),) = calls
    assert args[0].shape == (n + 1, n + 1)
    for got, want in zip(blocks, kron_blocks(*args)):
        assert got.format == want.format and got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


# ---------------------------------------------------------------------------
# sequence solve and blending


def frames_of(cons):
    """A take's constraints as the stream of single-frame constraints `solve_frames` reads."""
    for k in range(cons.n_frames):
        m = cons.frame_idx == k
        yield Constraints(np.zeros(np.count_nonzero(m), dtype=int), cons.vertex_idx[m], cons.targets[m], 1)


def solve_sequence(L, cons, plan):
    """The streamed solve as one (K, N, 3) array."""
    return np.stack(list(solve_frames(L, frames_of(cons), plan)))


def whole_take_blend(L, cons, plan, w_temporal=100.0):
    """Oracle: every window cut from the whole take's constraints and blended into one (K, N, 3) array."""
    K = cons.n_frames
    out = np.zeros((K, L.shape[0], 3))
    weights_new = plan.blend_weights()
    prev_end = None
    for s in plan.starts(K):
        stop = min(s + plan.window_length, K)
        m = (cons.frame_idx >= s) & (cons.frame_idx < stop)
        window = Constraints(cons.frame_idx[m] - s, cons.vertex_idx[m], cons.targets[m], stop - s)
        Xw, _ = solve_window(L, window, w_temporal)
        if prev_end is None:
            out[s:stop] = Xw
        else:
            overlap_len = prev_end - s
            w = weights_new[:overlap_len, None, None]
            out[s : s + overlap_len] = (1.0 - w) * out[s : s + overlap_len] + w * Xw[:overlap_len]
            out[s + overlap_len : stop] = Xw[overlap_len:]
        prev_end = stop
    return out


@pytest.mark.parametrize(
    "plan, n_frames, n_windows",
    [(WindowPlan(12, 8), 30, 6), (WindowPlan(12, 4), 20, 2), (WindowPlan(12, 4), 13, 2), (WindowPlan(12, 4), 10, 1)],
    ids=["overlap-longer-than-step", "take-ends-with-a-window", "one-frame-past-a-window", "one-window"],
)
def test_streamed_windows_equal_whole_take_blend(rng, plan, n_frames, n_windows):
    assert len(plan.starts(n_frames)) == n_windows
    layout, L, cons = small_problem(rng, n_frames=n_frames)
    expected = whole_take_blend(L, cons, plan)
    consumed = 0

    def counted():
        nonlocal consumed
        for c in frames_of(cons):
            consumed += 1
            yield c

    got = []
    for k, X in enumerate(solve_frames(L, counted(), plan)):
        # a frame leaves as soon as no later window reaches it: one window and one frame read ahead at most
        assert consumed <= k + plan.window_length + 1
        got.append(X.copy())
    assert np.array_equal(np.stack(got), expected)  # bitwise


@pytest.mark.parametrize("n_frames", [3, 12])  # 12 frames: exactly one window
def test_short_sequence_equals_single_window(rng, n_frames):
    layout, L, cons = small_problem(rng, n_frames=n_frames)
    plan = WindowPlan(12, 4)
    assert plan.starts(n_frames) == [0]
    seq = solve_sequence(L, cons, plan)
    win, _ = solve_window(L, cons)
    assert np.array_equal(seq, win)  # bitwise


def test_k120_equals_unwindowed_bitwise(rng):
    layout = generate_synthetic_layout(1, 3)
    n = layout.n_corners
    rest = rng.uniform(0, 40, (n, 3))
    L = build_spatial_laplacian(layout.faces, rest)
    K = 120
    fi, vi, tg = [], [], []
    for k in range(K):
        for i in range(n):
            if rng.random() < 0.5:
                fi.append(k)
                vi.append(i)
                tg.append(np.sin(k / 10.0) * np.ones(3) + rest[i] * 0.001)
    cons = Constraints(np.array(fi), np.array(vi), np.array(tg).reshape(-1, 3), K)
    seq = solve_sequence(L, cons, WindowPlan(150, 50))
    win, _ = solve_window(L, cons)
    assert np.array_equal(seq, win)


def test_blend_weights_partition_of_unity():
    plan = WindowPlan(150, 50)
    w = plan.blend_weights()
    assert len(w) == 50
    assert w[0] == 0.0 and w[-1] == 1.0
    assert np.all(np.diff(w) >= 0)
    assert np.abs((w + (1.0 - w)) - 1.0).max() < 1e-12


def test_windowed_sequence_matches_dense_and_stays_smooth(rng):
    layout = generate_synthetic_layout(1, 3)
    n = layout.n_corners
    rest = rng.uniform(0, 40, (n, 3))
    L = build_spatial_laplacian(layout.faces, rest)
    K = 250
    observed = np.arange(0, n, 2)
    hidden = np.arange(1, n, 2)
    fi, vi, tg = [], [], []
    for k in range(K):
        for i in observed:
            fi.append(k)
            vi.append(i)
            tg.append(np.array([np.sin(k / 25.0), np.cos(k / 40.0), 0.01 * i]))
    cons = Constraints(np.array(fi), np.array(vi), np.array(tg).reshape(-1, 3), K)
    seq = solve_sequence(L, cons, WindowPlan(150, 50))
    dense, _ = solve_window(L, cons)

    # observed entries equal their targets everywhere, including overlaps
    err = np.abs(seq[cons.frame_idx, cons.vertex_idx] - cons.targets).max()
    assert err < 1e-8 * (1.0 + np.abs(cons.targets).max())

    jumps_windowed = np.abs(np.diff(seq[:, hidden, :], axis=0)).max()
    jumps_dense = np.abs(np.diff(dense[:, hidden, :], axis=0)).max()
    assert jumps_windowed <= jumps_dense + 1e-6


# ---------------------------------------------------------------------------
# complete_mesh


def test_complete_mesh_zero_displacement_is_pure_lbs(posed_scene):
    scene, model = posed_scene
    got = complete_mesh(model, np.zeros((model.n_vertices, 3)), 1)
    assert np.abs(got - posed_vertices(model, 1)).max() < 1e-12


def test_complete_mesh_reproduces_observations(posed_scene):
    scene, model = posed_scene
    clouds = truth_clouds(scene, 3)
    L = build_spatial_laplacian(scene.layout.faces, model.rest_vertices)
    frames = (unpose_observations(model, [c], k) for k, c in enumerate(clouds))
    X = list(solve_frames(L, frames, WindowPlan(150, 50)))
    for k, cloud in enumerate(clouds):
        full = complete_mesh(model, X[k], k)
        for cid, rec in cloud.points.items():
            assert np.linalg.norm(full[cid] - rec.position) < 1e-6


def test_animation_binary_roundtrip(tmp_path, rng):
    positions = rng.uniform(-100, 100, (4, 7, 3)).astype(np.float32)
    path = tmp_path / "anim.bin"
    with open(path, "wb") as f:
        f.write(animation_header(4, 7))
        write_animation_binary(f, positions[:1])
        for frame in positions[1:]:
            write_animation_binary(f, frame)
    back = read_animation_binary(path)
    assert back.shape == (4, 7, 3)
    assert np.array_equal(back, positions)
