import numpy as np
import pytest
from scipy.linalg import null_space

from suitcap.errors import SingularKKT
from suitcap.inpaint import (
    Constraints,
    DisplacementField,
    WindowPlan,
    build_spatial_laplacian,
    complete_mesh,
    read_animation_binary,
    solve_sequence,
    solve_window,
    spatiotemporal_objective,
    unpose_observations,
    write_animation_binary,
)
from suitcap.layout import SuitLayout, generate_synthetic_layout
from suitcap.reconstruct import LabeledPointCloud, PointRecord
from suitcap.simulator import truth_clouds, tube_scene


# ---------------------------------------------------------------------------
# unpose


@pytest.fixture(scope="module")
def posed_scene():
    scene = tube_scene(strips=4, codes_per_strip=8, seed=13, animation_strength=0.8)
    model = scene.posed_model(6)
    return scene, model


def test_unpose_zero_displacement_gives_zero_targets(posed_scene):
    scene, model = posed_scene
    from suitcap.skinning import skin_all

    clouds = []
    for k in range(4):
        cloud = LabeledPointCloud(k)
        posed = skin_all(model, k)
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
    from suitcap.skinning import joint_transforms, skin_with_transforms

    bump = rng.uniform(-4, 4, (model.n_vertices, 3))
    clouds = []
    for k in range(3):
        G = joint_transforms(model, model.pose_quats[k], model.root_translations[k])
        posed = skin_with_transforms(model, G, rest_override=model.rest_vertices + bump)
        cloud = LabeledPointCloud(k)
        for i in range(model.n_vertices):
            cloud.points[i] = PointRecord(posed[i], (0, 1), 0.0)
        clouds.append(cloud)
    cons = unpose_observations(model, clouds)
    assert np.abs(cons.targets - bump[cons.vertex_idx]).max() < 1e-8


def test_unpose_skips_never_observed(posed_scene):
    scene, model = posed_scene
    m = model.copy()
    m.never_observed[3] = True
    cloud = LabeledPointCloud(0)
    from suitcap.skinning import skin_all

    posed = skin_all(m, 0)
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
    L = build_spatial_laplacian(layout, rest)
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
    L = build_spatial_laplacian(layout, rest)
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
    L = build_spatial_laplacian(layout, rest)
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
        np.array(frame_idx), np.array(vertex_idx), np.array(targets).reshape(-1, 3), n_frames, n
    )
    return layout, L, cons


def test_fully_constrained_window_returns_targets(rng):
    layout, L, _ = small_problem(rng)
    n = layout.n_corners
    K = 3
    fi, vi = np.meshgrid(np.arange(K), np.arange(n), indexing="ij")
    targets = rng.uniform(-2, 2, (K * n, 3))
    cons = Constraints(fi.ravel(), vi.ravel(), targets, K, n)
    X, zeroed = solve_window(L, cons)
    assert not zeroed
    assert np.array_equal(X.reshape(-1, 3), targets)  # observed entries are assigned, not solved for


def test_zero_constraints_give_zero_field(rng):
    layout, L, cons = small_problem(rng)
    cons = Constraints(cons.frame_idx, cons.vertex_idx, np.zeros_like(cons.targets), 3, L.shape[0])
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
    cons = Constraints(np.zeros(len(observed), dtype=int), observed, targets, 1, n)
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
    L = build_spatial_laplacian(layout, rest)
    cons = Constraints(
        np.array([0, 1, 2]), np.array([0, 1, 2]), rng.uniform(-1, 1, (3, 3)), 3, 8
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
        cons.n_vertices,
    )
    with pytest.raises(SingularKKT, match="duplicate"):
        solve_window(L, dup)


@pytest.mark.parametrize("n_frames", [2, 3, 5])
def test_component_constrained_in_one_frame_raises(rng, n_frames):
    # a spatially constant field, affine in time (arbitrary below three
    # frames), costs nothing and vanishes only at frame 0
    layout = generate_synthetic_layout(2, 3)
    n = layout.n_corners
    L = build_spatial_laplacian(layout, rng.uniform(0, 60, (n, 3)))
    cons = Constraints(np.zeros(n, dtype=int), np.arange(n), rng.uniform(-1, 1, (n, 3)), n_frames, n)
    with pytest.raises(SingularKKT, match=r"component 0 is constrained only in frames \[0\] of"):
        solve_window(L, cons)


def test_two_frame_window_constrained_in_both_frames_solves(rng):
    layout, L, _ = small_problem(rng)
    n = L.shape[0]
    cons = Constraints(np.array([0, 1]), np.array([0, n - 1]), rng.uniform(-1, 1, (2, 3)), 2, n)
    X, _ = solve_window(L, cons)
    assert np.all(np.isfinite(X))
    assert np.array_equal(X[[0, 1], [0, n - 1]], cons.targets)


def test_empty_window_raises():
    layout = generate_synthetic_layout(2, 3)
    rest = np.random.default_rng(0).uniform(0, 10, (layout.n_corners, 3))
    L = build_spatial_laplacian(layout, rest)
    with pytest.raises(SingularKKT):
        solve_window(L, Constraints(np.array([], int), np.array([], int), np.zeros((0, 3)), 3, L.shape[0]))


# ---------------------------------------------------------------------------
# sequence solve and blending


def test_short_sequence_equals_single_window(rng):
    layout, L, cons = small_problem(rng, n_frames=3)
    plan = WindowPlan(150, 50)
    seq = solve_sequence(L, cons, plan)
    win, _ = solve_window(L, cons, n_frames=3)
    assert np.array_equal(seq.X, win)  # bitwise


def test_k120_equals_unwindowed_bitwise(rng):
    layout = generate_synthetic_layout(1, 3)
    n = layout.n_corners
    rest = rng.uniform(0, 40, (n, 3))
    L = build_spatial_laplacian(layout, rest)
    K = 120
    fi, vi, tg = [], [], []
    for k in range(K):
        for i in range(n):
            if rng.random() < 0.5:
                fi.append(k)
                vi.append(i)
                tg.append(np.sin(k / 10.0) * np.ones(3) + rest[i] * 0.001)
    cons = Constraints(np.array(fi), np.array(vi), np.array(tg).reshape(-1, 3), K, n)
    seq = solve_sequence(L, cons, WindowPlan(150, 50))
    win, _ = solve_window(L, cons, n_frames=K)
    assert np.array_equal(seq.X, win)


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
    L = build_spatial_laplacian(layout, rest)
    K = 250
    observed = np.arange(0, n, 2)
    hidden = np.arange(1, n, 2)
    fi, vi, tg = [], [], []
    for k in range(K):
        for i in observed:
            fi.append(k)
            vi.append(i)
            tg.append(np.array([np.sin(k / 25.0), np.cos(k / 40.0), 0.01 * i]))
    cons = Constraints(np.array(fi), np.array(vi), np.array(tg).reshape(-1, 3), K, n)
    seq = solve_sequence(L, cons, WindowPlan(150, 50))
    dense, _ = solve_window(L, cons, n_frames=K)

    # observed entries equal their targets everywhere, including overlaps
    err = np.abs(seq.X[cons.frame_idx, cons.vertex_idx] - cons.targets).max()
    assert err < 1e-8 * (1.0 + np.abs(cons.targets).max())

    jumps_windowed = np.abs(np.diff(seq.X[:, hidden, :], axis=0)).max()
    jumps_dense = np.abs(np.diff(dense[:, hidden, :], axis=0)).max()
    assert jumps_windowed <= jumps_dense + 1e-6


# ---------------------------------------------------------------------------
# complete_mesh


def test_complete_mesh_zero_displacement_is_pure_lbs(posed_scene):
    scene, model = posed_scene
    from suitcap.skinning import skin_all

    field = DisplacementField(np.zeros((2, model.n_vertices, 3)))
    got = complete_mesh(model, field, 1)
    assert np.abs(got - skin_all(model, 1)).max() < 1e-12


def test_complete_mesh_reproduces_observations(posed_scene):
    scene, model = posed_scene
    clouds = truth_clouds(scene, 3)
    L = build_spatial_laplacian(scene.layout, model.rest_vertices)
    cons = unpose_observations(model, clouds)
    field = solve_sequence(L, cons, WindowPlan(150, 50))
    for k, cloud in enumerate(clouds):
        full = complete_mesh(model, field, k)
        for cid, rec in cloud.points.items():
            assert np.linalg.norm(full[cid] - rec.position) < 1e-6


def test_animation_binary_roundtrip(tmp_path, rng):
    positions = rng.uniform(-100, 100, (4, 7, 3)).astype(np.float32)
    path = tmp_path / "anim.bin"
    write_animation_binary(path, positions)
    back = read_animation_binary(path)
    assert back.shape == (4, 7, 3)
    assert np.array_equal(back, positions)
