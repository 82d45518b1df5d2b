import json
import warnings

import numpy as np
import pytest

from scipy.spatial import cKDTree

from suitcap import refine, registration, skinning
from suitcap.errors import InsufficientSeeds
from suitcap.geometry import quat_from_rotvec
from suitcap.meshes import closest_point_on_triangles, edge_graph, geodesic_to_sources, vertex_normals
from suitcap.reconstruct import LabeledPointCloud, PointRecord
from suitcap.registration import (
    _closest_on_surface,
    load_template,
    register_icp,
    save_template,
)
from suitcap.simulator import stick_figure_scene, truth_clouds, tube_scene


@pytest.fixture(scope="module")
def template_scene():
    scene = tube_scene(strips=6, codes_per_strip=10, seed=9)
    return scene, (scene.model, scene.triangles)


def surface_cloud(template, rng, n_pts, frame=0):
    model, triangles = template
    tris = rng.integers(0, len(triangles), n_pts)
    bary = rng.dirichlet([1.0, 1.0, 1.0], n_pts)
    pts = np.einsum("nc,nci->ni", bary, model.rest_vertices[triangles[tris]])
    cloud = LabeledPointCloud(frame)
    for i in range(n_pts):
        cloud.points[i] = PointRecord(pts[i], (0, 1), 0.0)
    return cloud, tris, bary, pts


def test_self_registration_is_exact(template_scene, rng):
    scene, template = template_scene
    cloud, tris, bary, pts = surface_cloud(template, rng, scene.layout.n_corners)
    seeds = {i: (int(tris[i]), bary[i]) for i in range(12)}
    res = register_icp(cloud, template, seeds, scene.layout)
    assert res.mean_residuals[-1] < 1e-6
    assert np.abs(res.model.rest_vertices - pts).max() < 1e-6
    assert np.abs(res.model.weights.sum(axis=1) - 1.0).max() < 1e-9


def test_registration_with_normal_noise(template_scene, rng):
    scene, template = template_scene
    n = scene.layout.n_corners
    cloud, tris, bary, pts = surface_cloud(template, rng, n)
    model, triangles = template
    normals = vertex_normals(model.rest_vertices, triangles)
    vn = np.einsum("nc,nci->ni", bary, normals[triangles[tris]])
    vn /= np.linalg.norm(vn, axis=1, keepdims=True)
    offsets = rng.normal(0.0, 1.0, n)
    for i in range(n):
        cloud.points[i] = PointRecord(pts[i] + offsets[i] * vn[i], (0, 1), 0.0)
    seeds = {i: (int(tris[i]), bary[i]) for i in range(14)}
    res = register_icp(cloud, template, seeds, scene.layout)
    assert res.mean_residuals[-1] <= 1.5  # mm


def test_insufficient_seeds_raises(template_scene, rng):
    scene, template = template_scene
    cloud, tris, bary, _ = surface_cloud(template, rng, 100)
    seeds = {i: (int(tris[i]), bary[i]) for i in range(9)}
    with pytest.raises(InsufficientSeeds):
        register_icp(cloud, template, seeds, scene.layout)


def test_hidden_corners_registered_from_later_frames(template_scene, rng):
    """Corners unobserved initially are picked up from subsequent frames."""
    scene, template = template_scene
    K = 6
    clouds = truth_clouds(scene, K)
    full0 = clouds[0]
    n = scene.layout.n_corners
    hide = set(rng.choice(sorted(full0.points), size=n // 10, replace=False).tolist())
    for i in hide:
        del full0.points[i]

    # seeds: exact correspondences for a few observed corners, derived from the
    # generative model (identity pose frame 0 equals the rest pose surface)
    from suitcap.meshes import closest_point_on_triangles

    seed_ids = sorted(full0.points)[:15]
    seeds = {}
    surface = scene.model.rest_vertices[scene.triangles]
    for cid in seed_ids:
        p = full0.points[cid].position
        cp, cb = closest_point_on_triangles(p, surface)
        t = int(np.argmin(np.linalg.norm(cp - p, axis=1)))
        seeds[cid] = (t, cb[t])
    res = register_icp(full0, template, seeds, scene.layout, extra_clouds=clouds[1:])
    observed_anywhere = set()
    for c in [full0] + clouds[1:]:
        observed_anywhere.update(c.points)
    assert res.registered[sorted(observed_anywhere)].all()
    assert res.registered.sum() >= n - 5  # near-total coverage including revealed corners


def test_component_without_registered_corner_raises():
    """A tube none of whose corners is observed cannot be placed: a typed error, not NaN weights."""
    scene = stick_figure_scene(seed=0)
    layout, rest = scene.layout, scene.model.rest_vertices
    cloud = truth_clouds(scene, 1)[0]
    tube = np.flatnonzero(np.isfinite(geodesic_to_sources(edge_graph(rest, layout.edges()), [layout.n_corners - 1])))
    assert 0 < len(tube) < layout.n_corners  # the stick figure is one component per tube
    for cid in tube.tolist():
        del cloud.points[cid]
    seeds = {}
    surface = rest[scene.triangles]
    for cid in sorted(cloud.points)[::86]:
        cp, cb = closest_point_on_triangles(rest[cid], surface)
        t = int(np.argmin(np.linalg.norm(cp - rest[cid], axis=1)))
        seeds[cid] = (t, cb[t])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InsufficientSeeds, match=f"component\\(s\\) of corners {tube[0]}-{tube[-1]}$"):
            register_icp(cloud, (scene.model, scene.triangles), seeds, layout)


def test_template_file_roundtrip(template_scene, tmp_path):
    _, (model, triangles) = template_scene
    path = tmp_path / "template.json"
    save_template((model, triangles), path)
    back, back_triangles = load_template(path)
    assert np.array_equal(back.rest_vertices, model.rest_vertices)
    assert np.array_equal(back_triangles, triangles)
    assert np.array_equal(back.joints, model.joints)
    assert np.array_equal(back.parents, model.parents)
    assert np.array_equal(back.weights, model.weights)


def test_template_weights_within_template_tolerance_register(template_scene, rng, tmp_path):
    """Rows that sum to 1 within the template's 1e-6 are normalized once and register exactly."""
    scene, (exact, triangles) = template_scene
    signs = np.where(np.arange(exact.n_vertices) % 2 == 0, 1.0, -1.0)
    path = tmp_path / "template.json"
    save_template((exact, triangles), path)
    doc = json.loads(path.read_text())
    doc["weights"] = [[i, j, w * (1.0 + 5e-7 * signs[i])] for i, j, w in doc["weights"]]
    path.write_text(json.dumps(doc))
    rows = np.zeros(exact.n_vertices)
    np.add.at(rows, [i for i, _, _ in doc["weights"]], [w for _, _, w in doc["weights"]])
    assert np.abs(np.abs(rows - 1.0) - 5e-7).max() < 1e-12
    template = load_template(path)
    assert np.abs(template[0].weights.sum(axis=1) - 1.0).max() < 1e-12
    cloud, tris, bary, pts = surface_cloud(template, rng, scene.layout.n_corners)
    seeds = {i: (int(tris[i]), bary[i]) for i in range(12)}
    res = register_icp(cloud, template, seeds, scene.layout)
    assert res.converged
    assert res.mean_residuals[-1] < 1e-6  # mm
    assert np.abs(res.model.rest_vertices[: len(pts)] - pts).max() < 1e-6  # mm


def _closest_by_point(points, surface_vertices, triangles, k):
    """Per-point candidate search: the loop that `_closest_on_surface` batches, kept as its oracle."""
    centroids = surface_vertices[triangles].mean(axis=1)
    _, cand = cKDTree(centroids).query(points, k=k)
    cand = cand.reshape(len(points), -1)
    tris = np.empty(len(points), dtype=int)
    bary = np.empty((len(points), 3))
    dist = np.empty(len(points))
    for i, p in enumerate(points):
        cp, cb = closest_point_on_triangles(p, surface_vertices[triangles[cand[i]]])
        d = np.linalg.norm(cp - p, axis=1)
        j = int(np.argmin(d))
        tris[i] = cand[i][j]
        bary[i] = cb[j]
        dist[i] = d[j]
    return tris, bary, dist


def _stick_figure_surface():
    scene = stick_figure_scene(seed=0)
    return scene.model.rest_vertices, scene.triangles


def _few_triangles_surface():
    scene = tube_scene(strips=4, codes_per_strip=8, seed=4)
    return scene.model.rest_vertices, scene.triangles[:30]


def _one_triangle_surface():
    return np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [0.0, 80.0, 0.0]]), np.array([[0, 1, 2]])


@pytest.mark.parametrize(
    "surface, k",
    [(_stick_figure_surface, 48), (_few_triangles_surface, 30), (_one_triangle_surface, 1)],
    ids=["stick_figure", "few_triangles", "one_triangle"],
)
def test_closest_on_surface_matches_per_point_oracle_bitwise(surface, k):
    vertices, triangles = surface()
    rng = np.random.default_rng(601)
    n = 1301
    tris = rng.integers(0, len(triangles), n)
    bary = rng.dirichlet([1.0, 1.0, 1.0], n)
    points = np.einsum("nc,nci->ni", bary, vertices[triangles[tris]]) + rng.normal(scale=5.0, size=(n, 3))

    got = _closest_on_surface(points, vertices, triangles)
    want = _closest_by_point(points, vertices, triangles, k)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize(
    "build",
    [lambda: tube_scene(strips=6, codes_per_strip=10, seed=9), lambda: stick_figure_scene(seed=0)],
    ids=["tube", "stick_figure"],
)
def test_template_fit_normal_equations_match_central_differences(build, monkeypatch):
    """The template fit's (J'J, J'r) against J from central differences through its retraction."""
    scene = build()
    model = scene.model
    rng = np.random.default_rng(12)
    M, n = model.n_joints, 200
    corners = scene.triangles[rng.integers(0, len(scene.triangles), n)]
    bary = rng.dirichlet([1.0, 1.0, 1.0], n)
    targets = np.einsum("nc,nci->ni", bary, model.rest_vertices[corners])
    targets += rng.normal(scale=20.0, size=(n, 3))
    state = (quat_from_rotvec(rng.normal(scale=0.3, size=(M, 3))), rng.normal(scale=30.0, size=3),
             rng.normal(scale=0.2, size=M))

    handed = {}

    def driver(x, evaluate, retract, iterations):
        handed.update(evaluate=evaluate, retract=retract)
        return x, evaluate(x)

    monkeypatch.setattr(registration, "damped_gauss_newton", driver)
    registration._fit_params(model, state, corners, bary, targets)
    H, g = handed["evaluate"](state)[1]()

    def residuals(s):
        return (np.einsum("nc,nci->ni", bary, registration._deform(model, s)[corners]) - targets).ravel()

    h = 1e-5
    J = np.column_stack([
        (residuals(handed["retract"](state, h * e)) - residuals(handed["retract"](state, -h * e))) / (2 * h)
        for e in np.eye(4 * M + 3)
    ])
    assert H.shape == (4 * M + 3, 4 * M + 3)
    assert np.abs(H - J.T @ J).max() < 1e-6 * np.abs(J.T @ J).max()
    assert np.abs(g - J.T @ residuals(state)).max() < 1e-6 * np.abs(J.T @ residuals(state)).max()


def test_template_fit_builds_joint_transforms_once_per_evaluation(template_scene, rng, monkeypatch):
    """Each state the driver evaluates makes one `joint_transforms` call; its normal equations make none."""
    scene, template = template_scene
    calls, joint_transforms = [], skinning.joint_transforms

    def counted(*args):
        calls.append(args)
        return joint_transforms(*args)

    for module in (registration, refine, skinning):
        monkeypatch.setattr(module, "joint_transforms", counted)
    per_evaluation, per_normal_equations = [], []

    def driver(x, evaluate, retract, iterations):
        def counting_evaluate(x):
            before = len(calls)
            cost, normal_equations = evaluate(x)[:2]
            per_evaluation.append(len(calls) - before)

            def counting_normal_equations():
                before = len(calls)
                H, g = normal_equations()
                per_normal_equations.append(len(calls) - before)
                return H, g

            return cost, counting_normal_equations

        return refine.damped_gauss_newton(x, counting_evaluate, retract, iterations)

    monkeypatch.setattr(registration, "damped_gauss_newton", driver)
    cloud, tris, bary, _ = surface_cloud(template, rng, scene.layout.n_corners)
    register_icp(cloud, template, {i: (int(tris[i]), bary[i]) for i in range(12)}, scene.layout)
    assert set(per_evaluation) == {1}
    assert set(per_normal_equations) == {0}
