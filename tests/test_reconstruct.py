import hashlib
import itertools
import json
from collections import defaultdict

import numpy as np
import pytest
from conftest import mixed_ring_rig, ring_rig
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from suitcap.detection import DetectionFrame, OracleNoiseConfig, oracle_detect
from suitcap.geometry import CameraArrays, normalized_coords, project_jacobian, project_many
from suitcap.layout import SuitLayout
from suitcap.reconstruct import (
    REASON_CONFLICT,
    REASON_MISLABEL,
    REASON_RESIDUAL,
    REASON_TOO_FEW,
    DiscardRecord,
    LabeledPointCloud,
    PointRecord,
    cloud_from_json,
    cloud_to_json,
    consolidate_labels,
    filter_mislabels,
    group_frames,
    read_clouds,
    reconstruct_frame,
    write_clouds,
)
from suitcap.simulator import compute_visibility, tube_scene
from suitcap.triangulate import (
    GRADIENT_TOL,
    MAX_ITERATIONS,
    MIN_RAY_ANGLE_DEG,
    TriangulationResult,
    _point_costs,
    linear_initialization,
    project_cams,
    ray_spread_flags,
    triangulate_points,
)

def square_layout():
    # two horizontally adjacent coded quads sharing corners 1 and 4
    return SuitLayout(
        n_corners=8,
        quad_table={"AA": (0, 1, 4, 3), "AB": (1, 2, 5, 4)},
        faces=[(0, 1, 4, 3), (1, 2, 5, 4)],
    )


def make_frame(quads, codes, n_corners=6, cam=0, frame=0):
    corners = [(10.0 * i, 5.0) for i in range(n_corners)]
    return DetectionFrame(frame, cam, corners, np.ones(n_corners), quads, codes, np.ones(len(codes)))


def test_consolidate_agreeing_readings_label_shared_corners():
    layout = square_layout()
    frame = make_frame([(0, 1, 4, 3), (1, 2, 5, 4)], ["AA", "AB"])
    obs, conflicts = consolidate_labels(frame, layout)
    assert not conflicts
    # (corner_id, detection_index) rows in corner order; detections 1 and 4
    # are shared by both readings, which agree on their labels
    assert obs.tolist() == [[i, i] for i in range(6)]


def test_consolidate_disagreement_drops_corner():
    layout = square_layout()
    # second reading claims the wrong code, so the shared detections disagree
    frame = make_frame([(0, 1, 4, 3), (1, 2, 5, 4)], ["AA", "AA"])
    obs, conflicts = consolidate_labels(frame, layout)
    assert conflicts
    assert all(c.reason == REASON_CONFLICT and c.camera_id == 0 for c in conflicts)
    # detections 1 and 4 (shared between the quads) received contradictory
    # labels and were dropped; the mislabeled quad's other detections survive
    # with wrong-but-consistent labels (the downstream filter's job)
    assert 1 not in obs[:, 1] and 4 not in obs[:, 1]
    assert obs[:, 0].tolist() == [0, 1, 3, 4]


def _consolidate_reference(frame, layout):
    """The per-detection loop that `consolidate_labels` vectorizes."""
    proposals = defaultdict(list)
    for quad, code in zip(frame.quads.tolist(), frame.codes):
        if code in layout.quad_table:
            for i_q in (1, 2, 3, 4):
                proposals[quad[i_q - 1]].append(layout.label(code, i_q))
    conflicts, by_id = [], defaultdict(list)
    for det in sorted(proposals):
        ids = sorted(set(proposals[det]))
        if len(ids) != 1:
            conflicts += ids
            continue
        by_id[ids[0]].append(det)
    obs = []
    for cid in sorted(by_id):
        if len(by_id[cid]) != 1:
            conflicts.append(cid)
        else:
            obs.append([cid, by_id[cid][0]])
    return obs, conflicts


def test_consolidate_matches_loop_reference(rng):
    layout = square_layout()
    codes = ["AA", "AB", "ZZ"]  # ZZ is not in the layout
    for _ in range(500):
        r = int(rng.integers(0, 5))
        quads = rng.integers(0, 6, (r, 4))
        frame = make_frame(quads, [codes[i] for i in rng.integers(0, 3, r)])
        obs, conflicts = consolidate_labels(frame, layout)
        ref_obs, ref_conflicts = _consolidate_reference(frame, layout)
        assert obs.tolist() == ref_obs
        assert [c.corner_id for c in conflicts] == ref_conflicts
        assert all(c.reason == REASON_CONFLICT and c.camera_id == 0 for c in conflicts)


def test_consolidate_noiseless_oracle_matches_truth():
    scene = tube_scene(n_cameras=4, strips=3, codes_per_strip=6, seed=31)
    pos = scene.positions(0)
    vis = compute_visibility(scene, 0, positions=pos)
    cam = scene.rig.cameras[2]
    frame = oracle_detect(
        0, cam, pos, vis.visible_corners[cam.id], vis.visible_quads[cam.id],
        scene.layout, OracleNoiseConfig(seed=1),
    )
    obs, conflicts = consolidate_labels(frame, scene.layout)
    assert not conflicts
    assert len(obs)
    for cid, det in obs:
        assert np.abs(frame.corners[det] - project_many(cam, pos[cid])[0][0]).max() < 1e-12


# ---------------------------------------------------------------------------
# triangulate


def triangulate_one(rig, p, cams):
    """Solve one point from exact projections in `cams`."""
    pix = np.array([project_many(c, p)[0][0] for c in cams])
    arr = CameraArrays.from_rig(rig)
    return triangulate_points(arr, np.zeros(len(cams), dtype=int), arr.rows_of([c.id for c in cams]), pix, 1)


def assert_exact(res, p):
    assert np.linalg.norm(res.points[0] - p) < 1e-6
    assert res.converged[0] and not res.parallel[0]
    assert res.obs_errors.max() < 1e-8


def test_triangulate_two_cameras_exact(rig4):
    p = np.array([120.0, -40.0, 1030.0])
    assert_exact(triangulate_one(rig4, p, rig4.cameras[:2]), p)


def test_triangulate_sixteen_cameras_exact(rig16):
    p = np.array([-80.0, 55.0, 1210.0])
    assert_exact(triangulate_one(rig16, p, rig16.cameras), p)


def test_triangulate_mixed_distortion_exact(mixed_rig, rng):
    # every camera subset mixes distorted (even) and pinhole (odd) cameras
    for n_cams in (2, 3, 5, 8):
        for _ in range(5):
            p = rng.uniform([-600.0, -600.0, 500.0], [600.0, 600.0, 1500.0])
            first = int(rng.integers(0, 8))
            cams = [mixed_rig.cameras[(first + k) % 8] for k in range(n_cams)]
            assert_exact(triangulate_one(mixed_rig, p, cams), p)


def test_triangulate_parallel_rays_flagged():
    # two cameras at the same position looking the same way: identical rays
    from conftest import look_at_camera
    from suitcap.geometry import CameraRig

    a = look_at_camera(0, (3000.0, 0.0, 1000.0), (0, 0, 1000.0))
    b = look_at_camera(1, (3000.0, 0.0, 1000.0), (0, 0, 1000.0))
    res = triangulate_one(CameraRig([a, b]), np.array([10.0, 5.0, 1000.0]), [a, b])
    assert res.parallel[0]
    assert not res.converged[0]


def test_lm_objective_never_worse_than_linear(rig4, rng):
    from suitcap.triangulate import (
        CameraArrays,
        linear_initialization,
        project_cams,
        triangulate_points,
    )

    arr = CameraArrays.from_rig(rig4)
    wins = 0
    for _ in range(1000):
        p = np.array([rng.uniform(-300, 300), rng.uniform(-300, 300), rng.uniform(700, 1300)])
        pix = np.array([project_many(c, p)[0][0] + rng.normal(0, 0.5, 2) for c in rig4])
        cam_idx = np.arange(4)
        point_index = np.zeros(4, dtype=int)
        lin = linear_initialization(arr, point_index, cam_idx, pix, 1)
        uv, _ = project_cams(arr, cam_idx, np.repeat(lin, 4, axis=0))
        cost_lin = np.sum((uv - pix) ** 2)
        res = triangulate_points(arr, point_index, cam_idx, pix, 1)
        uv, _ = project_cams(arr, cam_idx, np.repeat(res.points, 4, axis=0))
        cost_lm = np.sum((uv - pix) ** 2)
        assert cost_lm <= cost_lin + 1e-12
        wins += cost_lm < cost_lin
    assert wins > 900  # the refinement genuinely improves noisy solves


def test_lm_matches_grid_search_oracle(rig4, rng):
    """Spot-check the LM solution against a dense 0.01 mm lattice around truth."""
    from suitcap.triangulate import CameraArrays, project_cams, triangulate_points

    arr = CameraArrays.from_rig(rig4)
    for _ in range(10):
        p = np.array([rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(800, 1200)])
        pix = np.array([project_many(c, p)[0][0] + rng.normal(0, 0.5, 2) for c in rig4])
        cam_idx = np.arange(4)
        res = triangulate_points(arr, np.zeros(4, dtype=int), cam_idx, pix, 1)
        lm_err = np.linalg.norm(res.points[0] - p)

        def objective(q):
            uv, _ = project_cams(arr, cam_idx, np.repeat(q.reshape(1, 3), 4, axis=0))
            return float(np.sum((uv - pix) ** 2))

        # coarse 0.1 mm lattice over +-1.2 mm, then fine 0.01 mm around the best cell
        best = None
        for step, half in ((0.1, 1.2), (0.01, 0.12)):
            center = p if best is None else best
            axes = [np.arange(-half, half + step / 2, step) + c for c in center]
            gx, gy, gz = np.meshgrid(*axes, indexing="ij")
            grid = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
            from suitcap.triangulate import project_cams as pc

            costs = np.empty(len(grid))
            for c_i in range(4):
                uv, _ = pc(arr, np.full(len(grid), c_i), grid)
                d = uv - pix[c_i]
                costs_c = np.sum(d * d, axis=1)
                costs = costs_c if c_i == 0 else costs + costs_c
            best = grid[int(np.argmin(costs))]
        grid_err = np.linalg.norm(best - p)
        assert lm_err <= 2.0 * grid_err + 0.02


# The add.at forms that triangulate.py used before its sums became per-column
# np.bincount calls and its LM loop moved onto the active points' rows. Both
# add in row order, so the kernels must reproduce these oracles bit for bit.


def _linear_initialization_add_at(arr, point_index, cam_idx, pixels, n_points):
    nc = normalized_coords(arr, cam_idx, pixels)
    R = arr.R[cam_idx]
    t = arr.t[cam_idx]
    a1 = nc[:, 0, None] * R[:, 2, :] - R[:, 0, :]
    b1 = t[:, 0] - nc[:, 0] * t[:, 2]
    a2 = nc[:, 1, None] * R[:, 2, :] - R[:, 1, :]
    b2 = t[:, 1] - nc[:, 1] * t[:, 2]

    AtA = np.zeros((n_points, 3, 3))
    Atb = np.zeros((n_points, 3))
    for a, b in ((a1, b1), (a2, b2)):
        np.add.at(AtA, point_index, a[:, :, None] * a[:, None, :])
        np.add.at(Atb, point_index, a * b[:, None])
    AtA += 1e-12 * np.trace(AtA, axis1=1, axis2=2)[:, None, None] * np.eye(3)
    try:
        return np.linalg.solve(AtA, Atb[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty((n_points, 3))
        for i in range(n_points):
            out[i] = np.linalg.lstsq(AtA[i], Atb[i], rcond=None)[0]
        return out


def _ray_spread_flags_add_at(arr, point_index, cam_idx, pixels, n_points):
    nc = normalized_coords(arr, cam_idx, pixels)
    d_cam = np.concatenate([nc, np.ones((len(nc), 1))], axis=1)
    d = np.einsum("bji,bj->bi", arr.R[cam_idx], d_cam)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    mean = np.zeros((n_points, 3))
    np.add.at(mean, point_index, d)
    counts = np.bincount(point_index, minlength=n_points).astype(float)
    mean /= np.maximum(counts, 1.0)[:, None]
    mean_norm = np.linalg.norm(mean, axis=1)
    dev = np.zeros(n_points)
    cosang = np.clip(np.sum(d * mean[point_index], axis=1) / np.maximum(mean_norm[point_index], 1e-30), -1, 1)
    np.maximum.at(dev, point_index, np.arccos(cosang))
    return 2.0 * dev < np.radians(MIN_RAY_ANGLE_DEG)


def _point_costs_add_at(point_index, n_points, residuals, depths):
    sq = np.sum(residuals * residuals, axis=1)
    cost = np.zeros(n_points)
    np.add.at(cost, point_index, sq)
    all_in_front = np.ones(n_points, dtype=bool)
    np.logical_and.at(all_in_front, point_index, depths > 0)
    cost[~all_in_front] = np.inf
    return cost


def _triangulate_points_add_at(arr, point_index, cam_idx, pixels, n_points):
    """LM over every observation row in each iteration, summed with add.at."""
    parallel = _ray_spread_flags_add_at(arr, point_index, cam_idx, pixels, n_points)
    p = _linear_initialization_add_at(arr, point_index, cam_idx, pixels, n_points)

    uv, z = project_cams(arr, cam_idx, p[point_index])
    cost = _point_costs_add_at(point_index, n_points, uv - pixels, z)
    lam = np.full(n_points, 1e-3)
    converged = np.zeros(n_points, dtype=bool)
    active = ~parallel & np.isfinite(cost)

    counts = np.bincount(point_index, minlength=n_points)
    eye = np.eye(3)

    for _ in range(MAX_ITERATIONS):
        if not np.any(active):
            break
        uv, z, J = project_jacobian(arr, cam_idx, p[point_index])
        r = uv - pixels
        g = np.zeros((n_points, 3))
        H = np.zeros((n_points, 3, 3))
        np.add.at(g, point_index, np.einsum("bij,bi->bj", J, r))
        np.add.at(H, point_index, np.einsum("bij,bik->bjk", J, J))

        grad_ok = np.linalg.norm(2.0 * g, axis=1) < GRADIENT_TOL
        converged[active & grad_ok] = True
        active &= ~grad_ok
        if not np.any(active):
            break

        ai = np.where(active)[0]
        Ha = H[ai] + lam[ai, None, None] * (H[ai] * eye) + 1e-15 * eye
        try:
            delta = np.linalg.solve(Ha, -g[ai][..., None])[..., 0]
        except np.linalg.LinAlgError:
            delta = np.stack([np.linalg.lstsq(Ha[k], -g[ai[k]], rcond=None)[0] for k in range(len(ai))])

        trial = p.copy()
        trial[ai] += delta
        uv_t, z_t = project_cams(arr, cam_idx, trial[point_index])
        cost_t = _point_costs_add_at(point_index, n_points, uv_t - pixels, z_t)

        with np.errstate(invalid="ignore"):
            decrease = cost - cost_t
        improved = active & np.isfinite(cost_t) & (cost_t <= cost)
        negligible = improved & (decrease <= 1e-14 * (cost + 1e-30))
        p[improved] = trial[improved]
        cost[improved] = cost_t[improved]
        lam[improved] = np.maximum(lam[improved] / 3.0, 1e-12)
        worsened = active & ~improved
        lam[worsened] *= 4.0
        stuck = worsened & (lam > 1e10)
        active &= ~(stuck | negligible)

    uv, z = project_cams(arr, cam_idx, p[point_index])
    obs_err = np.linalg.norm(uv - pixels, axis=1)
    mean_err = np.zeros(n_points)
    np.add.at(mean_err, point_index, obs_err)
    mean_err /= np.maximum(counts, 1)
    converged[parallel] = False
    return TriangulationResult(p, converged, parallel, obs_err, mean_err)


LM_RIGS = {"rig4": ring_rig(4), "rig16": ring_rig(16), "mixed": mixed_ring_rig()}


def _lm_batch(rig, rng, n_points, noise_px):
    """A random triangulation batch, its rows shuffled so point_index is unsorted.

    Points are ordinary (inside the ring), seen by one camera, or far away:
    either down one camera's axis, seen by it and its ring neighbours, or in a
    random direction, which some of its cameras see from behind. Far rays are
    near-parallel, some below MIN_RAY_ANGLE_DEG.
    """
    arr = CameraArrays.from_rig(rig)
    n_cams = len(arr.R)
    center = np.array([0.0, 0.0, 1000.0])
    point_index, cam_idx, pts = [], [], []
    for i in range(n_points):
        kind = rng.integers(4)
        k = 1 if kind == 1 else int(rng.integers(2, n_cams + 1))
        cams = rng.choice(n_cams, size=k, replace=False)
        distance = 10 ** rng.uniform(4, 7)
        if kind == 2:
            k = min(k, 3)
            cams = (cams[0] + np.arange(k)) % n_cams
            p = center + arr.R[cams[0], 2] * distance + rng.normal(0.0, 300.0, 3)
        elif kind == 3:
            direction = rng.normal(size=3)
            p = center + direction / np.linalg.norm(direction) * distance
        else:
            p = rng.uniform([-600.0, -600.0, 500.0], [600.0, 600.0, 1500.0])
        point_index += [i] * k
        cam_idx += list(cams)
        pts += [p] * k
    point_index, cam_idx = np.array(point_index), np.array(cam_idx)
    pixels, _ = project_cams(arr, cam_idx, np.array(pts))
    pixels += rng.normal(0.0, noise_px, pixels.shape)
    order = rng.permutation(len(point_index))
    return arr, point_index[order], cam_idx[order], pixels[order]


# a far point that a distorted camera sees far off its axis squares past the
# float range in the gradient norm, in the oracle as in the kernel
OVERFLOW_OK = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


def _result_bytes(res):
    return [np.ascontiguousarray(getattr(res, name)).tobytes() for name in TriangulationResult.__dataclass_fields__]


@OVERFLOW_OK
@pytest.mark.parametrize("noise_px", [0.3, 5.0])
@pytest.mark.parametrize("rig_name", sorted(LM_RIGS))
def test_lm_kernels_match_add_at_oracles_bitwise(rig_name, noise_px):
    rng = np.random.default_rng([7, len(rig_name), int(noise_px * 10)])
    for _ in range(25):
        n = int(rng.integers(1, 60))
        arr, point_index, cam_idx, pixels = _lm_batch(LM_RIGS[rig_name], rng, n, noise_px)
        args = (arr, point_index, cam_idx, pixels, n)
        assert linear_initialization(*args).tobytes() == _linear_initialization_add_at(*args).tobytes()
        assert np.array_equal(ray_spread_flags(*args), _ray_spread_flags_add_at(*args))
        assert _result_bytes(triangulate_points(*args)) == _result_bytes(_triangulate_points_add_at(*args))
        # a NaN depth prices its point at inf, as a depth at or behind the camera does
        residuals = rng.normal(0.0, 3.0, pixels.shape)
        depths = rng.choice([np.nan, -1.0, 0.0, 1.0, 2.0, 3.0], len(point_index))
        want = _point_costs_add_at(point_index, n, residuals, depths)
        assert _point_costs(point_index, n, residuals, depths).tobytes() == want.tobytes()


@OVERFLOW_OK
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rig_name=st.sampled_from(sorted(LM_RIGS)),
    noise_px=st.sampled_from([0.0, 0.3, 5.0]),
    n=st.integers(1, 40),
)
def test_lm_point_alone_equals_point_in_batch(seed, rig_name, noise_px, n):
    """Renumbering the active points must not couple them: each solves as if alone."""
    rng = np.random.default_rng(seed)
    arr, point_index, cam_idx, pixels = _lm_batch(LM_RIGS[rig_name], rng, n, noise_px)
    batch = triangulate_points(arr, point_index, cam_idx, pixels, n)
    for i in rng.choice(n, size=min(n, 3), replace=False):
        rows = np.flatnonzero(point_index == i)
        alone = triangulate_points(arr, np.zeros(len(rows), dtype=int), cam_idx[rows], pixels[rows], 1)
        assert alone.points.tobytes() == batch.points[i].tobytes()
        assert alone.converged[0] == batch.converged[i] and alone.parallel[0] == batch.parallel[i]
        assert alone.obs_errors.tobytes() == batch.obs_errors[rows].tobytes()
        assert alone.mean_error.tobytes() == batch.mean_error[i : i + 1].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    rig_name=st.sampled_from(sorted(LM_RIGS)),
    point=st.tuples(st.floats(-600, 600), st.floats(-600, 600), st.floats(500, 1500)),
    cams=st.data(),
)
def test_noiseless_project_triangulate_round_trip(rig_name, point, cams):
    """Exact projections into three or more ring cameras (never collinear) give the point back."""
    rig = LM_RIGS[rig_name]
    ids = cams.draw(st.lists(st.sampled_from([c.id for c in rig]), min_size=3, unique=True))
    assert_exact(triangulate_one(rig, np.array(point), [rig.camera(i) for i in ids]), np.array(point))


# ---------------------------------------------------------------------------
# filter_mislabels


def obs_of(cid, cam, pixel):
    return cid, cam, np.asarray(pixel, dtype=float)


def filter_flat(per_corner, rig):
    """The filter on per-corner observation lists, flattened and sorted as `reconstruct_frame` does."""
    obs = sorted((o for obs in per_corner.values() for o in obs), key=lambda o: o[:2])
    cid, cam, pix = zip(*obs)
    return filter_mislabels(np.array(cid), np.array(cam), np.array(pix), rig)


def test_filter_noiseless_removes_nothing(rig16):
    p = np.array([60.0, -30.0, 1100.0])
    per_corner = {7: [obs_of(7, c.id, project_many(c, p)[0][0]) for c in rig16]}
    cloud = filter_flat(per_corner, rig16)
    assert not cloud.discarded
    rec = cloud.points[7]
    assert np.linalg.norm(rec.position - p) < 1e-6
    assert len(rec.cameras) == 16
    assert rec.mean_reproj_err < 1e-9


def test_filter_removes_single_mislabel(rig16, rng):
    p = np.array([60.0, -30.0, 1100.0])
    p_other = np.array([-200.0, 150.0, 900.0])
    obs = []
    for k, cam in enumerate(rig16.cameras[:6]):
        pix = project_many(cam, p if k != 3 else p_other)[0][0] + rng.normal(0, 0.2, 2)
        obs.append(obs_of(7, cam.id, pix))
    cloud = filter_flat({7: obs}, rig16)
    assert 7 in cloud.points
    assert rig16.cameras[3].id not in cloud.points[7].cameras
    removed = [d for d in cloud.discarded if d.reason == REASON_MISLABEL]
    assert any(d.camera_id == rig16.cameras[3].id for d in removed)
    assert np.linalg.norm(cloud.points[7].position - p) < 3 * 0.2  # 3-sigma of the noise


def test_filter_drops_one_mislabel_on_mixed_distortion_rig(mixed_rig):
    # corner k is mislabeled in camera k: seen there at another corner's position
    truth = {k: np.array([-300.0 + 90.0 * k, 40.0 * k - 150.0, 800.0 + 60.0 * k]) for k in range(8)}
    elsewhere = np.array([250.0, -220.0, 1350.0])
    per_corner = {
        k: [obs_of(k, c.id, project_many(c, elsewhere if c.id == k else p)[0][0]) for c in mixed_rig]
        for k, p in truth.items()
    }
    cloud = filter_flat(per_corner, mixed_rig)
    assert cloud.discarded == [DiscardRecord(k, REASON_MISLABEL, k) for k in range(8)]
    for k, p in truth.items():
        rec = cloud.points[k]
        assert rec.cameras == tuple(c for c in range(8) if c != k)
        assert np.linalg.norm(rec.position - p) < 1e-6


def test_filter_two_cameras_absolute_threshold(rig4):
    # a 10 px disagreement across the epipolar line cannot be triangulated
    # below the 1.5 px mean error bound, so the corner is discarded
    p = np.array([55.0, 80.0, 1120.0])
    a, b = rig4.cameras[0], rig4.cameras[1]
    ray = p - a.center
    e_dir = project_many(b, p + 0.05 * ray)[0][0] - project_many(b, p - 0.05 * ray)[0][0]
    e_dir /= np.linalg.norm(e_dir)
    perp = np.array([-e_dir[1], e_dir[0]])
    obs = [
        obs_of(3, a.id, project_many(a, p)[0][0]),
        obs_of(3, b.id, project_many(b, p)[0][0] + 10.0 * perp),
    ]
    cloud = filter_flat({3: obs}, rig4)
    assert 3 not in cloud.points
    assert any(d.reason == REASON_RESIDUAL for d in cloud.discarded)


def test_filter_discards_a_nan_mean_error(rig4, monkeypatch):
    # a NaN mean error passes `err > 1.5`; the gate must read it as too high
    import suitcap.reconstruct as reconstruct_module

    solve = reconstruct_module.triangulate_points

    def nan_errors(*args):
        res = solve(*args)
        res.mean_error[:] = np.nan
        return res

    monkeypatch.setattr(reconstruct_module, "triangulate_points", nan_errors)
    p = np.array([0.0, 0.0, 1000.0])
    cloud = filter_flat({5: [obs_of(5, c.id, project_many(c, p)[0][0]) for c in rig4.cameras[:2]]}, rig4)
    assert not cloud.points
    assert cloud.discarded == [DiscardRecord(5, REASON_RESIDUAL)]


def test_filter_single_camera_discarded(rig4):
    p = np.array([0.0, 0.0, 1000.0])
    a = rig4.cameras[0]
    cloud = filter_flat({5: [obs_of(5, a.id, project_many(a, p)[0][0])]}, rig4)
    assert 5 not in cloud.points
    assert any(d.reason == REASON_TOO_FEW for d in cloud.discarded)


def test_filter_camera_order_invariance():
    # a frame's cloud does not depend on the order of its camera records
    scene = tube_scene(n_cameras=6, strips=3, codes_per_strip=6, seed=46)
    frames = _simulate_detections(scene, 1, OracleNoiseConfig(pixel_sigma=0.4, mislabel_prob=0.05, seed=14))
    shuffled = list(frames)
    np.random.default_rng(5).shuffle(shuffled)
    assert [f.camera_id for f in shuffled] != [f.camera_id for f in frames]
    a = reconstruct_frame(frames, scene.rig, scene.layout)
    b = reconstruct_frame(shuffled, scene.rig, scene.layout)
    assert len(a.points) > 10
    assert cloud_to_json(a) == cloud_to_json(b)


def test_filter_emitted_points_satisfy_contract(rig16, rng):
    per_corner = {}
    for cid in range(40):
        p = np.array([rng.uniform(-300, 300), rng.uniform(-300, 300), rng.uniform(700, 1300)])
        per_corner[cid] = [
            obs_of(cid, c.id, project_many(c, p)[0][0] + rng.normal(0, 1.0, 2)) for c in rig16
        ]
    cloud = filter_flat(per_corner, rig16)
    for rec in cloud.points.values():
        assert rec.mean_reproj_err <= 1.5
        assert len(rec.cameras) >= 2


def test_filter_monotone_outlier_removal(rig16, rng):
    """Removing IQR outliers never increases the surviving mean error."""
    per_corner = {}
    for cid in range(30):
        p = np.array([rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(800, 1200)])
        obs = [obs_of(cid, c.id, project_many(c, p)[0][0] + rng.normal(0, 0.5, 2)) for c in rig16]
        if cid % 3 == 0:  # inject one gross outlier
            cam5 = rig16.cameras[5]
            obs[5] = obs_of(cid, cam5.id, project_many(cam5, p)[0][0] + np.array([40.0, -25.0]))
        per_corner[cid] = obs
    cloud = filter_flat(per_corner, rig16)
    flagged = {d.corner_id for d in cloud.discarded if d.reason == REASON_MISLABEL} & set(cloud.points)
    assert flagged, "the injected gross outliers must trigger IQR removals"
    arr = CameraArrays.from_rig(rig16)
    pairs = np.array(list(itertools.combinations(range(16), 2)))
    n_pairs = len(pairs)
    for cid in sorted(flagged):
        pix = np.array([o[2] for o in per_corner[cid]])
        # each camera pair's point, scored by its mean error over all 16 claiming cameras
        res = triangulate_points(arr, np.repeat(np.arange(n_pairs), 2), pairs.ravel(), pix[pairs.ravel()], n_pairs)
        uv, _ = project_cams(arr, np.tile(np.arange(16), n_pairs), np.repeat(res.points, 16, axis=0))
        pair_mean = np.linalg.norm(uv - np.tile(pix, (n_pairs, 1)), axis=1).reshape(n_pairs, 16).mean(axis=1)
        assert cloud.points[cid].mean_reproj_err <= pair_mean.min() + 1e-9


# ---------------------------------------------------------------------------
# sequence reconstruction


def _simulate_detections(scene, n_frames, noise):
    frames = []
    for k in range(n_frames):
        pos = scene.positions(k)
        vis = compute_visibility(scene, k, positions=pos)
        for cam in scene.rig:
            frames.append(
                oracle_detect(
                    k, cam, pos, vis.visible_corners[cam.id], vis.visible_quads[cam.id],
                    scene.layout, noise,
                )
            )
    return frames


def labeled_counts(scene, k):
    """corner id -> number of cameras in which some fully visible quad labels it."""
    vis = compute_visibility(scene, k)
    counts = np.zeros(scene.layout.n_corners, dtype=int)
    for cam_id, quads in vis.visible_quads.items():
        labeled = set()
        for _, ids in quads:
            labeled.update(int(v) for v in ids)
        for c in labeled:
            counts[c] += 1
    return counts


def test_sequence_noiseless_reconstructs_every_labeled_corner():
    scene = tube_scene(n_cameras=8, strips=4, codes_per_strip=8, seed=41)
    frames = _simulate_detections(scene, 3, OracleNoiseConfig(seed=2))
    clouds = [reconstruct_frame(g, scene.rig, scene.layout) for g in group_frames(frames)]
    assert len(clouds) == 3
    for cloud in clouds:
        pos = scene.positions(cloud.frame_index)
        counts = labeled_counts(scene, cloud.frame_index)
        for cid in np.where(counts >= 2)[0]:
            assert int(cid) in cloud.points
            assert np.linalg.norm(cloud.points[int(cid)].position - pos[cid]) < 1e-6


def test_sequence_deterministic():
    scene = tube_scene(n_cameras=6, strips=3, codes_per_strip=6, seed=43)
    noise = OracleNoiseConfig(pixel_sigma=0.4, mislabel_prob=0.03, seed=11)
    frames = _simulate_detections(scene, 2, noise)
    a = [reconstruct_frame(g, scene.rig, scene.layout) for g in group_frames(frames)]
    b = [reconstruct_frame(g, scene.rig, scene.layout) for g in group_frames(frames)]
    assert [cloud_to_json(x) for x in a] == [cloud_to_json(x) for x in b]


def assert_read_back(a: LabeledPointCloud, b):
    """The arrays `b` that reading back the written cloud `a` gives hold the same bits."""
    ids = sorted(a.points)
    recs = [a.points[i] for i in ids]
    assert b.frame_index == a.frame_index
    assert b.ids.tolist() == ids
    assert b.positions.tobytes() == np.array([r.position for r in recs], dtype=float).tobytes()
    assert b.mean_err.tobytes() == np.array([r.mean_reproj_err for r in recs], dtype=float).tobytes()
    for r, rec in enumerate(recs):
        assert b.cams[b.cam_offsets[r]:b.cam_offsets[r + 1]].tolist() == list(rec.cameras)
        errs = b.errs[b.err_offsets[r]:b.err_offsets[r + 1]]
        assert errs.tobytes() == np.array(rec.per_camera_err, dtype=float).tobytes()
    assert [(d.corner_id, d.reason, d.camera_id) for d in b.discarded] == [
        (d.corner_id, d.reason, d.camera_id) for d in a.discarded
    ]
    for n in [None, *range(max(ids, default=0) + 2)]:
        (ia, pa), (ib, pb) = a.observed(n), b.observed(n)
        assert ib.tobytes() == ia.tobytes()
        assert pb.shape == pa.shape and pb.tobytes() == pa.tobytes()


def test_cloud_file_roundtrip(tmp_path):
    scene = tube_scene(n_cameras=6, strips=3, codes_per_strip=6, seed=44)
    frames = _simulate_detections(scene, 2, OracleNoiseConfig(pixel_sigma=0.3, seed=12))
    clouds = [reconstruct_frame(g, scene.rig, scene.layout) for g in group_frames(frames)]
    path = tmp_path / "clouds.jsonl"
    write_clouds(clouds, path)
    back = read_clouds(path)
    assert len(back) == len(clouds)
    for a, b in zip(clouds, back):
        assert_read_back(a, b)
    # a line parses to the same arrays as the file
    line = path.read_text().splitlines()[1]
    assert_read_back(clouds[1], cloud_from_json(line))


def test_cloud_file_roundtrips_per_camera_errors(tmp_path):
    scene = tube_scene(n_cameras=6, strips=3, codes_per_strip=6, seed=45)
    frames = _simulate_detections(scene, 1, OracleNoiseConfig(pixel_sigma=0.3, seed=13))
    clouds = [reconstruct_frame(g, scene.rig, scene.layout) for g in group_frames(frames)]
    clouds.append(LabeledPointCloud(1, {0: PointRecord(np.zeros(3), (0, 1), 0.0)}))  # errors unknown
    path = tmp_path / "clouds.jsonl"
    write_clouds(clouds, path)
    back = read_clouds(path)
    assert sum(len(c.points) for c in clouds) > 10
    for a, b in zip(clouds, back):
        assert all(len(rec.per_camera_err) in (0, len(rec.cameras)) for rec in a.points.values())
        assert_read_back(a, b)
    assert back[1].err_offsets.tolist() == [0, 0]
    assert '"errs"' not in path.read_text().splitlines()[-1]


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _clouds(draw):
    """A written LabeledPointCloud: any ids, with or without per-camera errors, and discards."""
    points = {}
    for cid in draw(st.lists(st.integers(0, 60), unique=True, max_size=8)):
        cams = draw(st.lists(st.integers(0, 40), max_size=4))
        errs = draw(st.lists(_finite, min_size=len(cams), max_size=len(cams))) if draw(st.booleans()) else []
        position = np.array(draw(st.tuples(_finite, _finite, _finite)))
        points[cid] = PointRecord(position, tuple(cams), draw(_finite), tuple(errs))
    discards = draw(st.lists(st.builds(
        DiscardRecord,
        st.integers(0, 60),
        st.sampled_from([REASON_CONFLICT, REASON_MISLABEL, REASON_RESIDUAL, REASON_TOO_FEW]),
        st.none() | st.integers(0, 40),
    ), max_size=3))
    return LabeledPointCloud(draw(st.integers(0, 10**6)), points, discards)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(clouds=st.lists(_clouds(), max_size=4), shuffle=st.randoms(use_true_random=False))
def test_written_clouds_read_back_bitwise(tmp_path, clouds, shuffle):
    """write_clouds then read_clouds keeps every id, bit, camera, error and discard, from
    points in any order in the file; observed(n) equals the written cloud's for every n."""
    path = tmp_path / "clouds.jsonl"
    write_clouds(clouds, path)
    lines = []
    for line in path.read_text().splitlines():
        doc = json.loads(line)
        shuffle.shuffle(doc["points"])
        lines.append(json.dumps(doc) + "\n")
    path.write_text("".join(lines))
    back = read_clouds(path)
    assert len(back) == len(clouds)
    for a, b in zip(clouds, back):
        assert_read_back(a, b)


def test_noisy_tube_clouds_golden_digest(tmp_path):
    """Pins the bytes of `write_clouds` on a scene where every discard reason occurs."""
    scene = tube_scene(n_cameras=6, strips=4, codes_per_strip=8, seed=3)
    noise = OracleNoiseConfig(pixel_sigma=0.5, dropout_prob=0.05, mislabel_prob=0.05, seed=3)
    frames = _simulate_detections(scene, 2, noise)
    clouds = [reconstruct_frame(g, scene.rig, scene.layout) for g in group_frames(frames)]
    reasons = {d.reason for c in clouds for d in c.discarded}
    assert reasons == {REASON_CONFLICT, REASON_MISLABEL, REASON_RESIDUAL, REASON_TOO_FEW}
    path = tmp_path / "clouds.jsonl"
    write_clouds(clouds, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "7b16e508b76215b0bc1aa134b339b3b7a4d01d0cb3ae8bee789db23820b7c616"
