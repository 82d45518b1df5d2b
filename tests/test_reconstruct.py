import numpy as np
import pytest

from suitcap.detection import CodeReading, Corner2D, DetectionFrame, OracleNoiseConfig, oracle_detect
from suitcap.errors import ParallelRays
from suitcap.geometry import project
from suitcap.layout import SuitLayout
from suitcap.reconstruct import (
    REASON_CONFLICT,
    REASON_MISLABEL,
    REASON_RESIDUAL,
    REASON_TOO_FEW,
    DiscardRecord,
    LabeledObservation,
    LabeledPointCloud,
    PointRecord,
    cloud_from_json,
    cloud_to_json,
    consolidate_labels,
    filter_mislabels,
    read_clouds,
    reconstruct_sequence,
    write_clouds,
)
from suitcap.simulator import compute_visibility, tube_scene
from suitcap.triangulate import triangulate

def square_layout():
    # two horizontally adjacent coded quads sharing corners 1 and 4
    return SuitLayout(
        n_corners=8,
        quad_table={"AA": (0, 1, 4, 3), "AB": (1, 2, 5, 4)},
        faces=[(0, 1, 4, 3), (1, 2, 5, 4)],
    )


def make_frame(readings, corners, cam=0, frame=0):
    return DetectionFrame(frame, cam, corners, readings)


def test_consolidate_agreeing_readings_give_source_two():
    layout = square_layout()
    corners = [Corner2D((10.0 * i, 5.0)) for i in range(6)]
    frame = make_frame(
        [CodeReading((0, 1, 4, 3), "AA", 1.0), CodeReading((1, 2, 5, 4), "AB", 1.0)],
        corners,
    )
    obs, conflicts = consolidate_labels(frame, layout)
    assert not conflicts
    by_id = {o.corner_id: o for o in obs}
    assert set(by_id) == {0, 1, 2, 3, 4, 5}
    assert by_id[1].source == 2 and by_id[4].source == 2
    assert by_id[0].source == 1 and by_id[2].source == 1


def test_consolidate_disagreement_drops_corner():
    layout = square_layout()
    corners = [Corner2D((10.0 * i, 5.0)) for i in range(6)]
    # second reading claims the wrong code, so the shared detections disagree
    frame = make_frame(
        [CodeReading((0, 1, 4, 3), "AA", 1.0), CodeReading((1, 2, 5, 4), "AA", 1.0)],
        corners,
    )
    obs, conflicts = consolidate_labels(frame, layout)
    assert conflicts
    assert any(c.reason == REASON_CONFLICT for c in conflicts)
    # detections 1 and 4 (shared between the quads) received contradictory
    # labels and were dropped; the mislabeled quad's other detections survive
    # with wrong-but-consistent labels (the downstream filter's job)
    by_detection = {tuple(o.pixel): o.corner_id for o in obs}
    assert tuple(corners[1].position) not in by_detection
    assert tuple(corners[4].position) not in by_detection
    assert {o.corner_id for o in obs} == {0, 1, 3, 4}


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
    for o in obs:
        assert np.abs(o.pixel - project(cam, pos[o.corner_id])).max() < 1e-12


# ---------------------------------------------------------------------------
# triangulate


def test_triangulate_two_cameras_exact(rig4):
    p = np.array([120.0, -40.0, 1030.0])
    obs = [(c.id, project(c, p)) for c in rig4.cameras[:2]]
    got, residuals, converged = triangulate(obs, rig4)
    assert np.linalg.norm(got - p) < 1e-6
    assert converged
    assert all(v < 1e-8 for v in residuals.values())


def test_triangulate_sixteen_cameras_exact(rig16):
    p = np.array([-80.0, 55.0, 1210.0])
    obs = [(c.id, project(c, p)) for c in rig16]
    got, residuals, converged = triangulate(obs, rig16)
    assert np.linalg.norm(got - p) < 1e-6
    assert all(v < 1e-8 for v in residuals.values())


def test_triangulate_mixed_distortion_exact(mixed_rig, rng):
    # every camera subset mixes distorted (even) and pinhole (odd) cameras
    for n_cams in (2, 3, 5, 8):
        for _ in range(5):
            p = rng.uniform([-600.0, -600.0, 500.0], [600.0, 600.0, 1500.0])
            first = int(rng.integers(0, 8))
            cams = [mixed_rig.cameras[(first + k) % 8] for k in range(n_cams)]
            got, residuals, converged = triangulate([(c.id, project(c, p)) for c in cams], mixed_rig)
            assert np.linalg.norm(got - p) < 1e-6
            assert converged
            assert all(v < 1e-8 for v in residuals.values())


def test_triangulate_requires_two_distinct_cameras(rig4):
    cam = rig4.cameras[0]
    p = np.array([0.0, 0.0, 1000.0])
    with pytest.raises(ValueError):
        triangulate([(cam.id, project(cam, p)), (cam.id, project(cam, p))], rig4)


def test_triangulate_parallel_rays_raise():
    # two cameras at the same position looking the same way: identical rays
    from conftest import look_at_camera
    from suitcap.geometry import CameraRig

    a = look_at_camera(0, (3000.0, 0.0, 1000.0), (0, 0, 1000.0))
    b = look_at_camera(1, (3000.0, 0.0, 1000.0), (0, 0, 1000.0))
    rig = CameraRig([a, b])
    p = np.array([10.0, 5.0, 1000.0])
    with pytest.raises(ParallelRays):
        triangulate([(0, project(a, p)), (1, project(b, p))], rig)


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
        pix = np.array([project(c, p) + rng.normal(0, 0.5, 2) for c in rig4])
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
        pix = np.array([project(c, p) + rng.normal(0, 0.5, 2) for c in rig4])
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


# ---------------------------------------------------------------------------
# filter_mislabels


def obs_of(cid, cam, pixel, source=1):
    return LabeledObservation(cid, cam, pixel, source)


def test_filter_noiseless_removes_nothing(rig16):
    p = np.array([60.0, -30.0, 1100.0])
    per_corner = {7: [obs_of(7, c.id, project(c, p)) for c in rig16]}
    cloud = filter_mislabels(per_corner, rig16)
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
        pix = project(cam, p if k != 3 else p_other) + rng.normal(0, 0.2, 2)
        obs.append(obs_of(7, cam.id, pix))
    cloud = filter_mislabels({7: obs}, rig16)
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
        k: [obs_of(k, c.id, project(c, elsewhere if c.id == k else p)) for c in mixed_rig]
        for k, p in truth.items()
    }
    cloud = filter_mislabels(per_corner, mixed_rig)
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
    e_dir = project(b, p + 0.05 * ray) - project(b, p - 0.05 * ray)
    e_dir /= np.linalg.norm(e_dir)
    perp = np.array([-e_dir[1], e_dir[0]])
    obs = [
        obs_of(3, a.id, project(a, p)),
        obs_of(3, b.id, project(b, p) + 10.0 * perp),
    ]
    cloud = filter_mislabels({3: obs}, rig4)
    assert 3 not in cloud.points
    assert any(d.reason == REASON_RESIDUAL for d in cloud.discarded)


def test_filter_single_camera_discarded(rig4):
    p = np.array([0.0, 0.0, 1000.0])
    a = rig4.cameras[0]
    cloud = filter_mislabels({5: [obs_of(5, a.id, project(a, p))]}, rig4)
    assert 5 not in cloud.points
    assert any(d.reason == REASON_TOO_FEW for d in cloud.discarded)


def test_filter_camera_order_invariance(rig16, rng):
    p = np.array([10.0, 20.0, 1050.0])
    obs = [obs_of(2, c.id, project(c, p) + rng.normal(0, 0.4, 2)) for c in rig16]
    cloud_a = filter_mislabels({2: list(obs)}, rig16)
    rng2 = np.random.default_rng(5)
    shuffled = list(obs)
    rng2.shuffle(shuffled)
    cloud_b = filter_mislabels({2: shuffled}, rig16)
    assert np.array_equal(cloud_a.points[2].position, cloud_b.points[2].position)
    assert cloud_a.points[2].cameras == cloud_b.points[2].cameras


def test_filter_emitted_points_satisfy_contract(rig16, rng):
    per_corner = {}
    for cid in range(40):
        p = np.array([rng.uniform(-300, 300), rng.uniform(-300, 300), rng.uniform(700, 1300)])
        per_corner[cid] = [
            obs_of(cid, c.id, project(c, p) + rng.normal(0, 1.0, 2)) for c in rig16
        ]
    cloud = filter_mislabels(per_corner, rig16)
    for rec in cloud.points.values():
        assert rec.mean_reproj_err <= 1.5
        assert len(rec.cameras) >= 2


def test_filter_monotone_outlier_removal(rig16, rng):
    """Removing IQR outliers never increases the surviving mean error."""
    diags = []
    per_corner = {}
    for cid in range(30):
        p = np.array([rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(800, 1200)])
        obs = [obs_of(cid, c.id, project(c, p) + rng.normal(0, 0.5, 2)) for c in rig16]
        if cid % 3 == 0:  # inject one gross outlier
            obs[5] = obs_of(cid, rig16.cameras[5].id, project(rig16.cameras[5], p) + np.array([40.0, -25.0]))
        per_corner[cid] = obs
    filter_mislabels(per_corner, rig16, diagnostics=diags)
    with_outliers = [d for d in diags if d.get("n_outliers", 0) > 0 and "mean_err_final" in d]
    assert with_outliers, "the injected gross outliers must trigger IQR removals"
    for d in with_outliers:
        assert d["mean_err_final"] <= d["mean_err_best_pair"] + 1e-9


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
    clouds = reconstruct_sequence(frames, scene.rig, scene.layout)
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
    a = reconstruct_sequence(frames, scene.rig, scene.layout)
    b = reconstruct_sequence(frames, scene.rig, scene.layout)
    assert [cloud_to_json(x) for x in a] == [cloud_to_json(x) for x in b]


def test_cloud_file_roundtrip(tmp_path):
    scene = tube_scene(n_cameras=6, strips=3, codes_per_strip=6, seed=44)
    frames = _simulate_detections(scene, 2, OracleNoiseConfig(pixel_sigma=0.3, seed=12))
    clouds = reconstruct_sequence(frames, scene.rig, scene.layout)
    path = tmp_path / "clouds.jsonl"
    write_clouds(clouds, path)
    back = read_clouds(path)
    assert [c.frame_index for c in back] == [c.frame_index for c in clouds]
    for a, b in zip(clouds, back):
        assert set(a.points) == set(b.points)
        for cid in a.points:
            assert np.array_equal(a.points[cid].position, b.points[cid].position)
            assert a.points[cid].cameras == b.points[cid].cameras
            assert a.points[cid].mean_reproj_err == b.points[cid].mean_reproj_err
        assert [(d.corner_id, d.reason, d.camera_id) for d in a.discarded] == [
            (d.corner_id, d.reason, d.camera_id) for d in b.discarded
        ]
    # json round trip is stable line by line
    for a in clouds:
        assert cloud_to_json(cloud_from_json(cloud_to_json(a))) == cloud_to_json(a)


def test_cloud_file_roundtrips_per_camera_errors(tmp_path):
    scene = tube_scene(n_cameras=6, strips=3, codes_per_strip=6, seed=45)
    frames = _simulate_detections(scene, 1, OracleNoiseConfig(pixel_sigma=0.3, seed=13))
    clouds = reconstruct_sequence(frames, scene.rig, scene.layout)
    clouds.append(LabeledPointCloud(1, {0: PointRecord(np.zeros(3), (0, 1), 0.0)}))  # errors unknown
    path = tmp_path / "clouds.jsonl"
    write_clouds(clouds, path)
    back = read_clouds(path)
    recs = [(a.points[cid], b.points[cid]) for a, b in zip(clouds, back) for cid in a.points]
    assert len(recs) > 10
    for a, b in recs:
        assert len(a.per_camera_err) in (0, len(a.cameras))
        assert b.per_camera_err == a.per_camera_err
    assert '"errs"' not in path.read_text().splitlines()[-1]
