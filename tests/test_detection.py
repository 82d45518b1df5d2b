import numpy as np
import pytest

from suitcap.detection import (
    CodeReading,
    Corner2D,
    DetectionFrame,
    OracleNoiseConfig,
    cluster_duplicates,
    cluster_frame,
    frame_from_json,
    frame_to_json,
    oracle_detect,
    read_detections,
    write_detections,
)
from suitcap.simulator import compute_visibility, tube_scene


def test_cluster_keeps_higher_confidence():
    corners = [Corner2D((10.0, 10.0), 0.9), Corner2D((10.7, 10.7), 0.4)]
    out = cluster_duplicates(corners, radius=3.0)
    assert len(out) == 1
    assert out[0].confidence == 0.9


def test_cluster_keeps_distant_corners():
    corners = [Corner2D((10.0, 10.0), 0.9), Corner2D((20.0, 10.0), 0.4)]
    assert len(cluster_duplicates(corners, radius=3.0)) == 2


def test_cluster_tie_break_lower_index():
    corners = [Corner2D((10.0, 10.0), 0.5), Corner2D((11.0, 10.0), 0.5)]
    out = cluster_duplicates(corners, radius=3.0)
    assert len(out) == 1
    assert np.array_equal(out[0].position, np.array([10.0, 10.0]))


def _greedy_oracle(corners, radius):
    """Independent O(n^2) greedy suppression over descending confidence."""
    order = sorted(range(len(corners)), key=lambda i: (-corners[i].confidence, i))
    kept = []
    for i in order:
        p = corners[i].position
        if all(np.linalg.norm(p - corners[j].position) >= radius for j in kept):
            kept.append(i)
    return sorted(kept)


def test_cluster_matches_greedy_oracle(rng):
    for _ in range(1000):
        n = int(rng.integers(0, 28))
        corners = [
            Corner2D(rng.uniform(0, 40, 2), float(rng.uniform(0, 1))) for _ in range(n)
        ]
        out = cluster_duplicates(corners, radius=3.0)
        expected = [corners[i] for i in _greedy_oracle(corners, 3.0)]
        assert len(out) == len(expected)
        for a, b in zip(out, expected):
            assert a is b


def test_cluster_idempotent(rng):
    corners = [Corner2D(rng.uniform(0, 30, 2), float(rng.uniform(0, 1))) for _ in range(40)]
    once = cluster_duplicates(corners, radius=3.0)
    twice = cluster_duplicates(once, radius=3.0)
    assert len(once) == len(twice)
    for a, b in zip(once, twice):
        assert a is b


def test_cluster_no_survivors_within_radius(rng):
    corners = [Corner2D(rng.uniform(0, 25, 2), float(rng.uniform(0, 1))) for _ in range(60)]
    out = cluster_duplicates(corners, radius=3.0)
    pos = np.array([c.position for c in out])
    d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 3.0


def test_cluster_frame_remaps_readings():
    corners = [
        Corner2D((10.0, 10.0), 0.9),
        Corner2D((11.0, 10.0), 0.3),  # duplicate of corner 0
        Corner2D((50.0, 10.0), 0.8),
        Corner2D((50.0, 50.0), 0.8),
        Corner2D((10.0, 50.0), 0.8),
    ]
    frame = DetectionFrame(0, 0, corners, [CodeReading((1, 2, 3, 4), "AA", 1.0)])
    out = cluster_frame(frame, radius=3.0)
    assert len(out.corners) == 4
    assert out.readings[0].quad == (0, 1, 2, 3)


def _tiny_scene():
    return tube_scene(n_cameras=4, strips=3, codes_per_strip=6, seed=21)


def test_oracle_noiseless_matches_projections():
    scene = _tiny_scene()
    pos = scene.positions(0)
    vis = compute_visibility(scene, 0, positions=pos)
    cam = scene.rig.cameras[0]
    frame = oracle_detect(
        0, cam, pos, vis.visible_corners[cam.id], vis.visible_quads[cam.id],
        scene.layout, OracleNoiseConfig(seed=3),
    )
    from suitcap.geometry import project

    ids = vis.visible_corners[cam.id]
    assert len(frame.corners) == len(ids)
    for k, cid in enumerate(ids):
        assert np.array_equal(frame.corners[k].position, project(cam, pos[cid]))
    assert len(frame.readings) == len(vis.visible_quads[cam.id])
    # with zero mislabel probability every reading carries the true code
    for reading, (code, _) in zip(frame.readings, vis.visible_quads[cam.id]):
        assert reading.code == code


def test_oracle_labels_match_ground_truth_ids():
    scene = _tiny_scene()
    pos = scene.positions(0)
    vis = compute_visibility(scene, 0, positions=pos)
    cam = scene.rig.cameras[1]
    frame = oracle_detect(
        0, cam, pos, vis.visible_corners[cam.id], vis.visible_quads[cam.id],
        scene.layout, OracleNoiseConfig(seed=3),
    )
    id_by_index = {}
    for cid, k in zip(vis.visible_corners[cam.id], range(len(frame.corners))):
        id_by_index[k] = int(cid)
    for reading in frame.readings:
        for i_q in (1, 2, 3, 4):
            assert scene.layout.label(reading.code, i_q) == id_by_index[reading.quad[i_q - 1]]


def test_oracle_dropout_one_empties_frame():
    scene = _tiny_scene()
    pos = scene.positions(0)
    vis = compute_visibility(scene, 0, positions=pos)
    cam = scene.rig.cameras[0]
    frame = oracle_detect(
        0, cam, pos, vis.visible_corners[cam.id], vis.visible_quads[cam.id],
        scene.layout, OracleNoiseConfig(dropout_prob=1.0, seed=3),
    )
    assert frame.corners == []
    assert frame.readings == []


def test_oracle_noise_standard_deviation():
    scene = tube_scene(n_cameras=2, strips=8, codes_per_strip=14, seed=22)
    noise = OracleNoiseConfig(pixel_sigma=0.5, seed=9)
    from suitcap.geometry import project_many

    deltas = []
    k = 0
    while len(deltas) < 10000:
        pos = scene.positions(k)
        vis = compute_visibility(scene, k, positions=pos)
        cam = scene.rig.cameras[k % 2]
        frame = oracle_detect(
            k, cam, pos, vis.visible_corners[cam.id], vis.visible_quads[cam.id],
            scene.layout, noise,
        )
        uv, _ = project_many(cam, pos[vis.visible_corners[cam.id]])
        for c, true_uv in zip(frame.corners, uv):
            deltas.append(c.position - true_uv)
        k += 1
    deltas = np.array(deltas[:10000])
    assert 0.49 < deltas[:, 0].std() < 0.51
    assert 0.49 < deltas[:, 1].std() < 0.51


def test_oracle_mislabel_emits_valid_different_code():
    scene = _tiny_scene()
    pos = scene.positions(0)
    vis = compute_visibility(scene, 0, positions=pos)
    cam = scene.rig.cameras[0]
    frame = oracle_detect(
        0, cam, pos, vis.visible_corners[cam.id], vis.visible_quads[cam.id],
        scene.layout, OracleNoiseConfig(mislabel_prob=1.0, seed=5),
    )
    assert frame.readings
    for reading in frame.readings:
        assert reading.code in scene.layout.quad_table
    # with mislabel probability 1 every reading differs from the truth
    codes_true = [c for c, _ in vis.visible_quads[cam.id]]
    assert all(r.code != c for r, c in zip(frame.readings, codes_true))


def test_oracle_deterministic():
    scene = _tiny_scene()
    pos = scene.positions(0)
    vis = compute_visibility(scene, 0, positions=pos)
    cam = scene.rig.cameras[0]
    noise = OracleNoiseConfig(pixel_sigma=0.3, dropout_prob=0.1, mislabel_prob=0.05, seed=77)
    a = oracle_detect(0, cam, pos, vis.visible_corners[cam.id], vis.visible_quads[cam.id], scene.layout, noise)
    b = oracle_detect(0, cam, pos, vis.visible_corners[cam.id], vis.visible_quads[cam.id], scene.layout, noise)
    assert frame_to_json(a) == frame_to_json(b)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        OracleNoiseConfig(pixel_sigma=-1.0)
    with pytest.raises(ValueError):
        OracleNoiseConfig(dropout_prob=1.5)


def test_detection_file_roundtrip(tmp_path, rng):
    frames = []
    for k in range(3):
        corners = [Corner2D(rng.uniform(0, 4000, 2), float(rng.uniform(0, 1))) for _ in range(7)]
        readings = [CodeReading((0, 1, 2, 3), "A7", float(rng.uniform(0, 1)))]
        frames.append(DetectionFrame(k, 2, corners, readings))
    path = tmp_path / "det.jsonl"
    write_detections(frames, path)
    back = read_detections(path)
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert frame_to_json(a) == frame_to_json(b)
        assert a.frame_index == b.frame_index and a.camera_id == b.camera_id
        for ca, cb in zip(a.corners, b.corners):
            # confidences and positions survive verbatim (bit-exact)
            assert ca.position[0] == cb.position[0] and ca.position[1] == cb.position[1]
            assert ca.confidence == cb.confidence


def test_roundtrip_via_json_is_stable():
    frame = DetectionFrame(
        5, 1, [Corner2D((1.2345678901234567, 2.1), 0.123456789123456789)],
        [CodeReading((0, 0, 0, 0), "1A", 0.5)],
    )
    line = frame_to_json(frame)
    assert frame_to_json(frame_from_json(line)) == line
