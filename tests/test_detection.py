import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suitcap.detection import (
    DetectionFrame,
    OracleNoiseConfig,
    cluster_frame,
    frame_from_json,
    frame_to_json,
    oracle_detect,
    read_detections,
    write_detections,
)
from suitcap.simulator import compute_visibility, tube_scene


def cluster(corners, conf):
    return cluster_frame(DetectionFrame(0, 0, corners, conf))


def test_cluster_keeps_higher_confidence():
    out = cluster([(10.0, 10.0), (10.7, 10.7)], [0.9, 0.4])
    assert out.corner_conf.tolist() == [0.9]


def test_cluster_keeps_distant_corners():
    assert len(cluster([(10.0, 10.0), (20.0, 10.0)], [0.9, 0.4]).corners) == 2


def test_cluster_tie_break_lower_index():
    out = cluster([(10.0, 10.0), (11.0, 10.0)], [0.5, 0.5])
    assert out.corners.tolist() == [[10.0, 10.0]]


def _greedy_oracle(pos, conf, radius):
    """Independent O(n^2) greedy suppression over descending confidence: the kept
    indices, and each corner's nearest earlier-kept corner (itself when kept)."""
    order = sorted(range(len(pos)), key=lambda i: (-conf[i], i))
    kept = []
    winner = list(range(len(pos)))
    for i in order:
        d = [np.linalg.norm(pos[i] - pos[j]) for j in kept]
        if all(x >= radius for x in d):
            kept.append(i)
        else:
            winner[i] = kept[int(np.argmin(d))]
    return sorted(kept), np.array(winner, dtype=int)


def test_cluster_matches_greedy_oracle(rng):
    for _ in range(1000):
        n = int(rng.integers(0, 28))
        pos = rng.uniform(0, 40, (n, 2))
        conf = rng.uniform(0, 1, n)
        # readings over every corner, so the remap of each one is checked
        quads = np.resize(np.arange(n), 4 * ((n + 3) // 4)).reshape(-1, 4)
        out = cluster_frame(DetectionFrame(0, 0, pos, conf, quads, ["AA"] * len(quads), np.ones(len(quads))))
        kept, winner = _greedy_oracle(pos, conf, 3.0)
        assert np.array_equal(out.corners, pos[kept])
        assert np.array_equal(out.corner_conf, conf[kept])
        assert np.array_equal(out.quads, np.searchsorted(kept, winner)[quads])


def test_cluster_idempotent(rng):
    once = cluster(rng.uniform(0, 30, (40, 2)), rng.uniform(0, 1, 40))
    twice = cluster_frame(once)
    assert np.array_equal(once.corners, twice.corners)
    assert np.array_equal(once.corner_conf, twice.corner_conf)


def _survivors(frame):
    return {(x, y, c) for (x, y), c in zip(frame.corners.tolist(), frame.corner_conf.tolist())}


# pixel coordinates, some on a 1.5 px lattice so that pairs sit exactly at the radius
COORD = st.one_of(st.floats(0, 30), st.integers(0, 20).map(lambda v: 1.5 * v))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(COORD, COORD), max_size=30), st.data())
def test_cluster_is_idempotent_and_independent_of_order(points, data):
    n = len(points)
    conf = data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n, unique=True))
    order = np.array(data.draw(st.permutations(range(n))), dtype=int)
    quads = np.resize(np.arange(n), 4 * ((n + 3) // 4)).reshape(-1, 4)
    codes = [f"{q:02d}" for q in range(len(quads))]
    frame = DetectionFrame(0, 0, points, conf, quads, codes, np.ones(len(quads)))
    once = cluster_frame(frame)
    twice = cluster_frame(once)
    assert np.array_equal(twice.corners, once.corners) and np.array_equal(twice.corner_conf, once.corner_conf)
    assert np.array_equal(twice.quads, once.quads) and twice.codes == once.codes

    # the same corners listed in another order, readings pointing at the same corners
    where = np.empty(n, dtype=int)
    where[order] = np.arange(n)
    shuffled = cluster_frame(
        DetectionFrame(0, 0, frame.corners[order], frame.corner_conf[order], where[quads], codes, np.ones(len(quads)))
    )
    assert _survivors(shuffled) == _survivors(once)
    assert np.array_equal(shuffled.corners[shuffled.quads], once.corners[once.quads])


def test_cluster_no_survivors_within_radius(rng):
    pos = cluster(rng.uniform(0, 25, (60, 2)), rng.uniform(0, 1, 60)).corners
    d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 3.0


def test_cluster_frame_remaps_readings():
    corners = [
        (10.0, 10.0),
        (11.0, 10.0),  # duplicate of corner 0
        (50.0, 10.0),
        (50.0, 50.0),
        (10.0, 50.0),
    ]
    frame = DetectionFrame(0, 0, corners, [0.9, 0.3, 0.8, 0.8, 0.8], [(1, 2, 3, 4)], ["AA"], [1.0])
    out = cluster_frame(frame)
    assert len(out.corners) == 4
    assert out.quads.tolist() == [[0, 1, 2, 3]]


def _tiny_scene():
    return tube_scene(n_cameras=4, strips=3, codes_per_strip=6, seed=21)


def test_oracle_noiseless_matches_projections():
    scene = _tiny_scene()
    pos = scene.positions(0)
    seen = compute_visibility(scene, 0, positions=pos)[0]
    cam = scene.rig.cameras[0]
    frame = oracle_detect(0, cam, pos, seen, scene.layout, OracleNoiseConfig(seed=3))
    from suitcap.geometry import project_many

    ids = np.flatnonzero(seen)
    assert len(frame.corners) == len(ids)
    for k, cid in enumerate(ids):
        assert np.array_equal(frame.corners[k], project_many(cam, pos[cid])[0][0])
    # with zero mislabel probability every fully seen quad is read with its true code
    layout = scene.layout
    assert frame.codes == [code for code, quad in zip(layout.codes, layout.quads) if seen[quad].all()]


def test_oracle_labels_match_ground_truth_ids():
    scene = _tiny_scene()
    pos = scene.positions(0)
    seen = compute_visibility(scene, 0, positions=pos)[1]
    cam = scene.rig.cameras[1]
    frame = oracle_detect(0, cam, pos, seen, scene.layout, OracleNoiseConfig(seed=3))
    id_of_detection = np.flatnonzero(seen)
    for quad, code in zip(frame.quads, frame.codes):
        # column i of a reading is corner i_q = i + 1 of its code's quad
        assert scene.layout.quad_table[code] == tuple(id_of_detection[quad].tolist())


def test_oracle_dropout_one_empties_frame():
    scene = _tiny_scene()
    pos = scene.positions(0)
    seen = compute_visibility(scene, 0, positions=pos)[0]
    noise = OracleNoiseConfig(dropout_prob=1.0, seed=3)
    frame = oracle_detect(0, scene.rig.cameras[0], pos, seen, scene.layout, noise)
    assert frame.corners.shape == (0, 2) and frame.corner_conf.shape == (0,)
    assert frame.quads.shape == (0, 4) and frame.codes == []


def test_oracle_noise_standard_deviation():
    scene = tube_scene(n_cameras=2, strips=8, codes_per_strip=14, seed=22)
    noise = OracleNoiseConfig(pixel_sigma=0.5, seed=9)
    from suitcap.geometry import project_many

    deltas = []
    k = 0
    while len(deltas) < 10000:
        pos = scene.positions(k)
        seen = compute_visibility(scene, k, positions=pos)[k % 2]
        cam = scene.rig.cameras[k % 2]
        frame = oracle_detect(k, cam, pos, seen, scene.layout, noise)
        uv, _ = project_many(cam, pos[seen])
        deltas.extend(frame.corners - uv)
        k += 1
    deltas = np.array(deltas[:10000])
    assert 0.49 < deltas[:, 0].std() < 0.51
    assert 0.49 < deltas[:, 1].std() < 0.51


def test_oracle_mislabel_emits_valid_different_code():
    scene = _tiny_scene()
    pos = scene.positions(0)
    seen = compute_visibility(scene, 0, positions=pos)[0]
    noise = OracleNoiseConfig(mislabel_prob=1.0, seed=5)
    frame = oracle_detect(0, scene.rig.cameras[0], pos, seen, scene.layout, noise)
    assert frame.codes
    for code in frame.codes:
        assert code in scene.layout.quad_table
    # with mislabel probability 1 every reading differs from the truth
    codes_true = [code for code, quad in zip(scene.layout.codes, scene.layout.quads) if seen[quad].all()]
    assert len(codes_true) == len(frame.codes)
    assert all(c != t for c, t in zip(frame.codes, codes_true))


def test_oracle_deterministic():
    scene = _tiny_scene()
    pos = scene.positions(0)
    seen = compute_visibility(scene, 0, positions=pos)[0]
    cam = scene.rig.cameras[0]
    noise = OracleNoiseConfig(pixel_sigma=0.3, dropout_prob=0.1, mislabel_prob=0.05, seed=77)
    a = oracle_detect(0, cam, pos, seen, scene.layout, noise)
    b = oracle_detect(0, cam, pos, seen, scene.layout, noise)
    assert frame_to_json(a) == frame_to_json(b)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        OracleNoiseConfig(pixel_sigma=-1.0)
    for sigma in (float("nan"), float("inf")):  # either would write non-finite pixels
        with pytest.raises(ValueError, match="pixel_sigma must be a finite number >= 0"):
            OracleNoiseConfig(pixel_sigma=sigma)
    with pytest.raises(ValueError):
        OracleNoiseConfig(dropout_prob=1.5)


def test_detection_file_roundtrip(tmp_path, rng):
    frames = []
    for k in range(3):
        corners = rng.uniform(0, 4000, (7, 2))
        frames.append(DetectionFrame(k, 2, corners, rng.uniform(0, 1, 7), [(0, 1, 2, 3)], ["A7"], [rng.uniform(0, 1)]))
    path = tmp_path / "det.jsonl"
    write_detections(frames, path)
    back = read_detections(path)
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert frame_to_json(a) == frame_to_json(b)
        assert a.frame_index == b.frame_index and a.camera_id == b.camera_id
        # confidences and positions survive verbatim (bit-exact)
        assert np.array_equal(a.corners, b.corners)
        assert np.array_equal(a.corner_conf, b.corner_conf)
        assert np.array_equal(a.quads, b.quads) and a.codes == b.codes
        assert np.array_equal(a.code_conf, b.code_conf)


def test_roundtrip_via_json_is_stable():
    frame = DetectionFrame(
        5, 1, [(1.2345678901234567, 2.1)], [0.123456789123456789], [(0, 0, 0, 0)], ["1A"], [0.5]
    )
    line = frame_to_json(frame)
    assert frame_to_json(frame_from_json(line)) == line


def test_fractional_reading_index_rejected():
    line = json.dumps(
        {
            "frame": 4,
            "cam": 2,
            "corners": [{"x": float(i), "y": 0.0, "conf": 1.0} for i in range(4)],
            "readings": [{"idx": [0, 1.5, 2, 3], "code": "AA", "conf": 1.0}],
        }
    )
    with pytest.raises(ValueError, match="frame 4 camera 2: reading index 1.5 is not an integer"):
        frame_from_json(line)
    # an integral float is the same index
    assert frame_from_json(line.replace("1.5", "1.0")).quads.tolist() == [[0, 1, 2, 3]]
