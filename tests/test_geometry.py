import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from suitcap.errors import CalibrationError
from suitcap.geometry import (
    Camera,
    CameraRig,
    crowded,
    load_calibration,
    normalized_coords,
    project_jacobian,
    project_many,
    quat_from_rotvec,
    quat_normalize,
    project_cams,
    save_calibration,
    undistort_normalized,
)

from conftest import look_at_camera


def simple_camera(f=1000.0, cx=960.0, cy=540.0, dist=None):
    K = np.array([[f, 0, cx], [0, f, cy], [0, 0, 1.0]])
    return Camera(
        id=0,
        intrinsics=K,
        distortion=np.zeros(5) if dist is None else np.asarray(dist, dtype=float),
        rotation=np.array([1.0, 0, 0, 0]),
        translation=np.zeros(3),
        image_size=(1920, 1080),
    )


# ---------------------------------------------------------------------------
# project


def test_optical_axis_point_hits_principal_point():
    cam = simple_camera()
    uv, z = project_many(cam, [0, 0, 1000.0])
    assert np.allclose(uv, [[960.0, 540.0]])
    assert z.tolist() == [1000.0]


def test_pinhole_similar_triangles():
    cam = simple_camera(f=1000.0)
    uv, _ = project_many(cam, [100.0, 0.0, 2000.0])
    assert np.allclose(uv, [[960.0 + 1000.0 * 100.0 / 2000.0, 540.0]])


def test_non_positive_depth_returned():
    # callers mask on the depth: a point at or behind the camera plane reads z <= 0
    cam = simple_camera()
    with np.errstate(divide="ignore", invalid="ignore"):
        _, z = project_many(cam, [[0, 0, -5.0], [0, 0, 0.0]])
    assert z.tolist() == [-5.0, 0.0]


def _scalar_distort(x, y, dist):
    # independent plain-float implementation of the distortion polynomial
    k1, k2, p1, p2, k3 = (float(v) for v in dist)
    r2 = x * x + y * y
    radial = 1.0 + k1 * r2 + k2 * r2 * r2 + k3 * r2 * r2 * r2
    xd = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
    yd = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
    return xd, yd


def _scalar_undistort(xd, yd, dist):
    x, y = xd, yd
    for _ in range(60):
        dx, dy = _scalar_distort(x, y, dist)
        x, y = x + (xd - dx), y + (yd - dy)
    return x, y


def test_project_backproject_roundtrip_against_scalar_oracle(rng):
    dist = np.array([-0.11, 0.03, 0.0007, -0.0004, 0.004])
    for _ in range(50):
        axis = rng.normal(size=3)
        q = quat_from_rotvec(0.2 * axis / np.linalg.norm(axis))
        K = np.array([[2200.0, 0, 1000.0], [0, 2300.0, 700.0], [0, 0, 1.0]])
        t = rng.uniform(-100, 100, 3)
        cam = Camera(0, K, dist, quat_normalize(q), t, (2000, 1400))
        # pick the point in camera coordinates so depth is always valid
        z = 2000.0
        p_cam = np.array([rng.uniform(-0.3, 0.3) * z, rng.uniform(-0.3, 0.3) * z, z])
        p = cam.rot.T @ (p_cam - t)
        uv = project_many(cam, p)[0][0]

        yn = (uv[1] - K[1, 2]) / K[1, 1]
        xn = (uv[0] - K[0, 2]) / K[0, 0]
        xu, yu = _scalar_undistort(float(xn), float(yn), dist)
        d_cam = np.array([xu, yu, 1.0])
        R = cam.rot
        d_world = R.T @ d_cam
        d_world /= np.linalg.norm(d_world)
        center = cam.center
        true_dir = (p - center) / np.linalg.norm(p - center)
        assert np.abs(d_world - true_dir).max() < 1e-8


def _mixed_rig_points(rng, n=400):
    # spread wide enough that distortion moves pixels by several px
    pts = rng.uniform([-800.0, -800.0, 300.0], [800.0, 800.0, 1700.0], size=(n, 3))
    return pts, rng.integers(0, 8, size=n)


def test_kernel_matches_scalar_oracle_on_mixed_rig(mixed_rig, rng):
    pts, cam_idx = _mixed_rig_points(rng)
    uv, z = project_cams(mixed_rig, cam_idx, pts)
    shift = []
    for b, (p, c) in enumerate(zip(pts, cam_idx)):
        cam = mixed_rig.cameras[c]
        pc = cam.rot @ p + cam.translation
        x, y = pc[0] / pc[2], pc[1] / pc[2]
        xd, yd = _scalar_distort(x, y, cam.distortion)
        K = cam.intrinsics
        expected = np.array([K[0, 0] * xd + K[0, 1] * yd + K[0, 2], K[1, 1] * yd + K[1, 2]])
        assert z[b] == pytest.approx(pc[2], rel=1e-12)
        assert np.abs(uv[b] - expected).max() < 1e-9
        shift.append(np.hypot(K[0, 0] * (xd - x), K[1, 1] * (yd - y)))
    shift = np.array(shift)
    assert np.all(shift[cam_idx % 2 == 1] == 0.0)
    assert shift[cam_idx % 2 == 0].max() > 5.0  # the distorted cameras are exercised


def test_project_jacobian_matches_kernel_central_differences(mixed_rig, rng):
    pts, cam_idx = _mixed_rig_points(rng, 100)
    uv, z = project_cams(mixed_rig, cam_idx, pts)
    uv_j, z_j, J = project_jacobian(mixed_rig, cam_idx, pts)
    assert np.array_equal(uv_j, uv)
    assert np.array_equal(z_j, z)
    h = 1e-3
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        up, _ = project_cams(mixed_rig, cam_idx, pts + step)
        down, _ = project_cams(mixed_rig, cam_idx, pts - step)
        assert np.abs((up - down) / (2 * h) - J[:, :, k]).max() < 1e-7


def _normalized_coords_per_camera(rig, cam_idx, pixels):
    # the per-camera loop that `normalized_coords` replaced: one camera's (5,)
    # coefficients at a time, pinhole cameras passed through unchanged
    yn = (pixels[:, 1] - rig.cy[cam_idx]) / rig.fy[cam_idx]
    xn = (pixels[:, 0] - rig.cx[cam_idx] - rig.skew[cam_idx] * yn) / rig.fx[cam_idx]
    res = np.stack([xn, yn], axis=-1)
    for c in np.unique(cam_idx):
        if np.any(rig.dist[c] != 0.0):
            m = cam_idx == c
            res[m] = undistort_normalized(res[m], rig.dist[c])
    return res


def test_normalized_coords_matches_per_camera_loop(mixed_rig, rng):
    pts, cam_idx = _mixed_rig_points(rng, 2000)
    uv, _ = project_cams(mixed_rig, cam_idx, pts)
    pixels = uv + rng.normal(0.0, 0.5, uv.shape)
    nc = normalized_coords(mixed_rig, cam_idx, pixels)
    assert np.array_equal(nc, _normalized_coords_per_camera(mixed_rig, cam_idx, pixels))
    # both kinds of camera are exercised, and the undistortion inverts the kernel
    assert set(cam_idx % 2) == {0, 1}
    noiseless = normalized_coords(mixed_rig, cam_idx, uv)
    pc = np.einsum("bij,bj->bi", mixed_rig.R[cam_idx], pts) + mixed_rig.t[cam_idx]
    assert np.abs(noiseless - pc[:, :2] / pc[:, 2:]).max() < 1e-9


# ---------------------------------------------------------------------------
# reprojection error


def test_reprojection_error_gaussian_noise_mean(rng):
    # mean norm of a 2-D isotropic Gaussian is sigma * sqrt(pi/2) ~ 0.6267 for sigma = 0.5
    cam = simple_camera()
    p = np.array([45.0, -20.0, 1700.0])
    obs = project_many(cam, p)[0] + rng.normal(0.0, 0.5, (1000, 2))
    d = project_many(cam, np.tile(p, (1000, 1)))[0] - obs
    errs = np.hypot(d[:, 0], d[:, 1])
    assert 0.55 < np.mean(errs) < 0.72


def test_reprojection_error_invariant_under_rigid_world_transform(rng):
    cam = look_at_camera(0, (2500.0, 200.0, 900.0), (0, 0, 1000.0))
    p = np.array([120.0, -80.0, 1100.0])
    obs = project_many(cam, p)[0][0] + np.array([1.2, -0.7])
    base = np.hypot(*(project_many(cam, p)[0][0] - obs))

    from suitcap.geometry import quat_mul, quat_to_rot

    for _ in range(10):
        axis = rng.normal(size=3)
        qg = quat_from_rotvec(rng.uniform(0, 2) * axis / np.linalg.norm(axis))
        Rg = quat_to_rot(qg)
        tg = rng.uniform(-500, 500, 3)
        p2 = Rg @ p + tg
        q2 = quat_mul(cam.rotation, np.array([qg[0], -qg[1], -qg[2], -qg[3]]))
        t2 = cam.translation - cam.rot @ Rg.T @ tg
        cam2 = Camera(0, cam.intrinsics, cam.distortion, quat_normalize(q2), t2, cam.image_size)
        assert math.isclose(np.hypot(*(project_many(cam2, p2)[0][0] - obs)), base, rel_tol=1e-9)


def test_project_scale_consistent_along_ray(rng):
    cam = look_at_camera(0, (2500.0, 200.0, 900.0), (0, 0, 1000.0))
    center = cam.center
    d = np.array([-0.9, 0.1, 0.2])
    d /= np.linalg.norm(d)
    lam = np.array([1.0, 0.5, 2.0, 5.0, 17.3])
    uv, _ = project_many(cam, center + 1000.0 * lam[:, None] * d)
    assert np.abs(uv[1:] - uv[0]).max() < 1e-9


# ---------------------------------------------------------------------------
# calibration files


def test_calibration_roundtrip(tmp_path, rig4):
    path = tmp_path / "calib.json"
    save_calibration(rig4, path)
    rig2 = load_calibration(path)
    assert len(rig2) == len(rig4)
    for a, b in zip(rig4, rig2):
        assert a.id == b.id
        assert np.array_equal(a.intrinsics, b.intrinsics)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)
        assert a.image_size == b.image_size


def test_calibration_rejects_unknown_distortion_length(tmp_path, rig4):
    import json

    path = tmp_path / "calib.json"
    save_calibration(rig4, path)
    doc = json.loads(path.read_text())
    doc[0]["dist"] = doc[0]["dist"][:4]
    path.write_text(json.dumps(doc))
    with pytest.raises(CalibrationError):
        load_calibration(path)

    doc[0]["dist"] = [0.0] * 8
    path.write_text(json.dumps(doc))
    with pytest.raises(CalibrationError):
        load_calibration(path)


def test_calibration_rejects_missing_fields(tmp_path, rig4):
    import json

    path = tmp_path / "calib.json"
    save_calibration(rig4, path)
    doc = json.loads(path.read_text())
    del doc[0]["q"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CalibrationError):
        load_calibration(path)


def _entry(k, v):
    def edit(doc):
        doc[0][k] = v
        return doc
    return edit


def _repeat_id(doc):
    doc[3]["id"] = doc[1]["id"]
    return doc


@pytest.mark.parametrize(
    "edit, where",
    [
        pytest.param(lambda doc: [5] + doc[1:], "camera entry 0 is not an object", id="entry-not-object"),
        pytest.param(_entry("size", 5), "camera entry 0: 'size' must be 2 finite numbers", id="size-5"),
        pytest.param(_entry("size", [4000.7, 2160]), "camera entry 0: image size must be 2 positive integers",
                     id="size-fraction"),
        pytest.param(_repeat_id, "camera entries 1 and 3 both have id 1", id="repeated-id"),
        pytest.param(_entry("id", "x"), "camera entry 0: 'id' must be an integer", id="id-string"),
        pytest.param(_entry("id", 1.5), "camera entry 0: 'id' must be an integer", id="id-fraction"),
        pytest.param(_entry("q", [1.0, 0.0, 0.0]), "camera entry 0: 'q' must be 4 finite numbers", id="q-3-values"),
        pytest.param(_entry("K", [float("nan")] * 9), "camera entry 0: 'K' must be 9 finite numbers", id="K-nan"),
        pytest.param(lambda doc: [], "calibration file must contain a non-empty JSON array", id="no-cameras"),
    ],
)
def test_calibration_error_names_file_and_entry(tmp_path, rig4, edit, where):
    import json

    path = tmp_path / "calib.json"
    save_calibration(rig4, path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(CalibrationError, match="^" + re.escape(f"{path}: {where}")):
        load_calibration(path)


def test_camera_invariants_enforced():
    K = np.array([[1000.0, 0, 960], [0, 1000.0, 540], [0, 0, 1.0]])
    with pytest.raises(ValueError):
        Camera(0, K, np.zeros(5), np.array([1.0, 0.1, 0, 0]), np.zeros(3), (1920, 1080))
    bad_K = K.copy()
    bad_K[2, 2] = 2.0
    with pytest.raises(ValueError):
        Camera(0, bad_K, np.zeros(5), np.array([1.0, 0, 0, 0]), np.zeros(3), (1920, 1080))
    for size in ((1920.5, 1080), (0, 1080), (1920, -1080), (1920, float("nan"))):
        with pytest.raises(ValueError, match="image size must be 2 positive integers"):
            Camera(0, K, np.zeros(5), np.array([1.0, 0, 0, 0]), np.zeros(3), size)
    # an integral float is that many pixels
    assert Camera(0, K, np.zeros(5), np.array([1.0, 0, 0, 0]), np.zeros(3), (1920.0, 1080)).image_size == (1920, 1080)


def test_rig_requires_unique_ids():
    cam = simple_camera()
    with pytest.raises(ValueError):
        CameraRig([cam, cam])


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.integers(-1000, 1000), unique=True, max_size=6),
    distorted=st.lists(st.booleans(), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_rig_stacks_its_cameras(ids, distorted, seed):
    """Unsorted and negative ids, distorted and pinhole cameras, and the empty rig."""
    rng = np.random.default_rng(seed)
    cams = []
    for cam_id, d in zip(ids, distorted):
        fx, fy = rng.uniform(500.0, 3000.0, 2)
        K = [[fx, rng.uniform(-5.0, 5.0), rng.uniform(0.0, 4000.0)], [0.0, fy, rng.uniform(0.0, 2000.0)], [0, 0, 1]]
        dist = rng.normal(0.0, 0.05, 5) if d else np.zeros(5)
        q = quat_normalize(rng.normal(size=4))
        cams.append(Camera(cam_id, K, dist, q, rng.uniform(-3000.0, 3000.0, 3), (4000, 2000)))
    rig = CameraRig(cams)
    n = len(cams)

    per_camera = {
        "ids": [c.id for c in cams],
        "R": [c.rot for c in cams],
        "t": [c.translation for c in cams],
        "fx": [c.intrinsics[0, 0] for c in cams],
        "fy": [c.intrinsics[1, 1] for c in cams],
        "cx": [c.intrinsics[0, 2] for c in cams],
        "cy": [c.intrinsics[1, 2] for c in cams],
        "skew": [c.intrinsics[0, 1] for c in cams],
        "dist": [c.distortion for c in cams],
    }
    shapes = {"R": (3, 3), "t": (3,), "dist": (5,)}
    for name, values in per_camera.items():
        stack = getattr(rig, name)
        assert stack.shape == (n, *shapes.get(name, ())), name
        assert np.array_equal(stack, np.reshape(values, stack.shape)), name
        assert not stack.flags.writeable, name
    assert rig.any_distortion == any(distorted[:n])

    order = rng.permutation(n)
    assert rig.rows_of(np.array(ids, dtype=int)[order]).tolist() == order.tolist()
    unknown = max(ids, default=0) + 1
    with pytest.raises(ValueError, match=f"camera id {unknown} is not in the rig"):
        rig.rows_of([*ids, unknown])

    pts = rng.uniform(-1000.0, 1000.0, (5, 3))
    for cam in cams:
        uv, z = project_many(cam, pts)
        uv_rig, z_rig = project_cams(rig, rig.rows_of([cam.id] * len(pts)), pts)
        assert uv.tobytes() == uv_rig.tobytes() and z.tobytes() == z_rig.tobytes()


# ---------------------------------------------------------------------------
# crowded


def _crowded_oracle(points, r):
    near = np.zeros(len(points), dtype=bool)
    if len(points) > 1:
        near[cKDTree(points).query_pairs(r, output_type="ndarray").ravel()] = True
    return near


def _crowded_cases():
    rng = np.random.default_rng(7)
    cases = {
        "empty": (np.zeros((0, 2)), 3.0),
        "one": (np.array([[5.0, -2.0]]), 3.0),
        "two-at-r": (np.array([[0.0, 0.0], [3.0, 4.0]]), 5.0),
        "two-past-r": (np.array([[0.0, 0.0], [3.0, 4.0]]), 4.999),
        "two-equal": (np.array([[-7.5, 2.25], [-7.5, 2.25]]), 0.5),
    }
    for k, r in enumerate([0.5, 3.0, 3.0 * (1 + 1e-9), 40.0]):
        cases[f"uniform-{r}"] = (rng.uniform(-80, 150, size=(1500, 2)) * r, r)
        cases[f"clumped-{r}"] = (rng.normal(scale=6 * r, size=(300, 2)) - 1000 * k, r)
    # integer points, where many pairs lie exactly r apart (5 = |(3, 4)|; 1, 2 and 3 along the axes)
    for r in (1.0, 2.0, 3.0, 5.0, np.sqrt(2.0)):
        half = int(12 * r) + 5  # about one other point within r of each
        cases[f"lattice-{r:.3f}"] = (rng.integers(-half, half, size=(200, 2)).astype(float), r)
    base = rng.uniform(-50, 50, size=(100, 2))
    cases["duplicates"] = (np.concatenate([base, base[::3], base[::7] + 3.0]), 3.0)
    cases["sparse-duplicates"] = (np.concatenate([base * 100, base[:2] * 100]), 1.0)
    return cases


@pytest.mark.parametrize("case", sorted(_crowded_cases()))
def test_crowded_matches_kdtree_pairs(case):
    points, r = _crowded_cases()[case]
    expected = _crowded_oracle(points, r)
    near = crowded(points, r)
    assert near.dtype == bool and near.shape == (len(points),)
    assert np.array_equal(near, expected)
    if case.startswith(("uniform", "lattice", "duplicates")):
        assert 0 < expected.sum() < len(points)  # the case has both kinds of point
    if case.startswith("lattice"):  # pairs exactly r apart count as near
        assert not np.array_equal(near, crowded(points, np.nextafter(r, 0)))
