import numpy as np
import pytest

from suitcap.detection import OracleNoiseConfig, oracle_detect
from suitcap.geometry import Camera, CameraRig, project_many, quat_from_rotvec, quat_mul, quat_normalize
from suitcap.simulator import (
    JointAnimation,
    animate_and_sample,
    build_default_rig,
    compute_visibility,
    scene_from_spec,
    stick_figure_scene,
    truth_clouds,
    tube_scene,
)


def test_default_rig_spacing_and_aim():
    rig = build_default_rig(16)
    assert len(rig) == 16
    centers = np.array([c.center for c in rig])
    phis = np.degrees(np.arctan2(centers[:, 1], centers[:, 0])) % 360.0
    gaps = np.diff(sorted(phis))
    assert np.allclose(gaps, 22.5, atol=1e-9)
    target = np.array([0.0, 0.0, 1000.0])
    for cam in rig:
        uv, z = project_many(cam, target)
        assert np.abs(uv[0] - [cam.intrinsics[0, 2], cam.intrinsics[1, 2]]).max() < 1e-6
        assert z[0] > 0  # positive depth by construction


def test_default_rig_needs_two_cameras():
    with pytest.raises(ValueError):
        build_default_rig(1)


@pytest.mark.parametrize("build", [stick_figure_scene, tube_scene])
@pytest.mark.parametrize("period", [0.0, -40.0, float("nan"), float("inf")])
def test_breathing_period_must_be_finite_and_positive(build, period):
    with pytest.raises(ValueError, match="breathing_period must be a finite number > 0"):
        build(n_cameras=2, breathing_period=period)


@pytest.mark.parametrize(
    "spec, build, kwargs",
    [
        ({"preset": "stick_figure", "seed": 3}, stick_figure_scene, {"seed": 3}),
        ({"preset": "tube", "seed": 3, "breathing_amplitude": 3.0}, tube_scene, dict(seed=3, breathing_amplitude=3.0)),
        # the builder's own defaults fill what the spec leaves out, and keys it does not take are ignored
        ({"seed": 3, "frames": 7, "strips": 2}, stick_figure_scene, {"seed": 3}),
        ({"preset": "tube", "strips": 4, "radius": 90.0, "frames": 7}, tube_scene, {"strips": 4, "radius": 90.0}),
    ],
)
def test_scene_from_spec_forwards_only_what_the_spec_holds(spec, build, kwargs):
    a, b = scene_from_spec(spec), build(**kwargs)
    assert np.array_equal(a.model.rest_vertices, b.model.rest_vertices)
    assert np.array_equal(a.breathing_amplitude, b.breathing_amplitude)
    assert np.array_equal(a.positions(5), b.positions(5))
    assert [c.center.tolist() for c in a.rig] == [c.center.tolist() for c in b.rig]


@pytest.mark.parametrize("codes_per_strip", [7, 1, 0])
def test_tube_codes_per_strip_must_be_even(codes_per_strip):
    # each bone carries half of each strip's codes; 7 once built the scene of 6, and 1 that of 2
    with pytest.raises(ValueError, match="codes_per_strip must be an even integer >= 2"):
        tube_scene(codes_per_strip=codes_per_strip)


def test_scene_from_spec_rejects_unknown_preset():
    with pytest.raises(ValueError, match="unknown scene preset 'bogus'"):
        scene_from_spec({"preset": "bogus"})


def static_scene(**kw):
    scene = tube_scene(strips=5, codes_per_strip=8, seed=17, **kw)
    M = scene.model.n_joints
    scene.animation = JointAnimation(
        axes=np.tile([0.0, 0.0, 1.0], (M, 1)),
        amplitudes=np.zeros(M),
        periods=np.full(M, 100.0),
        phases=np.zeros(M),
        root_sway=0.0,
    )
    return scene


def test_identity_animation_keeps_rest_pose():
    scene = static_scene()
    samples = animate_and_sample(scene, 3)
    for k in range(3):
        assert np.abs(samples[k] - scene.model.rest_vertices).max() < 1e-9


def test_breathing_peak_to_peak():
    amp = 4.0
    scene = static_scene(breathing_amplitude=amp, breathing_period=40.0)
    samples = animate_and_sample(scene, 40)
    excursions = samples - scene.model.rest_vertices[None]
    mags = np.linalg.norm(excursions, axis=2)
    # each vertex oscillates along its own axis: peak-to-peak = 2 x amplitude
    per_vertex = scene.breathing_amplitude
    signed = np.einsum("kni,ni->kn", excursions, scene.breathing_dirs)
    peak_to_peak = signed.max(axis=0) - signed.min(axis=0)
    assert np.abs(peak_to_peak - 2.0 * per_vertex).max() < per_vertex.max() * 0.02 + 1e-9
    assert np.abs(mags.max(axis=0) - per_vertex).max() < per_vertex.max() * 0.02 + 1e-9
    assert per_vertex.max() <= amp + 1e-12


def test_samples_respect_generative_roundtrip(rng):
    scene = tube_scene(strips=4, codes_per_strip=6, seed=19, breathing_amplitude=3.0)
    model = scene.posed_model(5)
    from suitcap.skinning import joint_transforms, unskin_with_transforms

    for k in range(5):
        pos = scene.positions(k)
        G = joint_transforms(model, model.pose_quats[k], model.root_translations[k])
        ids = np.arange(model.n_vertices)
        rest_back, singular = unskin_with_transforms(model, G, ids, pos)
        assert not singular.any()
        expected = model.rest_vertices + scene.rest_displacements(k)
        assert np.abs(rest_back - expected).max() < 1e-9


def test_animation_stays_smooth():
    scene = tube_scene(strips=3, codes_per_strip=6, seed=23, animation_strength=1.5)
    prev = None
    for k in range(50):
        quats, _ = scene.pose(k)
        if prev is not None:
            # angle between consecutive per-joint rotations stays below 10 degrees
            dots = np.abs(np.sum(quats * prev, axis=1))
            angles = 2 * np.degrees(np.arccos(np.clip(dots, -1, 1)))
            assert angles.max() < 10.0
        prev = quats


# ---------------------------------------------------------------------------
# visibility


def test_visibility_matches_analytic_half_cylinder():
    scene = static_scene()
    cam = scene.rig.cameras[0]  # on the +X axis
    rest = scene.model.rest_vertices
    visible = set(np.flatnonzero(compute_visibility(scene, 0)[0]).tolist())

    # outward normal of a vertical cylinder is the radial direction
    radial = rest.copy()
    radial[:, 2] = 0.0
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    to_cam = cam.center - rest
    analytic = {i for i in range(len(rest)) if radial[i] @ to_cam[i] > 0}

    cols = np.degrees(np.arctan2(rest[:, 1], rest[:, 0]))
    step = 360.0 / len(np.unique(np.round(cols, 6)))
    mismatched = visible.symmetric_difference(analytic)
    for i in mismatched:
        # disagreements may only occur within one angular ring of the terminator
        boundary_angle = np.degrees(np.arccos(radial[i] @ to_cam[i] / np.linalg.norm(to_cam[i])))
        assert abs(boundary_angle - 90.0) <= 1.5 * step


def test_corner_behind_camera_invisible():
    scene = static_scene()
    # two-camera rig squeezed next to the body: the tube is behind camera 1
    K = scene.rig.cameras[0].intrinsics
    cam_near = Camera(
        id=0,
        intrinsics=K,
        distortion=np.zeros(5),
        rotation=scene.rig.cameras[0].rotation,
        translation=scene.rig.cameras[0].translation,
        image_size=scene.rig.cameras[0].image_size,
    )
    # camera looking away: flip 180 degrees about its own y axis, same center
    flip = quat_from_rotvec(np.array([0.0, np.pi, 0.0]))
    q_away = quat_normalize(quat_mul(flip, scene.rig.cameras[0].rotation))
    from suitcap.geometry import quat_to_rot

    cam_away = Camera(
        id=1,
        intrinsics=K,
        distortion=np.zeros(5),
        rotation=q_away,
        translation=-quat_to_rot(q_away) @ cam_near.center,
        image_size=cam_near.image_size,
    )
    scene.rig = CameraRig([cam_near, cam_away])
    visible = compute_visibility(scene, 0)
    assert not visible[1].any()
    assert visible[0].any()


def test_quad_visible_only_with_all_four_corners():
    scene = static_scene()
    pos = scene.positions(0)
    visible = compute_visibility(scene, 0, positions=pos)
    layout = scene.layout
    for cam, seen in zip(scene.rig, visible):
        frame = oracle_detect(0, cam, pos, seen, layout, OracleNoiseConfig())
        read = [layout.codes.index(code) for code in frame.codes]
        # every reading's four corners are visible in its camera, detected where the reading says
        assert seen[layout.quads[read]].all()
        assert np.array_equal(np.flatnonzero(seen)[frame.quads], layout.quads[read])
        # and conversely: without dropout every fully visible quad is read
        assert read == np.flatnonzero(seen[layout.quads].all(axis=1)).tolist()


def test_visibility_invariant_under_joint_rotation_of_scene_and_rig():
    scene = static_scene()
    base = compute_visibility(scene, 0)

    # rotate body and rig by 90 degrees about z (exact in floating point)
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    rot = static_scene()
    rot.model.rest_vertices = scene.model.rest_vertices @ Rz.T
    rot.model.joints = scene.model.joints @ Rz.T
    qz = quat_from_rotvec(np.array([0.0, 0.0, np.pi / 2]))
    qz_conj = np.array([qz[0], -qz[1], -qz[2], -qz[3]])
    cams = []
    for c in scene.rig:
        cams.append(
            Camera(
                id=c.id,
                intrinsics=c.intrinsics,
                distortion=c.distortion,
                rotation=quat_normalize(quat_mul(c.rotation, qz_conj)),
                translation=c.translation,
                image_size=c.image_size,
            )
        )
    rot.rig = CameraRig(cams)
    assert np.array_equal(compute_visibility(rot, 0), base)


def test_truth_clouds_cover_multicamera_corners():
    scene = tube_scene(strips=3, codes_per_strip=6, seed=29)
    clouds = truth_clouds(scene, 2, min_cameras=2)
    assert len(clouds) == 2
    for k, cloud in enumerate(clouds):
        visible = compute_visibility(scene, k)
        assert set(cloud.points) == set(np.flatnonzero(visible.sum(axis=0) >= 2).tolist())
        pos = scene.positions(k)
        for cid, rec in cloud.points.items():
            assert np.array_equal(rec.position, pos[cid])
            assert rec.cameras == tuple(scene.rig.ids[visible[:, cid]].tolist())


def test_stick_figure_scale():
    scene = stick_figure_scene(n_cameras=4, seed=1)
    assert scene.layout.n_corners == 1488
    assert len(scene.layout.codes) == 562
    assert scene.model.n_joints == 16
    assert len(scene.rig) == 4


def test_hole_closing_vertices_never_visible():
    import dataclasses

    from suitcap.layout import SuitLayout
    from suitcap.simulator import SyntheticScene
    from suitcap.skinning import SkinnedBodyModel

    base = static_scene()
    lay = base.layout
    n = lay.n_corners
    # append one hole-closing vertex centered above the tube, closing a fan face
    quad0 = lay.faces[0]
    layout = SuitLayout(
        n_corners=n,
        quad_table=lay.quad_table,
        faces=list(lay.faces) + [(quad0[0], quad0[1], n)],
        extra_vertices=1,
    )
    rest = np.vstack([base.model.rest_vertices, [[0.0, 0.0, 1600.0]]])
    weights = np.vstack([base.model.weights, base.model.weights[-1:]])
    never = np.zeros(n + 1, dtype=bool)
    never[n] = True
    model = SkinnedBodyModel(rest, base.model.joints, base.model.parents, weights, never_observed=never)
    scene = SyntheticScene(
        model=model,
        layout=layout,
        rig=base.rig,
        animation=base.animation,
        breathing_amplitude=np.concatenate([base.breathing_amplitude, [0.0]]),
        breathing_dirs=np.vstack([base.breathing_dirs, [[0.0, 0.0, 1.0]]]),
        vertex_tube=np.concatenate([base.vertex_tube, [0]]),
    )
    assert not compute_visibility(scene, 0)[:, n].any()
