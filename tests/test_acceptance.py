"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest
from conftest import detect_sequence, labeled_counts
from scipy.linalg import null_space

from suitcap import detection as det
from suitcap import inpaint as ip
from suitcap import reconstruct as rec
from suitcap import refine as rf
from suitcap import simulator as sim
from suitcap.geometry import Camera, CameraRig
from suitcap.layout import generate_synthetic_layout


def report(criterion: str, ok: bool, detail: str) -> None:
    import conftest

    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    conftest.ACCEPTANCE_LINES.append(line)


# ---------------------------------------------------------------------------
# 1. end-to-end oracle equivalence


def test_criterion_1_end_to_end_oracle():
    scene = sim.stick_figure_scene(seed=3)
    n_frames = 200
    assert scene.layout.n_corners == 1488  # N ~ 1500 corners

    frames = detect_sequence(scene, n_frames, det.OracleNoiseConfig(seed=11))
    t0 = time.perf_counter()
    clouds = [rec.reconstruct_frame(g, scene.rig, scene.layout) for g in rec.group_frames(frames)]
    elapsed = time.perf_counter() - t0

    worst = 0.0
    missing = 0
    checked = 0
    for cloud in clouds:
        pos = scene.positions(cloud.frame_index)
        counts = labeled_counts(scene, cloud.frame_index)
        for cid in np.where(counts >= 2)[0]:
            checked += 1
            recp = cloud.points.get(int(cid))
            if recp is None:
                missing += 1
                continue
            worst = max(worst, float(np.linalg.norm(recp.position - pos[cid])))
    ok = missing == 0 and worst < 1e-6 and elapsed < 60.0
    report(
        "1 end-to-end oracle",
        ok,
        f"{checked} corner-frames, missing {missing}, max error {worst:.3e} mm, "
        f"reconstruction {elapsed:.1f} s for {n_frames} frames",
    )
    assert missing == 0
    assert worst < 1e-6
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. reprojection ladder (Table-6 analogue)


def test_criterion_2_reprojection_ladder():
    scene = sim.tube_scene(n_cameras=16, strips=5, codes_per_strip=10, seed=51, animation_strength=0.7)
    n_frames = 1000
    frames = detect_sequence(scene, n_frames, det.OracleNoiseConfig(pixel_sigma=0.5, seed=13))
    clouds = [rec.reconstruct_frame(g, scene.rig, scene.layout) for g in rec.group_frames(frames)]

    errors = np.array([e for c in clouds for r in c.points.values() for e in r.per_camera_err])
    ladder = {p: float(np.percentile(errors, p)) for p in (95, 99, 99.9, 99.99)}
    violations = sum(1 for c in clouds for r in c.points.values() if r.mean_reproj_err > 1.5)

    ok = ladder[99] <= 1.01 and violations == 0
    report(
        "2 reprojection ladder",
        ok,
        f"sigma=0.5 px ladder 95/99/99.9/99.99 = "
        f"{ladder[95]:.3f}/{ladder[99]:.3f}/{ladder[99.9]:.3f}/{ladder[99.99]:.3f} px "
        f"({errors.size} observations), 1.5 px contract violations: {violations}",
    )
    assert violations == 0, "every emitted point must satisfy the 1.5 px mean-error contract"
    assert ladder[99] <= 1.01, (
        f"99th percentile {ladder[99]:.3f} px exceeds 1.01 px: with isotropic sigma=0.5 px "
        "per-axis detection noise the post-fit per-camera residual norm is Rayleigh with "
        "sigma ~ 0.44-0.48 px, whose trimmed 99th percentile is ~1.3 px; the 1.01 px bound "
        "is reachable only when nearly all corners are seen by <= 3 cameras, which would "
        "not resemble the 16-camera ladder this criterion mirrors (see decisions ledger)"
    )


# ---------------------------------------------------------------------------
# 3. mislabel filter efficacy


def test_criterion_3_mislabel_filter():
    # three cameras in a 30-degree arc: every front corner is seen by <= 3
    # cameras, the regime where the single-pass 1.5 IQR rule is surgical
    scene = sim.tube_scene(n_cameras=16, strips=5, codes_per_strip=10, seed=61, animation_strength=0.5)
    ring = sim.build_default_rig(360)
    picks = [345, 0, 15]
    scene.rig = CameraRig(
        [
            Camera(i, ring.cameras[az].intrinsics, ring.cameras[az].distortion,
                   ring.cameras[az].rotation, ring.cameras[az].translation,
                   ring.cameras[az].image_size)
            for i, az in enumerate(picks)
        ]
    )
    n_frames = 100
    noise = det.OracleNoiseConfig(pixel_sigma=0.2, mislabel_prob=0.02, seed=17)

    n_wrong = wrong_removed = n_correct = correct_removed = 0
    filter_seconds = 0.0
    for k in range(n_frames):
        pos = scene.positions(k)
        visible = sim.compute_visibility(scene, k, positions=pos)
        corner_id, camera_id, pixel, truthful = [], [], [], []
        for cam, seen in zip(scene.rig, visible):
            f = det.oracle_detect(k, cam, pos, seen, scene.layout, noise)
            pix2tid = {tuple(p): int(t) for p, t in zip(f.corners.tolist(), np.flatnonzero(seen))}
            f = det.cluster_frame(f)
            obs, _ = rec.consolidate_labels(f, scene.layout)
            corner_id += obs[:, 0].tolist()
            camera_id += [cam.id] * len(obs)
            pixel += f.corners[obs[:, 1]].tolist()
            truthful += [pix2tid[tuple(p)] == cid for p, cid in zip(f.corners[obs[:, 1]].tolist(), obs[:, 0])]
        order = np.lexsort((camera_id, corner_id))
        corner_id, camera_id = np.array(corner_id)[order], np.array(camera_id)[order]
        pixel, truthful = np.array(pixel)[order], np.array(truthful)[order]
        t0 = time.perf_counter()
        cloud = rec.filter_mislabels(corner_id, camera_id, pixel, scene.rig, k)
        filter_seconds += time.perf_counter() - t0
        claims = dict(zip(*np.unique(corner_id, return_counts=True)))
        for cid, cam_id, ok_label in zip(corner_id.tolist(), camera_id.tolist(), truthful):
            emitted = cloud.points.get(cid)
            in_domain = claims[cid] >= 2  # the filter's stated precondition
            survived = emitted is not None and cam_id in emitted.cameras
            if ok_label:
                if in_domain:
                    n_correct += 1
                    correct_removed += not survived
            else:
                n_wrong += 1
                wrong_removed += not survived

    removal_rate = wrong_removed / max(n_wrong, 1)
    false_rate = correct_removed / max(n_correct, 1)
    per100 = filter_seconds / n_frames * 100.0
    ok = removal_rate >= 0.95 and false_rate < 0.005 and per100 < 5.0
    report(
        "3 mislabel filter",
        ok,
        f"{n_wrong} injected mislabels, removed {100 * removal_rate:.1f}%; "
        f"false removals {100 * false_rate:.3f}% of {n_correct}; "
        f"filter {per100:.2f} s per 100 frames (single pass)",
    )
    assert removal_rate >= 0.95
    assert false_rate < 0.005
    assert per100 < 5.0


# ---------------------------------------------------------------------------
# 4 + 5. refinement criteria share one generative setup


@pytest.fixture(scope="module")
def generative():
    scene = sim.tube_scene(strips=4, codes_per_strip=8, seed=5, animation_strength=1.4)
    K = 52
    truth = scene.posed_model(K)
    clouds = sim.truth_clouds(scene, K)
    return scene, truth, clouds


def _blur(W, layout, rounds=1):
    edges = layout.edges()
    out = W.copy()
    for _ in range(rounds):
        acc = out.copy()
        deg = np.ones(len(out))
        np.add.at(acc, edges[:, 0], out[edges[:, 1]])
        np.add.at(acc, edges[:, 1], out[edges[:, 0]])
        np.add.at(deg, edges[:, 0], 1.0)
        np.add.at(deg, edges[:, 1], 1.0)
        out = acc / deg[:, None]
        out /= out.sum(axis=1, keepdims=True)
    return out


def test_criterion_4_refinement_reduction(generative):
    scene, truth, clouds = generative
    train, holdout = clouds[:40], clouds[40:]
    rng = np.random.default_rng(8)
    m0 = truth.copy()
    d = rng.normal(size=m0.joints.shape)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    m0.joints = m0.joints + 20.0 * d  # 20 mm joint perturbation
    m0.weights = _blur(truth.weights, scene.layout, rounds=2)
    m0.pose_quats = np.zeros((0, m0.n_joints, 4))
    m0.root_translations = np.zeros((0, 3))

    before = rf.fitting_rms(m0, holdout)
    res = rf.refine(m0, train, scene.layout, rf.RefineConfig(outer_iterations=100))
    after = rf.fitting_rms(res.model, holdout)
    t = res.loss_trace
    mono = all(t[i + 1] <= t[i] + 1e-9 for i in range(len(t) - 1))
    reduction = 1.0 - after / before
    ok = reduction >= 0.40 and mono and len(t) <= 100
    report(
        "4 refinement reduction",
        ok,
        f"held-out rms {before:.3f} -> {after:.3f} mm ({100 * reduction:.1f}% reduction) "
        f"in {len(t)} outer iterations, loss trace non-increasing: {mono}",
    )
    assert reduction >= 0.40
    assert mono


def test_criterion_5_generative_recovery(generative):
    scene, truth, clouds = generative
    m0 = truth.copy()
    m0.weights = _blur(truth.weights, scene.layout, rounds=1)
    m0.pose_quats = np.zeros((0, m0.n_joints, 4))
    m0.root_translations = np.zeros((0, 3))
    res = rf.refine(
        m0, clouds[:40], scene.layout, rf.RefineConfig(outer_iterations=100, convergence_tol=1e-9)
    )
    rms = res.fit_rms_trace[-1]
    w_err = float(np.abs(res.model.weights - truth.weights).max())
    ok = rms < 0.1 and w_err < 0.05
    report(
        "5 generative recovery",
        ok,
        f"zero-noise fit rms {rms:.4f} mm (< 0.1), max weight error {w_err:.4f} (< 0.05)",
    )
    assert rms < 0.1
    assert w_err < 0.05


# ---------------------------------------------------------------------------
# 6. inpainting QP oracle


def test_criterion_6_inpaint_qp_oracle(rng):
    layout = generate_synthetic_layout(2, 3)
    N = layout.n_corners
    F = 5
    assert F * N <= 300  # variables per coordinate
    rest = rng.uniform(0, 60, (N, 3))
    L = ip.build_spatial_laplacian(layout.faces, rest)
    fi, vi, tg = [], [], []
    for k in range(F):
        for i in range(N):
            if rng.random() < 0.55:
                fi.append(k)
                vi.append(i)
                tg.append(rng.uniform(-3, 3, 3))
    cons = ip.Constraints(np.array(fi), np.array(vi), np.array(tg).reshape(-1, 3), F)
    X, _ = ip.solve_window(L, cons)

    # generic dense equality-constrained QP oracle via an SVD null-space basis
    Ld = L.toarray()
    S = np.zeros((F - 2, F))
    for k in range(F - 2):
        S[k, k : k + 3] = (1.0, -2.0, 1.0)
    Q = np.kron(np.eye(F), Ld) + 100.0 * np.kron(S.T @ S, np.eye(N))
    flat = cons.frame_idx * N + cons.vertex_idx
    C = np.zeros((len(flat), F * N))
    C[np.arange(len(flat)), flat] = 1.0
    Z = null_space(C)
    max_dev = 0.0
    for col in range(3):
        x_p = np.zeros(F * N)
        x_p[flat] = cons.targets[:, col]
        y = np.linalg.solve(Z.T @ Q @ Z, -Z.T @ Q @ x_p)
        max_dev = max(max_dev, float(np.abs(X[:, :, col].ravel() - (x_p + Z @ y)).max()))

    cons_err = float(np.abs(X[cons.frame_idx, cons.vertex_idx] - cons.targets).max())
    rel = cons_err / (1.0 + float(np.abs(cons.targets).max()))

    # K = 120 solves bitwise-identically through the windowed path
    K2 = 120
    fi2, vi2, tg2 = [], [], []
    for k in range(K2):
        for i in range(N):
            if rng.random() < 0.5:
                fi2.append(k)
                vi2.append(i)
                tg2.append(np.array([np.sin(k / 9.0), np.cos(k / 17.0), 0.01 * i]))
    cons2 = ip.Constraints(np.array(fi2), np.array(vi2), np.array(tg2).reshape(-1, 3), K2)
    frames = (
        ip.Constraints(np.zeros(np.sum(m), dtype=int), cons2.vertex_idx[m], cons2.targets[m], 1)
        for m in (cons2.frame_idx == k for k in range(K2))
    )
    seq = np.stack(list(ip.solve_frames(L, frames, ip.WindowPlan(150, 50))))
    win, _ = ip.solve_window(L, cons2)
    bitwise = np.array_equal(seq, win)

    ok = max_dev < 1e-7 and rel <= 1e-8 and bitwise
    report(
        "6 inpainting QP oracle",
        ok,
        f"windowed vs dense null-space solve max deviation {max_dev:.2e} (< 1e-7), "
        f"constraint satisfaction {rel:.2e} relative (<= 1e-8), K=120 bitwise: {bitwise}",
    )
    assert max_dev < 1e-7
    assert rel <= 1e-8
    assert bitwise


# ---------------------------------------------------------------------------
# 7. hole-filling quality


def test_criterion_7_hole_filling(rng):
    scene = sim.tube_scene(
        strips=5, codes_per_strip=8, seed=7, breathing_amplitude=5.0, animation_strength=0.8
    )
    K = 220  # two overlapping windows
    model = scene.posed_model(K)
    clouds = sim.truth_clouds(scene, K)
    hidden = {}
    for c in clouds:
        ids = sorted(c.points)
        mask = rng.random(len(ids)) < 0.30
        hidden[c.frame_index] = [i for i, m in zip(ids, mask) if m]
        for i in hidden[c.frame_index]:
            del c.points[i]

    L = ip.build_spatial_laplacian(scene.layout.faces, model.rest_vertices)
    cons = ip.unpose_observations(model, clouds)
    frames = (ip.unpose_observations(model, [c], k) for k, c in enumerate(clouds))
    windowed = np.stack(list(ip.solve_frames(L, frames, ip.WindowPlan(150, 50))))
    dense, _ = ip.solve_window(L, cons)

    def hidden_rms(field_X):
        errs = []
        for k in range(K):
            full_rest = model.rest_vertices + field_X[k]
            from suitcap.skinning import joint_transforms, skin_with_transforms

            G = joint_transforms(model, model.pose_quats[k], model.root_translations[k])
            full = skin_with_transforms(model, G, full_rest)
            pos = scene.positions(k)
            for i in hidden[k]:
                errs.append(np.linalg.norm(full[i] - pos[i]))
        return float(np.sqrt(np.mean(np.square(errs))))

    rms_w = hidden_rms(windowed)
    rms_d = hidden_rms(dense)
    ok = rms_w <= 2.0 * rms_d
    report(
        "7 hole filling",
        ok,
        f"hidden-vertex rms: windowed {rms_w:.4f} mm vs full-sequence dense {rms_d:.4f} mm "
        f"(ratio {rms_w / rms_d:.2f} <= 2)",
    )
    assert rms_w <= 2.0 * rms_d


# ---------------------------------------------------------------------------
# 8. numerical hygiene


def test_criterion_8_numerical_hygiene(rng):
    from suitcap.geometry import quat_from_rotvec, quat_mul, quat_normalize
    from suitcap.skinning import SkinnedBodyModel

    joints = np.array([[0.0, 0, 0], [0, 0, 100.0], [0, 0, 200.0], [50.0, 0, 200.0]])
    parents = np.array([-1, 0, 1, 2])
    nv = 10
    rest = rng.uniform(-50, 50, (nv, 3)) + np.array([0, 0, 120.0])
    W = rng.dirichlet(np.ones(4), nv)
    model = SkinnedBodyModel(rest, joints, parents, W)
    M = model.n_joints

    worst_rel = 0.0
    for _ in range(100):
        quats = quat_normalize(rng.normal(size=(M, 4)))
        root_t = rng.uniform(-40, 40, 3)
        targets = rng.uniform(-150, 150, (nv, 3))
        _, J = rf.pose_residual_jacobian(model, quats, root_t, np.arange(nv), targets)
        h = 1e-6
        Jfd = np.zeros_like(J)

        def residual(q, t):
            r, _ = rf.pose_residual_jacobian(model, q, t, np.arange(nv), targets)
            return r

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
            Jfd[:, :, 3 * M + a] = (residual(quats, root_t + d) - residual(quats, root_t - d)) / (2 * h)
        worst_rel = max(worst_rel, float(np.abs(J - Jfd).max() / (np.abs(Jfd).max() + 1e-12)))

    layout = generate_synthetic_layout(4, 7)
    rest_l = rng.uniform(0, 100, (layout.n_corners, 3))
    L = ip.build_spatial_laplacian(layout.faces, rest_l)
    const_resid = float(np.abs(L @ np.ones(L.shape[0])).max())
    min_quad = 0.0
    for _ in range(1000):
        x = rng.normal(size=L.shape[0])
        min_quad = min(min_quad, float(x @ (L @ x)))

    ok = worst_rel < 1e-4 and const_resid < 1e-9 and min_quad >= -1e-9
    report(
        "8 numerical hygiene",
        ok,
        f"pose Jacobian vs central differences: max rel {worst_rel:.2e} (< 1e-4); "
        f"|L 1|_inf = {const_resid:.2e} (< 1e-9); min sampled x'Lx = {min_quad:.2e} (>= -1e-9)",
    )
    assert worst_rel < 1e-4
    assert const_resid < 1e-9
    assert min_quad >= -1e-9


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_9_determinism(tmp_path):
    from suitcap.cli import main

    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        args_common = ["--set", f"paths.output_dir={out}"]
        assert main([
            "simulate", *args_common,
            "--set", "scene.preset=tube",
            "--set", "scene.strips=4",
            "--set", "scene.codes_per_strip=8",
            "--set", "scene.n_cameras=8",
            "--set", "scene.frames=6",
            "--set", "noise.pixel_sigma=0.3",
            "--set", "noise.mislabel_prob=0.02",
            "--set", "seed=41",
        ]) == 0
        assert main(["reconstruct", *args_common, "--set", "seed=41"]) == 0
        assert main(["eval", *args_common, "--set", "seed=41"]) == 0
        from suitcap.simulator import tube_scene
        from suitcap.skinning import save_model

        save_model(tube_scene(n_cameras=8, strips=4, codes_per_strip=8, seed=41).model, out / "init_model.json")
        assert main([
            "fit", *args_common,
            "--set", f"paths.init_model={out}/init_model.json",
            "--set", "refine.outer_iterations=3",
            "--set", "seed=41",
        ]) == 0
        assert main(["inpaint", *args_common, "--set", "seed=41"]) == 0
        outputs.append(out)

    names = [
        "detections.jsonl", "truth.jsonl", "layout.json", "calibration.json",
        "clouds.jsonl", "report_reconstruct.json", "report_eval.json",
        "model.json", "animation.bin", "report_inpaint.csv",
    ]
    diffs = [n for n in names if (outputs[0] / n).read_bytes() != (outputs[1] / n).read_bytes()]
    ok = not diffs
    report("9 determinism", ok, f"byte-identical reruns across {len(names)} outputs"
           + ("" if ok else f"; differing: {diffs}"))
    assert not diffs
