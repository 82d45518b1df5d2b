import hashlib
import json

import numpy as np
import pytest

from suitcap.cli import main
from suitcap.detection import read_detections
from suitcap.reconstruct import read_clouds

TUBE_SCENE = [
    "--set", "scene.preset=tube",
    "--set", "scene.strips=4",
    "--set", "scene.codes_per_strip=8",
    "--set", "scene.n_cameras=8",
]


def run_simulate(out, frames=3, sigma=0.0, extra=()):
    args = [
        "simulate",
        "--set", f"paths.output_dir={out}",
        "--set", f"scene.frames={frames}",
        "--set", f"noise.pixel_sigma={sigma}",
        *TUBE_SCENE,
        *extra,
    ]
    assert main(args) == 0


def run_reconstruct(out, extra=()):
    args = ["reconstruct", "--set", f"paths.output_dir={out}", *extra]
    assert main(args) == 0


def test_simulate_writes_expected_line_counts(tmp_path, capsys):
    run_simulate(tmp_path, frames=3)
    detections = read_detections(tmp_path / "detections.jsonl")
    assert len(detections) == 3 * 8  # frames x cameras
    assert (tmp_path / "layout.json").exists()
    assert (tmp_path / "calibration.json").exists()
    assert (tmp_path / "truth.jsonl").exists()
    out = capsys.readouterr().out
    assert "simulated 3 frames x 8 cameras" in out


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_simulate(a)
    run_simulate(b)
    for name in ("detections.jsonl", "truth.jsonl", "layout.json", "calibration.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_truth_lines_are_truth_clouds(tmp_path):
    """Each truth line is the point-cloud line of the corners that at least one camera sees."""
    from suitcap.cli import DEFAULT_CONFIG
    from suitcap.reconstruct import cloud_to_json
    from suitcap.simulator import scene_from_spec, truth_clouds

    run_simulate(tmp_path, frames=3)
    spec = dict(DEFAULT_CONFIG["scene"], preset="tube", strips=4, codes_per_strip=8, n_cameras=8, seed=0)
    clouds = truth_clouds(scene_from_spec(spec), 3, min_cameras=1)
    lines = (tmp_path / "truth.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines == [cloud_to_json(c) for c in clouds]


def test_simulate_dropout_one_gives_empty_corner_lists(tmp_path):
    run_simulate(tmp_path, extra=("--set", "noise.dropout_prob=1.0"))
    for frame in read_detections(tmp_path / "detections.jsonl"):
        assert len(frame.corners) == 0
        assert frame.codes == []


def test_mocap_seed_env_overrides_config(tmp_path, monkeypatch):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    monkeypatch.setenv("MOCAP_SEED", "99")
    run_simulate(a)
    monkeypatch.delenv("MOCAP_SEED")
    run_simulate(b, extra=("--set", "seed=99"))
    run_simulate(c)  # default seed 0
    assert (a / "detections.jsonl").read_bytes() == (b / "detections.jsonl").read_bytes()
    assert (a / "detections.jsonl").read_bytes() != (c / "detections.jsonl").read_bytes()


def test_set_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scene": {"frames": 2}, "seed": 5}))
    out = tmp_path / "out"
    args = [
        "simulate",
        "--config", str(cfg),
        "--set", f"paths.output_dir={out}",
        "--set", "scene.frames=1",
        *TUBE_SCENE,
    ]
    assert main(args) == 0
    frames = read_detections(out / "detections.jsonl")
    assert len(frames) == 1 * 8  # --set wins over the config file


def test_unknown_set_key_exits_2(tmp_path, capsys):
    assert main(["simulate", "--set", f"paths.output_dir={tmp_path}", "--set", "refine.lamda_g=5"]) == 2
    assert "configuration error: unknown configuration key 'refine.lamda_g'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unknown_config_file_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "window": {"lenght": 3}}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--set", f"paths.output_dir={out}"]) == 2
    assert "configuration error: unknown configuration key 'window.lenght'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_scene_preset_exits_2(tmp_path):
    code = main(["simulate", "--set", f"paths.output_dir={tmp_path}", "--set", "scene.preset=bogus"])
    assert code == 2


def test_simulate_io_error_exits_3(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["simulate", "--set", f"paths.output_dir={blocker}/sub", *TUBE_SCENE])
    assert code == 3


def test_reconstruct_noiseless_report(tmp_path, capsys):
    run_simulate(tmp_path, frames=2)
    run_reconstruct(tmp_path)
    clouds = read_clouds(tmp_path / "clouds.jsonl")
    assert len(clouds) == 2
    report = json.loads((tmp_path / "report_reconstruct.json").read_text())
    for key in ("95", "99", "99.9", "99.99"):
        assert report["reprojection_percentiles"][key] < 1e-6
    assert (tmp_path / "report_reconstruct.csv").exists()


def test_reconstruct_creates_clouds_parent(tmp_path):
    run_simulate(tmp_path, frames=1)
    clouds = tmp_path / "fresh" / "a" / "clouds.jsonl"
    run_reconstruct(tmp_path, extra=("--set", f"paths.clouds={clouds}"))
    assert len(read_clouds(clouds)) == 1


def test_reconstruct_bad_calibration_exits_4(tmp_path):
    run_simulate(tmp_path, frames=1)
    (tmp_path / "calibration.json").write_text("not json at all")
    assert main(["reconstruct", "--set", f"paths.output_dir={tmp_path}"]) == 4


def reconstruct_edited(tmp_path, capsys, edit):
    """Simulate one frame, let `edit(first_record, lines)` change the detection
    file's lines, and reconstruct; returns the exit code and stderr."""
    run_simulate(tmp_path, frames=1)
    path = tmp_path / "detections.jsonl"
    lines = path.read_text().splitlines()
    first = json.loads(lines[0])
    assert first["corners"] and first["readings"]
    edit(first, lines)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    return main(["reconstruct", "--set", f"paths.output_dir={tmp_path}"]), capsys.readouterr().err


def test_reconstruct_rejects_reading_index_out_of_range(tmp_path, capsys):
    def edit(doc, lines):
        doc["readings"][0]["idx"][2] = -1  # an array index would wrap to the last corner
        lines[0] = json.dumps(doc)

    rc, err = reconstruct_edited(tmp_path, capsys, edit)
    assert rc == 2
    assert "frame 0 camera 0: reading index -1 outside [0, " in err


def test_reconstruct_rejects_non_finite_pixel(tmp_path, capsys):
    def edit(doc, lines):
        doc["corners"][3]["y"] = float("nan")
        lines[0] = json.dumps(doc)

    rc, err = reconstruct_edited(tmp_path, capsys, edit)
    assert rc == 2
    assert "frame 0 camera 0: non-finite pixel nan" in err


def test_reconstruct_rejects_repeated_frame_camera_record(tmp_path, capsys):
    rc, err = reconstruct_edited(tmp_path, capsys, lambda doc, lines: lines.append(lines[0]))
    assert rc == 2
    assert "frame 0 camera 0: repeated (frame, camera) record" in err


def test_reconstruct_rejects_camera_missing_from_calibration(tmp_path, capsys):
    def edit(doc, lines):
        doc["cam"] = 999
        lines[0] = json.dumps(doc)

    rc, err = reconstruct_edited(tmp_path, capsys, edit)
    assert rc == 2
    assert "frame 0 camera 999: camera id 999 is not in the calibration" in err


def test_reconstruct_layout_without_faces_exits_2(tmp_path, capsys):
    run_simulate(tmp_path, frames=1)
    layout = json.loads((tmp_path / "layout.json").read_text())
    del layout["faces"]
    (tmp_path / "layout.json").write_text(json.dumps(layout))
    capsys.readouterr()
    assert main(["reconstruct", "--set", f"paths.output_dir={tmp_path}"]) == 2
    assert "configuration error: malformed layout file" in capsys.readouterr().err


def test_reconstruct_deterministic_bytes(tmp_path):
    run_simulate(tmp_path, frames=2, extra=("--set", "noise.pixel_sigma=0.3"))
    run_reconstruct(tmp_path)
    first = (tmp_path / "clouds.jsonl").read_bytes()
    run_reconstruct(tmp_path)
    assert (tmp_path / "clouds.jsonl").read_bytes() == first


def test_reconstruct_workers_match_single_thread(tmp_path):
    run_simulate(tmp_path, frames=4)
    run_reconstruct(tmp_path)
    single = (tmp_path / "clouds.jsonl").read_bytes()
    run_reconstruct(tmp_path, extra=("--workers", "2"))
    assert (tmp_path / "clouds.jsonl").read_bytes() == single


def test_eval_report_structure(tmp_path):
    run_simulate(tmp_path, frames=2)
    run_reconstruct(tmp_path)
    assert main(["eval", "--set", f"paths.output_dir={tmp_path}"]) == 0
    report = json.loads((tmp_path / "report_eval.json").read_text())
    assert sorted(report["reprojection_percentiles"]) == ["95", "99", "99.9", "99.99"]
    assert report["error_3d_mm"]["max"] < 1e-6  # noiseless vs truth
    # histogram integrates to the observation count
    rows = (tmp_path / "report_eval.csv").read_text().splitlines()
    start = rows.index("bin_lo_px,bin_hi_px,count") + 1
    total = sum(int(r.split(",")[2]) for r in rows[start:] if r)
    assert total == report["observations"]
    assert (tmp_path / "report_eval.svg").exists()


def test_eval_reads_only_clouds_and_truth(tmp_path):
    run_simulate(tmp_path, frames=2, sigma=0.3)
    run_reconstruct(tmp_path)
    names = ("report_eval.json", "report_eval.csv", "report_eval.svg")
    assert main(["eval", "--set", f"paths.output_dir={tmp_path}"]) == 0
    first = {n: (tmp_path / n).read_bytes() for n in names}
    assert json.loads(first["report_eval.json"])["reprojection_percentiles"]["99"] > 0
    for name in ("detections.jsonl", "calibration.json", "layout.json"):
        (tmp_path / name).unlink()
    assert main(["eval", "--set", f"paths.output_dir={tmp_path}"]) == 0
    assert {n: (tmp_path / n).read_bytes() for n in names} == first


def test_eval_rejects_errors_misaligned_with_cameras(tmp_path, capsys):
    run_simulate(tmp_path, frames=1)
    run_reconstruct(tmp_path)
    path = tmp_path / "clouds.jsonl"
    doc = json.loads(path.read_text())
    doc["points"][0]["errs"].pop()
    path.write_text(json.dumps(doc) + "\n")
    assert main(["eval", "--set", f"paths.output_dir={tmp_path}"]) == 2
    assert "per-camera errors" in capsys.readouterr().err


def _write_init_model(tmp_path):
    """Ground-truth generative model for the simulated tube scene."""
    from suitcap.simulator import tube_scene
    from suitcap.skinning import save_model

    scene = tube_scene(n_cameras=8, strips=4, codes_per_strip=8, seed=0)
    save_model(scene.model, tmp_path / "init_model.json")


def test_fit_from_init_model(tmp_path, capsys):
    run_simulate(tmp_path, frames=8)
    run_reconstruct(tmp_path)
    _write_init_model(tmp_path)
    args = [
        "fit",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.init_model={tmp_path}/init_model.json",
        "--set", "fit.perturb_joints=10.0",
        "--set", "fit.blur_weights=1",
        "--set", "refine.outer_iterations=12",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "loss trace non-increasing: True" in out
    assert (tmp_path / "model.json").exists()
    loss_rows = (tmp_path / "report_fit_loss.csv").read_text().splitlines()[1:]
    losses = [float(r.split(",")[1]) for r in loss_rows if r]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    assert (tmp_path / "report_fit_hist.csv").exists()


def test_fit_creates_model_parent(tmp_path):
    run_simulate(tmp_path, frames=2)
    run_reconstruct(tmp_path)
    _write_init_model(tmp_path)
    model = tmp_path / "fresh" / "b" / "model.json"
    args = [
        "fit",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.init_model={tmp_path}/init_model.json",
        "--set", f"paths.model={model}",
        "--set", "refine.outer_iterations=1",
    ]
    assert main(args) == 0
    assert model.exists()


def test_fit_fits_each_models_poses_once(tmp_path, monkeypatch):
    from suitcap import refine

    run_simulate(tmp_path, frames=2)
    run_reconstruct(tmp_path)
    _write_init_model(tmp_path)
    fitted = []
    fit_poses = refine.fit_poses

    def counting(model, clouds, *args, **kwargs):
        fitted.append(model)
        return fit_poses(model, clouds, *args, **kwargs)

    monkeypatch.setattr(refine, "fit_poses", counting)
    assert main([
        "fit",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.init_model={tmp_path}/init_model.json",
        "--set", "refine.outer_iterations=1",
    ]) == 0
    assert len(fitted) == 2  # the initial and the refined model
    assert fitted[0] is not fitted[1]


def test_fit_tube_golden_digest(tmp_path):
    """Pins the bytes of `fit` from a perturbed, blurred init model over two noisy frames."""
    from suitcap.layout import save_layout
    from suitcap.simulator import animate_and_sample, tube_scene
    from suitcap.skinning import save_model

    scene = tube_scene(strips=4, codes_per_strip=8, seed=4)
    truth = animate_and_sample(scene, 2)
    rng = np.random.default_rng(4)
    with open(tmp_path / "clouds.jsonl", "w", encoding="utf-8") as f:
        for k, pos in enumerate(truth):
            seen = np.flatnonzero(rng.random(len(pos)) >= 0.2)
            noisy = pos[seen] + rng.normal(scale=0.3, size=(len(seen), 3))
            points = [
                {"id": int(i), "p": [float(v) for v in p], "cams": [], "err": 0.0}
                for i, p in zip(seen, noisy)
            ]
            f.write(json.dumps({"frame": k, "points": points, "discarded": []}) + "\n")
    save_layout(scene.layout, tmp_path / "layout.json")
    save_model(scene.model, tmp_path / "init_model.json")
    assert main([
        "fit",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.init_model={tmp_path}/init_model.json",
        "--set", "fit.perturb_joints=20.0",
        "--set", "fit.blur_weights=2",
        "--set", "refine.outer_iterations=2",
    ]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("model.json", "report_fit_loss.csv")
    }
    assert digests == {
        "model.json": "0bf061af10169728b5e174444bd461d21f6e4619aca7f8b7265196824270cbd0",
        "report_fit_loss.csv": "e1d3d744ed5c529e0c644130487bc14921d600ea0523135ed0cbc5732ba00fbd",
    }


def test_fit_requires_model_or_template(tmp_path):
    run_simulate(tmp_path, frames=1)
    run_reconstruct(tmp_path)
    assert main(["fit", "--set", f"paths.output_dir={tmp_path}"]) == 2


def _write_template_and_seeds(tmp_path, n_seeds):
    """Template of the simulated tube scene plus `n_seeds` seed correspondences from frame 0."""
    from suitcap.meshes import closest_point_on_triangles
    from suitcap.reconstruct import read_clouds as read
    from suitcap.registration import save_template
    from suitcap.simulator import tube_scene

    scene = tube_scene(n_cameras=8, strips=4, codes_per_strip=8, seed=0)
    save_template((scene.model, scene.triangles), tmp_path / "template.json")

    clouds = read(tmp_path / "clouds.jsonl")
    seed_entries = []
    for cid in sorted(clouds[0].points)[:n_seeds]:
        p = clouds[0].points[cid].position
        cp, cb = closest_point_on_triangles(p, scene.model.rest_vertices[scene.triangles])
        t = int(np.argmin(np.linalg.norm(cp - p, axis=1)))
        seed_entries.append({"id": int(cid), "tri": t, "bary": [float(v) for v in cb[t]]})
    (tmp_path / "seeds.json").write_text(json.dumps(seed_entries))
    return scene


def test_fit_with_fewer_than_ten_seeds_exits_2(tmp_path, capsys):
    run_simulate(tmp_path, frames=1)
    run_reconstruct(tmp_path)
    _write_template_and_seeds(tmp_path, 9)
    capsys.readouterr()
    assert main([
        "fit",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.template={tmp_path}/template.json",
        "--set", f"paths.seeds={tmp_path}/seeds.json",
    ]) == 2
    assert "configuration error: got 9 seed correspondences, need >= 10" in capsys.readouterr().err


# (file, edit of its JSON document given the template's, start of the expected error after the file name)
BAD_REGISTRATION_INPUTS = {
    "seed-tri-negative": ("seeds.json", lambda d, t: d[0].update(tri=-1), "seed entry 0 "),
    "seed-tri-past-end": ("seeds.json", lambda d, t: d[0].update(tri=len(t["tris"])), "seed entry 0 "),
    "seed-bary-two-values": ("seeds.json", lambda d, t: d[0].update(bary=[0.5, 0.5]), "seed entry 0 "),
    "seed-bary-nan": ("seeds.json", lambda d, t: d[3].update(bary=[float("nan"), 0.5, 0.5]), "seed entry 3 "),
    "seed-without-tri": ("seeds.json", lambda d, t: d[1].pop("tri"), "seed entry 1 "),
    "template-tri-negative": ("template.json", lambda d, t: d["tris"][5].__setitem__(1, -1), "tris[5] "),
    "template-tri-past-end": (
        "template.json", lambda d, t: d["tris"][0].__setitem__(2, len(t["verts"])), "tris[0] "
    ),
    "template-weight-row-past-end": (
        "template.json", lambda d, t: d["weights"].append([len(t["verts"]), 0, 0.0]), "weights["
    ),
    "template-parent-past-end": (
        "template.json", lambda d, t: d["parents"].__setitem__(1, len(t["joints"])), "parents "
    ),
    "template-weight-row-sum": (
        "template.json", lambda d, t: d["weights"][0].__setitem__(2, d["weights"][0][2] + 2e-6), "weight row 0 sums "
    ),
    "template-weight-negative": (
        "template.json", lambda d, t: d["weights"][0].__setitem__(2, -0.25), "weight row 0 has a negative "
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_REGISTRATION_INPUTS))
def test_fit_rejects_bad_seeds_and_template_files(tmp_path, capsys, case):
    run_simulate(tmp_path, frames=1)
    run_reconstruct(tmp_path)
    _write_template_and_seeds(tmp_path, 14)
    name, edit, entry = BAD_REGISTRATION_INPUTS[case]
    template = json.loads((tmp_path / "template.json").read_text())
    doc = json.loads((tmp_path / name).read_text())
    edit(doc, template)
    (tmp_path / name).write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([
        "fit",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.template={tmp_path}/template.json",
        "--set", f"paths.seeds={tmp_path}/seeds.json",
    ]) == 2
    assert f"configuration error: {tmp_path / name}: {entry}" in capsys.readouterr().err


def test_fit_from_template_with_empty_clouds_exits_2(tmp_path, capsys):
    run_simulate(tmp_path, frames=1)
    run_reconstruct(tmp_path)
    _write_template_and_seeds(tmp_path, 14)
    (tmp_path / "clouds.jsonl").write_text("")
    capsys.readouterr()
    assert main([
        "fit",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.template={tmp_path}/template.json",
        "--set", f"paths.seeds={tmp_path}/seeds.json",
    ]) == 2
    assert f"configuration error: {tmp_path / 'clouds.jsonl'}: no frames" in capsys.readouterr().err


def test_fit_from_template_and_seeds(tmp_path, capsys):
    run_simulate(tmp_path, frames=4)
    run_reconstruct(tmp_path)
    scene = _write_template_and_seeds(tmp_path, 14)

    capsys.readouterr()
    assert main([
        "fit",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.template={tmp_path}/template.json",
        "--set", f"paths.seeds={tmp_path}/seeds.json",
        "--set", "refine.outer_iterations=8",
    ]) == 0
    assert "registration converged: mean residual 1.0094 mm" in capsys.readouterr().out
    assert (tmp_path / "model.json").exists()
    from suitcap.skinning import load_model

    model = load_model(tmp_path / "model.json")
    assert model.n_vertices == scene.layout.total_vertices


def test_fit_reports_registration_at_its_cap(tmp_path, capsys, monkeypatch):
    from suitcap import registration

    run_simulate(tmp_path, frames=2)
    run_reconstruct(tmp_path)
    _write_template_and_seeds(tmp_path, 14)
    results = []
    register_icp = registration.register_icp

    def recording(*args, **kwargs):
        results.append(register_icp(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(registration, "ICP_ITERATIONS", 1)
    monkeypatch.setattr(registration, "register_icp", recording)
    capsys.readouterr()
    assert main([
        "fit",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.template={tmp_path}/template.json",
        "--set", f"paths.seeds={tmp_path}/seeds.json",
        "--set", "refine.outer_iterations=1",
    ]) == 0
    (result,) = results
    assert result.converged is False
    assert len(result.mean_residuals) == 1
    line = f"registration stopped at its 1-iteration cap: mean residual {result.mean_residuals[0]:.4f} mm"
    assert line in capsys.readouterr().out


def test_inpaint_binary_and_counts(tmp_path, capsys):
    run_simulate(tmp_path, frames=6)
    run_reconstruct(tmp_path)
    _write_init_model(tmp_path)
    assert main([
        "fit",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.init_model={tmp_path}/init_model.json",
        "--set", "refine.outer_iterations=5",
    ]) == 0
    assert main(["inpaint", "--set", f"paths.output_dir={tmp_path}"]) == 0
    out = capsys.readouterr().out
    assert "inpainted 6 frames (1 window)" in out

    from suitcap.inpaint import read_animation_binary

    positions = read_animation_binary(tmp_path / "animation.bin")
    assert positions.shape[0] == 6
    clouds = read_clouds(tmp_path / "clouds.jsonl")
    # observed vertices reproduce the triangulated positions (float32 storage)
    for cid, rec in clouds[0].points.items():
        assert np.linalg.norm(positions[0, cid] - rec.position) < 1e-2
    rows = (tmp_path / "report_inpaint.csv").read_text().splitlines()
    assert rows[0] == "frame,observed,filled"
    assert len(rows) == 7


@pytest.mark.parametrize(
    "order, bad",
    [([0, 1, 3], 3), ([0, 1, 1, 2], 1), ([0, 2, 1, 3], 2)],
    ids=["missing", "repeated", "out-of-order"],
)
def test_inpaint_rejects_non_consecutive_frames(tmp_path, capsys, order, bad):
    run_simulate(tmp_path, frames=4)
    run_reconstruct(tmp_path)
    _write_init_model(tmp_path)
    path = tmp_path / "clouds.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("".join(lines[k] + "\n" for k in order))
    assert main([
        "inpaint",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.model={tmp_path}/init_model.json",
    ]) == 2
    assert f"frame {bad} follows" in capsys.readouterr().err
    assert not (tmp_path / "animation.bin").exists()


def test_inpaint_obj_sequence(tmp_path):
    run_simulate(tmp_path, frames=2)
    run_reconstruct(tmp_path)
    _write_init_model(tmp_path)
    assert main([
        "fit",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.init_model={tmp_path}/init_model.json",
        "--set", "refine.outer_iterations=3",
    ]) == 0
    objdir = tmp_path / "anim_objs"
    assert main([
        "inpaint",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.animation={objdir}",
    ]) == 0
    assert (objdir / "frame_00000.obj").exists()
    assert (objdir / "frame_00001.obj").exists()


def test_export_mesh(tmp_path):
    run_simulate(tmp_path, frames=1)
    _write_init_model(tmp_path)
    assert main([
        "export-mesh",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.model={tmp_path}/init_model.json",
    ]) == 0
    text = (tmp_path / "rest_mesh.obj").read_text()
    assert text.startswith("v ")
    assert "\nf " in text
