import json

import numpy as np

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


def test_simulate_dropout_one_gives_empty_corner_lists(tmp_path):
    run_simulate(tmp_path, extra=("--set", "noise.dropout_prob=1.0"))
    for frame in read_detections(tmp_path / "detections.jsonl"):
        assert frame.corners == []
        assert frame.readings == []


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


def test_fit_requires_model_or_template(tmp_path):
    run_simulate(tmp_path, frames=1)
    run_reconstruct(tmp_path)
    assert main(["fit", "--set", f"paths.output_dir={tmp_path}"]) == 2


def test_fit_from_template_and_seeds(tmp_path):
    from suitcap.meshes import closest_point_on_triangles
    from suitcap.reconstruct import read_clouds as read
    from suitcap.registration import TemplateModel, save_template
    from suitcap.simulator import tube_scene

    run_simulate(tmp_path, frames=4)
    run_reconstruct(tmp_path)
    scene = tube_scene(n_cameras=8, strips=4, codes_per_strip=8, seed=0)
    template = TemplateModel(
        scene.model.rest_vertices, scene.triangles, scene.model.joints,
        scene.model.parents, scene.model.weights,
    )
    save_template(template, tmp_path / "template.json")

    clouds = read(tmp_path / "clouds.jsonl")
    seed_entries = []
    for cid in sorted(clouds[0].points)[:14]:
        p = clouds[0].points[cid].position
        cp, cb = closest_point_on_triangles(p, template.vertices[template.triangles])
        t = int(np.argmin(np.linalg.norm(cp - p, axis=1)))
        seed_entries.append({"id": int(cid), "tri": t, "bary": [float(v) for v in cb[t]]})
    (tmp_path / "seeds.json").write_text(json.dumps(seed_entries))

    assert main([
        "fit",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", f"paths.template={tmp_path}/template.json",
        "--set", f"paths.seeds={tmp_path}/seeds.json",
        "--set", "refine.outer_iterations=8",
    ]) == 0
    assert (tmp_path / "model.json").exists()
    from suitcap.skinning import load_model

    model = load_model(tmp_path / "model.json")
    assert model.n_vertices == scene.layout.total_vertices


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
