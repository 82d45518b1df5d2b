import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import suitcap
from suitcap import cli
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


# a misspelt key, and a key that the detector's fixed duplicate-corner radius retired
@pytest.mark.parametrize("key", ["refine.lamda_g", "cluster_radius"])
def test_unknown_set_key_exits_2(tmp_path, capsys, key):
    assert main(["simulate", "--set", f"paths.output_dir={tmp_path}", "--set", f"{key}=3.0"]) == 2
    assert f"configuration error: unknown configuration key '{key}'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unknown_config_file_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "window": {"lenght": 3}}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--set", f"paths.output_dir={out}"]) == 2
    assert "configuration error: unknown configuration key 'window.lenght'" in capsys.readouterr().err
    assert not out.exists()


def test_section_set_to_scalar_exits_2(tmp_path, capsys):
    assert main(["simulate", "--set", f"paths.output_dir={tmp_path}", "--set", "paths=5"]) == 2
    assert "configuration error: configuration key 'paths' is a section" in capsys.readouterr().err
    # a later --set into the replaced section must not rebuild it from its one key
    assert main(["simulate", "--set", "paths=5", "--set", f"paths.output_dir={tmp_path / 'o'}"]) == 2
    assert "configuration error: configuration key 'paths' is a section" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_config_file_section_set_to_scalar_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths": 5}))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "configuration error: configuration key 'paths' is a section" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    assert main(["simulate", "--config", str(cfg), "--set", f"paths.output_dir={tmp_path / 'out'}"]) == 2
    assert f"configuration error: cannot read config {cfg}: 'list' object is not a mapping" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_unknown_scene_preset_exits_2(tmp_path):
    code = main(["simulate", "--set", f"paths.output_dir={tmp_path}", "--set", "scene.preset=bogus"])
    assert code == 2


def test_simulate_io_error_exits_3(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["simulate", "--set", f"paths.output_dir={blocker}/sub", *TUBE_SCENE])
    assert code == 3


def _scipy_submodules_after(stages, out):
    """The scipy sparse, spatial, linalg and optimize modules that a fresh process has
    loaded after running each argv of `stages` through `main`, with `out` as output dir."""
    src = str(Path(suitcap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import json, sys\n"
        "from suitcap.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv + ['--set', 'paths.output_dir=' + sys.argv[2]]) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m.startswith(('scipy.sparse', 'scipy.spatial', 'scipy.linalg', 'scipy.optimize')))))\n"
    )
    argv = [sys.executable, "-c", code, json.dumps(stages), str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_capture_stages_load_no_scipy_submodule(tmp_path):
    """simulate, reconstruct and eval run on numpy alone: in a fresh process, none of
    them loads scipy's sparse, spatial, linalg or optimize modules."""
    stages = [
        ["simulate", "--set", "scene.frames=2", *TUBE_SCENE],
        ["reconstruct"],
        ["eval"],
    ]
    assert _scipy_submodules_after(stages, tmp_path) == []


def test_fit_from_init_model_loads_no_scipy_submodule(tmp_path):
    """fit from an initial model runs on numpy alone, geodesic regularizer included."""
    run_simulate(tmp_path, frames=2)
    run_reconstruct(tmp_path)
    _write_init_model(tmp_path)
    stages = [["fit", "--set", f"paths.init_model={tmp_path}/init_model.json", "--set", "fit.blur_weights=1"]]
    assert _scipy_submodules_after(stages, tmp_path) == []


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


def test_reconstruct_calibration_error_names_entry_exits_4(tmp_path, capsys):
    run_simulate(tmp_path, frames=1)
    path = tmp_path / "calibration.json"
    doc = json.loads(path.read_text())
    doc[2]["size"] = 5
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["reconstruct", "--set", f"paths.output_dir={tmp_path}"]) == 4
    assert f"calibration error: {path}: camera entry 2: 'size' must be 2 finite numbers, got 5" in capsys.readouterr().err


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


def _drop_first_x(doc):
    del doc["corners"][0]["x"]


@pytest.mark.parametrize(
    "edit, cause",
    [
        pytest.param(lambda doc: doc.update(corners=5), "TypeError", id="corners-5"),
        pytest.param(lambda doc: doc.update(cam=None), "TypeError", id="cam-null"),
        pytest.param(_drop_first_x, "KeyError: 'x'", id="corner-without-x"),
        pytest.param(lambda doc: doc.update(frame="a"), "ValueError", id="frame-a"),
        pytest.param(lambda doc: doc["readings"][0].update(idx=[0, 1]), "ValueError", id="idx-2-values"),
        pytest.param(lambda doc: doc.update(frame=0.7), "ValueError: frame 0.7 is not an integer", id="frame-0.7"),
        pytest.param(lambda doc: doc.update(frame="0"), "TypeError: frame must be float/int, got str", id="frame-str"),
        pytest.param(lambda doc: doc.update(cam=0.9), "ValueError: cam 0.9 is not an integer", id="cam-0.9"),
        pytest.param(lambda doc: doc["corners"][0].update(x=True), "TypeError: x must be", id="x-true"),
        pytest.param(lambda doc: doc["corners"][0].update(y="12.5"), "TypeError: y must be", id="y-str"),
        pytest.param(lambda doc: doc["corners"][0].update(conf="1"), "TypeError: corner conf must be", id="conf-str"),
        pytest.param(lambda doc: doc["readings"][0].update(conf=True), "TypeError: reading conf must be",
                     id="reading-conf-true"),
        pytest.param(lambda doc: doc["readings"][0].update(code=5), "TypeError: code must be str, got int",
                     id="code-5"),
        pytest.param(lambda doc: doc["readings"][0].update(idx=["0", "1", "2", "3"]), "TypeError: idx must be",
                     id="idx-str"),
        pytest.param(lambda doc: doc["readings"][0].update(idx=[0, True, 2, 3]), "TypeError: idx must be",
                     id="idx-true"),
    ],
)
def test_reconstruct_rejects_malformed_detection_record(tmp_path, capsys, edit, cause):
    def edit_line(doc, lines):
        edit(doc)
        lines[0] = json.dumps(doc)

    rc, err = reconstruct_edited(tmp_path, capsys, edit_line)
    assert rc == 2
    assert f"{tmp_path / 'detections.jsonl'}: line 1: not a detection record ({cause}" in err


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


def test_eval_rejects_point_without_errors(tmp_path, capsys):
    run_simulate(tmp_path, frames=1)
    run_reconstruct(tmp_path)
    path = tmp_path / "clouds.jsonl"
    doc = json.loads(path.read_text())
    point = doc["points"][4]
    del point["errs"]
    path.write_text(json.dumps(doc) + "\n")
    assert main(["eval", "--set", f"paths.output_dir={tmp_path}"]) == 2
    message = f"frame 0 point {point['id']} has 0 per-camera errors for {len(point['cams'])} cameras"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["truth.jsonl", "clouds.jsonl"])
def test_eval_rejects_repeated_frame(tmp_path, capsys, name):
    run_simulate(tmp_path, frames=2)
    run_reconstruct(tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    # frame 0 first 5 mm off, then exact: keeping either line alone would hide the other
    off = json.loads(lines[0])
    for point in off["points"]:
        point["p"][0] += 5.0
    path.write_text(json.dumps(off) + "\n" + "".join(line + "\n" for line in lines))
    assert main(["eval", "--set", f"paths.output_dir={tmp_path}"]) == 2
    assert f"configuration error: {path}: frame 0 appears more than once" in capsys.readouterr().err
    assert not (tmp_path / "report_eval.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["points"][1].pop("id"), "points[1] has no 'id'"),
        (lambda d: d["points"][1].pop("p"), "points[1] has no 'p'"),
        (lambda d: d["points"][1].pop("cams"), "points[1] has no 'cams'"),
        (lambda d: d["points"][1].pop("err"), "points[1] has no 'err'"),
        (lambda d: d["points"][1].update(p=[1.0, 2.0]), "points[1] 'p' is not 3 numbers"),
        (lambda d: d["points"][1].update(p=[1.0, 2.0, 3.0, 4.0]), "points[1] 'p' is not 3 numbers"),
        (lambda d: d["points"][1].update(p=5.0), "points[1] 'p' is not a list"),
        (lambda d: d["points"][1].update(p=[1.0, None, 3.0]), "points[1] 'p' is not 3 finite numbers"),
        (lambda d: d["points"][1].update(p=[1.0, "x", 3.0]), "a point's 'p' holds a non-number"),
        (lambda d: d["points"][1].update(errs=[0.1]), "points[1] 'errs' has 1 per-camera errors for 2 cameras"),
        (lambda d: d["points"][1].update(err=float("nan")), "points[1] 'err' is not a finite number"),
        (lambda d: d["points"][2].update(errs=[0.5, float("inf")]), "points[2] 'errs' holds a non-finite number"),
        (lambda d: d["points"][1].update(id=3), "id 3 repeated"),
        (lambda d: d["points"][1].update(id=-1), "id -1 is negative"),
        (
            lambda d: d["discarded"].append({"id": "x", "reason": "TooFewCameras"}),
            "discarded[0] needs an integer 'id'",
        ),
    ],
    ids=[
        "no-id", "no-p", "no-cams", "no-err", "p-two", "p-four", "p-scalar", "p-null", "p-string",
        "errs-length", "err-nan", "errs-inf", "repeated-id", "negative-id", "discard-id",
    ],
)
def test_eval_rejects_malformed_cloud_line(tmp_path, capsys, edit, message):
    points = [
        {"id": i, "p": [float(i), 0.0, 1.0], "cams": [0, 1], "err": 0.1, "errs": [0.1, 0.1]} for i in (3, 5, 8)
    ]
    good = {"frame": 0, "points": points, "discarded": []}
    bad = json.loads(json.dumps(dict(good, frame=1)))
    edit(bad)
    path = tmp_path / "clouds.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    assert main(["eval", "--set", f"paths.output_dir={tmp_path}"]) == 2
    assert f"configuration error: {path}: line 2: {message}" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("fit", "refine.lambda_j", "NaN"),
        ("fit", "refine.lambda_g", "NaN"),
        ("fit", "refine.convergence_tol", "NaN"),
        ("fit", "refine.lambda_g", "Infinity"),
        ("inpaint", "window.w_temporal", "-5"),
        ("inpaint", "window.w_temporal", "0"),
        ("inpaint", "window.w_temporal", "NaN"),
    ],
)
def test_non_finite_or_non_positive_solver_setting_exits_2(tmp_path, capsys, command, key, value):
    """A solver setting is checked before any file is read: the inputs here do not exist."""
    capsys.readouterr()
    assert main([command, "--set", f"paths.output_dir={tmp_path / 'missing'}", "--set", f"{key}={value}"]) == 2
    assert f"configuration error: {key} must be a finite number > 0, got " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("simulate", "scene.frames", "1.9"),
        ("reconstruct", "workers", "2.5"),
        ("fit", "refine.outer_iterations", "1.9"),
        ("fit", "refine.prune_top", "2.5"),
        ("fit", "fit.blur_weights", "true"),
        ("inpaint", "window.length", "1.9"),
        ("inpaint", "window.overlap", "true"),
    ],
)
def test_non_integer_count_setting_exits_2(tmp_path, capsys, command, key, value):
    """A count setting is checked before any file is read or written: the inputs here do not exist."""
    capsys.readouterr()
    out = tmp_path / "missing"
    assert main([command, "--set", f"paths.output_dir={out}", "--set", f"{key}={value}"]) == 2
    assert f"configuration error: {key} must be an integer, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_count_setting_reads_as_int():
    from suitcap.cli import build_parser, load_config

    args = build_parser().parse_args(["fit", "--set", "refine.outer_iterations=2.0", "--set", "scene.frames=3"])
    cfg = load_config(args)
    assert type(cfg["refine"]["outer_iterations"]) is int and cfg["refine"]["outer_iterations"] == 2
    assert type(cfg["scene"]["frames"]) is int and cfg["scene"]["frames"] == 3


def _leaves(table, prefix=""):
    """(dotted key, leaf) of each leaf of a nested settings dict."""
    for k, v in table.items():
        if isinstance(v, dict):
            yield from _leaves(v, f"{prefix}{k}.")
        else:
            yield prefix + k, v


# one value outside each domain of the settings table
OUT_OF_DOMAIN = {
    cli.COUNT: "0", cli.NATURAL: "-1", cli.INTEGER: "1.5", cli.SETTINGS["scene"]["n_cameras"][1]: "1",
    cli.SETTINGS["scene"]["codes_per_strip"][1]: "7",
    cli.POSITIVE: "0", cli.NON_NEGATIVE: "-1", cli.PROBABILITY: "1.5",
    cli.PATH: "5", cli.OPTIONAL_PATH: "[1]", cli.PRESET: "bogus",
}


def test_every_default_has_a_domain_that_keeps_it():
    table = dict(_leaves(cli.SETTINGS))
    assert dict(_leaves(cli.DEFAULT_CONFIG)).keys() == table.keys()
    for key, (default, read) in table.items():
        assert read(default) == default and type(read(default)) is type(default), key
        assert read in OUT_OF_DOMAIN, key
    # a real setting written as an integer reads as a float, as the solvers' casts once did
    args = cli.build_parser().parse_args(["fit", "--set", "refine.lambda_g=1000", "--set", "scene.radius=90"])
    cfg = cli.load_config(args)
    assert type(cfg["refine"]["lambda_g"]) is float and cfg["refine"]["lambda_g"] == 1000.0
    assert type(cfg["scene"]["radius"]) is float and cfg["scene"]["radius"] == 90.0


def _out_of_domain_cases():
    # a domain missing from OUT_OF_DOMAIN fails test_every_default_has_a_domain_that_keeps_it
    cases = [("simulate", f"{key}={OUT_OF_DOMAIN.get(read)}") for key, (_, read) in _leaves(cli.SETTINGS)]
    # values that once exited 0, crashed, or exited 2 without naming the key
    cases += [("simulate", f"scene.frames={v}") for v in ("-2", "1.0e400")]
    cases += [("simulate", f"workers={v}") for v in ("0", "-3")]
    cases += [("simulate", f"scene.codes_per_strip={v}") for v in ("1", "4.5")]
    cases += [
        ("simulate", "scene.radius=-150"), ("simulate", "noise.pixel_sigma=NaN"),
        ("simulate", "scene.breathing_period=0"), ("simulate", "scene.radius=abc"),
        ("simulate", "scene.animation_strength=abc"), ("reconstruct", "paths.clouds=5"),
        ("eval", "paths.truth=[1]"), ("fit", "refine.lambda_g=abc"), ("inpaint", "window.w_temporal=abc"),
        ("simulate", "noise.pixel_sigma=abc"), ("fit", "fit.perturb_joints=NaN"),
        ("fit", "fit.perturb_joints=-1"), ("fit", "fit.blur_weights=-1"), ("simulate", "scene.frames={}"),
    ]
    params = [pytest.param(cmd, ["--set", a], {}, a.split("=")[0], id=f"{cmd}-{a}") for cmd, a in cases]
    params.append(pytest.param("simulate", ["--workers", "0"], {}, "workers", id="simulate---workers-0"))
    params.append(pytest.param("simulate", [], {"MOCAP_SEED": "-1"}, "seed", id="simulate-MOCAP_SEED=-1"))
    return params


@pytest.mark.parametrize("command, extra, env, key", _out_of_domain_cases())
def test_setting_outside_its_domain_exits_2_before_any_file(tmp_path, capsys, monkeypatch, command, extra, env, key):
    """load_config reads every setting through its domain: the command's inputs here do not
    exist, the error names the key, and no output directory appears."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    out = tmp_path / "out"
    # a cheap scene, so that a value the table let through would still finish soon
    argv = [command, "--set", f"paths.output_dir={out}", "--set", "scene.preset=tube", "--set", "scene.frames=1"]
    assert main([*argv, *extra]) == 2
    assert f"configuration error: {key} must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overlap", ["0", "-1", "150"])
def test_inpaint_window_overlap_out_of_range_exits_2_before_reading(tmp_path, capsys, overlap):
    """The window plan is checked before any file is read (the inputs here do not exist), and the
    message names both keys; `window.length` defaults to 150."""
    capsys.readouterr()
    argv = ["inpaint", "--set", f"paths.output_dir={tmp_path / 'missing'}", "--set", f"window.overlap={overlap}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: window.overlap must satisfy 0 < overlap < window.length" in err
    assert f"got overlap {overlap} and length 150" in err


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
        "model.json": "182e8a618027870e85d47e3d66a7ebc4f259b097e9ed4e8fef1b10d3a0f26ea1",
        "report_fit_loss.csv": "6b4519be3d1f8edb37d35e35dfd59e3c89a107cd854de0cd2ff101cee1d47703",
    }


def test_inpaint_tube_golden_digest(tmp_path):
    """Pins the bytes of `inpaint` over six frames of shuffled points, some beyond the model."""
    from suitcap.layout import save_layout
    from suitcap.simulator import animate_and_sample, tube_scene
    from suitcap.skinning import save_model

    scene = tube_scene(strips=4, codes_per_strip=8, seed=4)
    truth = animate_and_sample(scene, 6)
    n = len(truth[0])
    rng = np.random.default_rng(5)
    with open(tmp_path / "clouds.jsonl", "w", encoding="utf-8") as f:
        for k, pos in enumerate(truth):
            seen = np.flatnonzero(rng.random(n) >= 0.2)
            ids = np.concatenate([seen, [n + 1, n + 3]])  # ids past the model's vertices
            points = [
                {
                    "id": int(i),
                    "p": [float(v) for v in (pos[i] if i < n else rng.normal(size=3))],
                    "cams": [int(c) for c in np.sort(rng.choice(8, 2, replace=False))],
                    "err": 0.0,
                }
                for i in rng.permutation(ids)
            ]
            f.write(json.dumps({"frame": k, "points": points, "discarded": []}) + "\n")
    save_layout(scene.layout, tmp_path / "layout.json")
    save_model(scene.model, tmp_path / "model.json")
    assert main([
        "inpaint",
        "--set", f"paths.output_dir={tmp_path}",
        "--set", "window.length=4",
        "--set", "window.overlap=2",
    ]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("animation.bin", "report_inpaint.csv")
    }
    assert digests == {
        "animation.bin": "d565320dca9541eaa1ccc39aa6811faa32f835503897d169b85317d117630649",
        "report_inpaint.csv": "a020f52f7de9f5854444a863b5d59657dbf386e6c2b42ff96c1e586d9394af5a",
    }


def test_eval_tube_golden_digest(tmp_path):
    """Pins the bytes of `eval`'s report against a truth file that misses some points and a frame."""
    from suitcap.simulator import animate_and_sample, tube_scene

    truth = animate_and_sample(tube_scene(strips=4, codes_per_strip=8, seed=4), 4)
    rng = np.random.default_rng(6)
    with open(tmp_path / "clouds.jsonl", "w", encoding="utf-8") as fc, open(
        tmp_path / "truth.jsonl", "w", encoding="utf-8"
    ) as ft:
        for k, pos in enumerate(truth):
            points = []
            for i in np.flatnonzero(rng.random(len(pos)) >= 0.2):
                cams = np.sort(rng.choice(8, rng.integers(2, 6), replace=False))
                errs = rng.gamma(2.0, 0.2, size=len(cams))
                points.append({
                    "id": int(i),
                    "p": [float(v) for v in pos[i] + rng.normal(scale=0.5, size=3)],
                    "cams": [int(c) for c in cams],
                    "err": float(errs.mean()),
                    "errs": [float(e) for e in errs],
                })
            discarded = [
                {"id": 1, "reason": "TooFewCameras"},
                {"id": 2, "reason": "MislabelSuspect", "cam": 3},
            ]
            fc.write(json.dumps({"frame": k, "points": points, "discarded": discarded}) + "\n")
            if k < 3:  # the last frame has no truth
                kept = np.flatnonzero(rng.random(len(pos)) >= 0.1)
                truth_points = [
                    {"id": int(i), "p": [float(v) for v in pos[i]], "cams": [], "err": 0.0} for i in kept
                ]
                ft.write(json.dumps({"frame": k, "points": truth_points, "discarded": []}) + "\n")
    assert main(["eval", "--set", f"paths.output_dir={tmp_path}"]) == 0
    digest = hashlib.sha256((tmp_path / "report_eval.json").read_bytes()).hexdigest()
    assert digest == "6e42459d0b3a1d681d4687c8cb1e3727c6fd2649b87261b8393a946d4bf2c4cd"


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
    ids, positions = clouds[0].observed()
    for cid, p in zip(ids[:n_seeds], positions):
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
    "seed-tri-fraction": ("seeds.json", lambda d, t: d[2].update(tri=d[2]["tri"] + 0.6), "seed entry 2 "),
    "seed-tri-bool": ("seeds.json", lambda d, t: d[1].update(tri=True), "seed entry 1 "),
    "seed-id-fraction": ("seeds.json", lambda d, t: d[0].update(id=d[0]["id"] + 0.9), "seed entry 0: id "),
    # the tube layout has no hole-closing vertices: its corner count is the template's vertex count
    "seed-id-past-corners": (
        "seeds.json", lambda d, t: d[4].update(id=len(t["verts"])), "seed entry 4: id 80 is not a corner id in 0..79"
    ),
    "seed-id-negative": ("seeds.json", lambda d, t: d[6].update(id=-7), "seed entry 6: id -7 is not a corner id"),
    "seed-id-repeated": (
        "seeds.json", lambda d, t: d[5].update(id=d[2]["id"]), "seed entries 2 and 5 both have id "
    ),
    "template-tri-fraction": ("template.json", lambda d, t: d["tris"][3].__setitem__(0, 0.7), "tris[3] = [0.7, "),
    "template-weight-index-fraction": (
        "template.json",
        lambda d, t: d["weights"].__setitem__(0, [1.9, 0.4, 1.0]),
        "weights[0] = [1.9, 0.4, 1.0] is outside the integer indices",
    ),
    "template-tri-negative": ("template.json", lambda d, t: d["tris"][5].__setitem__(1, -1), "tris[5] "),
    "template-tri-past-end": (
        "template.json", lambda d, t: d["tris"][0].__setitem__(2, len(t["verts"])), "tris[0] "
    ),
    "template-weight-row-past-end": (
        "template.json", lambda d, t: d["weights"].append([len(t["verts"]), 0, 0.0]), "weights["
    ),
    "template-weight-row-negative": ("template.json", lambda d, t: d["weights"].append([-1, 0, 0.0]), "weights["),
    "template-parent-past-end": (
        "template.json",
        lambda d, t: d["parents"].__setitem__(1, len(t["joints"])),
        "parents[1] = 3 is neither -1 nor a joint index below 3",
    ),
    "template-parents-fraction": (
        "template.json",
        lambda d, t: d.__setitem__("parents", [-1, 0.7, 1.9]),
        "parents[1] = 0.7 is neither -1 nor a joint index below 3",
    ),
    "template-parents-cycle": (
        "template.json",
        lambda d, t: d["parents"].__setitem__(1, 2),
        "joint parents [-1, 2, 1] must form an acyclic tree",
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


@pytest.mark.parametrize(
    "entry",
    [
        lambda m: [len(m["rest"]), 0, 0.5],
        lambda m: [-1, 0, 0.5],
        lambda m: [3, len(m["joints"]), 0.5],
        lambda m: [1.9, 0.4, 1.0],
        lambda m: [True, 0, 0.5],
    ],
    ids=["vertex-past-end", "vertex-negative", "joint-past-end", "indices-fraction", "vertex-bool"],
)
def test_fit_rejects_model_weight_outside_model(tmp_path, capsys, entry):
    run_simulate(tmp_path, frames=1)
    run_reconstruct(tmp_path)
    _write_init_model(tmp_path)
    path = tmp_path / "init_model.json"
    doc = json.loads(path.read_text())
    i, j, w = entry(doc)
    doc["weights"].append([i, j, w])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["fit", "--set", f"paths.output_dir={tmp_path}", "--set", f"paths.init_model={path}"]) == 2
    k = len(doc["weights"]) - 1
    assert f"configuration error: {path}: weights[{k}] = [{i}, {j}, {w}] is outside" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


IDENTITY_POSE_3 = [1.0, 0.0, 0.0, 0.0] * 3 + [0.0, 0.0, 0.0]  # the tube model's 3 joints plus a root translation
BAD_MODEL_ENTRIES = {
    "parent-below-root": (
        lambda d: d["parents"].__setitem__(2, -2), "parents[2] = -2 is neither -1 nor a joint index below 3"
    ),
    "parent-past-end": (
        lambda d: d["parents"].__setitem__(2, 3), "parents[2] = 3 is neither -1 nor a joint index below 3"
    ),
    "parents-short": (lambda d: d["parents"].pop(), "2 parents for 3 joints"),
    "parents-cycle": (
        lambda d: d["parents"].__setitem__(1, 2), "joint parents [-1, 2, 1] must form an acyclic tree"
    ),
    "pose-short": (
        lambda d: d.__setitem__("poses", [IDENTITY_POSE_3, IDENTITY_POSE_3[:-1]]),
        "poses[1] has 14 values, not 4 x 3 joints + 3 = 15",
    ),
    "pose-long": (
        lambda d: d.__setitem__("poses", [IDENTITY_POSE_3 + [0.0]]), "poses[0] has 16 values, not 4 x 3 joints + 3 = 15"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_MODEL_ENTRIES))
def test_fit_rejects_model_parent_or_pose_outside_model(tmp_path, capsys, case):
    run_simulate(tmp_path, frames=1)
    run_reconstruct(tmp_path)
    _write_init_model(tmp_path)
    path = tmp_path / "init_model.json"
    doc = json.loads(path.read_text())
    edit, message = BAD_MODEL_ENTRIES[case]
    assert doc["parents"] == [-1, 0, 1]
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["fit", "--set", f"paths.output_dir={tmp_path}", "--set", f"paths.init_model={path}"]) == 2
    assert f"configuration error: {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("entry", [80, -1, 1.5], ids=["past-end", "negative", "not-an-integer"])
def test_model_rejects_never_observed_outside_model(tmp_path, capsys, entry):
    from suitcap.layout import save_layout
    from suitcap.simulator import tube_scene

    _write_init_model(tmp_path)
    save_layout(tube_scene(n_cameras=8, strips=4, codes_per_strip=8, seed=0).layout, tmp_path / "layout.json")
    path = tmp_path / "init_model.json"
    doc = json.loads(path.read_text())
    assert len(doc["rest"]) == 80
    doc["never_observed"] = [3, entry]
    path.write_text(json.dumps(doc))
    assert main(["export-mesh", "--set", f"paths.output_dir={tmp_path}", "--set", f"paths.model={path}"]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {path}: never_observed[1] = {entry} is not a vertex index below 80" in err
    assert not (tmp_path / "rest_mesh.obj").exists()


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
    ids, observed = clouds[0].observed()
    assert np.linalg.norm(positions[0, ids] - observed, axis=1).max() < 1e-2
    rows = (tmp_path / "report_inpaint.csv").read_text().splitlines()
    assert rows[0] == "frame,observed,filled"
    assert len(rows) == 7


def _write_tube_take(out, frames, n_poses=None):
    """A tube take's truth clouds, each missing a fifth of its points, with its layout and a
    model posed for `n_poses` frames (unposed when None). Returns the cloud lines by frame."""
    from suitcap.layout import save_layout
    from suitcap.simulator import animate_and_sample, tube_scene
    from suitcap.skinning import save_model

    scene = tube_scene(strips=4, codes_per_strip=8, seed=4)
    truth = animate_and_sample(scene, frames)
    rng = np.random.default_rng(7)
    lines = []
    for k, pos in enumerate(truth):
        points = [
            {"id": int(i), "p": [float(v) for v in pos[i]], "cams": [0, 1], "err": 0.0}
            for i in np.flatnonzero(rng.random(len(pos)) >= 0.2)
        ]
        lines.append(json.dumps({"frame": k, "points": points, "discarded": []}) + "\n")
    out.mkdir(parents=True, exist_ok=True)
    (out / "clouds.jsonl").write_text("".join(lines))
    save_layout(scene.layout, out / "layout.json")
    save_model(scene.model if n_poses is None else scene.posed_model(n_poses), out / "model.json")
    return lines


WINDOW_4_2 = ("--set", "window.length=4", "--set", "window.overlap=2")


@pytest.mark.parametrize(
    "order, posed, extra, message",
    [
        ([0, 1, 3], False, (), "frame 3 follows frame 1"),
        ([0, 1, 1, 2], False, (), "frame 1 follows frame 1"),
        ([0, 2, 1, 3], False, (), "frame 2 follows frame 0"),
        # frame 9 missing from 12 lines, found after three windows were solved and frames written
        ([*range(9), 10, 11, 12], True, WINDOW_4_2, "frame 10 follows frame 8"),
        ([*range(9), 10, 11, 12], True, WINDOW_4_2 + ("--set", "paths.animation={out}/anim_objs"), "frame 10 follows"),
    ],
    ids=["missing", "repeated", "out-of-order", "gap-after-windows", "gap-after-windows-obj"],
)
def test_inpaint_rejects_non_consecutive_frames(tmp_path, capsys, monkeypatch, order, posed, extra, message):
    from suitcap import inpaint

    # a posed model has poses for every line, so that only the reading finds the gap
    lines = _write_tube_take(tmp_path, 13, n_poses=len(order) if posed else None)
    (tmp_path / "clouds.jsonl").write_text("".join(lines[k] for k in order))
    solved = []
    real = inpaint.solve_window
    monkeypatch.setattr(inpaint, "solve_window", lambda *a: solved.append(1) or real(*a))
    args = ["inpaint", "--set", f"paths.output_dir={tmp_path}", *(x.format(out=tmp_path) for x in extra)]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert len(solved) == (3 if posed else 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clouds.jsonl", "layout.json", "model.json"]


@pytest.mark.parametrize("animation", ["animation.bin", "anim_objs"])
def test_inpaint_rejects_malformed_last_line(tmp_path, capsys, animation):
    lines = _write_tube_take(tmp_path, 12, n_poses=12)
    (tmp_path / "clouds.jsonl").write_text("".join(lines[:-1]) + lines[-1][:-40] + "\n")
    args = ["inpaint", "--set", f"paths.output_dir={tmp_path}", "--set", f"paths.animation={tmp_path / animation}"]
    assert main([*args, *WINDOW_4_2]) == 2
    assert f"{tmp_path / 'clouds.jsonl'}: line 12: not a point-cloud line" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clouds.jsonl", "layout.json", "model.json"]


def test_inpaint_skips_blank_lines(tmp_path):
    """Whitespace-only lines are not frames: the header's frame count and every byte stay."""
    outputs = {}
    for name, blank in (("plain", ""), ("blank", "\n  \t\n")):
        lines = _write_tube_take(tmp_path / name, 6, n_poses=6)
        (tmp_path / name / "clouds.jsonl").write_text(blank + blank.join(lines) + blank)
        assert main(["inpaint", "--set", f"paths.output_dir={tmp_path / name}", *WINDOW_4_2]) == 0
        outputs[name] = [(tmp_path / name / f).read_bytes() for f in ("animation.bin", "report_inpaint.csv")]
    assert outputs["blank"] == outputs["plain"]


def test_inpaint_memory_is_bounded_by_one_window(tmp_path):
    """The traced peak of a 96-frame take stays within 1.25x that of a 24-frame one."""
    import tracemalloc

    peaks = {}
    for frames in (24, 96):
        out = tmp_path / str(frames)
        _write_tube_take(out, frames, n_poses=frames)
        tracemalloc.start()
        try:
            assert main(["inpaint", "--set", f"paths.output_dir={out}", "--set", "window.length=12",
                         "--set", "window.overlap=4"]) == 0
            peaks[frames] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[96] <= 1.25 * peaks[24], peaks


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
