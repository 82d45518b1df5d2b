"""Batch pipeline driver: simulate | reconstruct | fit | inpaint | eval | export-mesh.

Configuration comes from a JSON file plus `--set key.path=value` overrides
(flags win); a key that DEFAULT_CONFIG does not hold is a configuration error.
The environment variable MOCAP_SEED overrides the configured seed. Identical
configuration and seed produce byte-identical outputs.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 unreadable
calibration, 5 registration divergence, 6 constrained-solve failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from pathlib import Path

import numpy as np

from . import detection, inpaint, reconstruct, refine, registration, reporting, simulator
from .errors import CalibrationError, ConfigError, DivergedICP, InsufficientSeeds, LayoutError, SingularKKT
from .geometry import load_calibration, save_calibration
from .layout import load_layout, save_layout
from .skinning import export_obj, load_model, save_model

DEFAULT_CONFIG = {
    "seed": 0,
    "workers": 1,
    "cluster_radius": 3.0,
    "paths": {
        "output_dir": "out",
        "calibration": None,
        "layout": None,
        "detections": None,
        "truth": None,
        "clouds": None,
        "model": None,
        "template": None,
        "seeds": None,
        "init_model": None,
        "animation": None,
        "report_prefix": None,
    },
    "scene": {
        "preset": "stick_figure",
        "frames": 100,
        "n_cameras": 16,
        "breathing_amplitude": 0.0,
        "breathing_period": 100.0,
        "animation_strength": 1.0,
        "strips": 6,
        "codes_per_strip": 10,
        "radius": 150.0,
    },
    "noise": {"pixel_sigma": 0.2, "dropout_prob": 0.0, "mislabel_prob": 0.0},
    "refine": {
        "lambda_g": 1000.0,
        "lambda_j": 1.0,
        "outer_iterations": 100,
        "convergence_tol": 1e-5,
        "prune_top": 4,
    },
    "window": {"length": 150, "overlap": 50, "w_temporal": 100.0},
    "fit": {"perturb_joints": 0.0, "blur_weights": 0},
}


def _deep_update(base: dict, extra: dict) -> dict:
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        else:
            base[k] = v
    return base


def _unknown_key(doc: dict, known, prefix: str = ""):
    """Dotted name of the first key in `doc` that `known` does not hold, else None.

    Raises ConfigError, naming the key, for a section of `known` that `doc`
    sets to something other than an object.
    """
    for k, v in doc.items():
        if not isinstance(known, dict) or k not in known:
            return prefix + k
        if isinstance(known[k], dict) and not isinstance(v, dict):
            raise ConfigError(f"configuration key {prefix + k!r} is a section, not {v!r}")
        inner = _unknown_key(v, known[k], f"{prefix}{k}.") if isinstance(v, dict) else None
        if inner is not None:
            return inner
    return None


def _apply_set(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects key.path=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for p in reversed(key.split(".")):
        value = {p: value}
    _deep_update(cfg, value)


def _check_keys(cfg: dict) -> None:
    unknown = _unknown_key(cfg, DEFAULT_CONFIG)
    if unknown is not None:
        raise ConfigError(f"unknown configuration key {unknown!r}")


def load_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                _deep_update(cfg, json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
    if "MOCAP_SEED" in os.environ:
        try:
            cfg["seed"] = int(os.environ["MOCAP_SEED"])
        except ValueError as e:
            raise ConfigError(f"MOCAP_SEED must be an integer: {e}") from e
    # checked after each step: a later `--set` into a section that an earlier
    # step replaced by a scalar would rebuild the section from that one key
    _check_keys(cfg)
    for assignment in args.set or []:
        _apply_set(cfg, assignment)
        _check_keys(cfg)
    if args.workers is not None:
        cfg["workers"] = args.workers
    return cfg


def _paths(cfg) -> dict:
    out = Path(cfg["paths"]["output_dir"])
    defaults = {
        "calibration": out / "calibration.json",
        "layout": out / "layout.json",
        "detections": out / "detections.jsonl",
        "truth": out / "truth.jsonl",
        "clouds": out / "clouds.jsonl",
        "model": out / "model.json",
        "animation": out / "animation.bin",
        "report_prefix": out / "report",
    }
    resolved = {}
    for k, v in cfg["paths"].items():
        if v is not None:
            resolved[k] = Path(v)
        elif k in defaults:
            resolved[k] = defaults[k]
        else:
            resolved[k] = None
    resolved["output_dir"] = out
    return resolved


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg) -> int:
    paths = _paths(cfg)
    paths["output_dir"].mkdir(parents=True, exist_ok=True)
    scene_cfg = dict(cfg["scene"])
    n_frames = int(scene_cfg.pop("frames"))
    scene_cfg["seed"] = cfg["seed"]
    scene = simulator.scene_from_spec(scene_cfg)
    noise = detection.OracleNoiseConfig(
        pixel_sigma=float(cfg["noise"]["pixel_sigma"]),
        dropout_prob=float(cfg["noise"]["dropout_prob"]),
        mislabel_prob=float(cfg["noise"]["mislabel_prob"]),
        seed=int(cfg["seed"]),
    )
    save_layout(scene.layout, paths["layout"])
    save_calibration(scene.rig, paths["calibration"])

    n_corner_obs = 0
    n_readings = 0
    with open(paths["detections"], "w", encoding="utf-8") as det_f, open(
        paths["truth"], "w", encoding="utf-8"
    ) as truth_f:
        for k in range(n_frames):
            pos = scene.positions(k)
            vis = simulator.compute_visibility(scene, k, positions=pos)
            for cam in scene.rig:
                frame = detection.oracle_detect(
                    k, cam, pos, vis.visible_corners[cam.id], vis.visible_quads[cam.id],
                    scene.layout, noise,
                )
                n_corner_obs += len(frame.corners)
                n_readings += len(frame.codes)
                det_f.write(detection.frame_to_json(frame) + "\n")
            truth_f.write(reconstruct.cloud_to_json(simulator.truth_cloud(k, pos, vis, min_cameras=1)) + "\n")
    print(f"simulated {n_frames} frames x {len(scene.rig)} cameras")
    print(f"corners: {scene.layout.n_corners} on suit, {n_corner_obs} detections")
    print(f"codes: {len(scene.layout.codes)} on suit, {n_readings} readings")
    return 0


def cmd_reconstruct(cfg) -> int:
    paths = _paths(cfg)
    rig = load_calibration(paths["calibration"])
    layout = load_layout(paths["layout"])
    frames = detection.read_detections(paths["detections"])
    calibrated = {cam.id for cam in rig}
    for f in frames:
        if f.camera_id not in calibrated:
            raise ConfigError(
                f"{paths['detections']}: frame {f.frame_index} camera {f.camera_id}: "
                f"camera id {f.camera_id} is not in the calibration"
            )

    # one job per frame, in frame order; a pool hands each worker one run of consecutive frames
    groups = reconstruct.group_frames(frames)
    workers = min(int(cfg["workers"]) or 1, len(groups))
    jobs = (reconstruct.reconstruct_frame, groups, repeat(rig), repeat(layout), repeat(float(cfg["cluster_radius"])))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            clouds = list(pool.map(*jobs, chunksize=-(-len(groups) // workers)))
    else:
        clouds = list(map(*jobs))

    paths["clouds"].parent.mkdir(parents=True, exist_ok=True)
    reconstruct.write_clouds(clouds, paths["clouds"])
    _write_reconstruct_report(cfg, paths, clouds)
    n_pts = sum(len(c.points) for c in clouds)
    print(f"reconstructed {n_pts} labeled points over {len(clouds)} frames")
    return 0


def _write_reconstruct_report(cfg, paths, clouds) -> None:
    errors = np.array(
        [e for c in clouds for rec in c.points.values() for e in rec.per_camera_err]
    )
    table = reporting.percentile_table(errors)
    discards = reporting.discard_histogram(clouds)
    prefix = paths["report_prefix"]
    prefix.parent.mkdir(parents=True, exist_ok=True)
    rows = [["percentile", "reproj_err_px"]] + [[k, v] for k, v in table.items()]
    rows.append([])
    rows.append(["discard_reason", "count"])
    rows.extend([k, v] for k, v in sorted(discards.items()))
    reporting.write_csv(str(prefix) + "_reconstruct.csv", [], rows)
    reporting.write_json(
        str(prefix) + "_reconstruct.json",
        {"reprojection_percentiles": table, "discards": discards, "observations": int(errors.size)},
    )


def cmd_fit(cfg) -> int:
    paths = _paths(cfg)
    rcfg = refine.RefineConfig(
        lambda_g=float(cfg["refine"]["lambda_g"]),
        lambda_j=float(cfg["refine"]["lambda_j"]),
        outer_iterations=int(cfg["refine"]["outer_iterations"]),
        convergence_tol=float(cfg["refine"]["convergence_tol"]),
        prune_top=int(cfg["refine"]["prune_top"]),
    )
    layout = load_layout(paths["layout"])
    clouds = reconstruct.read_clouds(paths["clouds"])
    rng = np.random.default_rng(int(cfg["seed"]))

    if paths["init_model"] is not None:
        model0 = load_model(paths["init_model"])
    elif paths["template"] is not None and paths["seeds"] is not None:
        template = registration.load_template(paths["template"])
        seeds = registration.load_seeds(paths["seeds"], template)
        if not clouds:
            raise ConfigError(f"{paths['clouds']}: no frames to register the template to")
        result = registration.register_icp(
            clouds[0], template, seeds, layout, extra_clouds=clouds[1:6]
        )
        model0 = result.model
        status = "converged" if result.converged else f"stopped at its {registration.ICP_ITERATIONS}-iteration cap"
        print(f"registration {status}: mean residual {result.mean_residuals[-1]:.4f} mm")
    else:
        raise ConfigError("fit needs either paths.init_model or paths.template + paths.seeds")

    fit_cfg = cfg["fit"]
    if float(fit_cfg["perturb_joints"]) > 0:
        d = rng.normal(size=model0.joints.shape)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        model0.joints = model0.joints + d * float(fit_cfg["perturb_joints"])
    for _ in range(int(fit_cfg["blur_weights"])):
        model0.weights = _blur_weights(model0.weights, layout)

    # one pose-only fit of the initial model serves the printed rms and the histogram
    e0 = refine.fit_poses(model0, clouds)[2]
    before_rms = float(np.sqrt(np.sum(e0 * e0) / max(e0.size, 1)))
    result = refine.refine(model0, clouds, layout, rcfg)
    paths["model"].parent.mkdir(parents=True, exist_ok=True)
    save_model(result.model, paths["model"])

    prefix = paths["report_prefix"]
    prefix.parent.mkdir(parents=True, exist_ok=True)
    after_rms = result.fit_rms_trace[-1]
    rows = [[i, l] for i, l in enumerate(result.loss_trace)]
    reporting.write_csv(str(prefix) + "_fit_loss.csv", ["outer_iteration", "loss"], rows)
    _write_fit_histograms(str(prefix), e0, refine.fit_poses(result.model, clouds)[2])
    mono = all(nxt <= prev + 1e-9 for prev, nxt in zip(result.loss_trace, result.loss_trace[1:]))
    print(f"fitting rms: before {before_rms:.4f} mm -> after {after_rms:.4f} mm")
    print(f"loss trace non-increasing: {mono}")
    return 0


def _blur_weights(W, layout):
    edges = layout.edges()
    acc = W.copy()
    deg = np.ones(len(W))
    valid = edges[(edges[:, 0] < len(W)) & (edges[:, 1] < len(W))]
    np.add.at(acc, valid[:, 0], W[valid[:, 1]])
    np.add.at(acc, valid[:, 1], W[valid[:, 0]])
    np.add.at(deg, valid[:, 0], 1.0)
    np.add.at(deg, valid[:, 1], 1.0)
    out = acc / deg[:, None]
    return out / out.sum(axis=1, keepdims=True)


def _write_fit_histograms(prefix, e0, e1) -> None:
    edges, c0 = reporting.log_histogram(e0, lo=1e-3, hi=1e3)
    _, c1 = reporting.log_histogram(e1, lo=1e-3, hi=1e3)
    rows = [
        [f"{edges[i]:.6g}", f"{edges[i + 1]:.6g}", int(c0[i]), int(c1[i])]
        for i in range(len(c0))
    ]
    reporting.write_csv(
        prefix + "_fit_hist.csv", ["bin_lo_mm", "bin_hi_mm", "initial", "refined"], rows
    )
    reporting.svg_histogram(prefix + "_fit_hist.svg", edges, c1, "fitting error (refined)", "mm")


def cmd_inpaint(cfg) -> int:
    """One pass over the clouds: each frame is checked, unposed and counted as it
    is read, each window is solved once its frames are in, and each frame is
    skinned and written once its blend is final. The animation is written under
    a sibling name and renamed on success, so a failed run leaves none."""
    w_temporal = float(cfg["window"]["w_temporal"])
    if not 0 < w_temporal < np.inf:  # the window quadratic is positive definite only for a positive weight
        raise ConfigError(f"window.w_temporal must be a finite number > 0, got {w_temporal}")
    paths = _paths(cfg)
    layout = load_layout(paths["layout"])
    model = load_model(paths["model"])
    clouds_path = paths["clouds"]
    K = reconstruct.count_clouds(clouds_path)
    refit = model.n_frames != K
    if refit:  # filled in frame by frame as the clouds arrive
        model.pose_quats = np.zeros((K, len(model.joints), 4))
        model.root_translations = np.zeros((K, 3))
    L = inpaint.build_spatial_laplacian(layout.faces, model.rest_vertices)
    plan = inpaint.WindowPlan(int(cfg["window"]["length"]), int(cfg["window"]["overlap"]))
    observed = []

    def frames():
        prev = None
        for k, cloud in enumerate(reconstruct.iter_clouds(clouds_path)):
            # the temporal term takes neighbouring clouds for neighbouring frames
            if prev is not None and cloud.frame_index != prev + 1:
                raise ConfigError(f"{clouds_path}: frame {cloud.frame_index} follows frame {prev}")
            if k == K:
                raise ConfigError(f"{clouds_path}: more than the {K} frames counted before reading")
            prev = cloud.frame_index
            if refit:
                quats, roots, _ = refine.fit_poses(model, [cloud])
                model.pose_quats[k], model.root_translations[k] = quats[0], roots[0]
            observed.append(np.count_nonzero(cloud.ids < model.n_vertices))
            yield inpaint.unpose_observations(model, [cloud], k)
        if len(observed) != K:
            raise ConfigError(f"{clouds_path}: {len(observed)} frames read, {K} counted before reading")

    displacements = inpaint.solve_frames(L, frames(), plan, w_temporal)
    anim_path = paths["animation"]
    anim_path.parent.mkdir(parents=True, exist_ok=True)
    binary = str(anim_path).endswith(".bin")
    partial = anim_path.with_name(anim_path.name + ".partial")
    try:
        if binary:
            with open(partial, "wb") as f:
                f.write(inpaint.animation_header(K, model.n_vertices))
                for k, d in enumerate(displacements):
                    inpaint.write_animation_binary(f, inpaint.complete_mesh(model, d, k))
            os.replace(partial, anim_path)
        else:
            partial.mkdir(exist_ok=True)
            for k, d in enumerate(displacements):
                export_obj(inpaint.complete_mesh(model, d, k), layout.faces, partial / f"frame_{k:05d}.obj")
            anim_path.mkdir(exist_ok=True)
            for frame in partial.iterdir():
                os.replace(frame, anim_path / frame.name)
            partial.rmdir()
    except BaseException:
        if binary:
            partial.unlink(missing_ok=True)
        else:
            shutil.rmtree(partial, ignore_errors=True)
        raise

    prefix = paths["report_prefix"]
    prefix.parent.mkdir(parents=True, exist_ok=True)
    rows = [[k, n, model.n_vertices - n] for k, n in enumerate(observed)]
    reporting.write_csv(str(prefix) + "_inpaint.csv", ["frame", "observed", "filled"], rows)
    n_windows = len(plan.starts(K))
    print(f"inpainted {K} frames ({n_windows} window{'s' if n_windows != 1 else ''})")
    return 0


def _read_distinct_frames(path) -> list:
    """`read_clouds(path)`; ConfigError naming the file and the first frame index that repeats."""
    clouds = reconstruct.read_clouds(path)
    seen = set()
    for cloud in clouds:
        if cloud.frame_index in seen:
            raise ConfigError(f"{path}: frame {cloud.frame_index} appears more than once")
        seen.add(cloud.frame_index)
    return clouds


def cmd_eval(cfg) -> int:
    paths = _paths(cfg)
    clouds = _read_distinct_frames(paths["clouds"])
    for cloud in clouds:
        if not np.array_equal(cloud.err_offsets, cloud.cam_offsets):
            n_errs, n_cams = np.diff(cloud.err_offsets), np.diff(cloud.cam_offsets)
            r = np.flatnonzero(n_errs != n_cams)[0]
            raise ConfigError(
                f"{paths['clouds']}: frame {cloud.frame_index} point {cloud.ids[r]} has "
                f"{n_errs[r]} per-camera errors for {n_cams[r]} cameras"
            )
    errors = np.concatenate([np.zeros(0)] + [c.errs for c in clouds])

    report = {
        "observations": int(errors.size),
        "reprojection_percentiles": reporting.percentile_table(errors),
    }
    edges, counts = reporting.log_histogram(errors)
    truth_path = paths["truth"]
    if truth_path is not None and truth_path.exists():
        truth = {c.frame_index: c for c in _read_distinct_frames(truth_path)}
        d3 = []
        for c in clouds:
            if c.frame_index in truth:
                t = truth[c.frame_index]
                _, mine, theirs = np.intersect1d(c.ids, t.ids, assume_unique=True, return_indices=True)
                # one norm per row: the row-wise norm of the whole array can differ in the last bit
                d3 += [float(np.linalg.norm(d)) for d in c.positions[mine] - t.positions[theirs]]
        if d3:
            d3 = np.array(d3)
            report["error_3d_mm"] = {
                "max": float(d3.max()),
                "mean": float(d3.mean()),
                "rms": float(np.sqrt(np.mean(d3 * d3))),
            }

    prefix = paths["report_prefix"]
    prefix.parent.mkdir(parents=True, exist_ok=True)
    reporting.write_json(str(prefix) + "_eval.json", report)
    rows = [["percentile", "reproj_err_px"]]
    rows += [[k, v] for k, v in report["reprojection_percentiles"].items()]
    rows.append([])
    rows.append(["bin_lo_px", "bin_hi_px", "count"])
    rows += [[f"{edges[i]:.6g}", f"{edges[i + 1]:.6g}", int(counts[i])] for i in range(len(counts))]
    reporting.write_csv(str(prefix) + "_eval.csv", [], rows)
    reporting.svg_histogram(
        str(prefix) + "_eval.svg", edges, counts, "per-camera reprojection error", "px"
    )
    print(json.dumps(report["reprojection_percentiles"]))
    return 0


def cmd_export_mesh(cfg) -> int:
    paths = _paths(cfg)
    layout = load_layout(paths["layout"])
    model = load_model(paths["model"])
    out = paths["output_dir"] / "rest_mesh.obj"
    out.parent.mkdir(parents=True, exist_ok=True)
    export_obj(model.rest_vertices, layout.faces, out)
    print(f"wrote {out}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "fit": cmd_fit,
    "inpaint": cmd_inpaint,
    "eval": cmd_eval,
    "export-mesh": cmd_export_mesh,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="suitcap", description=__doc__)
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override config entries")
    p.add_argument("--workers", type=int, default=None, help="frame-level worker pool size")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return COMMANDS[args.command](cfg)
    except (ConfigError, LayoutError, InsufficientSeeds, ValueError, KeyError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except CalibrationError as e:
        print(f"calibration error: {e}", file=sys.stderr)
        return 4
    except DivergedICP as e:
        print(f"registration diverged: {e}", file=sys.stderr)
        return 5
    except SingularKKT as e:
        print(f"inpainting solve failed: {e}", file=sys.stderr)
        return 6
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
