"""Batch pipeline driver: simulate | reconstruct | fit | inpaint | eval | export-mesh.

Configuration comes from a JSON file plus `--set key.path=value` overrides
(flags win); a key or value that SETTINGS does not allow is a configuration error.
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


def _integer(least):
    """Domain of the integers >= `least`; an integral number such as 2.0 reads as 2."""
    def read(v):
        if not (type(v) is int or type(v) is float and v.is_integer()):
            raise ValueError("an integer")
        if v < least:
            raise ValueError(f"an integer >= {least}")
        return int(v)
    return read


def _where(what, ok):
    """Domain of the values for which `ok` holds, taken as they are."""
    def read(v):
        if not ok(v):
            raise ValueError(what)
        return v
    return read


def _real(what, ok):
    """Domain of the finite numbers for which `ok` holds; an integer such as 1000 reads as 1000.0.
    The bound refuses NaN, the infinities, booleans and integers beyond the float range."""
    finite = _where(what, lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max and ok(v))
    return lambda v: float(finite(v))


def _even(v):
    """Domain of the even integers >= 2, as the tube splits each strip's codes between its two
    bones; an integral number such as 4.0 reads as 4."""
    if not (type(v) in (int, float) and 2 <= v < np.inf and v % 2 == 0):
        raise ValueError("an even integer >= 2")
    return int(v)


# a domain reads a JSON value as its setting, or raises ValueError completing "<key> must be ..."
COUNT = _integer(1)
NATURAL = _integer(0)
INTEGER = _integer(-np.inf)  # window.overlap: WindowPlan checks 0 < overlap < window.length
POSITIVE = _real("a finite number > 0", lambda x: x > 0)
NON_NEGATIVE = _real("a finite number >= 0", lambda x: x >= 0)
PROBABILITY = _real("a probability in [0, 1]", lambda x: 0 <= x <= 1)
PATH = _where("a path string", lambda v: type(v) is str)
OPTIONAL_PATH = _where("a path string or null", lambda v: v is None or type(v) is str)
PRESET = _where("one of " + ", ".join(map(repr, simulator.PRESETS)), lambda v: v in tuple(simulator.PRESETS))

# every setting, as (default, domain)
SETTINGS = {
    "seed": (0, NATURAL),
    "workers": (1, COUNT),
    "paths": {
        "output_dir": ("out", PATH),
        **dict.fromkeys(("calibration", "layout", "detections", "truth", "clouds", "model", "template",
                         "seeds", "init_model", "animation", "report_prefix"), (None, OPTIONAL_PATH)),
    },
    "scene": {
        "preset": ("stick_figure", PRESET), "frames": (100, COUNT), "n_cameras": (16, _integer(2)),
        "breathing_amplitude": (0.0, NON_NEGATIVE), "breathing_period": (100.0, POSITIVE),
        "animation_strength": (1.0, NON_NEGATIVE),
        "strips": (6, COUNT), "codes_per_strip": (10, _even), "radius": (150.0, POSITIVE),  # tube only
    },
    "noise": {"pixel_sigma": (0.2, NON_NEGATIVE), "dropout_prob": (0.0, PROBABILITY),
              "mislabel_prob": (0.0, PROBABILITY)},
    "refine": {  # the defaults are RefineConfig's
        "lambda_g": (refine.RefineConfig.lambda_g, POSITIVE),
        "lambda_j": (refine.RefineConfig.lambda_j, POSITIVE),
        "outer_iterations": (refine.RefineConfig.outer_iterations, COUNT),
        "convergence_tol": (refine.RefineConfig.convergence_tol, POSITIVE),
        "prune_top": (refine.RefineConfig.prune_top, NATURAL),
    },
    # a positive w_temporal keeps the window quadratic definite
    "window": {"length": (150, COUNT), "overlap": (50, INTEGER),
               "w_temporal": (inpaint.DEFAULT_TEMPORAL_WEIGHT, POSITIVE)},
    "fit": {"perturb_joints": (0.0, NON_NEGATIVE), "blur_weights": (0, NATURAL)},
}


def _defaults(table: dict) -> dict:
    return {k: _defaults(v) if isinstance(v, dict) else v[0] for k, v in table.items()}


DEFAULT_CONFIG = _defaults(SETTINGS)


def _deep_update(base: dict, extra: dict) -> dict:
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        else:
            base[k] = v
    return base


def _check(cfg: dict, table: dict, read: bool, prefix: str = "") -> None:
    """Raise ConfigError naming the first key of `cfg` that `table` does not hold or that sets a
    section to a non-object; with `read`, also read each value through its domain, in place."""
    for k, v in cfg.items():
        if k not in table:
            raise ConfigError(f"unknown configuration key {prefix + k!r}")
        if isinstance(table[k], dict):
            if not isinstance(v, dict):
                raise ConfigError(f"configuration key {prefix + k!r} is a section, not {v!r}")
            _check(v, table[k], read, f"{prefix}{k}.")
        elif read:
            try:
                cfg[k] = table[k][1](v)
            except ValueError as e:
                raise ConfigError(f"{prefix}{k} must be {e}, got {json.dumps(v)}") from None


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


def load_config(args) -> dict:
    """Defaults, config file, MOCAP_SEED, each `--set`, `--workers`; each value read through its domain."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                _deep_update(cfg, {**json.load(f)})  # TypeError unless the file holds an object
        except (OSError, json.JSONDecodeError, TypeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
    if "MOCAP_SEED" in os.environ:
        _apply_set(cfg, "seed=" + os.environ["MOCAP_SEED"])
    # checked after each step: a later `--set` into a section that an earlier
    # step replaced by a scalar would rebuild the section from that one key
    _check(cfg, SETTINGS, read=False)
    for assignment in args.set or []:
        _apply_set(cfg, assignment)
        _check(cfg, SETTINGS, read=False)
    if args.workers is not None:
        cfg["workers"] = args.workers
    _check(cfg, SETTINGS, read=True)
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
    return {k: defaults.get(k) if v is None else Path(v) for k, v in cfg["paths"].items()}


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg) -> int:
    paths = _paths(cfg)
    paths["output_dir"].mkdir(parents=True, exist_ok=True)
    n_frames = cfg["scene"]["frames"]
    scene = simulator.scene_from_spec(dict(cfg["scene"], seed=cfg["seed"]))
    noise = detection.OracleNoiseConfig(**cfg["noise"], seed=cfg["seed"])
    save_layout(scene.layout, paths["layout"])
    save_calibration(scene.rig, paths["calibration"])

    n_corner_obs = 0
    n_readings = 0
    with open(paths["detections"], "w", encoding="utf-8") as det_f, open(
        paths["truth"], "w", encoding="utf-8"
    ) as truth_f:
        for k in range(n_frames):
            pos = scene.positions(k)
            visible = simulator.compute_visibility(scene, k, positions=pos)
            for cam, seen in zip(scene.rig, visible):
                frame = detection.oracle_detect(k, cam, pos, seen, scene.layout, noise)
                n_corner_obs += len(frame.corners)
                n_readings += len(frame.codes)
                det_f.write(detection.frame_to_json(frame) + "\n")
            truth = simulator.truth_cloud(k, pos, visible, scene.rig, min_cameras=1)
            truth_f.write(reconstruct.cloud_to_json(truth) + "\n")
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
    workers = min(cfg["workers"], len(groups))
    jobs = (reconstruct.reconstruct_frame, groups, repeat(rig), repeat(layout))
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
    rcfg = refine.RefineConfig(**cfg["refine"])
    layout = load_layout(paths["layout"])
    clouds = reconstruct.read_clouds(paths["clouds"])
    rng = np.random.default_rng(cfg["seed"])

    if paths["init_model"] is not None:
        model0 = load_model(paths["init_model"])
    elif paths["template"] is not None and paths["seeds"] is not None:
        template = registration.load_template(paths["template"])
        seeds = registration.load_seeds(paths["seeds"], template, layout.n_corners)
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
    if fit_cfg["perturb_joints"] > 0:
        d = rng.normal(size=model0.joints.shape)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        model0.joints = model0.joints + d * fit_cfg["perturb_joints"]
    for _ in range(fit_cfg["blur_weights"]):
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
    plan = inpaint.WindowPlan(cfg["window"]["length"], cfg["window"]["overlap"])
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

    displacements = inpaint.solve_frames(L, frames(), plan, cfg["window"]["w_temporal"])
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
