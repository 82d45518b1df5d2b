"""The benchmark's workloads: seeded inputs, the CLI stages they time, output checks.

Each workload builds its inputs from the seed with `suitcap.simulator` and
writes them to files; the timed stages are `suitcap.cli.main` calls that get
only those files. Checks read the outputs back with `json`/`csv`/`numpy`, not
with the program's readers, except where a check is defined by a program
function (`refine.fitting_rms` for held-out error).

Why these three, and what each leaves idle:
- capture: detection ingest, clustering, labeling, the pairwise mislabel
  search and LM triangulation (reconstruct), then eval's re-labeling and
  per-observation projection. Injected mislabels and dropouts drive every
  discard path. fit and inpaint do no work here.
- fit: the alternating refinement (weight QP, pose Gauss-Newton, joint and
  rest blocks) plus the CLI's before/after pose-only fits. Detection and
  triangulation do no work here.
- fill: large-cloud JSON ingest, unposing, KKT assembly, factorization and
  solve over two blended windows, forward skinning and the binary export.
  Refinement is bypassed because the model's poses match the frame count.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import json
from pathlib import Path

import numpy as np

from suitcap import cli, simulator
from suitcap.layout import save_layout
from suitcap.reconstruct import LabeledPointCloud, PointRecord, read_clouds, write_clouds
from suitcap.refine import fitting_rms
from suitcap.skinning import load_model, save_model

# stated bounds of the output checks
MAX_POINT_REPROJ_PX = 1.5  # reconstruct's contract for every emitted point
MAX_ERR3D_RMS_MM = 1.0  # at 0.3 px detection noise, over points without gross errors
# A mislabel that two cameras agree on passes the filter (the IQR test needs
# three), so a few points per ten thousand land centimetres off; they are
# counted against this share and left out of the RMS bound above. Over 60
# seeds at full size, at most 2 of about 7.6k points were gross (0.03%).
GROSS_ERROR_MM = 10.0
MAX_GROSS_SHARE = 0.0005
# emitted points / truth corners seen by at least two cameras: 0.898 to 0.960
# over the same 60 seeds, so a change that drops a few percent of points fails
MIN_COVERAGE = 0.88
MAX_FILL_RMS_MM = 1.0  # removed entries vs truth, 3 mm breathing amplitude

WORKERS = 1  # --workers of every stage call

CAPTURE_NOISE = {"pixel_sigma": 0.3, "mislabel_prob": 0.02, "dropout_prob": 0.02}
FIT_POSITION_NOISE_MM = 0.3
# The weight QP's active-set loop runs to its iteration cap on a data-dependent
# share of vertices, so the body motion and the CLI's seeded perturbation would
# swing fit time by about 30% between seeds. Both are fixed; the benchmark's
# seed draws the position noise. The noise alone still moved fit time by 25%
# between two draws at 2 training frames and about half that at 4, so a run
# times two draws in turn (`inputs`). Two outer iterations, so that the loss
# trace has a step that the non-increasing check can catch; refine tests for
# convergence only from its second iteration on, so both always run.
FIT_SCENE_SEED = 0
FIT_PERTURB_JOINTS_MM = 20.0
FIT_BLUR_WEIGHTS = 2
# The body motion sets most of fill_rms_mm: over ten seeds it spread by 9%
# (quartiles over median), so it is fixed and the seed draws the holes.
FILL_SCENE_SEED = 0
FILL_BREATHING_MM = 3.0
FILL_REMOVED_SHARE = 0.2

# "full" is what the benchmark measures; "smoke" runs the same code paths on
# the small tube body in seconds, for the harness's own test
SIZES = {
    "capture": {
        "full": {"preset": "stick_figure", "frames": 6},
        "smoke": {"preset": "tube", "frames": 2},
    },
    "fit": {
        "full": {"preset": "stick_figure", "train": 4, "held_out": 3, "outer_iterations": 2, "inputs": 2},
        "smoke": {"preset": "tube", "train": 2, "held_out": 1, "outer_iterations": 2, "inputs": 2},
    },
    "fill": {
        "full": {"preset": "stick_figure", "frames": 100, "window": 60, "overlap": 20},
        "smoke": {"preset": "tube", "frames": 24, "window": 12, "overlap": 4},
    },
}


def run_cli(argv) -> int:
    """One in-process CLI call; its summary lines are kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _sets(**kv) -> list[str]:
    out = []
    for k, v in kv.items():
        out += ["--set", f"{k.replace('__', '.')}={v}"]
    return out


def _jsonl(path):
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


class Workload:
    """Inputs in `work`, made from `seed`; `stages` are timed, `outputs` must repeat bytewise."""

    name = ""
    stages: tuple = ()
    outputs: dict = {}

    def __init__(self, work: Path, seed: int, size: str, part: int = 0):
        self.work = Path(work)
        self.seed = int(seed)
        self.part = part  # which of the seed's inputs this is
        self.size = SIZES[self.name][size]

    @classmethod
    def inputs(cls, size: str) -> int:
        """How many inputs a run makes from its seed and times in turn."""
        return SIZES[cls.name][size].get("inputs", 1)

    @property
    def frames(self) -> int:
        return self.size["frames"]

    @property
    def cli_seed(self) -> int:
        return self.seed

    def argv(self, stage: str) -> list[str]:
        return [stage, "--workers", str(WORKERS)] + _sets(paths__output_dir=self.work, seed=self.cli_seed)

    def setup(self) -> None:
        raise NotImplementedError

    def check(self, expect) -> dict:
        """Check the first pass's outputs with `expect(stage, check, ok, detail)`.

        Returns the workload's accuracy metrics by name.
        """
        raise NotImplementedError


class Capture(Workload):
    name = "capture"
    stages = ("reconstruct", "eval")
    outputs = {
        "reconstruct": ("clouds.jsonl", "report_reconstruct.json"),
        "eval": ("report_eval.json",),
    }

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        rc = run_cli(
            self.argv("simulate")
            + _sets(scene__preset=self.size["preset"], scene__frames=self.frames)
            + _sets(**{f"noise__{k}": v for k, v in CAPTURE_NOISE.items()})
        )
        if rc != 0:
            raise RuntimeError(f"simulate exited with {rc}")

    def check(self, expect):
        truth = {t["frame"]: {p["id"]: p for p in t["points"]} for t in _jsonl(self.work / "truth.jsonl")}
        clouds = _jsonl(self.work / "clouds.jsonl")
        expect("reconstruct", "frames", len(clouds) == self.frames, f"{len(clouds)} clouds")
        points = [(c["frame"], p) for c in clouds for p in c["points"]]
        worst = max((p["err"] for _, p in points), default=0.0)
        expect("reconstruct", "point_reproj", worst <= MAX_POINT_REPROJ_PX, f"mean error up to {worst} px")
        unseen = [(k, p["id"]) for k, p in points if p["id"] not in truth[k]]
        expect("reconstruct", "points_visible", not unseen, f"never-visible points {unseen[:5]}")
        seen = sum(1 for pts in truth.values() for t in pts.values() if len(t["cams"]) >= 2)
        coverage = len(points) / max(seen, 1)
        expect("reconstruct", "coverage", MIN_COVERAGE <= coverage <= 1.0, f"{coverage:.4f}")
        d3 = np.array([
            np.linalg.norm(np.array(p["p"]) - np.array(truth[k][p["id"]]["p"]))
            for k, p in points
            if p["id"] in truth[k]
        ])
        err3d = float(np.sqrt(np.mean(d3 * d3))) if d3.size else float("inf")
        gross = d3 > GROSS_ERROR_MM
        gross_share = float(gross.mean()) if d3.size else 1.0
        expect("reconstruct", "gross_errors", gross_share <= MAX_GROSS_SHARE, f"{gross.sum()} of {d3.size} points")
        inliers = d3[~gross]
        err3d_inliers = float(np.sqrt(np.mean(inliers * inliers))) if inliers.size else float("inf")
        expect("reconstruct", "err3d_rms", err3d_inliers <= MAX_ERR3D_RMS_MM, f"{err3d_inliers:.4f} mm")

        with open(self.work / "report_eval.json", encoding="utf-8") as f:
            report = json.load(f)
        reported = report.get("error_3d_mm", {}).get("rms", float("nan"))
        expect("eval", "err3d_agrees", np.isclose(reported, err3d, rtol=1e-9), f"{reported} mm")
        p99 = float(report["reprojection_percentiles"]["99"])
        expect("eval", "reproj_p99", 0.0 < p99 <= MAX_POINT_REPROJ_PX, f"{p99} px")
        return {
            "points_per_frame": len(points) / self.frames,
            "err3d_rms_mm": err3d,
            "err3d_inlier_rms_mm": err3d_inliers,
            "gross_error_share": gross_share,
            "reproj_p99_px": p99,
        }


@functools.lru_cache(maxsize=1)
def _fit_truth_clouds(preset: str, n_frames: int) -> tuple:
    """Truth clouds of the fixed fit scene, shared by a run's inputs; callers must not modify them."""
    scene = simulator.scene_from_spec({"preset": preset, "seed": FIT_SCENE_SEED})
    return tuple(simulator.truth_clouds(scene, n_frames))


class Fit(Workload):
    name = "fit"
    stages = ("fit",)
    outputs = {"fit": ("model.json", "report_fit_loss.csv")}

    @property
    def frames(self) -> int:
        return self.size["train"]

    @property
    def cli_seed(self) -> int:
        return FIT_SCENE_SEED

    def argv(self, stage):
        return super().argv(stage) + _sets(
            paths__init_model=self.work / "init_model.json",
            fit__perturb_joints=FIT_PERTURB_JOINTS_MM,
            fit__blur_weights=FIT_BLUR_WEIGHTS,
            refine__outer_iterations=self.size["outer_iterations"],
        )

    def _scene(self):
        return simulator.scene_from_spec({"preset": self.size["preset"], "seed": FIT_SCENE_SEED})

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        scene = self._scene()
        n_train = self.size["train"]
        rng = np.random.default_rng((self.seed, self.part))
        clouds = [
            LabeledPointCloud(
                truth.frame_index,
                {
                    i: dataclasses.replace(rec, position=rec.position + rng.normal(scale=FIT_POSITION_NOISE_MM, size=3))
                    for i, rec in truth.points.items()
                },
            )
            for truth in _fit_truth_clouds(self.size["preset"], n_train + self.size["held_out"])
        ]
        write_clouds(clouds[:n_train], self.work / "clouds.jsonl")
        write_clouds(clouds[n_train:], self.work / "held_out.jsonl")
        save_layout(scene.layout, self.work / "layout.json")
        save_model(scene.model, self.work / "init_model.json")

    def _init_model(self):
        """The model `fit` starts from, perturbed as the CLI does with the same seed."""
        scene = self._scene()
        model = scene.model.copy()
        d = np.random.default_rng(self.cli_seed).normal(size=model.joints.shape)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        model.joints = model.joints + d * FIT_PERTURB_JOINTS_MM
        for _ in range(FIT_BLUR_WEIGHTS):
            model.weights = cli._blur_weights(model.weights, scene.layout)
        return model

    def check(self, expect):
        with open(self.work / "report_fit_loss.csv", newline="", encoding="utf-8") as f:
            loss = [float(row[1]) for row in list(csv.reader(f))[1:]]
        n = self.size["outer_iterations"]
        expect("fit", "outer_iterations", len(loss) == n, f"{len(loss)} of {n}")
        expect("fit", "loss_non_increasing", all(b <= a for a, b in zip(loss, loss[1:])), f"{loss}")
        held_out = read_clouds(self.work / "held_out.jsonl")
        fitted = fitting_rms(load_model(self.work / "model.json"), held_out)
        before = fitting_rms(self._init_model(), held_out)
        expect("fit", "holdout_improves", fitted < before, f"{fitted:.4f} mm vs initial {before:.4f} mm")
        return {"holdout_rms_mm": fitted, "init_holdout_rms_mm": before}


class Fill(Workload):
    name = "fill"
    stages = ("inpaint",)
    outputs = {"inpaint": ("animation.bin", "report_inpaint.csv")}

    def argv(self, stage):
        return super().argv(stage) + _sets(
            window__length=self.size["window"], window__overlap=self.size["overlap"]
        )

    def _scene(self):
        return simulator.scene_from_spec(
            {"preset": self.size["preset"], "seed": FILL_SCENE_SEED, "breathing_amplitude": FILL_BREATHING_MM}
        )

    def _truth(self, scene):
        """Truth positions (K, N, 3) and the mask of entries kept as observations."""
        truth = simulator.animate_and_sample(scene, self.frames)
        # every corner counts as seen (no occlusion test, which would cost more
        # than the solve); the holes are a seeded random share of the entries
        observed = np.random.default_rng(self.seed).random(truth.shape[:2]) >= FILL_REMOVED_SHARE
        return truth, observed

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        scene = self._scene()
        truth, observed = self._truth(scene)
        clouds = []
        for k in range(self.frames):
            cloud = LabeledPointCloud(k)
            for i in np.flatnonzero(observed[k]):
                cloud.points[int(i)] = PointRecord(truth[k, i], (), 0.0)
            clouds.append(cloud)
        write_clouds(clouds, self.work / "clouds.jsonl")
        save_layout(scene.layout, self.work / "layout.json")
        save_model(scene.posed_model(self.frames), self.work / "model.json")

    def check(self, expect):
        with open(self.work / "animation.bin", "rb") as f:
            header = json.loads(f.readline())
            anim = np.frombuffer(f.read(), dtype=np.float32)
        anim = anim.reshape(header["K"], header["N"], 3).astype(float)
        truth, observed = self._truth(self._scene())
        shape_ok = anim.shape == truth.shape
        expect("inpaint", "shape", shape_ok, f"{anim.shape}, expected {truth.shape}")
        if not shape_ok:
            return {"fill_rms_mm": float("inf")}
        obs = truth[observed]
        # one float32 ulp at each observed coordinate
        excess = np.abs(anim[observed] - obs) - np.spacing(np.abs(obs).astype(np.float32))
        expect("inpaint", "observed_reproduced", excess.max() <= 0, f"{excess.max():.3g} mm beyond float32")
        d = anim[~observed] - truth[~observed]
        fill_rms = float(np.sqrt(np.mean(np.sum(d * d, axis=1))))
        expect("inpaint", "fill_rms", fill_rms <= MAX_FILL_RMS_MM, f"{fill_rms:.4f} mm")
        return {"fill_rms_mm": fill_rms}


WORKLOADS = {w.name: w for w in (Capture, Fit, Fill)}
