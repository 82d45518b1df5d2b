"""Outside-in layer trace for the suitcap CLI stages.

The program itself has no tracer, so spans are recorded by replacing module
attributes with timing wrappers for the duration of one traced stage call.
Each wrapper sits in the namespace its caller looks the function up in: for
example `suitcap.reconstruct.linear_initialization` is the name
`filter_mislabels` calls for the pairwise search, while `triangulate_points`
reaches its own Linear-LS start through `suitcap.triangulate` and is not
caught by that span.

Every `_s` metric is a self time: the span's total duration minus the part of
it covered by nested spans. For each stage, the self times of its spans plus
`<stage>.self_s` add up to `<stage>.traced_s`.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

DISCARD_REASONS = ("LabelConflict", "MislabelSuspect", "HighResidual", "TooFewCameras")


# --- counters: (add, args, kwargs, result) -> None; `add(name, value)` adds to <stage>.<name>


def _count_clustering(add, args, kwargs, out):
    add("detection.corners_in", len(args[0].corners))
    add("detection.corners_kept", len(out.corners))


def _count_labels(add, args, kwargs, out):
    observations, conflicts = out
    add("reconstruct.labeled_obs", len(observations))
    add("reconstruct.label_conflicts", len(conflicts))


def _count_pair_hypotheses(add, args, kwargs, out):
    add("triangulate.pair_hypotheses", len(out))


def _count_lm(add, args, kwargs, out):
    add("triangulate.lm_points", len(out.points))
    add("triangulate.lm_converged", int(out.converged.sum()))


def _count_emitted(add, args, kwargs, out):
    clouds = args[0]
    add("reconstruct.points_emitted", sum(len(c.points) for c in clouds))
    for c in clouds:
        for d in c.discarded:
            add(f"reconstruct.discards_{d.reason}", 1)


def _count_outer_iterations(add, args, kwargs, out):
    add("refine.outer_iterations", len(out.loss_trace))


def _count_constraints(add, args, kwargs, out):
    add("inpaint.constraints", len(out.frame_idx))


def _count_kkt_rows(add, args, kwargs, out):
    # computed from the call's arguments: F*N unknowns plus one row per
    # constraint (an upper bound when solve_window zeroes unconstrained components)
    L, constraints = args[0], args[1]
    n_frames = kwargs.get("n_frames", args[3] if len(args) > 3 else None)
    if n_frames is None:
        n_frames = constraints.n_frames
    add("inpaint.kkt_rows", n_frames * L.shape[0] + len(constraints.frame_idx))


_REPORTING = [
    ("suitcap.reporting", fn, "reporting", None)
    for fn in (
        "percentile_table",
        "log_histogram",
        "write_csv",
        "write_json",
        "svg_histogram",
        "discard_histogram",
    )
]

# stage -> [(module, attribute, layer, counter)]; the attribute is replaced in
# `module`, the namespace the stage's caller resolves it in.
SPANS = {
    "reconstruct": [
        ("suitcap.detection", "read_detections", "detection.read_detections", None),
        ("suitcap.reconstruct", "cluster_frame", "detection.cluster_frame", _count_clustering),
        ("suitcap.reconstruct", "consolidate_labels", "reconstruct.consolidate_labels", _count_labels),
        ("suitcap.reconstruct", "filter_mislabels", "reconstruct.filter_mislabels", None),
        (
            "suitcap.reconstruct",
            "linear_initialization",
            "triangulate.linear_initialization",
            _count_pair_hypotheses,
        ),
        ("suitcap.reconstruct", "triangulate_points", "triangulate.triangulate_points", _count_lm),
        ("suitcap.reconstruct", "write_clouds", "reconstruct.write_clouds", _count_emitted),
        *_REPORTING,
    ],
    "eval": [
        ("suitcap.detection", "read_detections", "detection.read_detections", None),
        ("suitcap.detection", "cluster_frame", "detection.cluster_frame", _count_clustering),
        ("suitcap.reconstruct", "consolidate_labels", "reconstruct.consolidate_labels", _count_labels),
        ("suitcap.reconstruct", "read_clouds", "reconstruct.read_clouds", None),
        ("suitcap.triangulate", "project_cams", "triangulate.project_cams", None),
        *_REPORTING,
    ],
    "fit": [
        ("suitcap.reconstruct", "read_clouds", "reconstruct.read_clouds", None),
        ("suitcap.cli", "load_model", "skinning.load_model", None),
        ("suitcap.cli", "save_model", "skinning.save_model", None),
        ("suitcap.refine", "refine", "refine.refine", _count_outer_iterations),
        ("suitcap.refine", "geodesic_weights", "refine.geodesic_weights", None),
        ("suitcap.refine", "simplex_qp", "refine.simplex_qp", None),
        ("suitcap.refine", "pose_residual_jacobian", "refine.pose_residual_jacobian", None),
        ("suitcap.refine", "fit_poses", "refine.fit_poses", None),
        ("suitcap.refine", "joint_transforms", "skinning.joint_transforms", None),
        *_REPORTING,
    ],
    "inpaint": [
        ("suitcap.reconstruct", "read_clouds", "reconstruct.read_clouds", None),
        ("suitcap.cli", "load_model", "skinning.load_model", None),
        ("suitcap.refine", "fit_poses", "refine.fit_poses", None),
        ("suitcap.inpaint", "build_spatial_laplacian", "inpaint.build_spatial_laplacian", None),
        ("suitcap.inpaint", "unpose_observations", "inpaint.unpose_observations", _count_constraints),
        ("suitcap.inpaint", "solve_window", "inpaint.solve_window", _count_kkt_rows),
        ("suitcap.inpaint", "complete_mesh", "inpaint.complete_mesh", None),
        ("suitcap.inpaint", "write_animation_binary", "inpaint.write_animation_binary", None),
        *_REPORTING,
    ],
}

# spans whose call count is reported as `<stage>.<layer>_calls`
CALL_COUNTS = {
    "reconstruct": ["detection.cluster_frame"],
    "eval": ["detection.cluster_frame", "triangulate.project_cams"],
    "fit": [
        "refine.simplex_qp",
        "refine.pose_residual_jacobian",
        "refine.fit_poses",
        "skinning.joint_transforms",
    ],
    "inpaint": ["refine.fit_poses", "inpaint.solve_window"],
}

COUNTERS = {
    "reconstruct": [
        "detection.corners_in",
        "detection.corners_kept",
        "reconstruct.labeled_obs",
        "reconstruct.label_conflicts",
        "triangulate.pair_hypotheses",
        "triangulate.lm_points",
        "triangulate.lm_converged",
        "reconstruct.points_emitted",
        *(f"reconstruct.discards_{r}" for r in DISCARD_REASONS),
    ],
    "eval": [
        "detection.corners_in",
        "detection.corners_kept",
        "reconstruct.labeled_obs",
        "reconstruct.label_conflicts",
    ],
    "fit": ["refine.outer_iterations"],
    "inpaint": ["inpaint.constraints", "inpaint.kkt_rows"],
}

# useful-work ratios: name -> (numerator, denominator), both metric names
RATIOS = {
    "reconstruct.triangulate.lm_converged_ratio": (
        "reconstruct.triangulate.lm_converged",
        "reconstruct.triangulate.lm_points",
    ),
    "reconstruct.reconstruct.emitted_per_pair_hypothesis": (
        "reconstruct.reconstruct.points_emitted",
        "reconstruct.triangulate.pair_hypotheses",
    ),
}

TRACE_OVERHEAD = {"trace.untraced_s": "s", "trace.traced_s": "s", "trace.overhead": "ratio"}


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out: dict[str, str] = {}
    for stage, spans in SPANS.items():
        for layer in dict.fromkeys(layer for _, _, layer, _ in spans):
            out[f"{stage}.{layer}_s"] = "s"
        for layer in CALL_COUNTS[stage]:
            out[f"{stage}.{layer}_calls"] = "count"
        for name in COUNTERS[stage]:
            out[f"{stage}.{name}"] = "rows" if name.endswith("kkt_rows") else "count"
        out[f"{stage}.self_s"] = "s"
        out[f"{stage}.traced_s"] = "s"
    for name in RATIOS:
        out[name] = "ratio"
    out.update(TRACE_OVERHEAD)
    return out


class Tracer:
    """Spans and counters of traced stage calls, kept in memory."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self._stage = None
        self._open: list[float] = []  # time covered by children, one entry per open span

    def add(self, name: str, value) -> None:
        self.values[f"{self._stage}.{name}"] += value

    def _wrap(self, fn, layer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                children = self._open.pop()
                self._open[-1] += duration
                self.add(f"{layer}_s", duration - children)
                self.add(f"{layer}_calls", 1)
            if counter is not None:
                counter(self.add, args, kwargs, out)
            return out

        return traced

    @contextmanager
    def stage(self, stage: str):
        """Trace one call of `stage`: install its wrappers, time it, restore."""
        installed = []
        self._stage = stage
        self._open = [0.0]
        try:
            for module_name, attr, layer, counter in SPANS[stage]:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                installed.append((module, attr, original))
                setattr(module, attr, self._wrap(original, layer, counter))
            t0 = perf_counter()
            try:
                yield
            finally:
                total = perf_counter() - t0
                self.add("traced_s", total)
                self.add("self_s", total - self._open[0])
        finally:
            for module, attr, original in reversed(installed):
                setattr(module, attr, original)
            self._stage = None

    def report(self) -> dict[str, float]:
        """All per-layer metrics; layers the traced stages never reached read 0."""
        out = {name: float(self.values.get(name, 0.0)) for name in per_layer_metrics()}
        for name, (num, den) in RATIOS.items():
            out[name] = out[num] / out[den] if out[den] else 0.0
        return out
