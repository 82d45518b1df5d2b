"""Smoke test of the benchmark harness: `python3 -m pytest perfbench -q`.

Runs every workload at its smoke size, untraced and traced, and checks the
result format against BENCHMARK.json, that every named metric and every
output check is reported, that every input is timed, that traced and untraced
outputs are identical, and that span self times add up to each stage's traced
time.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from layertrace import SPANS, per_layer_metrics  # noqa: E402
from run import NAMED, NAMED_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHECKS = {
    "capture": {
        "reconstruct.exit_code", "reconstruct.outputs_repeat", "reconstruct.frames",
        "reconstruct.point_reproj", "reconstruct.points_visible", "reconstruct.coverage",
        "reconstruct.gross_errors", "reconstruct.err3d_rms", "eval.exit_code", "eval.outputs_repeat",
        "eval.err3d_agrees", "eval.reproj_p99",
    },
    "fit": {
        "fit.exit_code", "fit.outputs_repeat", "fit.outer_iterations", "fit.loss_non_increasing",
        "fit.holdout_improves",
    },
    "fill": {
        "inpaint.exit_code", "inpaint.outputs_repeat", "inpaint.shape",
        "inpaint.observed_reproduced", "inpaint.fill_rms",
    },
}


def bench(workload, trace, cwd=ROOT):
    cmd = BENCHMARK["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module", params=[w["name"] for w in BENCHMARK["workloads"]])
def runs(request):
    out = {}
    for trace in (0, 1):
        proc = bench(request.param, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        out[trace] = (json.loads(lines[-2])["record"], json.loads(lines[-1]))
    return request.param, out


def test_result_format_and_metric_sets(runs):
    _, out = runs
    expected = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for trace, (_, result) in out.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected[trace]
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    for name, value in out[0][1]["metrics"].items():
        assert value["value"] > 0, name


def test_per_layer_list_matches_the_tracer():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == per_layer_metrics()


def test_named_metrics_and_checks(runs):
    workload, out = runs
    for record, _ in out.values():
        assert {k: v["unit"] for k, v in record["named"].items()} == {
            k: NAMED_UNITS[k] for k in NAMED[workload]
        }
        assert record["named"]["fail_ratio"]["value"] == 0
        assert record["checks"] == {name: True for name in CHECKS[workload]}
        env = record["environment"]
        assert env["workers"] == 1 and set(env["blas_pins"].values()) == {"1"}


def test_traced_and_untraced_outputs_identical(runs):
    workload, out = runs
    passes = [p for record, _ in out.values() for p in record["passes"]]
    assert any(p["traced"] for p in out[1][0]["passes"])
    by_input = {}
    for p in passes:
        by_input.setdefault(p["input"], []).append(p["digests"])
    for digests in by_input.values():
        assert all(d == digests[0] for d in digests)
    assert {p["input"] for p in out[0][0]["passes"]} == set(range(WORKLOADS[workload].inputs("smoke")))
    assert {p["input"] for p in out[1][0]["passes"]} == {0}


def test_self_times_add_up_to_stage_time(runs):
    _, out = runs
    metrics = {k: v["value"] for k, v in out[1][1]["metrics"].items()}
    traced_stages = [s for s in SPANS if metrics[f"{s}.traced_s"] > 0]
    assert traced_stages
    for stage in traced_stages:
        spans = sum(
            v for k, v in metrics.items()
            if k.startswith(stage + ".") and k.endswith("_s") and k != f"{stage}.traced_s"
        )
        assert spans == pytest.approx(metrics[f"{stage}.traced_s"], rel=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCHMARK["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("capture", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
