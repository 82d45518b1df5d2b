"""Benchmark of the suitcap CLI stages on seeded synthetic takes.

    python3 perfbench/run.py --workload capture --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout: the program is imported from
`src/`. One invocation is one run in a fresh process: it sets the workload's
inputs up three times (setup_s is the median), then repeats the workload's
timed CLI stages, starting no pass that would end after `--seconds`. With
`--trace 0` it reports the end-to-end metrics of BENCHMARK.json as wall
times; with `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead. The last line of stdout is
the result as one JSON object; the line before it is the full run record.
`--workload all` runs every workload in its own process and prints one table
of the named metrics.
"""

import os

# pinned before numpy is imported, as the test suite pins them
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)
# the CLI lets this variable override the seed; the inputs come from --seed only
os.environ.pop("MOCAP_SEED", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("capture", "fit", "fill")
SETUP_REPEATS = 3

# the named end-to-end metrics of each workload, with units; `--trace 0`
# reports the workload-independent subset in END_TO_END
NAMED_UNITS = {
    "setup_s": "s",
    "reconstruct_fps": "frames/s",
    "eval_s": "s",
    "fit_s": "s",
    "inpaint_fps": "frames/s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "points_per_frame": "count",
    "err3d_rms_mm": "mm",
    "err3d_inlier_rms_mm": "mm",
    "gross_error_share": "ratio",
    "reproj_p99_px": "px",
    "holdout_rms_mm": "mm",
    "fill_rms_mm": "mm",
}
NAMED = {
    "capture": (
        "setup_s", "reconstruct_fps", "eval_s", "peak_rss_mb", "fail_ratio",
        "points_per_frame", "err3d_rms_mm", "err3d_inlier_rms_mm", "gross_error_share", "reproj_p99_px",
    ),
    "fit": ("setup_s", "fit_s", "peak_rss_mb", "fail_ratio", "holdout_rms_mm"),
    "fill": ("setup_s", "inpaint_fps", "peak_rss_mb", "fail_ratio", "fill_rms_mm"),
}
# the accuracy reported as rms_error_mm; capture's leaves out the rare gross
# errors (counted by gross_error_share), which would swamp an RMS over a few frames
ACCURACY = {"capture": "err3d_inlier_rms_mm", "fit": "holdout_rms_mm", "fill": "fill_rms_mm"}
END_TO_END = {"setup_s": "s", "stage_s": "s", "peak_rss_mb": "MB", "rms_error_mm": "mm"}


def import_program():
    """Import suitcap from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import suitcap

    if Path(suitcap.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"suitcap found at {suitcap.__file__}, not under {src}")


def git_sha() -> str:
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    from workloads import WORKERS

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_pins": {k: os.environ.get(k) for k in BLAS_PINS},
        "workers": WORKERS,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def sha256(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Ops:
    """Stage calls attempted and failed; one operation is one stage call plus its checks."""

    def __init__(self):
        self.attempted = 0
        self.failed_calls = set()
        self.checks = {}  # check name -> passed on every pass
        self.failures = []

    def expect(self, call, name, ok, detail=""):
        key = f"{call[1]}.{name}"
        self.checks[key] = self.checks.get(key, True) and bool(ok)
        if not ok:
            self.failed_calls.add(call)
            self.failures.append(f"pass {call[0]} {key}: {detail}")


def run_pass(wl, i, tracer, first, ops):
    """One call of each timed stage. Returns {"stage_s", "digests", "traced"}, with each stage's wall time."""
    from workloads import run_cli

    stage_s = {}
    digests = {}
    for stage in wl.stages:
        ops.attempted += 1
        t0 = perf_counter()
        try:
            with tracer.stage(stage) if tracer else nullcontext():
                rc = run_cli(wl.argv(stage))
        except Exception:  # a crashing stage is a failed operation; the run goes on
            traceback.print_exc()
            rc = "exception"
        stage_s[stage] = perf_counter() - t0
        ops.expect((i, stage), "exit_code", rc == 0, f"exit {rc}")
        for name in wl.outputs[stage]:
            digests[name] = sha256(wl.work / name)
            same = digests[name] is not None and (first is None or digests[name] == first["digests"][name])
            ops.expect((i, stage), "outputs_repeat", same, f"{name} missing or differs from the first pass on this input")
    return {"stage_s": stage_s, "digests": digests, "traced": tracer is not None}


def set_up(args) -> list[float]:
    """Generate the inputs SETUP_REPEATS times, each in a child process so that
    the simulator's memory does not count in this process's peak RSS.

    Returns each generation's wall time."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--setup", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--trace", str(args.trace),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed with exit {proc.returncode}:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(wls, seconds: float, trace: bool) -> dict:
    """Passes over the inputs in turn, each input at least once, and no pass
    started that would end after `seconds`. Traced runs alternate traced and
    untraced passes, so that the tracing overhead compares like with like."""
    from layertrace import Tracer

    ops = Ops()
    passes = []
    accuracy = []
    tracers = {}
    deadline = perf_counter() + seconds
    min_passes = max(len(wls), 2 if trace else 1)

    def next_pass_s():
        return statistics.median(sum(p["stage_s"].values()) for p in passes)

    while len(passes) < min_passes or perf_counter() + next_pass_s() <= deadline:
        i = len(passes)
        j = i % len(wls)
        wl = wls[j]
        first = next((p for p in passes if p["input"] == j), None)
        # untraced, traced, traced, untraced, ...: neither side always runs first
        tracer = Tracer() if trace and i % 4 in (1, 2) else None
        passes.append({"input": j, **run_pass(wl, i, tracer, first, ops)})
        if tracer:
            tracers[i] = tracer
        if first is None:
            try:
                accuracy.append(wl.check(lambda stage, name, ok, detail="": ops.expect((i, stage), name, ok, detail)))
            except Exception:  # a check that cannot run fails the last stage's operation
                traceback.print_exc()
                ops.expect((i, wl.stages[-1]), "checks_ran", False, "a check raised")

    return {
        "passes": passes,
        "tracers": tracers,
        # each accuracy metric averaged over the inputs
        "accuracy": {k: statistics.fmean(a[k] for a in accuracy) for k in accuracy[0]} if accuracy else {},
        "checks": ops.checks,
        "failures": ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failed_calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def stage_time(m, stages) -> float:
    """Time of `stages` in a pass: the median over each input's untraced passes, averaged over the inputs."""
    by_input = {}
    for p in m["passes"]:
        if not p["traced"]:
            by_input.setdefault(p["input"], []).append(sum(p["stage_s"][s] for s in stages))
    return statistics.fmean(statistics.median(times) for times in by_input.values())


def named_metrics(name, wl, m) -> dict:
    values = {
        "setup_s": statistics.median(m["setup_s"]),
        "peak_rss_mb": m["peak_rss_mb"],
        "fail_ratio": m["failed"] / m["attempted"],
        **m["accuracy"],
    }
    if name == "capture":
        values["reconstruct_fps"] = wl.frames / stage_time(m, ["reconstruct"])
        values["eval_s"] = stage_time(m, ["eval"])
    elif name == "fit":
        values["fit_s"] = stage_time(m, ["fit"])
    else:
        values["inpaint_fps"] = wl.frames / stage_time(m, ["inpaint"])
    return {k: values.get(k, float("nan")) for k in NAMED[name]}


def end_to_end(name, wl, m, named) -> dict:
    return {
        "setup_s": named["setup_s"],
        "stage_s": stage_time(m, wl.stages),
        "peak_rss_mb": named["peak_rss_mb"],
        "rms_error_mm": named[ACCURACY[name]],
    }


def per_layer(m) -> dict:
    """Per-layer metrics of the traced pass with the median time, plus the tracing overhead."""
    totals = {i: sum(m["passes"][i]["stage_s"].values()) for i in m["tracers"]}
    order = sorted(totals, key=totals.get)
    mid = order[(len(order) - 1) // 2]
    out = m["tracers"][mid].report()
    untraced = statistics.median(sum(p["stage_s"].values()) for p in m["passes"] if not p["traced"])
    traced = statistics.median(totals.values())
    out["trace.untraced_s"] = untraced
    out["trace.traced_s"] = traced
    out["trace.overhead"] = traced / untraced - 1.0
    return out


def run_one(args) -> int:
    try:
        import_program()
    except ImportError as e:
        print(f"cannot import the program from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    from layertrace import per_layer_metrics
    from workloads import WORKLOADS

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{args.size}"
    # traced runs use the first input only, so that their counts repeat for a seed
    workload = WORKLOADS[args.workload]
    n_inputs = 1 if args.trace else workload.inputs(args.size)
    wls = [workload(work / f"input{j}", args.seed, args.size, j) for j in range(n_inputs)]
    if args.setup:
        t0 = perf_counter()
        for wl in wls:
            wl.setup()
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0

    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s = set_up(args)
        m = measure(wls, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # left in place while another run uses it
        except OSError:
            pass
    m["setup_s"] = setup_s

    named = named_metrics(args.workload, wls[0], m)
    if args.trace:
        units = per_layer_metrics()
        values = per_layer(m)
    else:
        units = END_TO_END
        values = end_to_end(args.workload, wls[0], m, named)

    for f in m["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"{args.workload}: {len(m['passes'])} passes, {m['failed']}/{m['attempted']} operations failed")
    for k, v in named.items():
        print(f"  {k:<18} {v:>14.6g} {NAMED_UNITS[k]}")
    record = {
        "environment": environment(args),
        "named": {k: {"value": v, "unit": NAMED_UNITS[k]} for k, v in named.items()},
        "setup_s": m["setup_s"],
        "passes": m["passes"],
        "init_holdout_rms_mm": m["accuracy"].get("init_holdout_rms_mm"),
        "checks": m["checks"],
        "failures": m["failures"],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload); one table."""
    rows = []
    failed = 0
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size,
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        record = json.loads(lines[-2])["record"]
        failed += json.loads(lines[-1])["failed"]
        rows += [(name, k, v["value"], v["unit"]) for k, v in record["named"].items()]
    for name, k, v, unit in rows:
        print(f"{name:<8} {k:<18} {v:>14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "failed": failed}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measure for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--setup", action="store_true", help="only generate the inputs (used by a run)")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
