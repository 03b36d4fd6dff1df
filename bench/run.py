"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload select-shap [--seed N] [--seconds S] [--trace 0|1]

Workloads: select-shap, glassbox-family, score-explain (see bench/README.md).
With ``--trace 0`` the run sets the workload up several times, then repeats
passes (on score-explain each followed by its requests) for ``--seconds``
and reports the end-to-end metrics listed in BENCHMARK.json. With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = ".bench_work"
OUT = ".bench_out"
# One caller on a 2-core machine: pin BLAS so a solve never spreads over cores.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
MIN_PASSES = 4
# Printed by every untraced run but left out of BENCHMARK.json: on a shared
# host request latency is bimodal, so its median and mean jump with the share
# of slow time from run to run, and the 99th percentile of sub-millisecond
# requests follows the host's interruptions (bench/README.md, "Noise floor").
UNGATED = {
    "request_mean_ms": ("ms", "lower"),
    "request_p50_ms": ("ms", "lower"),
    "request_p99_ms": ("ms", "lower"),
}
# Set-up includes importing the package. One import per process is too few
# to take a median of, so each set-up repetition also times the import in a
# fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import workloads; print(time.perf_counter() - start)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: synth.DEFAULT_SEED")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: str) -> str:
    """HEAD commit read from the .git directory, without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_sha": git_sha(ROOT),
    }


def median(values):
    return statistics.median(values) if values else None


def import_times(reps: int) -> list[float]:
    """Times to import the package and the workloads, each taken in a fresh
    interpreter."""
    return [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC, BENCH], capture_output=True, text=True, check=True
        ).stdout)
        for _ in range(reps)
    ]


def run_setups(workload, seed: int, work: str, reps: int, tracer=None):
    """Set the workload up ``reps`` times from a clean directory; return the
    set-up times and the last state."""
    times = []
    for _ in range(reps):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        start = time.perf_counter()
        with tracer or contextlib.nullcontext():
            state = workload.setup(seed, work)
        times.append(time.perf_counter() - start)
    return times, state


def run_passes(workload, state, seconds: float, tally, tracer=None) -> list[dict]:
    """Repeat passes, each followed by the workload's requests if it serves
    any, until ``seconds`` have gone by (and at least MIN_PASSES ran). A
    pass's ``wall`` is the pass alone; its ``elapsed`` includes the
    requests. With a tracer, odd passes and their requests are traced."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        first_request = len(tally.latencies_ms)
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            quality = tally.run(workload.run_pass, state)
            wall = time.perf_counter() - start
            workload.serve(state, tally)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.restore()
        record = {
            "wall": wall,
            "elapsed": elapsed,
            "latencies_ms": tally.latencies_ms[first_request:],
            "quality": quality,
            "traced": traced,
        }
        if traced:
            record["layers"] = tracer.layer_totals(first_span)
        passes.append(record)
    return passes


def layer_metrics(traced_pass: dict) -> dict:
    """Per-layer values of one traced pass, with the derived ones."""
    from tracer import BUSY_METRIC

    values = dict(traced_pass["layers"])
    busy = sum(values[m] for m in set(BUSY_METRIC.values()))
    values["pipeline.self_s"] = traced_pass["elapsed"] - busy
    row_trees = values.pop("attribution.row_trees", 0)
    values["attribution.us_per_row_tree"] = (
        1e6 * values["attribution.busy_s"] / row_trees if row_trees else 0.0
    )
    rules = values.get("pltr.rules", 0)
    values["pltr.kept_ratio"] = values.get("pltr.rules_kept", 0) / rules if rules else 0.0
    return values


def end_to_end(passes, setups, imports) -> tuple[dict, dict]:
    """Metric values and their sample counts. ``request_mean_ms`` is the
    median over passes of the mean latency of each pass's requests; the
    percentiles are taken over all of the run's requests."""
    import numpy as np

    values = {
        "wall_s": median([p["wall"] for p in passes]),
        "setup_s": median(imports) + median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"wall_s": len(passes), "setup_s": len(setups), "peak_rss_mb": 1}
    served = [p["latencies_ms"] for p in passes if p["latencies_ms"]]
    if served:
        latencies = [ms for pass_ms in served for ms in pass_ms]
        values["request_mean_ms"] = median([statistics.fmean(ms) for ms in served])
        values["request_p50_ms"] = float(np.percentile(latencies, 50))
        values["request_p99_ms"] = float(np.percentile(latencies, 99))
        samples.update(dict.fromkeys(UNGATED, len(latencies)))
    good = [p["quality"] for p in passes if p["quality"] is not None]
    for name in sorted({k for q in good for k in q}):
        values[name] = median([q[name] for q in good if name in q])
        samples[name] = len(good)
    return values, samples


def execute(workload, seed: int, seconds: float, trace: int, spec: dict,
            work_root: str = WORK, out_dir: str = OUT) -> dict:
    """Set the workload up, measure it, print every metric and return the
    result object (also printed, as the last line)."""
    import workloads
    from tracer import Tracer

    work = os.path.join(work_root, workload.name)
    tally = workloads.Tally()
    # The CSV presets carry no FICO columns; the pipeline warns each pass.
    warnings.filterwarnings("ignore", message="fico columns absent")
    print(f"workload {workload.name} seed {seed} seconds {seconds:g} trace {trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    try:
        if trace:
            tracer = Tracer()
            _, state = run_setups(workload, seed, work, 1, tracer)
            synth_setup_s = tracer.layer_totals()["synth.busy_s"]
            passes = run_passes(workload, state, seconds, tally, tracer)
        else:
            imports = import_times(SETUP_REPS)
            setups, state = run_setups(workload, seed, work, SETUP_REPS)
            passes = run_passes(workload, state, seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        traced = [layer_metrics(p) for p in passes if p["traced"]]
        declared = spec["per_layer"]
        values = {m["name"]: median([t.get(m["name"], 0) for t in traced]) for m in declared}
        values["synth.setup_s"] = synth_setup_s
        values["trace.overhead_s"] = median([p["elapsed"] for p in passes if p["traced"]]) - median(
            [p["elapsed"] for p in passes if not p["traced"]]
        )
        samples = {name: len(traced) for name in values}
        samples["synth.setup_s"] = 1
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"{workload.name}.spans.jsonl"))
    else:
        values, samples = end_to_end(passes, setups, imports)
        declared = spec["end_to_end"]
        print("passes wall_s " + " ".join(f"{p['wall']:.4f}" for p in passes))
        if "request_mean_ms" in values:
            print("passes request_mean_ms " + " ".join(
                f"{statistics.fmean(p['latencies_ms']):.4f}" for p in passes if p["latencies_ms"]
            ))

    digest = workloads.manifest_digest(state)
    if digest:
        print(f"manifest sha256 {digest}")
    for name in sorted(set(values) - {m["name"] for m in declared}):
        if name in UNGATED:
            unit, better = UNGATED[name]
            print(f"info {name} = {values[name]:.6g} {unit} ({better} is better; not gated; {samples[name]} samples)")
            continue
        # a quality value: higher is better, guarded by its floor
        floor = workload.floors.get(name)
        guard = "no floor" if floor is None else f"floor {floor}"
        print(f"quality {name} = {values[name]:.6g} (higher is better; {guard}; {samples[name]} samples)")
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "missing" if value is None else f"{value:.6g} {m['unit']}"
        print(f"metric {m['name']} = {shown} ({m['better']} is better; {samples.get(m['name'], 1)} samples)")
    for error in tally.errors:
        print(f"failed: {error}")
    print(f"operations attempted {tally.attempted} failed {tally.failed}")
    result = {
        "correct": tally.failed == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not os.path.isdir(os.path.join(SRC, "glassbox_credit")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    os.chdir(ROOT)

    import workloads
    from glassbox_credit import synth

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; options: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    seed = synth.DEFAULT_SEED if args.seed is None else args.seed
    execute(workloads.WORKLOADS[args.workload](), seed, args.seconds, args.trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
