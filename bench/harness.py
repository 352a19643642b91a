"""Measurement loops, the traced run, and the result line.

The end-to-end run (--trace 0) times whole rounds of a workload until the
requested seconds have passed and at least MIN_INSTANCES instances have
run, then reports throughput, latency percentiles, peak memory and the
start-up time of a fresh ``import affinegames.cli``.

The traced run (--trace 1) works on the first round of the workload only,
so every computed count repeats exactly from run to run. It alternates an
untraced pass with a traced pass until the requested seconds have passed,
and reports per-pass means: layer calls and self times, computed counts,
the time no span covers, and untraced against traced throughput.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import tracing
import workloads
from affinegames.multi_period import stopping_time_count

# Interpreter start-up times come in steps of about 50 ms here, so the
# median needs enough samples to settle on the common step.
SETUP_REPEATS = 11
TAIL_PERCENTILE = 75
# With at least this many instances, at least 10 lie beyond TAIL_PERCENTILE.
MIN_INSTANCES = 40

END_TO_END = {
    "instances_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

COMPUTED_UNITS = {
    "matrices.classify.minors": "count",
    "matrices.classify.distinct_frac": "ratio",
    "multi_period.joint_profiles": "count",
    "jsonio.bytes": "bytes",
}


# ------------------------------------------------------------------ header


def _blas_threads() -> Optional[int]:
    """Thread count the OpenBLAS bundled with numpy reports, if it has one."""
    import ctypes

    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    try:
        got = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = got.stdout.split()
    if got.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return "unknown (not a git checkout)"
    return lines[1]


def machine_header(args: argparse.Namespace, root: Path) -> Dict[str, Any]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "blas_threads_reported": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(root),
        "load": "closed loop, one client, one instance at a time",
    }


# -------------------------------------------------------------- end to end


def measure_setup(root: Path) -> List[float]:
    """Wall times of fresh interpreters running ``import affinegames.cli``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import affinegames.cli"],
            env=env,
            cwd=root,
            check=True,
            timeout=60,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return times


def checked(inst: workloads.Instance) -> List[str]:
    """The instance's gate problems; an exception counts as one problem."""
    try:
        return workloads.run_instance(inst)
    except Exception as e:  # a failed instance is data for fail_frac
        return [f"{type(e).__name__}: {e}"]


def measure(workload: workloads.Workload, args: argparse.Namespace) -> Dict[str, Any]:
    """Whole rounds until the time is up and MIN_INSTANCES have run."""
    latencies: List[float] = []
    labels: List[str] = []
    round_rates: List[float] = []
    failures: List[Dict[str, Any]] = []
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < args.seconds or len(latencies) < MIN_INSTANCES:
        verified, busy = 0, 0.0
        for inst in workload.round(args.seed, index):
            t0 = time.perf_counter()
            problems = checked(inst)
            latencies.append(time.perf_counter() - t0)
            labels.append(inst.label)
            busy += latencies[-1]
            if problems:
                failures.append({"instance": inst.label, "round": index, "problems": problems})
            else:
                verified += 1
        round_rates.append(verified / busy)
        index += 1
    busy = sum(latencies)
    ms = [t * 1e3 for t in latencies]
    # A failed instance ranks as slower than every verified one: it takes
    # the run's whole busy time.
    for _ in failures:
        ms[ms.index(min(ms))] = busy * 1e3
    percentiles = statistics.quantiles(ms, n=100, method="inclusive")
    return {
        "metrics": {
            # Median over rounds, so a stall on a shared machine moves one
            # round, not the whole figure.
            "instances_per_s": statistics.median(round_rates),
            "latency_ms_p50": percentiles[49],
            "latency_ms_tail": percentiles[TAIL_PERCENTILE - 1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "attempted": len(latencies),
        "failed": len(failures),
        "fail_frac": len(failures) / len(latencies),
        "tail_percentile": TAIL_PERCENTILE,
        "samples": len(latencies),
        "rounds": index,
        "busy_s": busy,
        "failures": failures,
        "latencies_ms": [[label, t * 1e3] for label, t in zip(labels, latencies)],
    }


# ------------------------------------------------------------------ traced


def one_pass(
    pool: List[workloads.Instance], recorder: Optional[tracing.Recorder]
) -> Tuple[float, List[Dict[str, Any]]]:
    """Run the pool once; with a recorder, wrap each instance in a root span."""
    failures = []
    started = time.perf_counter()
    for i, inst in enumerate(pool):
        if recorder is not None:
            recorder.instance = i
            idx = recorder.open(tracing.INSTANCE_LAYER)
        problems = checked(inst)
        if recorder is not None:
            recorder.close(idx)
            recorder.instance = None
        if problems:
            failures.append({"instance": inst.label, "problems": problems})
    return time.perf_counter() - started, failures


def _mean_per_m(aggs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows: Dict[Tuple[str, int], Dict[str, Any]] = {}
    for agg in aggs:
        for row in agg["per_m"]:
            key = (row["layer"], row["m"])
            acc = rows.setdefault(key, dict(row, self_ms=0.0, incl_ms=0.0))
            acc["self_ms"] += row["self_ms"] / len(aggs)
            acc["incl_ms"] += row["incl_ms"] / len(aggs)
    for acc in rows.values():
        acc["incl_ms_per_call"] = acc["incl_ms"] / acc["calls"]
    return [rows[k] for k in sorted(rows)]


def traced_run(
    workload: workloads.Workload, args: argparse.Namespace, spans_path: Path
) -> Dict[str, Any]:
    pool = workload.round(args.seed, 0)
    instance_m = {i: inst.m for i, inst in enumerate(pool)}
    untraced_s: List[float] = []
    traced: List[Tuple[float, List[list]]] = []
    failures: List[Dict[str, Any]] = []
    origin = time.perf_counter_ns()
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < args.seconds:
        wall, fails = one_pass(pool, None)
        untraced_s.append(wall)
        failures += fails
        recorder = tracing.Recorder()
        patches = tracing.install(recorder)
        try:
            wall, fails = one_pass(pool, recorder)
        finally:
            tracing.uninstall(patches)
        traced.append((wall, recorder.spans))
        failures += fails

    aggs = [tracing.aggregate(spans, instance_m, stopping_time_count) for _, spans in traced]
    repeats = all(
        a["calls"] == aggs[0]["calls"] and a["computed"] == aggs[0]["computed"] for a in aggs
    )
    n = len(traced)
    self_ms: Dict[str, float] = defaultdict(float)
    for agg in aggs:
        for layer, value in agg["self_ms"].items():
            self_ms[layer] += value / n
    wall_ms = sum(w for w, _ in traced) * 1e3 / n
    untraced_rate = len(pool) * len(untraced_s) / sum(untraced_s)
    traced_rate = len(pool) * n / sum(w for w, _ in traced)

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (aggs[0]["calls"].get(layer, 0), "count")
        metrics[f"{layer}.self_ms"] = (self_ms.get(layer, 0.0), "ms")
    for name, unit in COMPUTED_UNITS.items():
        metrics[name] = (aggs[0]["computed"][name], unit)
    metrics["lcp.max_residual"] = (max(a["lcp.max_residual"] for a in aggs), "abs")
    metrics[f"{tracing.INSTANCE_LAYER}.self_ms"] = (
        self_ms.get(tracing.INSTANCE_LAYER, 0.0),
        "ms",
    )
    metrics["trace.wall_ms"] = (wall_ms, "ms")
    metrics["trace.uncovered_ms"] = (wall_ms - sum(self_ms.values()), "ms")
    metrics["trace.instances_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.instances_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "ratio")

    tracing.write_spans(spans_path, [spans for _, spans in traced], origin)
    return {
        "metrics": metrics,
        "attempted": len(pool) * (len(untraced_s) + n),
        "failed": len(failures),
        "failures": failures,
        "pool": [inst.label for inst in pool],
        "passes": {"untraced": len(untraced_s), "traced": n},
        "computed_counts_repeat": repeats,
        "per_m": _mean_per_m(aggs),
    }


# ------------------------------------------------------------------- entry


def run(args: argparse.Namespace, root: Path) -> int:
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        names = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    header = machine_header(args, root)
    try:
        test = workloads.self_test(workload.round(args.seed, 0))
    except Exception as e:  # reported as a failed self-test, not a crash
        test = {"ok": False, "error": f"{type(e).__name__}: {e}"}

    if args.trace:
        result = traced_run(workload, args, out_dir / f"{base}-spans.jsonl")
        metrics = result["metrics"]
        correct = test["ok"] and result["computed_counts_repeat"] and not result["failed"]
    else:
        setup = measure_setup(root)
        result = measure(workload, args)
        metrics = {k: (v, END_TO_END[k]) for k, v in result["metrics"].items()}
        metrics["setup_s"] = (statistics.median(setup), "s")
        result["setup_samples_s"] = setup
        correct = test["ok"] and not result["failed"]

    named = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "header": header,
        "correct": correct,
        "self_test": test,
        "metrics": named,
        **{k: v for k, v in result.items() if k != "metrics"},
    }
    (out_dir / f"{base}.json").write_text(json.dumps(record, indent=1) + "\n")

    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    if not args.trace:
        print(
            f"{'fail_frac':<{width}}  {result['fail_frac']:.6g} "
            f"({result['failed']} of {result['attempted']})"
        )
        print(f"tail is p{TAIL_PERCENTILE} of {result['samples']} instances")
    print(f"result file: .bench_out/{base}.json", flush=True)
    line = {
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": named,
    }
    print(json.dumps(line))
    return 0
