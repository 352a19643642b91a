"""Spans around the package's public functions, recorded from outside it.

The traced run replaces each function in LAYERS at every module binding
that refers to it (``classify``, for one, is bound in ``matrices``,
``lcp``, ``single_period``, ``tree``, ``bsde``, ``cli`` and the package
itself), so calls the package makes internally are caught as well as the
benchmark's own. Each call records one span: layer name, start and end
(``perf_counter_ns``), the index of the enclosing span and the instance
id. Spans stay in memory until the run ends; ``aggregate`` turns them
into per-layer calls, self times and computed counts.

A span's self time is its duration minus the durations of its direct
children. Calls are nested and single-threaded, so the self times of all
spans under an instance span add up to that instance span's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

PACKAGE = "affinegames"

# layer name -> (defining module, public functions that make up the layer)
LAYERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "matrices.classify": ("matrices", ("classify",)),
    "matrices.positive_left_null": ("matrices", ("positive_left_null",)),
    "lcp.solve_enum": ("lcp", ("solve_enum",)),
    "lcp.solve_lemke": ("lcp", ("solve_lemke",)),
    "lcp.solvability_p0prime": ("lcp", ("solvability_p0prime",)),
    "single_period.payoff": ("single_period", ("payoff",)),
    "single_period.equilibrium_report": ("single_period", ("equilibrium_report",)),
    "single_period.coalition_value": ("single_period", ("coalition_value",)),
    "single_period.sol": ("single_period", ("sol",)),
    "redistribution.dhat_matrix": ("redistribution", ("dhat_matrix",)),
    "tree.validate": ("tree", ("validate",)),
    "tree.conditional_expectation": ("tree", ("conditional_expectation",)),
    "multi_period.backward_induction": ("multi_period", ("backward_induction",)),
    "multi_period.verify_optimal_equilibrium": (
        "multi_period",
        ("verify_optimal_equilibrium",),
    ),
    "multi_period.coalition_value_tree": ("multi_period", ("coalition_value_tree",)),
    "multi_period.naive_equilibrium_search": (
        "multi_period",
        ("naive_equilibrium_search",),
    ),
    "bsde.solve_reflected_bsde": ("bsde", ("solve_reflected_bsde",)),
    "bsde.verify_bsde_solution": ("bsde", ("verify_bsde_solution",)),
    "jsonio.parse": ("jsonio", ("load_json", "parse_tree")),
    "jsonio.serialise": ("jsonio", ("tree_json", "dump_json")),
}

INSTANCE_LAYER = "bench.instance"

# Layers whose first argument (and return value) the computed counts need.
_KEEP_ARG = {
    "matrices.classify",
    "lcp.solve_enum",
    "lcp.solve_lemke",
    "multi_period.verify_optimal_equilibrium",
    "multi_period.coalition_value_tree",
    "multi_period.naive_equilibrium_search",
}
_KEEP_OUT = {"lcp.solve_enum", "lcp.solve_lemke", "jsonio.serialise"}
_JOINT_LAYERS = (
    "multi_period.verify_optimal_equilibrium",
    "multi_period.coalition_value_tree",
    "multi_period.naive_equilibrium_search",
)


class Recorder:
    """In-memory span list; one span is [layer, start, end, parent, instance, arg, out]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.current = -1
        self.instance: Optional[int] = None

    def open(self, layer: str, arg: Any = None) -> int:
        idx = len(self.spans)
        self.spans.append([layer, perf_counter_ns(), 0, self.current, self.instance, arg, None])
        self.current = idx
        return idx

    def close(self, idx: int, out: Any = None) -> None:
        span = self.spans[idx]
        span[2] = perf_counter_ns()
        span[6] = out
        self.current = span[3]

    def wrap(self, layer: str, fn: Callable) -> Callable:
        keep_arg = layer in _KEEP_ARG
        keep_out = layer in _KEEP_OUT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(layer, args[0] if keep_arg and args else None)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(idx, out if keep_out else None)

        return traced


def _package_modules() -> List[Any]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def install(recorder: Recorder) -> List[Tuple[Any, str, Any]]:
    """Wrap every binding of every layer function; returns what to restore."""
    patches: List[Tuple[Any, str, Any]] = []
    modules = _package_modules()
    for layer, (module, names) in LAYERS.items():
        home = importlib.import_module(f"{PACKAGE}.{module}")
        for name in names:
            original = getattr(home, name)
            wrapper = recorder.wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    return patches


def uninstall(patches: List[Tuple[Any, str, Any]]) -> None:
    for mod, attr, original in reversed(patches):
        setattr(mod, attr, original)


def _lcp_residual(problem: Any, solution: Any) -> float:
    """max of |w - q - Mz|, the negative part of min(z, w), and |z^T w|."""
    q, M = problem.q, problem.M.entries
    z, w = solution.z, solution.w
    return max(
        float(np.max(np.abs(w - q - M @ z))),
        float(max(0.0, -float(np.min(np.minimum(z, w))))),
        abs(float(z @ w)),
    )


def _matrix_entries(M: Any) -> np.ndarray:
    return np.asarray(getattr(M, "entries", M), dtype=float)


def aggregate(
    spans: List[list],
    instance_m: Dict[int, int],
    stopping_time_count: Callable[[Any], int],
) -> Dict[str, Any]:
    """Per-layer totals, computed counts, and per-m rows for one span list."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    calls: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, int] = defaultdict(int)
    per_m: Dict[Tuple[str, int], List[int]] = defaultdict(lambda: [0, 0, 0])
    minors = 0
    distinct = set()
    joint_profiles = 0
    json_bytes = 0
    max_residual = 0.0
    for i, (layer, start, end, _parent, inst, arg, out) in enumerate(spans):
        dur = end - start
        own = dur - child_ns[i]
        calls[layer] += 1
        self_ns[layer] += own
        row = per_m[(layer, instance_m.get(inst, 0))]
        row[0] += 1
        row[1] += own
        row[2] += dur
        if layer == "matrices.classify":
            a = _matrix_entries(arg)
            minors += 2 ** a.shape[0] - 1
            distinct.add((a.shape, a.tobytes()))
        elif layer in _JOINT_LAYERS:
            joint_profiles += stopping_time_count(arg) ** arg.m
        elif layer == "jsonio.serialise" and isinstance(out, str):
            json_bytes += len(out.encode("utf-8"))
        elif layer in ("lcp.solve_enum", "lcp.solve_lemke") and out is not None:
            max_residual = max(max_residual, _lcp_residual(arg, out))
    classify_calls = calls.get("matrices.classify", 0)
    return {
        "calls": dict(calls),
        "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
        "computed": {
            "matrices.classify.minors": minors,
            "matrices.classify.distinct_frac": (
                len(distinct) / classify_calls if classify_calls else 0.0
            ),
            "single_period.payoff.calls": calls.get("single_period.payoff", 0),
            "multi_period.joint_profiles": joint_profiles,
            "jsonio.bytes": json_bytes,
        },
        "lcp.max_residual": max_residual,
        "per_m": [
            {
                "layer": layer,
                "m": m,
                "calls": row[0],
                "self_ms": row[1] / 1e6,
                "incl_ms": row[2] / 1e6,
                "incl_ms_per_call": row[2] / 1e6 / row[0],
            }
            for (layer, m), row in sorted(per_m.items())
        ],
    }


def write_spans(path: str, passes: List[List[list]], origin_ns: int) -> None:
    """One JSON array per span and line: [index, layer, start_us, end_us, parent, instance].

    Indices run on across passes, so parent references stay unique.
    """
    offset = 0
    with open(path, "w", encoding="utf-8") as fh:
        for spans in passes:
            for i, (layer, start, end, parent, inst, _arg, _out) in enumerate(spans):
                row = [
                    offset + i,
                    layer,
                    (start - origin_ns) / 1e3,
                    (end - origin_ns) / 1e3,
                    parent + offset if parent >= 0 else -1,
                    inst,
                ]
                fh.write(json.dumps(row) + "\n")
            offset += len(spans)
