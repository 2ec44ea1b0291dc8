"""Span tracing of singideal's public functions, and the per-layer metrics.

``Tracer.install`` wraps every public function defined in a traced module
and rebinds the wrapper, by identity, in every ``singideal.*`` namespace
that binds the original (``cli``, ``norms`` and ``exact`` import names
directly, so patching only the defining module would miss those calls).
Each call records a span ``[name, start, end, parent, x]`` in memory;
``x`` is a count taken at the same boundary (rows in, arrows built, ...).
Spans are written out only when the benchmark ends.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Function times
(``*_s`` named after a function) are inclusive of everything they call,
except ``groupoid.q_kernel_s``, which leaves out the groupoid build it
triggers (that is counted in ``groupoid.build_s``).
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import defaultdict

import numpy as np

# layer name -> module; the layer is the span-name prefix
LAYERS = {"groups": "singideal.groups", "ideals": "singideal.ideals",
          "exact": "singideal.exact", "kernels": "singideal._kernels",
          "groupoid": "singideal.groupoid", "norms": "singideal.norms",
          "hls": "singideal.hls", "atlas": "singideal.atlas",
          "cli": "singideal.cli"}

BYTES_PER_COMPOSE_ENTRY = 4   # FiniteGroupoid.compose_table is int32


def _rows(m) -> int:
    if isinstance(m, np.ndarray):
        return int(m.shape[0])
    rows = getattr(m, "rows", None)   # RationalMatrix
    return rows if isinstance(rows, int) else len(m)


# counts recorded at a function's boundary, from its arguments and result
_MATRIX_ENTRIES = ("exact.kernel_basis", "exact.kernel_dim", "exact.rank",
                   "exact.spans_full")
_HOOKS = {
    **{name: lambda args, result: _rows(args[0]) for name in _MATRIX_ENTRIES},
    "exact.same_subspace": lambda args, result: len(args[0]) + len(args[1]),
    "exact.in_span": lambda args, result: len(args[0]) + 1,
    "exact.integerize": lambda args, result: max(abs(int(c)).bit_length()
                                                 for c in result),
    "kernels.rank_mod_p": lambda args, result: int(result == args[0].shape[1]),
    "ideals.full_ideal_kernel": lambda args, result: sum(
        (args[0].order // len(x)) ** 2 for x in args[1].members),
    "groupoid.build_coset_groupoid": lambda args, result: result.num_arrows(),
    "norms.spectral_norm": lambda args, result: int(np.shape(args[0])[-1] > 64),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, result)
            return result
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, module_name in LAYERS.items():
            module = sys.modules[module_name]
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module_name and id(obj) not in wrappers):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for module_name, module in list(sys.modules.items()):
            if module_name != "singideal" and not module_name.startswith("singideal."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def remove(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _frac(numerator, base) -> float:
    return numerator / base if base else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass (values only; see UNITS)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_s = defaultdict(float)
    fn_s = defaultdict(float)
    calls = defaultdict(int)
    x_sum = defaultdict(int)
    x_max = defaultdict(int)
    layer_calls = defaultdict(int)
    exact_entry_calls = exact_entry_rows = 0
    rows_by_parent = defaultdict(int)
    build_in_q = 0.0
    for i, (name, _, _, parent, x) in enumerate(spans):
        layer = name.split(".", 1)[0]
        parent_name = spans[parent][0] if parent >= 0 else ""
        self_s[layer] += dur[i] - child[i]
        layer_calls[layer] += 1
        fn_s[name] += dur[i]
        calls[name] += 1
        x_sum[name] += x
        x_max[name] = max(x_max[name], x)
        if layer == "exact" and not parent_name.startswith("exact."):
            exact_entry_calls += 1
            exact_entry_rows += x
        if name == "exact.kernel_basis":
            rows_by_parent[parent_name] += x
        if (name == "groupoid.build_coset_groupoid"
                and parent_name.startswith("groupoid.kernel_of_q")):
            build_in_q += dur[i]
    q_kernel = (fn_s["groupoid.kernel_of_q_dimension"]
                + fn_s["groupoid.kernel_of_q_basis"] - build_in_q)
    arrows = x_sum["groupoid.build_coset_groupoid"]
    compose_mb = sum(s[4] ** 2 for s in spans
                     if s[0] == "groupoid.build_coset_groupoid")
    return {
        "groups.self_s": self_s["groups"],
        "groups.calls": layer_calls["groups"],
        "ideals.self_s": self_s["ideals"],
        "ideals.stacked_rows_raw": x_sum["ideals.full_ideal_kernel"],
        "ideals.stacked_rows_unique": rows_by_parent["ideals.full_ideal_kernel"],
        "ideals.constraint_rows": rows_by_parent["ideals.algebraic_ideal_kernel"],
        "exact.self_s": self_s["exact"],
        "exact.calls": exact_entry_calls,
        "exact.rows_in": exact_entry_rows,
        "exact.same_subspace_s": fn_s["exact.same_subspace"],
        "exact.integerize_s": fn_s["exact.integerize"],
        "exact.witness_max_bits": x_max["exact.integerize"],
        "exact.cert_settled_frac": _frac(x_sum["kernels.rank_mod_p"],
                                         calls["kernels.rank_mod_p"]),
        "kernels.rank_mod_p_s": fn_s["kernels.rank_mod_p"],
        "kernels.rank_mod_p_calls": calls["kernels.rank_mod_p"],
        "kernels.power_iter_s": fn_s["kernels.gram_power_iteration"],
        "kernels.power_iter_calls": calls["kernels.gram_power_iteration"],
        "groupoid.self_s": self_s["groupoid"],
        "groupoid.build_s": fn_s["groupoid.build_coset_groupoid"],
        "groupoid.arrows": arrows,
        "groupoid.compose_mb_computed":
            compose_mb * BYTES_PER_COMPOSE_ENTRY / 2 ** 20,
        "groupoid.q_kernel_s": q_kernel,
        "groupoid.convolve_s": fn_s["groupoid.convolve"],
        "groupoid.convolve_calls": calls["groupoid.convolve"],
        "groupoid.reduction_s": fn_s["groupoid.reduction_groupoid"],
        "norms.self_s": self_s["norms"],
        "norms.function_floats_s": fn_s["norms.function_floats"],
        "norms.regular_rep_s": fn_s["norms.regular_rep_matrix"],
        "norms.spectral_s": fn_s["norms.spectral_norm"],
        "norms.spectral_calls": calls["norms.spectral_norm"],
        "norms.spectral_gt64_frac": _frac(x_sum["norms.spectral_norm"],
                                          calls["norms.spectral_norm"]),
        "hls.self_s": self_s["hls"],
        "atlas.self_s": self_s["atlas"],
        "cli.self_s": self_s["cli"],
    }


UNITS = {name: ("s" if name.endswith("_s") else
                "MiB" if name.endswith("_mb_computed") else
                "ratio" if name.endswith("_frac") else
                "bits" if name.endswith("_bits") else "count")
         for name in layer_metrics([])}
UNITS["norms.ref_mismatches"] = "count"
UNITS["trace_overhead_frac"] = "ratio"


def median_metrics(per_pass: list) -> dict:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
