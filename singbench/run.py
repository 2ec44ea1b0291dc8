"""End-to-end and per-layer benchmark of singideal.

    python3 singbench/run.py --workload small-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nothing is installed.  One process runs one
workload as a closed loop with a single client: each operation (an
in-process ``singideal.cli.main`` call or a ``reduced_norm`` call) starts
after the previous one returns.  Passes over the workload's case list
repeat until ``--seconds`` have elapsed, and at least twice, so that every
report can be compared byte for byte with the same case's report from the
first pass.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: import plus building the case list, the median of this
  process and ``SETUP_PROBES`` fresh processes that do only the set-up,
  started between operations at even intervals over the run so that one
  slow spell of the machine does not set the median;
* ``wall_s``: one pass through the case list, taken as the sum over
  operations of each operation's median time across passes, which a
  slow spell of the machine during one pass does not move;
* ``slowest_call_s``: the largest of those per-operation medians, the
  time to a verdict on the hardest case;
* ``peak_rss_mb``: ``ru_maxrss`` of this process after the passes, before
  the benchmark computes its references.

``--trace 1`` follows the first pass with alternating traced and untraced
passes and reports the per-layer metrics of ``tracer.py`` (medians over
traced passes) and ``trace_overhead_frac``, the traced over the untraced
``wall_s`` of the alternating passes, minus 1.

An operation fails on a non-zero exit code, on a disagreement with the
independent reference in ``checks.py``, or on report bytes that differ
from the first pass.  A disagreement that ``checks.py`` names as the
program's known norm defect is counted and printed on its own
(``known_defect_frac``) and does not make the result incorrect.  The
failure counts, ``failed_frac`` and the environment are printed; the
last line of stdout is the JSON result, and the full record goes to
``singbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 10
MIN_PASSES = 2
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_call_s": "s",
             "peak_rss_mb": "MiB"}

_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
          "print(workloads.timed_setup(sys.argv[3], int(sys.argv[4]))[0])")


def cap_threads() -> dict:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return {"nproc": nproc, **{var: os.environ[var] for var in THREAD_VARS}}


def probe_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(BENCH_DIR), str(SRC), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.split()[-1])


def run_pass(ops, keep_reports=False, between=None) -> dict:
    """Run every operation once, recording its time and report digest;
    ``between`` is called after each operation, outside its timing."""
    gc.collect()
    times, digests, reports = [], [], []
    for op in ops:
        t0 = time.perf_counter()
        code, text = op.run()
        times.append(time.perf_counter() - t0)
        digests.append(hashlib.sha256(f"{code}\n{text}".encode()).digest())
        if keep_reports:
            reports.append((code, text))
        if between:
            between()
    return {"times": times, "digests": digests, "reports": reports}


def judge(ops, passes) -> None:
    """Check the first pass's reports against the references; every later
    pass must repeat the first pass's bytes.  Sets each pass's failures."""
    verdicts = [op.check(code, text) for op, (code, text) in zip(ops, passes[0]["reports"])]
    for p in passes:
        p["failures"] = [
            (op.name, "report differs from the first pass" if d != d0 else v)
            for op, v, d, d0 in zip(ops, verdicts, p["digests"], passes[0]["digests"])
            if v or d != d0]


def typical_pass(passes) -> list:
    """Each case's median time over the passes, in case-list order."""
    return [statistics.median(t) for t in zip(*(p["times"] for p in passes))]


def environment(caps: dict) -> dict:
    import numpy
    from singideal import _kernels
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(),
            "using_numba": bool(_kernels.USING_NUMBA), **caps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "singideal" / "__init__.py").is_file():
        print(f"error: no singideal sources under {SRC}", file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, str(SRC))
    setup_main, ops = workloads.timed_setup(args.workload, args.seed)
    import singideal
    if Path(singideal.__file__).resolve().parent != SRC / "singideal":
        print(f"error: imported singideal from {singideal.__file__}", file=sys.stderr)
        return 2

    import tracer as tracing
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    deadline = start + args.seconds
    setup_samples = [setup_main]
    probes = 0 if args.trace else SETUP_PROBES

    def probe_when_due():
        if len(setup_samples) <= probes and time.perf_counter() >= (
                start + (len(setup_samples) - 1) * args.seconds / probes):
            setup_samples.append(probe_setup(args.workload, args.seed))

    # the first pass pays for the process's heap growth; trace mode keeps
    # it out of the traced/untraced comparison
    untraced = [run_pass(ops, keep_reports=True, between=probe_when_due)]
    traced, layers, spans = [], [], []
    while len(untraced) + len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        if tracer:
            tracer.install()
            try:
                traced.append(run_pass(ops))
            finally:
                tracer.remove()
            spans = tracer.take()
            layers.append(tracing.layer_metrics(spans))
        untraced.append(run_pass(ops, between=probe_when_due))
    # the program's memory ceiling, before the references are computed
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_samples) <= probes:
        setup_samples.append(probe_setup(args.workload, args.seed))

    import checks
    checks.attach(ops)
    passes = untraced + traced
    judge(ops, passes)
    attempted = len(ops) * len(passes)
    mismatches = [f for p in passes for f in p["failures"]]
    known = [f for f in mismatches if isinstance(f[1], checks.KnownDefect)]
    failures = [f for f in mismatches if not isinstance(f[1], checks.KnownDefect)]

    if tracer:
        for layer, p in zip(layers, traced):
            layer["norms.ref_mismatches"] = sum(
                1 for name, _ in p["failures"] if name.startswith("reduced_norm"))
        metrics = tracing.median_metrics(layers)
        metrics["trace_overhead_frac"] = (
            sum(typical_pass(traced)) / sum(typical_pass(untraced[1:])) - 1.0)
        units = tracing.UNITS
    else:
        typical = typical_pass(untraced)
        metrics = {"setup_s": statistics.median(setup_samples),
                   "wall_s": sum(typical), "slowest_call_s": max(typical),
                   "peak_rss_mb": peak_rss}
        units = E2E_UNITS

    env = environment(caps)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": sorted({f"{name}: {reason}" for name, reason in failures}),
        "known_defects": len(known), "known_defect_frac": len(known) / attempted,
        "known_defect_cases": sorted({f"{name}: {reason}" for name, reason in known}),
        "setup_samples_s": setup_samples,
        "pass_wall_s": {"untraced": [sum(p["times"]) for p in untraced],
                        "traced": [sum(p["times"]) for p in traced]},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        # the spans of the last traced pass, with times relative to its start
        t0 = spans[0][1] if spans else 0.0
        (RESULTS / f"{args.workload}-spans.json").write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "count"],
            "spans": [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4]]
                      for s in spans]}))

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced")
    for name, reason in sorted(set(failures)):
        print(f"FAILED {name}: {reason}")
    for name, reason in sorted(set(known)):
        print(f"KNOWN DEFECT {name}: {reason}")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    print(f"{'failed_frac':<28} {record['failed_frac']:>14.6g} ratio "
          f"({len(failures)} failed / {attempted} attempted)")
    print(f"{'known_defect_frac':<28} {record['known_defect_frac']:>14.6g} ratio "
          f"({len(known)} known-defect mismatches / {attempted} attempted)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
