"""paylens benchmark: one workload, one run, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload ingest|grid|crawl --seed N \\
        --seconds S --trace 0|1

Set-up (input generation in a separate interpreter, plus the mock server for
`crawl`) runs SETUP_REPS times and reports the median as `setup_s`. The timed
phase then repeats the workload's iteration until about S seconds have
passed and reports medians over iterations. Outputs are checked after the
timed phase; a failed check makes the run fail (exit 1).

With --trace 0 the result line carries the end-to-end metrics. With
--trace 1 iterations alternate untraced and traced; the traced ones give the
per-layer metrics, and the difference between the two kinds of iteration is
reported as the tracing overhead. Gate: the top-level spans of the traced
iterations cover their wall time within 5%.

The last line of standard output is the result:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
A record with run metadata (SVM kernel, versions, nproc, seed) is written to
.bench_out/<workload>-seed<N>-trace<T>.json, and a traced run's spans to
.bench_out/<workload>-seed<N>.spans.jsonl.gz.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import NULL_TRACER, Summary, Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
COVERAGE_TOLERANCE = 0.05
END_TO_END_UNITS = {"tx_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "frac"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "grid", "crawl"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is for the benchmark's own test")
    return parser.parse_args(argv)


def run_meta(args) -> dict:
    import numpy
    import scipy
    from paylens.models import svm
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        # numba's dispatcher keeps the Python body as py_func
        "svm_kernel": "numba" if hasattr(svm._cd_epoch, "py_func") else "python",
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def timed_phase(wl, seconds: float, tracer: Tracer | None):
    """Iterate until the next iteration would end past `seconds`."""
    its, traced = [], []
    start = time.perf_counter()
    while True:
        if its:
            its[-1].outputs = None  # only the last iteration's outputs are checked
        if tracer is not None and len(its) % 2 == 1:
            tracer.run = len(its)
            with patched(wl.patches(tracer)):
                it = wl.iteration(tracer)
            traced.append(it)
        else:
            it = wl.iteration(NULL_TRACER)
        its.append(it)
        spent = time.perf_counter() - start
        need = 2 if tracer is not None else 1
        if len(its) >= need and (
                spent + statistics.median(i.wall for i in its) > seconds):
            return its, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "paylens" / "__init__.py").is_file():
        print(f"error: no paylens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import LAYER_UNITS, WORKLOADS

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, args.scale, work)
    tracer = Tracer() if args.trace else None
    setup_times = []
    try:
        for rep in range(SETUP_REPS):
            if rep:
                wl.close()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        its, traced = timed_phase(wl, args.seconds, tracer)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, info = wl.check(its)
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(it.attempted for it in its)
    failed = sum(it.failed for it in its)
    OUT.mkdir(exist_ok=True)
    record = {"meta": run_meta(args), "info": info,
              "iteration_walls_s": [it.wall for it in its], "setup_runs_s": setup_times}
    if args.trace:
        plain = [it.wall for k, it in enumerate(its) if k % 2 == 0]
        traced_wall = sum(it.wall for it in traced)
        summary = Summary(tracer.spans)
        values = wl.layers(summary, traced)
        values["trace.top_coverage"] = summary.top_level() / traced_wall
        values["trace.layer_share"] = (summary.covered(wl.share_layers)
                                       / traced_wall)
        values["trace.overhead_s"] = (
            statistics.median(it.wall for it in traced)
            - statistics.median(plain))
        if abs(values["trace.top_coverage"] - 1.0) > COVERAGE_TOLERANCE:
            problems.append(f"top-level spans cover "
                            f"{values['trace.top_coverage']:.3f} of the wall")
        units = LAYER_UNITS
        record["layer_share_of"] = list(wl.share_layers)
        tracer.write(str(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"))
    else:
        values = {
            "tx_per_s": statistics.median(it.tx / it.wall for it in its),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_mb,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    record.update(metrics=metrics, checks_failed=problems)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=1)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for key, value in info.items():
        print(f"{key}: {json.dumps(value)}")
    print(f"iterations: {len(its)}  svm_kernel: {record['meta']['svm_kernel']}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
