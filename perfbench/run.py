"""relwave benchmark: seeded scenario workloads, timed end to end and traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; relwave is imported from its
``src/``.  Workloads (see workloads.py): free-metrics, field-density,
phase-trace.  Every workload run is one fresh worker process (worker.py),
so relwave's lru caches start cold as in every ``relwave run``.  Workers run
one after another, single-threaded (``run(threads=1)``, BLAS pinned to one
thread), and a new one starts only while it is expected to end within S
seconds; at least one always runs.

--trace 0 reports the end-to-end metrics over the run's workers: ``wall_s``
(first ``run()`` call to the last CSV and manifest written) as its minimum,
``setup_s`` (process start until relwave, numpy, scipy and mpmath are
imported and the scenarios exist) and ``peak_rss_mb`` as their medians.
wall_s is a minimum because contention on a shared host only ever adds time
and comes in phases of seconds to minutes, which move a run's median more
than its minimum.  The summary line gives median, minimum, maximum and the
sample count of each.  --trace 1
alternates traced and untraced workers and reports the per-layer metrics of
tracing.py from the median traced worker, plus the tracing overhead
against the untraced ones.

Every output is checked (checks.py).  A (case, output) job that raises,
writes a non-finite value or fails a check counts in ``failed``; the summary
line gives ``failed_frac``.  Output lines: the machine and settings, a
summary, and last the result object
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/worker.py WORKLOAD 0 OUT_DIR 0 --write-reference

records a workload's reference values (default seed) in reference/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("free-metrics", "field-density", "phase-trace")
# (metric, unit, statistic over the run's workers)
END_TO_END = (("wall_s", "s", min), ("setup_s", "s", statistics.median),
              ("peak_rss_mb", "MiB", statistics.median))
WORKER_TIMEOUT_S = 150.0
BLAS_THREADS = "1"


def machine() -> dict:
    """The machine and settings every result is recorded with."""
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "relwave_threads": 1,
    }


def run_worker(workload: str, seed: int, index: int, spans: Path | None,
               timeout: float) -> dict | None:
    """One workload run in a fresh process; its result, or None if it died."""
    out_dir = OUT / f"{workload}-{seed}-{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(out_dir)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(cmd + [repr(spawned_at)], capture_output=True,
                              text=True, env=env, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"worker {index} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"worker {index} exited with code {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for err in result["errors"]:
        print(f"worker {index}: {err}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "relwave" / "__init__.py").is_file():
        print(f"no relwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.csv"
    print(json.dumps({"machine": machine(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}))
    started = time.monotonic()
    deadline = started + args.seconds
    plain, traced, took = [], [], []
    ok = True
    while True:
        trace_this = bool(args.trace) and len(traced) <= len(plain)
        t0 = time.monotonic()
        budget = WORKER_TIMEOUT_S - (t0 - started)
        result = run_worker(args.workload, args.seed, len(took),
                            spans if trace_this else None, budget)
        took.append(time.monotonic() - t0)
        if result is None:
            ok = False
            break
        (traced if trace_this else plain).append(result)
        enough = bool(plain) and (bool(traced) or not args.trace)
        if enough and time.monotonic() + statistics.median(took) > deadline:
            break

    done = plain + traced
    attempted = sum(r["attempted"] for r in done) or 1
    failed = sum(r["failed"] for r in done)
    if not ok:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": max(failed, 1), "metrics": {}}))
        return 1

    if args.trace:
        # one whole traced worker, the median by traced wall time, so its
        # self times add up to its trace.wall_s
        by_wall = sorted(traced, key=lambda r: r["layers"]["trace.wall_s"])
        middle = by_wall[(len(by_wall) - 1) // 2]
        metrics = {name: {"value": middle["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        metrics["trace.overhead_frac"]["value"] = \
            middle["wall_s"] / statistics.median(r["wall_s"] for r in plain) - 1.0
        missing = sorted({m for r in traced for m in r["missing"]})
        if missing:
            print(f"trace targets not found: {', '.join(missing)}", file=sys.stderr)
    else:
        metrics = {name: {"value": stat(r[name] for r in plain), "unit": unit}
                   for name, unit, stat in END_TO_END}
    summary = {"samples": len(plain), "traced_samples": len(traced),
               "failed_frac": {"value": failed / attempted, "unit": "ratio"}}
    for name, unit, _ in END_TO_END:
        vals = [r[name] for r in plain]
        summary[name] = {"median": statistics.median(vals), "min": min(vals),
                         "max": max(vals), "unit": unit}
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
