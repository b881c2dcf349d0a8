"""One workload run in a fresh process, so relwave's caches start cold.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR SPAWNED_AT
        [--trace SPANS_FILE] [--write-reference]

SPAWNED_AT is ``time.monotonic()`` read by the parent just before it started
this process; set-up time runs from there until relwave, numpy, scipy and
mpmath are imported and the workload's scenarios exist.  The scenarios run
one ``run()`` per case, so a failing case fails its own outputs only.  The
last stdout line is one JSON object with the measurements and the checks.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("spawned_at", type=float)
    ap.add_argument("--trace", type=Path, default=None)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import mpmath  # noqa: F401  (part of the set-up relwave users pay)
    import numpy as np  # noqa: F401
    import scipy  # noqa: F401
    import relwave
    import relwave.scenarios as scenarios
    if SRC.resolve() not in Path(relwave.__file__).resolve().parents:
        print(f"relwave imported from {relwave.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import workloads
    scns = workloads.make(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at

    tracer = None
    if args.trace is not None:
        from tracing import ROOT, Tracer
        tracer = Tracer()
        tracer.install()
        root = tracer.open(ROOT)

    runs, errors = [], []
    started = time.perf_counter()
    for scn in scns:
        for i, case in enumerate(scn.cases):
            one = dataclasses.replace(scn, name=f"{scn.name}{i}", cases=(case,))
            if tracer is not None:
                tracer.run_id += 1
            try:
                runs.append((one, case, scenarios.run(one, out_dir=args.out_dir,
                                                      threads=1)))
            except Exception:
                errors.append(f"{one.name}: {traceback.format_exc(limit=3)}")
                runs.append((one, case, None))
    wall_s = time.perf_counter() - started
    layers = None
    if tracer is not None:
        tracer.close(root)
        layers = tracer.layer_metrics()
        tracer.uninstall()
        tracer.write(args.trace)

    ref_path = HERE / "reference" / f"{args.workload}.json"
    reference = None
    if args.seed == workloads.DEFAULT_SEED and not args.write_reference:
        reference = checks.load_reference(ref_path)
    attempted = failed = 0
    written = {}
    for scn, case, manifest in runs:
        attempted += len(scn.outputs)
        if manifest is None:
            failed += len(scn.outputs)
            continue
        failed += len(scn.outputs) - len(manifest.outputs)
        for fname in sorted(manifest.outputs):
            why, written[fname] = checks.check_file(scn, case, args.out_dir / fname,
                                                    reference)
            if why is not None:
                failed += 1
                errors.append(f"{fname}: {why}")

    if args.write_reference:
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        ref_path.parent.mkdir(exist_ok=True)
        checks.write_reference(ref_path, args.seed, written)

    print(json.dumps({
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "layers": layers,
        "missing": tracer.missing if tracer is not None else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
