"""One pass of a workload in a fresh process.

run.py starts this script once per pass, with the BLAS thread count fixed
in its environment.  It imports hypcensus from the checkout's src/,
performs the workload's set-up, then runs the operations of the pass in a
seeded order, each timed and checked, and prints one JSON object.

    python3 perfbench/worker.py --workload W --seed S --pass-index I
        [--t0 NS] [--deadline NS] [--trace] [--setup-only] [--corrupt-anchor] [--record]

--t0 is the parent's time.monotonic_ns() at spawn, so setup_s includes
interpreter start-up.  The result also carries the process's speed scale
(calib.py); all times in it are raw.  With --deadline (monotonic ns), no operation is
started after it; the pass is otherwise run in full.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def _import_package():
    sys.path.insert(0, SRC)
    import hypcensus

    where = os.path.dirname(os.path.abspath(hypcensus.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"hypcensus imported from {where}, not from {SRC}")
    return hypcensus


def run_record(hc, workloads) -> dict:
    """Machine and problem-size facts stored next to the figures."""
    import platform

    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except Exception:
        pass

    def cache(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    pairs = {}
    for g, q in sorted(set(workloads.ORBIT_PAIRS) | set(workloads.BURNSIDE_PAIRS)):
        n = 2 * g + 2
        n_sets = hc.census.a_p1(n, q)
        pairs[f"({g},{q})"] = {
            "n_sets": n_sets,
            "pgl2_order": q**3 - q,
            "V_bytes_computed": n_sets * (n + 1) * 2,
        }
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "l2_bytes": cache("LEVEL2_CACHE_SIZE"),
        "l3_bytes": cache("LEVEL3_CACHE_SIZE"),
        "pairs": pairs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--t0", type=int, default=None)
    ap.add_argument("--deadline", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt-anchor", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("worker must run without -O: the suites check their results with assert")
    t0 = args.t0 if args.t0 is not None else time.monotonic_ns()

    sys.path.insert(0, HERE)
    import calib
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    hc = _import_package()
    wl.setup()
    setup_s = (time.monotonic_ns() - t0) / 1e9
    cal = calib.Calibrator()
    for _ in range(3 if args.setup_only else 1):
        cal.sample()
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        result["scale"] = cal.scale()
        print(json.dumps(result))
        return 0

    ops = wl.ops(args.seed, args.corrupt_anchor)
    random.Random(f"{args.seed}:{args.pass_index}").shuffle(ops)
    tracer = None
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
        result["rebound"] = tr.install(tracer)
        result["unwrapped"] = tr.unwrapped_references(tracer)

    done = []
    for op in ops:
        if args.deadline is not None and time.monotonic_ns() >= args.deadline:
            break
        cal.maybe_sample()
        entry = {"name": op.name}
        try:
            if tracer is None:
                out, times = op.run()
            else:
                out, times = tracer.run_span(f"op:{op.name}", op.run)
            entry["times"] = times
            entry["failure"] = op.check(out)
        except Exception as exc:  # a raised check or crash fails this op only
            entry["failure"] = f"{op.name}: {type(exc).__name__}: {exc}"
        done.append(entry)

    cal.sample()
    result["ops"] = done
    result["scale"] = cal.scale()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.record:
        result["record"] = run_record(hc, workloads)
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["spans"] = len(tracer.spans)
        result["dropped_spans"] = tracer.dropped_spans
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-s{args.seed}-p{args.pass_index}.jsonl")
        with open(path, "w") as fh:
            for sid, parent, name, start, end in tracer.spans:
                fh.write(json.dumps([sid, parent, name, round(start, 9), round(end, 9)]) + "\n")
        result["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
