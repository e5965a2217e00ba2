"""Benchmark of hypcensus: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload {oracle,verify,census} --seed N \
        --seconds S --trace {0,1} [--corrupt-anchor]
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --selftest

Run from anywhere; the package is imported from src/ next to this
directory.  Each pass of the workload runs in a fresh worker process
(perfbench/worker.py) with the BLAS thread count fixed to 1 in its
environment.  The first pass always runs to the end; further passes run
until --seconds have passed, and with --trace 0 the last one stops
starting operations at that point.  Every operation is checked against
frozen anchors, pinned check counts or the closed forms.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics:

    setup_s      median wall time of a fresh worker from spawn until its
                 set-up is done: interpreter start, `import hypcensus`, and
                 the field contexts and engine tables the workload uses
    pass_s       one pass: the sum over its operations of each operation's
                 median time
    peak_rss_mb  largest ru_maxrss of the run's pass workers

Times are calibrated seconds: each worker's raw times are scaled by its
reference-kernel speed (calib.py), because the shared hosts change speed
in phases; the raw figures are printed beside them.

--trace 1 wraps the package's functions (perfbench/tracer.py) and reports
the per-layer metrics of perfbench/layers.py per pass; whole passes only,
and their exact counts must agree between passes.  The lines before the
JSON give the workload's stage figures (orbit_s, verify_cocycle_s,
census_qps, ...), the error rate with its base, and the run record.
`--workload all` runs every workload untraced and traced and prints the
tracing overhead.  Spans and run records go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

BENCH_WORKLOADS = ("oracle", "verify", "census")
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every run must end well inside three minutes
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
OUT = os.path.join(ROOT, ".perfbench_out")


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(WORKER_ENV)
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONOPTIMIZE", None)  # the suites' own asserts must stay active
    return env


def _worker(args: list[str], run_start: float) -> dict:
    budget = RUN_LIMIT_S - (time.monotonic() - run_start)
    if budget <= 0:
        raise WorkerError("run time limit reached")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--t0", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {budget:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _tail(xs):
    """(label, value) of the highest percentile with >= 10 samples above it."""
    n = len(xs)
    for pct in (99.9, 99, 90):
        if n * (1 - pct / 100) >= 10:
            return f"p{pct:g}", statistics.quantiles(xs, n=1000)[round(pct * 10) - 1]
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool, corrupt: bool = False) -> dict:
    """Run one benchmark run; returns everything the report needs."""
    start = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [_worker(base + ["--setup-only"], start) for _ in range(SETUP_PROBES)]
    deadline_ns = time.monotonic_ns() + int(seconds * 1e9)
    t_measure = time.monotonic()
    passes = []
    while True:
        elapsed = time.monotonic() - t_measure
        if passes:
            if trace and elapsed + passes[-1]["wall_s"] > seconds:
                break
            if not trace and elapsed >= seconds:
                break
        extra = ["--pass-index", str(len(passes))]
        if trace:
            extra.append("--trace")
        elif passes:
            extra += ["--deadline", str(deadline_ns)]
        if corrupt:
            extra.append("--corrupt-anchor")
        if not passes:
            extra.append("--record")
        t = time.monotonic()
        res = _worker(base + extra, start)
        res["wall_s"] = time.monotonic() - t
        passes.append(res)
    return {"workload": workload, "seed": seed, "trace": trace, "setups": setups,
            "passes": passes, "elapsed_s": time.monotonic() - start}


def summarize(run: dict) -> dict:
    wl = workloads.WORKLOADS[run["workload"]]
    op_total: dict[str, list[float]] = {}
    op_raw: dict[str, list[float]] = {}
    op_stage: dict[str, dict[str, list[float]]] = {}
    failures = []
    attempted = 0
    for p in run["passes"]:
        for op in p["ops"]:
            attempted += 1
            if op.get("failure"):
                failures.append(op["failure"])
            if "times" in op:
                # calibrated seconds (calib.py)
                op_total.setdefault(op["name"], []).append(p["scale"] * sum(op["times"].values()))
                op_raw.setdefault(op["name"], []).append(sum(op["times"].values()))
                for stage, s in op["times"].items():
                    op_stage.setdefault(op["name"], {}).setdefault(stage, []).append(p["scale"] * s)
    stages = {st: sum(_median(d.get(st, [])) for d in op_stage.values()) for st in wl.stages}
    setups = run["setups"] + run["passes"]
    out = {
        "attempted": attempted,
        "failures": failures,
        "pass_s": sum(_median(v) for v in op_total.values()),
        "pass_raw_s": sum(_median(v) for v in op_raw.values()),
        "stages": stages,
        "op_samples": {k: len(v) for k, v in op_total.items()},
        "setup_samples": [p["scale"] * p["setup_s"] for p in setups],
        "setup_raw_samples": [p["setup_s"] for p in setups],
        "scales": [p["scale"] for p in setups],
        "peak_rss_mb": max(p["rss_mb"] for p in run["passes"]),
        "n_ops": len(op_total),
        "record": dict(run["passes"][0]["record"], git_sha=_git_sha()),
        "op_stage": op_stage,
    }
    if run["trace"]:
        out.update(_summarize_trace(run, failures))
        out["attempted"] = attempted + 1  # the pass-to-pass count comparison
    return out


def _exact_counts(snapshot: dict) -> dict:
    return {"calls": snapshot["calls"], "sizes": snapshot["sizes"]}


def _summarize_trace(run: dict, failures: list) -> dict:
    snaps = [p["trace"] for p in run["passes"]]
    first = _exact_counts(snaps[0])
    for i, s in enumerate(snaps[1:], 1):
        if _exact_counts(s) != first:
            failures.append(f"trace: exact counts of pass {i} differ from pass 0")
    for p in run["passes"]:
        if p.get("unwrapped"):
            failures.append(f"trace: unwrapped references {p['unwrapped']}")
    n = len(snaps)
    self_s = {}
    for p in run["passes"]:
        for k, v in p["trace"]["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + p["scale"] * v / n
    return {"layers_calls": first["calls"], "layers_sizes": first["sizes"], "layers_self_s": self_s,
            "spans": sum(p["spans"] for p in run["passes"]),
            "dropped_spans": sum(p["dropped_spans"] for p in run["passes"]),
            "rebound": run["passes"][0].get("rebound", [])}


def metrics_of(summary: dict, trace: bool) -> dict:
    if not trace:
        return {
            "setup_s": {"value": _median(summary["setup_samples"]), "unit": "s"},
            "pass_s": {"value": summary["pass_s"], "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    out = {}
    for name, unit, _better, source, _wls, _moves in layers.PER_LAYER:
        if source[0] == "pass":
            value = summary["pass_s"]
        else:
            value = layers.layer_value(source, summary["layers_calls"], summary["layers_self_s"],
                                       summary["layers_sizes"])
        out[name] = {"value": value, "unit": unit}
    return out


def _stage_lines(workload: str, s: dict) -> list[str]:
    st = s["stages"]
    lines = []
    if workload == "oracle":
        lines.append(f"orbit_s              {st['orbit']:.4f} s/pass ({len(workloads.ORBIT_PAIRS)} pairs)")
        lines.append(f"burnside_s           {st['burnside']:.4f} s/pass ({len(workloads.BURNSIDE_PAIRS)} pairs)")
    elif workload == "verify":
        for stage in ("verify_cocycle", "verify_eps", "verify_counts", "verify_other"):
            lines.append(f"{stage + '_s':<20} {st[stage]:.4f} s per call")
    else:
        n = s["n_ops"]
        lines.append(f"census_qps           {n / st['census']:.1f} 1/s ({n} queries, hyp and sd)")
        lines.append(f"symbolic_build_per_s {n / st['symbolic_build']:.2f} 1/s (genera, hyp and sd forms)")
        lines.append(f"symbolic_eval_per_s  {2 * n / st['symbolic_eval']:.1f} 1/s ({2 * n} evaluate calls)")
        per_query = [sum(v) for d in s["op_stage"].values() for v in zip(*[d[k] for k in sorted(d)])]
        tail = _tail(per_query)
        lines.append(f"query_ms             median {1e3 * _median(per_query):.3f} ms"
                     + (f", {tail[0]} {1e3 * tail[1]:.3f} ms" if tail else "")
                     + f" ({len(per_query)} samples)")
    samples = sorted(set(s["op_samples"].values()))
    lines.append(f"samples per op       {samples[0]}..{samples[-1]} (medians per op)")
    return lines


def report(run: dict, s: dict) -> list[str]:
    wl, trace = run["workload"], run["trace"]
    failed = len(s["failures"])
    lines = [f"# workload {wl}  seed {run['seed']}  trace {int(trace)}  "
             f"passes {len(run['passes'])}  elapsed {run['elapsed_s']:.1f} s"]
    setups = s["setup_samples"]
    lines.append(f"setup_s              {_median(setups):.4f} s (median of {len(setups)}; "
                 f"raw {_median(s['setup_raw_samples']):.4f} s)")
    lines.append(f"pass_s               {s['pass_s']:.4f} s ({s['n_ops']} operations; "
                 f"raw {s['pass_raw_s']:.4f} s)")
    lines.append(f"speed scale          {_median(s['scales']):.4f} calibrated s per raw s "
                 f"(median of {len(s['scales'])} workers)")
    lines.append(f"peak_rss_mb          {s['peak_rss_mb']:.1f} MB")
    lines.extend(_stage_lines(wl, s))
    lines.append(f"error_rate           {failed}/{s['attempted']} = {failed / s['attempted']:.4f}")
    for f in s["failures"]:
        lines.append(f"FAILED               {f}")
    if trace:
        lines.append(f"spans                {s['spans']} recorded, {s['dropped_spans']} over the cap")
    rec = s["record"]
    if rec:
        lines.append(f"record               sha {rec['git_sha']}, nproc {rec['nproc']}, "
                     f"python {rec['python']}, numpy {rec['numpy']}, {rec['blas']}, "
                     f"threads {rec['blas_threads_env']['OPENBLAS_NUM_THREADS']}, "
                     f"L2 {rec['l2_bytes']} B, L3 {rec['l3_bytes']} B")
        if wl == "oracle":
            for pair, d in rec["pairs"].items():
                lines.append(f"pair {pair:<15} n-sets {d['n_sets']}, |PGL2| {d['pgl2_order']}, "
                             f"V {d['V_bytes_computed']} B (computed)")
    return lines


def save_record(run: dict, s: dict) -> None:
    """Write the run record and summary to .perfbench_out/."""
    os.makedirs(OUT, exist_ok=True)
    name = f"record-{run['workload']}-s{run['seed']}-t{int(run['trace'])}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"record": s["record"], "summary": {k: v for k, v in s.items() if k != "op_stage"}},
                  fh, indent=1, default=str)


def _git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def result_line(s: dict, trace: bool) -> dict:
    failed = len(s["failures"])
    return {"correct": failed == 0, "attempted": s["attempted"], "failed": failed,
            "metrics": metrics_of(s, trace)}


def run_and_report(workload: str, seed: int, seconds: float, trace: bool,
                   corrupt: bool = False) -> dict:
    run = measure(workload, seed, seconds, trace, corrupt)
    s = summarize(run)
    save_record(run, s)
    print("\n".join(report(run, s)), flush=True)
    return s


def run_all(seed: int, seconds: float) -> dict:
    combined = {}
    for wl in BENCH_WORKLOADS:
        sp = run_and_report(wl, seed, seconds, trace=False)
        stt = run_and_report(wl, seed, seconds, trace=True)
        overhead = stt["pass_s"] / sp["pass_s"] - 1
        print(f"trace_overhead       {overhead:+.3f} (traced {stt['pass_s']:.4f} s "
              f"vs untraced {sp['pass_s']:.4f} s per pass)", flush=True)
        combined[wl] = {"untraced": result_line(sp, False), "traced": result_line(stt, True),
                        "trace_overhead": overhead}
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-anchor", action="store_true",
                    help="feed the gate one wrong anchor; the run must report a failure")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hypcensus", "__init__.py")):
        print(f"error: no hypcensus sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            import selftest
            return selftest.main()
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload == "all":
            print(json.dumps(run_all(args.seed, args.seconds)))
            return 0
        s = run_and_report(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.corrupt_anchor)
        print(json.dumps(result_line(s, bool(args.trace))))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
