"""Self-test of the benchmark itself: `python3 perfbench/run.py --selftest`.

For every benchmark workload it checks that
- the tracer rebound every reference to a traced function, including the
  names modules import from each other, and left no original behind;
- every per-layer metric that layers.PER_LAYER maps to the workload is
  non-zero, so that a missed binding cannot pass as "no calls";
- two traced runs with the same seed report identical exact counts;
- BENCHMARK.json declares the metrics and workloads this code reports;
- the gate fails when fed one wrong anchor (that run also gives the
  untraced pass time against which the tracing overhead is printed).
Takes a few minutes: each run does one pass.
"""

from __future__ import annotations

import json
import os

import layers
import run

# bindings made with `from .module import name` that the tracer must reach
IMPORTED_BINDINGS = (
    "hypcensus.multiplier.act_form",
    "hypcensus.multiplier.apply_moebius",
    "hypcensus.multiplier.act_point",
    "hypcensus.multiplier.fixed_points",
    "hypcensus.nset.enumerate_pgl",
    "hypcensus.nset.act_point",
    "hypcensus.symbolic.factor_prime_power",
    "hypcensus.tables.factor_prime_power",
    "hypcensus.oracle.factor_prime_power",
    "hypcensus.oracle.SUITES['cocycle']",
)
SEED = 7


def _check(ok: bool, what: str, failures: list) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        failures.append(what)


def _traced(workload: str) -> tuple[dict, dict]:
    r = run.measure(workload, SEED, 0, trace=True)
    s = run.summarize(r)
    return s, run.metrics_of(s, True)


def _benchmark_json_matches(failures: list) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    _check(declared == [(n, u, b) for n, u, b, *_ in layers.PER_LAYER],
           "BENCHMARK.json per_layer matches layers.PER_LAYER", failures)
    _check([m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.END_TO_END", failures)
    _check(tuple(w["name"] for w in bench["workloads"]) == run.BENCH_WORKLOADS,
           "BENCHMARK.json workloads match run.BENCH_WORKLOADS", failures)


def main() -> int:
    failures: list[str] = []
    _benchmark_json_matches(failures)
    for wl in run.BENCH_WORKLOADS:
        s1, m1 = _traced(wl)
        _check(not s1["failures"], f"{wl}: traced run passes its gate {s1['failures']}", failures)
        rebound = set(s1["rebound"])
        missing = [b for b in IMPORTED_BINDINGS if b not in rebound]
        _check(not missing, f"{wl}: imported bindings wrapped (missing: {missing})", failures)
        zero = [name for name, _u, _b, _src, wls, _m in layers.PER_LAYER
                if wl in wls and not m1[name]["value"] > 0]
        _check(not zero, f"{wl}: mapped per-layer metrics non-zero (zero: {zero})", failures)

        _s2, m2 = _traced(wl)
        exact = [name for name, unit, *_ in layers.PER_LAYER if unit in ("count", "ratio")]
        differ = [n for n in exact if m1[n]["value"] != m2[n]["value"]]
        _check(not differ, f"{wl}: exact counts repeat across two traced runs (differ: {differ})",
               failures)

        bad = run.summarize(run.measure(wl, SEED, 0, trace=False, corrupt=True))
        _check(len(bad["failures"]) == 1,
               f"{wl}: gate reports the wrong anchor {bad['failures']}", failures)
        overhead = s1["pass_s"] / bad["pass_s"] - 1
        print(f"INFO  {wl}: tracing overhead {overhead:+.3f} (traced {s1['pass_s']:.3f} s, "
              f"untraced {bad['pass_s']:.3f} s per pass)", flush=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0
