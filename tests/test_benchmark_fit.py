"""The package still fits the benchmark's tracer (perfbench/tracer.py).

The tracer wraps named functions and methods of hypcensus and rebinds every
module-level reference to them.  A renamed or re-shaped traced name breaks
a traced benchmark run; this test catches it first.  The install runs in a
subprocess because it rebinds the package for the rest of the process.

The package resolves its engine names (burnside_hyp, verify_suite, ...)
on first access, so the install is also run after a command that loads
only the closed forms and after those names were read once; read after
the install, they must give the wrappers.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import hypcensus
import selftest
import tracer

if {before!r}:
    from hypcensus import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main({before!r})
engine_before = "hypcensus.oracle" in sys.modules
if {before!r}:
    for name in hypcensus.__all__:  # resolved once before the install too
        getattr(hypcensus, name)

tr = tracer.Tracer()
rebound = tracer.install(tr)
unresolved = []
for owner, attr, *_ in tracer._plan(hypcensus):
    fn = owner.__dict__.get(attr)
    if id(getattr(fn, "__wrapped__", None)) not in tr.originals:
        unresolved.append(f"{{owner.__name__}}.{{attr}}")

# the package's engine names, read after the install
wrapped = {{name: id(getattr(getattr(hypcensus, name), "__wrapped__", None)) in tr.originals
           for name in ("burnside_hyp", "orbit_census")}}
originals = [name for name in hypcensus.__all__
             if tr.originals.get(id(getattr(hypcensus, name))) is getattr(hypcensus, name)]
tr.run_span("check", hypcensus.burnside_hyp, 2, 3)
tr.run_span("check", lambda: hypcensus.verify_suite("norm", qs=(3,)))
print(json.dumps({{"engine_before": engine_before,
                  "unresolved": unresolved,
                  "unwrapped": tracer.unwrapped_references(tr),
                  "not_rebound": [b for b in selftest.IMPORTED_BINDINGS if b not in rebound],
                  "wrapped": wrapped,
                  "originals": originals,
                  "calls": [tr.calls["oracle.burnside"], tr.calls["oracle.suite.norm"]]}}))
"""


def _install(before=None) -> dict:
    script = SCRIPT.format(src=os.path.join(ROOT, "src"), perfbench=os.path.join(ROOT, "perfbench"),
                           before=before)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


FITS = {"unresolved": [], "unwrapped": [], "not_rebound": [],
        "wrapped": {"burnside_hyp": True, "orbit_census": True}, "originals": [], "calls": [1, 1]}


def test_tracer_installs_on_every_planned_name():
    assert _install() == {"engine_before": False, **FITS}


def test_tracer_installs_after_a_closed_form_command():
    assert _install(["hyp", "--g", "2", "--q", "9"]) == {"engine_before": False, **FITS}
