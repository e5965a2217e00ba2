"""The package still fits the benchmark's tracer (perfbench/tracer.py).

The tracer wraps named functions and methods of hypcensus and rebinds every
module-level reference to them.  A renamed or re-shaped traced name breaks
a traced benchmark run; this test catches it first.  The install runs in a
subprocess because it rebinds the package for the rest of the process.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import hypcensus
import tracer

tr = tracer.Tracer()
tracer.install(tr)
unresolved = []
for owner, attr, *_ in tracer._plan(hypcensus):
    fn = owner.__dict__.get(attr)
    if id(getattr(fn, "__wrapped__", None)) not in tr.originals:
        unresolved.append(f"{{owner.__name__}}.{{attr}}")
print(json.dumps({{"unresolved": unresolved,
                  "unwrapped": tracer.unwrapped_references(tr)}}))
"""


def test_tracer_installs_on_every_planned_name():
    script = SCRIPT.format(src=os.path.join(ROOT, "src"), perfbench=os.path.join(ROOT, "perfbench"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got == {"unresolved": [], "unwrapped": []}
