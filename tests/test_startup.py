"""What `import hypcensus` loads, and the names it exports.

The closed forms (census, symbolic) are pure Python.  The group-action
engine and numpy load on first use of an engine name or of the oracle
and verify commands, never for hyp, sd, table or symbolic, and those
load neither dataclasses nor inspect either.  Which modules
a process has loaded is read in a fresh subprocess.
"""

import json
import os
import subprocess
import sys

import pytest

import hypcensus
from hypcensus import census, field, oracle, symbolic

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENGINE = ["hypcensus.field", "hypcensus.moebius", "hypcensus.multiplier", "hypcensus.nset",
          "hypcensus.oracle", "numpy"]
# what the closed forms leave out besides the engine: their records are
# named tuples, and a dataclass would load both
RECORDS = ["dataclasses", "inspect"]

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
ENGINE = {engine!r}
RECORDS = {records!r}

def loaded(names=ENGINE + RECORDS):
    return [m for m in names if m in sys.modules]

out = {{}}
import hypcensus
from hypcensus import cli
out["import"] = loaded()
hypcensus.hyp(2, 9), hypcensus.sd(2, 9), hypcensus.symbolic_hyp(2)
with contextlib.redirect_stdout(io.StringIO()):
    out["codes"] = [cli.main(argv) for argv in (
        ["hyp", "--g", "2", "--q", "9"], ["sd", "--g", "2..3", "--q", "3,5"],
        ["table", "--g", "2..3", "--compare-paper"], ["symbolic", "--g", "2", "--which", "sd"])]
    out["closed_forms"] = loaded()
    out["codes"].append(cli.main(["verify", "--suite", "norm"]))
out["verify"] = loaded(ENGINE)
print(json.dumps(out))
"""

# the names `hypcensus/__init__.py` has always exported, by defining module
EXPORTS = {
    census: ("CensusReport", "census_report", "hyp", "sd", "y_nset_classes"),
    field: ("FieldCtx", "make_field"),
    oracle: ("BudgetError", "OracleResult", "burnside_hyp", "orbit_census", "selfdual_nset",
             "verify_suite"),
    symbolic: ("ConditionalPolynomial", "render", "restrict_to_class", "symbolic_hyp",
               "symbolic_sd"),
}


def test_closed_forms_load_no_engine():
    script = SCRIPT.format(src=SRC, engine=ENGINE, records=RECORDS)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got == {"import": [], "closed_forms": [], "codes": [0] * 5, "verify": ENGINE}


@pytest.mark.parametrize("module", list(EXPORTS), ids=lambda m: m.__name__)
def test_exported_names_are_the_defining_objects(module):
    for name in EXPORTS[module]:
        assert getattr(hypcensus, name) is getattr(module, name), name
        assert name in hypcensus.__all__ and name in dir(hypcensus), name


def test_star_import_gives_the_exported_names():
    names = {}
    exec("from hypcensus import *", names)
    names.pop("__builtins__")
    want = {name: getattr(module, name) for module, group in EXPORTS.items() for name in group}
    assert names == want


def test_engine_submodules_resolve():
    for name in ("field", "moebius", "multiplier", "nset", "oracle"):
        assert getattr(hypcensus, name) is sys.modules[f"hypcensus.{name}"]
        assert name in dir(hypcensus)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        hypcensus.nope  # noqa: B018
    assert not hasattr(hypcensus, "nope")
