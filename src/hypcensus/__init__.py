"""Census of hyperelliptic curves over odd finite fields.

Exact isomorphism-class counts (plain and self-dual), symbolic conditional
polynomials in q, and a brute-force group-action oracle for cross-checking.

`import hypcensus` loads only the pure-Python closed forms, `census` and
`symbolic`.  The group-action engine (`field`, `moebius`, `nset`,
`multiplier`, `oracle`) and numpy under it load on first access to one of
its names (`make_field`, `FieldCtx`, `orbit_census`, `burnside_hyp`,
`verify_suite`, `selfdual_nset`, `OracleResult`, `BudgetError`) or
submodules, through the module `__getattr__` below.
"""

import importlib

from .census import CensusReport, census_report, hyp, sd, y_nset_classes
from .symbolic import (
    ConditionalPolynomial,
    render,
    restrict_to_class,
    symbolic_hyp,
    symbolic_sd,
)

__version__ = "0.1.0"

# engine names, by the submodule that defines them
_LAZY = {
    "FieldCtx": "field",
    "make_field": "field",
    "BudgetError": "oracle",
    "OracleResult": "oracle",
    "burnside_hyp": "oracle",
    "orbit_census": "oracle",
    "selfdual_nset": "oracle",
    "verify_suite": "oracle",
}
_ENGINE = ("field", "moebius", "multiplier", "nset", "oracle")

__all__ = [
    "CensusReport", "census_report", "hyp", "sd", "y_nset_classes",
    "ConditionalPolynomial", "render", "restrict_to_class", "symbolic_hyp", "symbolic_sd",
    *_LAZY,
]


def __getattr__(name):
    # read through the defining module on every access, so a name rebound
    # there (as the benchmark's tracer does) is what the package returns
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    if name in _ENGINE:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_ENGINE})
