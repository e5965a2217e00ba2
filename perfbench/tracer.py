"""Per-layer tracing of hypcensus, installed from outside the package.

The tracer replaces selected functions and methods of the package modules
with wrappers.  A timed wrapper records a span (id, parent id, name, start,
end) and accumulates calls and self time (its duration minus the time
covered by timed child spans).  A counted wrapper only counts
calls: the scalar field operations are cheaper than a timer.  Some wrappers
also add up a size taken from the arguments or the result (rows, stable
rows, group elements, terms).

Modules bind some of these functions under their own names (`from .nset
import act_form`), so after wrapping the defining module the tracer scans
every loaded hypcensus module, and the dicts at module level (the suite
table), and replaces each remaining reference to an original function.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SPAN_CAP = 200_000
_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped_spans = 0
        self.originals: dict[int, object] = {}
        self._stack: list[list] = []
        self._next_id = 1

    # -- recording ---------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][0]
        else:
            parent = 0
        self.calls[name] += 1
        self.self_time[name] += dur - frame[1]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent, name, t0, t1))
        else:
            self.dropped_spans += 1

    def run_span(self, name: str, fn, *args):
        """Run fn(*args) as a root span with tracing switched on."""
        clock = time.perf_counter
        self.on = True
        frame = self._enter()
        t0 = clock()
        try:
            return fn(*args)
        finally:
            t1 = clock()
            self.on = False
            self._exit(name, frame, t0, t1)

    # -- wrappers ----------------------------------------------------------

    def timed(self, name: str, fn, size=None):
        tr = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            frame = tr._enter()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tr._exit(name, frame, t0, t1)
            if size is not None:
                tr.on = False
                try:
                    size(tr.sizes, args, out)
                finally:
                    tr.on = True
            return out

        return self._register(fn, wrapper)

    def counted(self, name: str, fn):
        tr = self
        calls = self.calls

        def wrapper(*args, **kwargs):
            if tr.on:
                calls[name] += 1
            return fn(*args, **kwargs)

        return self._register(fn, wrapper)

    def _register(self, fn, wrapper):
        functools.update_wrapper(wrapper, fn)
        self.originals[id(fn)] = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_time),
            "sizes": dict(self.sizes),
        }


# ---------------------------------------------------------------------------
# what is traced

def _rows_built(sizes, args, out):
    sizes["oracle.build_rows"] += args[0].count


def _rows_applied(sizes, args, out):
    sizes["oracle.apply_rows"] += len(out)


def _stable(sizes, args, out):
    stable = out[1]
    sizes["oracle.stable_rows"] += int(stable.sum())
    sizes["oracle.tested_rows"] += len(stable)


def _group_elems(sizes, args, out):
    sizes["moebius.group_elems"] += len(out)


def _terms(sizes, args, out):
    sizes["symbolic.terms"] += len(out.terms)


def _plan(hc):
    """(owner, attribute, kind, span name, size hook) for every traced
    function; owner is a module or a class."""
    oc, mb, ns, mult, ff = hc.oracle, hc.moebius, hc.nset, hc.multiplier, hc.field
    census, sym = hc.census, hc.symbolic
    action_cost = oc.action_cost

    def _steps(sizes, args, out):
        sizes["oracle.action_steps"] += action_cost(args[0], args[1])

    st = oc.ActionState
    return [
        (oc, "squarefree_mask", "timed", "oracle.sieve", None),
        (st, "__init__", "timed", "oracle.build", _rows_built),
        (st, "apply", "timed", "oracle.apply", _rows_applied),
        (st, "kappa_stable", "timed", "oracle.kappa_stable", _stable),
        (st, "dest_flip", "timed", "oracle.dest_flip", None),
        (oc, "orbit_census", "timed", "oracle.orbit", None),
        (oc, "burnside_hyp", "timed", "oracle.burnside", _steps),
        *[(oc, fn.__name__, "timed", f"oracle.suite.{key}", None)
          for key, fn in oc.SUITES.items()],
        (mb, "enumerate_pgl", "timed", "moebius.enumerate_pgl", _group_elems),
        (mb, "mat_mul", "counted", "moebius.mat_mul", None),
        (mb, "canonical_matrix", "counted", "moebius.canonical_matrix", None),
        (mb, "act_point", "counted", "moebius.act_point", None),
        (mb, "fixed_points", "counted", "moebius.fixed_points", None),
        (ns, "act_form", "timed", "nset.act_form", None),
        (ns, "stabilizer", "timed", "nset.stabilizer", None),
        (ns, "apply_moebius", "counted", "nset.apply_moebius", None),
        (mult, "epsilon", "timed", "multiplier.epsilon", None),
        (mult, "epsilon_closed_form", "timed", "multiplier.epsilon_closed_form", None),
        (mult, "kappa_multiplier", "timed", "multiplier.kappa_multiplier", None),
        (ff, "mul", "counted", "field.mul", None),
        (ff, "add", "counted", "field.add", None),
        (ff, "inv", "counted", "field.inv", None),
        (ff, "pw", "counted", "field.pw", None),
        (ff, "make_field", "timed", "field.make_field", None),
        (ff, "extend", "timed", "field.extend", None),
        (census, "hyp", "timed", "census.hyp", None),
        (census, "sd", "timed", "census.sd", None),
        (census, "factor_prime_power", "counted", "census.factor_prime_power", None),
        (sym, "symbolic_hyp", "timed", "symbolic.build", _terms),
        (sym, "symbolic_sd", "timed", "symbolic.build", _terms),
        (sym.ConditionalPolynomial, "evaluate", "timed", "symbolic.evaluate", None),
    ]


def package_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "hypcensus" or k.startswith("hypcensus."))]


def install(tracer: Tracer) -> list[str]:
    """Wrap every planned function and rebind every reference to it in
    the loaded hypcensus modules.  Returns the rebound names, as
    "module.name" (or "module.dict[key]")."""
    import hypcensus
    import hypcensus.cli  # noqa: F401  (binds library names too)
    import hypcensus.tables  # noqa: F401

    wrappers: dict[int, object] = {}
    for owner, attr, kind, name, size in _plan(hypcensus):
        fn = owner.__dict__[attr]
        if kind == "timed":
            w = tracer.timed(name, fn, size)
        else:
            w = tracer.counted(name, fn)
        setattr(owner, attr, w)
        wrappers[id(fn)] = w

    rebound = []
    for mod, key, val, container, ckey in _references():
        if tracer.originals.get(id(val), _MISSING) is val:
            container[ckey] = wrappers[id(val)]
            rebound.append(_where(mod, key, container, ckey))
    return rebound


def _references():
    """(module, name, value, container, key) for every module global of the
    loaded hypcensus modules and every value of a dict held in one."""
    for mod in package_modules():
        names = vars(mod)
        for key, val in list(names.items()):
            if key.startswith("__"):
                continue
            yield mod, key, val, names, key
            if isinstance(val, dict):
                for dk, dv in list(val.items()):
                    yield mod, key, dv, val, dk


def _where(mod, key, container, ckey) -> str:
    name = f"{mod.__name__}.{key}"
    return name if container is vars(mod) else f"{name}[{ckey!r}]"


def unwrapped_references(tracer: Tracer) -> list[str]:
    """References to an original (unwrapped) traced function that remain
    in a hypcensus module after install(); empty when binding is complete."""
    return [_where(mod, key, container, ckey)
            for mod, key, val, container, ckey in _references()
            if tracer.originals.get(id(val), _MISSING) is val]
