"""The benchmark's workloads: seeded inputs, set-up, operations and the
correctness gate.

A workload is a fixed list of operations (one pass).  Every operation calls
the library's public entry points, the ones the command line calls, and is
checked afterwards with explicit comparisons, so `python -O` cannot strip
the gate.  `check` returns None when the output is right and otherwise a
one-line reason naming the operation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

# frozen engine outputs (hyp, sd, n-set classes), as in the oracle tests
ANCHORS = {
    (2, 5): (285, 27, 156),
    (2, 9): (1557, 79, 818),
    (3, 5): (6508, 0, 3254),
    (2, 7): (749, 49, 399),
    (4, 3): (4463, 73, 2268),
}
ORBIT_PAIRS = ((2, 9), (3, 5), (2, 7), (4, 3))
# Burnside (2, 7) (about 11 s, one sample a run) and (2, 9) (about 5 min)
# are left out: a run must hold several samples of every operation.
BURNSIDE_PAIRS = ((2, 5), (4, 3))

# Verification suites at reduced arguments, so that one pass fits a run.
# The check counts were frozen from the seed code; they do not depend on
# the seed given to the cocycle suite.
VERIFY_ARGS = {
    "cocycle": dict(triples=1000, hom_exhaustive=((3, 6), (3, 8), (5, 6)), hom_sampled=((5, 8),)),
    "eps": dict(qs=(3, 5), ns_list=(6,)),
    "counts": dict(qs=(3, 5), nmax=8),
    "quot": {},
    "points": dict(qs=(3,)),
    "norm": {},
    "orbit_lemma": {},
}
VERIFY_PINNED = {
    "cocycle": 162717,
    "eps": 3984,
    "counts": 164,
    "quot": 66,
    "points": 1334,
    "norm": 448,
    "orbit_lemma": 232,
}
VERIFY_STAGE = {"cocycle": "verify_cocycle", "eps": "verify_eps", "counts": "verify_counts"}

CENSUS_GENUS = range(2, 201)
CENSUS_QMAX = 10**4


@dataclass
class Op:
    name: str
    run: Callable[[], tuple[object, dict[str, float]]]  # -> (output, seconds per stage)
    check: Callable[[object], str | None]


def _timed(stage: str, fn, *args):
    def run():
        t0 = time.perf_counter()
        out = fn(*args)
        return out, {stage: time.perf_counter() - t0}
    return run


def odd_prime_powers(limit: int) -> list[tuple[int, int]]:
    """(q, p) for every odd prime power 3 <= q <= limit, computed here so
    that the inputs do not depend on the program under test."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    out = []
    for p in range(3, limit + 1, 2):
        if sieve[p]:
            q = p
            while q <= limit:
                out.append((q, p))
                q *= p
    return sorted(out)


# ---------------------------------------------------------------------------
# set-up: fresh-process work before the first pass (timed as setup_s)


def _engine_fields(ctxs):
    from hypcensus import oracle as oc
    for ctx in ctxs:
        oc.ActionState(ctx, 1)  # builds the engine's field tables


def setup_oracle():
    from hypcensus import field as ff
    _engine_fields([ff.make_field(p, e) for p, e in ((3, 1), (5, 1), (7, 1), (3, 2))])


def setup_verify():
    from hypcensus import field as ff
    base = {q: ff.make_field(p, e) for q, p, e in
            ((3, 3, 1), (5, 5, 1), (7, 7, 1), (9, 3, 2), (11, 11, 1), (13, 13, 1))}
    for q, ctx in base.items():
        ff.extend(ctx, 2)
    for q in (3, 5, 7):
        ff.extend(base[q], 4)
    for q in (3, 5):
        ff.extend(base[q], 3)
    _engine_fields(base[q] for q in (3, 5, 7))


def setup_census():
    import hypcensus  # noqa: F401


# ---------------------------------------------------------------------------
# operations


def oracle_ops(seed: int, corrupt: bool) -> list[Op]:
    from hypcensus import census
    from hypcensus import oracle as oc

    anchors = dict(ANCHORS)
    if corrupt:
        h, s, y = anchors[(2, 9)]
        anchors[(2, 9)] = (h + 1, s, y)
    ops = []
    for g, q in ORBIT_PAIRS:
        want = (census.hyp(g, q), census.sd(g, q), census.y_nset_classes(g, q))
        n_sets = census.a_p1(2 * g + 2, q)

        def check(res, g=g, q=q, want=want, n_sets=n_sets):
            got = (res.hyp, res.sd, res.nset_classes)
            if got != anchors[(g, q)]:
                return f"orbit_census({g},{q}) = {got}, anchor {anchors[(g, q)]}"
            if got != want:
                return f"orbit_census({g},{q}) = {got}, census {want}"
            if res.n_sets != n_sets:
                return f"orbit_census({g},{q}) n_sets {res.n_sets} != {n_sets}"
            return None

        ops.append(Op(f"orbit_census({g},{q})", _timed("orbit", lambda g=g, q=q: oc.orbit_census(g, q)), check))
    for g, q in BURNSIDE_PAIRS:
        want = census.hyp(g, q)

        def check(res, g=g, q=q, want=want):
            if res != anchors[(g, q)][0]:
                return f"burnside_hyp({g},{q}) = {res}, anchor {anchors[(g, q)][0]}"
            if res != want:
                return f"burnside_hyp({g},{q}) = {res}, census {want}"
            return None

        ops.append(Op(f"burnside_hyp({g},{q})", _timed("burnside", lambda g=g, q=q: oc.burnside_hyp(g, q)), check))
    return ops


def verify_ops(seed: int, corrupt: bool) -> list[Op]:
    from hypcensus import oracle as oc

    pinned = dict(VERIFY_PINNED)
    if corrupt:
        pinned["eps"] += 1
    ops = []
    for suite, kwargs in VERIFY_ARGS.items():
        kwargs = dict(kwargs)
        if suite == "cocycle":
            kwargs["seed"] = seed
        stage = VERIFY_STAGE.get(suite, "verify_other")

        def check(res, suite=suite):
            want = pinned[suite]
            if not isinstance(res, dict) or res.get("suite") != suite:
                return f"verify {suite}: unexpected result {res!r}"
            if res.get("checks") != want:
                return f"verify {suite}: {res.get('checks')} checks, pinned {want}"
            return None

        ops.append(Op(f"verify_{suite}", _timed(stage, lambda s=suite, k=kwargs: oc.verify_suite(s, **k)), check))
    return ops


def census_queries(seed: int) -> list[tuple[int, int, int]]:
    """(g, q, p) queries: every genus twice, in seeded order, each with q
    drawn uniformly from the odd prime powers up to CENSUS_QMAX."""
    rng = random.Random(seed)
    fields = odd_prime_powers(CENSUS_QMAX)
    genera = list(CENSUS_GENUS) * 2
    rng.shuffle(genera)
    return [(g, *rng.choice(fields)) for g in genera]


def _clear_symbolic_caches(sym):
    # every query builds its forms as a fresh process would
    for key, val in vars(sym).items():
        if key.endswith("_CACHE") and isinstance(val, dict):
            val.clear()


def census_ops(seed: int, corrupt: bool) -> list[Op]:
    from hypcensus import census
    from hypcensus import symbolic as sym

    ops = []
    for i, (g, q, p) in enumerate(census_queries(seed)):
        def run(g=g, q=q, p=p):
            clock = time.perf_counter
            t0 = clock()
            h = census.hyp(g, q)
            s = census.sd(g, q)
            t1 = clock()
            _clear_symbolic_caches(sym)
            t2 = clock()
            hf = sym.symbolic_hyp(g)
            sf = sym.symbolic_sd(g)
            t3 = clock()
            he = hf.evaluate(q, p)
            se = sf.evaluate(q, p)
            t4 = clock()
            times = {"census": t1 - t0, "symbolic_build": t3 - t2, "symbolic_eval": t4 - t3}
            return (h, s, he, se), times

        def check(res, g=g, q=q, off=int(corrupt and i == 0)):
            h, s, he, se = res
            if h != he + off:
                return f"census({g},{q}): hyp differs from symbolic by {h - he - off}"
            if s != se:
                return f"census({g},{q}): sd differs from symbolic by {s - se}"
            if (h + s) % 2 != 0:
                return f"census({g},{q}): hyp + sd is odd"
            return None

        ops.append(Op(f"query{i}(g={g},q={q})", run, check))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], None]
    ops: Callable[[int, bool], list[Op]]
    stages: tuple[str, ...]


WORKLOADS = {
    "oracle": Workload("oracle", setup_oracle, oracle_ops, ("orbit", "burnside")),
    "verify": Workload("verify", setup_verify, verify_ops,
                       ("verify_cocycle", "verify_eps", "verify_counts", "verify_other")),
    "census": Workload("census", setup_census, census_ops,
                       ("census", "symbolic_build", "symbolic_eval")),
}
