"""Exhaustive verification engine for the census formulas.

Counts isomorphism classes directly from the group action: every rational
n-set is materialized as a canonical binary-form coefficient row, a 2x2
matrix acts on all rows at once through a linear substitution matrix, and
the class counts fall out either by Burnside summation over the whole
group or by labelling the orbits of a generating set.  Only the three
generators ever act on the rows: Burnside composes their row permutations
along a spanning tree of the group, so a fault in how the generators move
non-fixed rows would reach both methods alike.  Nothing here reuses the
closed formulas: agreement with census.hyp / census.sd is the independent
evidence.

The twisted census tracks pairs (twist scalar, n-set); an edge flips the
twist class exactly when the substitution multiplier is a nonsquare.

Field elements are int codes the whole way down and all arithmetic is
exact.  One kernel, ActionState._image_col, computes a single image
coefficient for a set of rows: an int32 accumulation reduced mod p once
over a prime field (it also holds the guard that keeps those sums below
2**31), gathers from the field's addition and multiplication tables over
an extension field.  apply stacks its columns; kappa_stable reads
columns 0 and 1 of every row and the others only on the rows still
standing, since few rows are fixed by any one element.
Engine invariants and suite checks raise VerificationError, naming the
check and a counterexample, so `python -O` keeps them.

verify_suite() bundles the independent spot checks (multiplier identities,
fixed-count formulas, norm and orbit lemmas, cocycle laws, quotient
counts) behind one entry point.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

from . import field as ff
from . import moebius as mb
from . import multiplier as mult
from . import nset as ns
from .census import (
    a0,
    a1,
    a2,
    a_p1,
    divisors,
    factor_prime_power,
    plain_fixed_count,
    twisted_fixed_count,
    VerificationError,
)
from .moebius import GlMatrix

DEFAULT_BUDGET = 500_000_000


class BudgetError(RuntimeError):
    """An exhaustive run would exceed the allowed group-action work."""


def action_cost(g: int, q: int) -> int:
    """Group order times n-set count: the unit of exhaustive work."""
    return (q**3 - q) * a_p1(2 * g + 2, q)


def check_budget(g: int, q: int, budget: int = DEFAULT_BUDGET) -> None:
    cost = action_cost(g, q)
    if cost > budget:
        raise BudgetError(
            f"(g={g}, q={q}) needs {cost} action steps, budget is {budget}"
        )


def _check(ok, what: str, *where) -> None:
    """Raise VerificationError naming the check and where it failed: unlike
    assert, python -O cannot strip it."""
    if not ok:
        raise VerificationError(f"{what}: {where}" if where else what)


# ---------------------------------------------------------------------------
# the n-set rows


def _digits_cols(codes: np.ndarray, q: int, d: int) -> np.ndarray:
    out = np.empty((len(codes), d), np.int16)
    for j in range(d):
        out[:, j] = codes // q**j % q
    return out


@functools.lru_cache(maxsize=32)
def squarefree_mask(ctx: ff.FieldCtx, d: int) -> np.ndarray:
    """Read-only mask over monic degree-d polynomials in code order.

    Sieve: every monic with a repeated factor is g**2 * h for some monic g
    of degree >= 1, so mark those products and negate.  Cached, since the
    suites build engines for the same few (q, n) again and again.
    """
    q = ctx.q
    if d <= 1:
        mask = np.ones(q**d, dtype=bool)
        mask.flags.writeable = False
        return mask
    tabs = ff.tables(ctx)
    seen = np.zeros(q**d, dtype=bool)
    for k in range(1, d // 2 + 1):
        hdeg = d - 2 * k
        hcodes = np.arange(q**hdeg, dtype=np.int64)
        hfull = np.concatenate(
            [_digits_cols(hcodes, q, hdeg), np.ones((len(hcodes), 1), np.int16)],
            axis=1,
        )
        for gcode in range(q**k):
            gc = [(gcode // q**j) % q for j in range(k)]
            g2 = ff.pmul(ctx, tuple(gc) + (1,), tuple(gc) + (1,))
            prod = np.zeros((len(hcodes), d + 1), np.int16)
            for i, gi in enumerate(g2):
                if gi == 0:
                    continue
                row = tabs.MUL[gi]
                for j in range(hdeg + 1):
                    prod[:, i + j] = tabs.ADD[prod[:, i + j], row[hfull[:, j]]]
            seen[prod[:, :d] @ q ** np.arange(d)] = True
    mask = ~seen
    _check(int(mask.sum()) == q**d - q ** (d - 1), "squarefree count", q, d)
    mask.flags.writeable = False
    return mask


class ActionState:
    """Every rational n-set over ctx as a canonical form row, with the
    vectorized matrix action.

    Row order matches enumerate_nsets: first the sets avoiding infinity
    (form coefficient 0 equal to 1), then the rest (coefficients 0, 1
    equal to 0, 1).  V[r, i] is the X^(n-i) Z^i coefficient of row r;
    V is stored column-major, since the action reads it a column at a time.
    """

    def __init__(self, ctx: ff.FieldCtx, n: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.ctx = ctx
        self.n = n
        self.tabs = ff.tables(ctx)
        q = ctx.q
        codes0 = np.nonzero(squarefree_mask(ctx, n))[0]
        codes1 = np.nonzero(squarefree_mask(ctx, n - 1))[0]
        n0 = len(codes0)
        count = n0 + len(codes1)
        v = np.zeros((count, n + 1), np.int16, order="F")
        d0 = _digits_cols(codes0, q, n)
        d1 = _digits_cols(codes1, q, n - 1)
        v[:n0, 0] = 1
        v[:n0, 1:] = d0[:, ::-1]
        v[n0:, 1] = 1
        v[n0:, 2:] = d1[:, ::-1]
        inv0 = np.full(q**n, -1, np.int32)
        inv0[codes0] = np.arange(n0, dtype=np.int32)
        inv1 = np.full(q ** (n - 1), -1, np.int32)
        inv1[codes1] = np.arange(n0, count, dtype=np.int32)
        self.n0 = n0
        self.count = count
        self.V = v
        self._inv0 = inv0
        self._inv1 = inv1

    def nset_at(self, i: int) -> ns.RationalNSet:
        row = self.V[i]
        n = self.n
        if i < self.n0:
            return ns.RationalNSet(tuple(int(row[n - j]) for j in range(n + 1)), False)
        return ns.RationalNSet(tuple(int(row[n - j]) for j in range(n)), True)

    def _image_col(self, rows, trow) -> np.ndarray:
        """Image coefficient sum_k trow[k] V[rows, k] of the given rows (a
        slice or an index array), as codes; trow is one row of
        nset.substitution_matrix.

        Over a prime field the codes are residues: an int32 accumulation
        over the nonzero coefficients, reduced mod p once, exact while
        (n + 1)(p - 1)^2 < 2**31.  Over an extension field the terms are
        gathered from the field's multiplication and addition tables.
        """
        terms = [(k, c) for k, c in enumerate(trow) if c]
        if not terms:
            return np.zeros(len(self.V[rows, 0]), np.int16)
        ctx, v = self.ctx, self.V
        (k0, c0), rest = terms[0], terms[1:]
        if ctx.e == 1:
            p = ctx.p
            if (self.n + 1) * (p - 1) ** 2 >= 2**31:
                raise ValueError(f"p = {p}, n = {self.n} overflows the int32 action")
            acc = np.multiply(v[rows, k0], c0, dtype=np.int32)
            for k, c in rest:
                acc += np.multiply(v[rows, k], c, dtype=np.int32)
            return np.mod(acc, p, out=acc)
        mul, add = self.tabs.MUL, self.tabs.ADD
        acc = mul[c0][v[rows, k0]]
        for k, c in rest:
            acc = add[acc, mul[c][v[rows, k]]]
        return acc

    def apply(self, mat: GlMatrix) -> np.ndarray:
        """Image form rows under nset.substitution_matrix, the matrix
        act_form uses; entries are codes.  Each image column comes from
        _image_col, which also holds the int32 guard of prime fields."""
        t = ns.substitution_matrix(self.ctx, mat, self.n)
        g = np.empty((self.count, self.n + 1), np.int16, order="F")
        for i, trow in enumerate(t):
            g[:, i] = self._image_col(slice(None), trow)
        return g

    def kappa_stable(self, mat: GlMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Per-row leading scalar kappa at the source block position plus
        the mask of rows fixed setwise (image form = kappa times own form).

        kappa is the image column at the block's defining position (0 for
        the rows avoiding infinity, 1 for the rest).  The other of columns
        0 and 1 is tested over the whole block, since contiguous reads beat
        gathering the many rows with kappa != 0; every later column only on
        the rows still standing.
        """
        t = ns.substitution_matrix(self.ctx, mat, self.n)
        mul, v = self.tabs.MUL, self.V
        kappa = np.empty(self.count, np.int16)
        stable = np.zeros(self.count, bool)
        for lead, block in ((0, slice(0, self.n0)), (1, slice(self.n0, self.count))):
            kap = self._image_col(block, t[lead])
            kappa[block] = kap
            other = 1 - lead
            ok = (kap != 0) & (self._image_col(block, t[other]) == mul[kap, v[block, other]])
            live = np.flatnonzero(ok) + block.start
            for i in range(2, self.n + 1):
                if not len(live):
                    break
                live = live[self._image_col(live, t[i]) == mul[kappa[live], v[live, i]]]
            stable[live] = True
        return kappa, stable

    def stable_indices(self, mat: GlMatrix) -> tuple[np.ndarray, np.ndarray]:
        kappa, stable = self.kappa_stable(mat)
        idx = np.nonzero(stable)[0]
        return idx, kappa[idx]

    def dest_flip(self, mat: GlMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Row permutation of the action and the twist-flip mask.

        The flip is chi(multiplier) = -1; for even n the multiplier class
        equals the class of the leading scalar kappa.
        """
        if self.n % 2:
            raise ValueError(f"twist transport is defined for even n, got {self.n}")
        q, n = self.ctx.q, self.n
        g = self.apply(mat)
        kap = np.where(g[:, 0] != 0, g[:, 0], g[:, 1])
        _check(kap.all(), "the image of an n-set must be an n-set", mat)
        c = self.tabs.MUL[self.tabs.INV[kap][:, None], g]
        weights = q ** np.arange(n, dtype=np.int64)
        code0 = c[:, n:0:-1] @ weights
        code1 = c[:, n:1:-1] @ weights[:-1]
        dest = np.where(g[:, 0] != 0, self._inv0[code0], self._inv1[code1])
        _check((dest >= 0).all(), "the image of an n-set must be a canonical row", mat)
        flip = self.tabs.CHI[kap] == -1
        return dest.astype(np.int64), flip


@dataclass(frozen=True)
class OracleResult:
    g: int
    q: int
    n_sets: int
    nset_classes: int
    hyp: int
    sd: int


def _generators(ctx: ff.FieldCtx) -> tuple[GlMatrix, GlMatrix, GlMatrix]:
    """x + 1, x -> zeta x for a unit-group generator zeta, and x -> 1/x."""
    zeta = ff.mult_generator(ctx)
    return GlMatrix(1, 1, 0, 1), GlMatrix(zeta, 0, 0, 1), GlMatrix(0, 1, 1, 0)


def _composed_actions(st: ActionState):
    """Yield (matrix, dest, flip) for every element of PGL2 over st.ctx.

    Only the three generators act on the rows.  In a breadth-first
    spanning tree over the edges m -> m * gen, the cocycle law of the
    multiplier gives each child h = m * gen from its parent:
    dest_h = dest_m[dest_gen], flip_h = flip_m[dest_gen] ^ flip_gen.
    A depth-first walk holds only the arrays on the path from the root;
    callers must not modify the yielded arrays.
    """
    ctx = st.ctx
    gens = _generators(ctx)
    acts = []
    for mat in gens:  # the fixed rows are the stable ones, flipped where chi(kappa) = -1
        kappa, stable = st.kappa_stable(mat)
        dest, flip = st.dest_flip(mat)
        _check(np.array_equal(dest == np.arange(st.count), stable), "fixed rows", mat)
        _check(np.array_equal(flip[stable], st.tabs.CHI[kappa[stable]] < 0), "flip", mat)
        acts.append((dest, flip))
    mats = [el.mat for el in mb.enumerate_pgl(ctx)]
    index = {m: i for i, m in enumerate(mats)}
    root = index[mb.IDENTITY]
    children: list[list[tuple[int, int]]] = [[] for _ in mats]
    seen = {root}
    queue = [root]  # breadth first: the loop also visits what it appends
    for u in queue:
        for k, gen in enumerate(gens):
            v = index[mb.canonical_matrix(ctx, mb.mat_mul(ctx, mats[u], gen))]
            if v not in seen:
                seen.add(v)
                children[u].append((v, k))
                queue.append(v)
    order = ctx.q**3 - ctx.q
    _check(len(queue) == len(mats) == order, "spanning tree", len(queue), len(mats))

    def walk(u, dest, flip):
        yield mats[u], dest, flip
        for v, k in children[u]:
            dest_gen, flip_gen = acts[k]
            yield from walk(v, dest[dest_gen], flip[dest_gen] ^ flip_gen)

    yield from walk(root, np.arange(st.count), np.zeros(st.count, bool))


def burnside_hyp(g: int, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """hyp(g, q) by averaging twisted fixed pairs over the whole group: an
    element fixes both twisted pairs over row i when it maps i to itself
    without a flip, and neither otherwise."""
    check_budget(g, q, budget)
    p, e = factor_prime_power(q)
    ctx = ff.make_field(p, e)
    st = ActionState(ctx, 2 * g + 2)
    rows = np.arange(st.count)
    total = sum(
        2 * int(np.count_nonzero((dest == rows) & ~flip))
        for _, dest, flip in _composed_actions(st)
    )
    order = q**3 - q
    _check(total % order == 0, "fixed-pair total divisible by |PGL2|", g, q, total)
    return total // order


def _orbit_labels(perms: list[np.ndarray]) -> np.ndarray:
    """Smallest node of each node's orbit under the given permutations.

    Min-label propagation with pointer jumping (Shiloach-Vishkin style):
    a label is a node of the same orbit and never above its own node, so
    label[label] is a valid shortcut.  Labels stop changing only when they
    agree across every edge, so each orbit carries its smallest node.
    """
    lab = np.arange(len(perms[0]))
    while True:
        old = lab
        for dest in perms:  # hook both ends of every edge to the smaller label
            lab = np.minimum(lab, lab[dest])
            lab[dest] = np.minimum(lab[dest], lab)
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped
        if np.array_equal(lab, old):
            return lab


def _partition(st: ActionState) -> tuple[np.ndarray, np.ndarray]:
    """Orbit labels of the set action and of the twisted-pair action, read
    off the generators; twisted node i + count is the nonsquare twist of i."""
    n = st.count
    acts = [st.dest_flip(mat) for mat in _generators(st.ctx)]
    lab1 = _orbit_labels([dest for dest, _ in acts])
    lab2 = _orbit_labels(
        [np.concatenate([dest + n * flip, dest + n * ~flip]) for dest, flip in acts]
    )
    return lab1, lab2


def orbit_census(g: int, q: int, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Full orbit counts from the orbit labels of three group generators.

    Twisted nodes are (twist class, n-set) pairs; a self-dual n-set orbit
    is one whose two twisted lifts carry the same label.
    """
    check_budget(g, q, budget)
    p, e = factor_prime_power(q)
    ctx = ff.make_field(p, e)
    st = ActionState(ctx, 2 * g + 2)
    n = st.count
    lab1, lab2 = _partition(st)
    roots = np.flatnonzero(lab1 == np.arange(n))
    y = len(roots)
    hyp_count = int(np.count_nonzero(lab2 == np.arange(2 * n)))
    merged = int(np.count_nonzero(lab2[roots] == lab2[roots + n]))
    _check(hyp_count == 2 * y - merged, "hyp == 2y - merged", g, q, hyp_count, y, merged)
    return OracleResult(g=g, q=q, n_sets=n, nset_classes=y, hyp=hyp_count, sd=merged)


def twisted_act(gamma, lam: int, s: ns.RationalNSet, ctx: ff.FieldCtx):
    """Image of a (twist scalar, n-set) pair; the scalar is transported by
    the multiplier, so it is well defined up to squares."""
    mat = gamma.mat if isinstance(gamma, mb.MoebiusElem) else gamma
    s2, kappa = ns.act_form(ctx, mat, s)
    det = ff.sub(ctx, ff.mul(ctx, mat.a, mat.d), ff.mul(ctx, mat.b, mat.c))
    j = ff.div(ctx, ff.pw(ctx, det, s.n), kappa)
    return ff.mul(ctx, lam, j), s2


def selfdual_nset(s: ns.RationalNSet, ctx: ff.FieldCtx) -> bool:
    """Whether the two twist classes over the n-set fall in one orbit.

    That happens exactly when some setwise stabilizer element carries the
    sign -1, and the answer is constant on the orbit of the n-set.
    """
    return any(
        mult.epsilon(el.mat, s, ctx) == -1
        for el in ns.stabilizer(s, ctx)
        if el.kind != "identity"
    )


def curve_point_counts(ctx: ff.FieldCtx, lam: int, s: ns.RationalNSet):
    """Affine and smooth projective point counts of y^2 = lam * f(x).

    The affine chart drops whatever sits over x = infinity, so only the
    smooth count is an isomorphism invariant.
    """
    q = ctx.q
    aff = 0
    for x in range(q):
        v = ff.mul(ctx, lam, ff.peval(ctx, s.f, x))
        aff += 1 if v == 0 else 1 + ff.chi(v, ctx)
    if s.has_inf:
        at_inf = 1
    else:
        at_inf = 1 + ff.chi(lam, ctx)
    return aff, aff + at_inf


# ---------------------------------------------------------------------------
# verification suites


def _subtype_list(ctx: ff.FieldCtx) -> list[tuple[str, int]]:
    q = ctx.q
    out = [("C", m) for m in divisors(q - 1) if m > 1]
    out.append(("B", ctx.p))
    out.extend(("A", m) for m in divisors(q + 1) if m > 1)
    return out


def _first_irreducible_quadratic(ctx: ff.FieldCtx) -> tuple[int, int, int]:
    for c1 in range(ctx.q):
        for c0 in range(ctx.q):
            f = (c0, c1, 1)
            if all(ff.peval(ctx, f, x) != 0 for x in range(ctx.q)):
                return f
    raise AssertionError("no irreducible quadratic found")


def _divisible_by_quadratic(st: ActionState, mu) -> np.ndarray:
    """Rows whose form is divisible by the monic quadratic mu.

    Remainders mod mu are linear in the coefficients, so two column sums
    decide divisibility in one vectorized pass.  Prime fields only: code
    arithmetic is then arithmetic mod p.
    """
    ctx = st.ctx
    if ctx.e != 1:
        raise ValueError(f"prime fields only, got q = {ctx.q}")
    q, n = ctx.q, st.n
    xm = [(1, 0), (0, 1)]  # x^j mod mu as ascending pairs
    for _ in range(2, n + 1):
        r0, r1 = xm[-1]
        xm.append((
            ff.mul(ctx, r1, ff.neg(ctx, mu[0])),
            ff.add(ctx, r0, ff.mul(ctx, r1, ff.neg(ctx, mu[1]))),
        ))
    rem0 = np.zeros(st.count, np.int64)
    rem1 = np.zeros(st.count, np.int64)
    for j in range(n + 1):
        col = st.V[:, n - j].astype(np.int64)
        rem0 += col * xm[j][0]
        rem1 += col * xm[j][1]
    return ((rem0 % q) == 0) & ((rem1 % q) == 0)


def _fixed_pair_quadratic(elem: mb.MoebiusElem, ctx: ff.FieldCtx):
    """Monic quadratic over the base field whose roots are the conjugate
    fixed pair of an irrational-fixed-point element."""
    ext, emb, pts = mb.fixed_points(elem, ctx)
    t1, t2 = pts[0].x, pts[1].x
    back = {v: i for i, v in enumerate(emb)}
    e1 = ff.add(ext, t1, t2)
    e2 = ff.mul(ext, t1, t2)
    return (back[e2], ff.neg(ctx, back[e1]), 1)


def verify_epsilon(qs=(3, 5), ns_list=(6, 8)) -> dict:
    """Every stable pair: engine sign == cocycle sweep == closed form."""
    checks = 0
    for q in qs:
        ctx = ff.make_field(q, 1)
        for n in ns_list:
            st = ActionState(ctx, n)
            for elem in mb.enumerate_pgl(ctx):
                if elem.kind == "identity":
                    continue
                idx, kappas = st.stable_indices(elem.mat)
                for i, kap in zip(idx.tolist(), kappas.tolist()):
                    s = st.nset_at(i)
                    e0 = int(st.tabs.CHI[kap])
                    e1 = mult.epsilon(elem.mat, s, ctx)
                    e2 = mult.epsilon_closed_form(elem, s, ctx)
                    _check(e0 == e1 == e2, "eps: engine == sweep == closed form",
                           q, n, elem.mat, s, (e0, e1, e2))
                    checks += 1
    return {"suite": "eps", "checks": checks}


def verify_counts(qs=(3, 5, 7), nmax=8) -> dict:
    """n-set totals of the four ambient varieties and per-subtype fixed
    counts, all against the closed counting polynomials."""
    checks = 0
    for q in qs:
        ctx = ff.make_field(q, 1)
        mu = _first_irreducible_quadratic(ctx)
        for n in range(1, nmax + 1):
            st = ActionState(ctx, n)
            # the line, the affine line, the torus, the line minus a
            # conjugate quadratic pair
            _check(st.count == a_p1(n, q), "counts: the line", q, n, st.count)
            _check(st.n0 == q * a1(n, q), "counts: the affine line", q, n, st.n0)
            torus = int((st.V[: st.n0, n] != 0).sum())
            _check(torus == (q - 1) * a2(n, q), "counts: the torus", q, n, torus)
            punctured = st.count - int(_divisible_by_quadratic(st, mu).sum())
            _check(punctured == (q + 1) * a0(n, q), "counts: the punctured line", q, n, punctured)
            checks += 4
            if n < 3:
                continue
            for kind, m in _subtype_list(ctx):
                elem, _ = mb.subtype_representative(ctx, kind, m)
                kappa, stable = st.kappa_stable(elem.mat)
                plain = int(stable.sum())
                _check(plain == plain_fixed_count(q, n, kind, m), "counts: plain fixed",
                       q, n, kind, m, plain)
                checks += 1
                if n % 2 == 0 and n >= 4:
                    twisted = 2 * int((st.tabs.CHI[kappa[stable]] == 1).sum())
                    _check(twisted == twisted_fixed_count(q, n, kind, m), "counts: twisted fixed",
                           q, n, kind, m, twisted)
                    checks += 1
        # fixed tallies depend only on the subtype, not the element
        if q <= 5 and nmax >= 6:
            st = ActionState(ctx, 6)
            tallies: dict[tuple[str, int], set] = {}
            for elem in mb.enumerate_pgl(ctx):
                if elem.kind == "identity":
                    continue
                kappa, stable = st.kappa_stable(elem.mat)
                plain = int(stable.sum())
                twisted = 2 * int((st.tabs.CHI[kappa[stable]] == 1).sum())
                tallies.setdefault((elem.kind, elem.order), set()).add((plain, twisted))
            for key, vals in tallies.items():
                _check(len(vals) == 1, "counts: one tally per subtype", q, key, vals)
                checks += 1
    return {"suite": "counts", "checks": checks}


def verify_norm(qs=(3, 5, 7, 9, 11, 13)) -> dict:
    """Norm criterion for every nonzero element of each quadratic extension."""
    checks = 0
    for q in qs:
        p, e = factor_prime_power(q)
        ctx = ff.make_field(p, e)
        for alpha in range(1, q * q):
            rep = mult.norm_lemma_check(ctx, alpha)
            _check(rep.statement1 and rep.statement2, "norm: norm lemma", q, alpha, rep)
            checks += 1
    return {"suite": "norm", "checks": checks}


def verify_orbit_lemma(qs=(3, 5, 7)) -> dict:
    """Local multiplier product over each nondegenerate orbit equals the
    m-th power of the eigenvalue, for every point and every subtype."""
    checks = 0
    for q in qs:
        ctx = ff.make_field(q, 1)
        ext2, _ = ff.extend(ctx, 2)
        allpts = [mb.INF] + [mb.fin(x) for x in range(ext2.q)]
        for m in divisors(q + 1):
            if m == 1:
                continue
            elem, alpha = mb.subtype_representative(ctx, "A", m)
            _, _, fixed = mb.fixed_points(elem, ctx)
            fixedset = set(fixed)
            for t in allpts:
                if t in fixedset:
                    continue
                prod, expect = mult.orbit_multiplier_check(elem, alpha, t, ctx)
                _check(prod == expect, "orbit_lemma: orbit product == alpha^m",
                       q, m, t, (prod, expect))
                checks += 1
    return {"suite": "orbit_lemma", "checks": checks}


def _random_gl(rng: random.Random, ctx: ff.FieldCtx) -> GlMatrix:
    while True:
        m = GlMatrix(*(rng.randrange(ctx.q) for _ in range(4)))
        if mb.mat_det(ctx, m) != 0:
            return m


def _random_nset(rng: random.Random, ctx: ff.FieldCtx, n: int) -> ns.RationalNSet:
    while True:
        has_inf = rng.random() < 0.5
        deg = n - (1 if has_inf else 0)
        f = tuple(rng.randrange(ctx.q) for _ in range(deg)) + (1,)
        if ff.is_squarefree_poly(ctx, f):
            return ns.RationalNSet(f, has_inf)


def _stab_test_sets(q: int, ctx: ff.FieldCtx) -> list[ns.RationalNSet]:
    # highly symmetric sets so the stabilizers are large
    if q == 3:
        quads = (1,)
        for c0 in range(3):
            for c1 in range(3):
                f = (c0, c1, 1)
                if all(ff.peval(ctx, f, x) != 0 for x in range(3)):
                    quads = ff.pmul(ctx, quads, f)
        return [
            ns.make_nset(ctx, quads, False),  # the six quadratic points
            ns.make_nset(ctx, ff.pmul(ctx, quads, (0, 1)), True),  # plus 0, inf
        ]
    if q == 5:
        line = (0, 4, 0, 0, 0, 1)  # x^5 - x
        return [
            ns.make_nset(ctx, line, True),  # all of P^1
            ns.make_nset(ctx, ff.pmul(ctx, line, (2, 0, 1)), True),  # plus a pair
        ]
    if q != 7:
        raise ValueError(f"no stabilizer test sets for q = {q}")
    return [
        ns.make_nset(ctx, (6, 0, 0, 0, 0, 0, 1), False),  # sixth roots of unity
        ns.make_nset(ctx, (0, 6, 0, 0, 0, 0, 0, 1), True),  # all of P^1
    ]


def verify_cocycle(
    seed: int = 0,
    triples: int = 5000,
    hom_exhaustive=((3, 6), (3, 8), (5, 6), (7, 6)),
    hom_sampled=((5, 8), (7, 8)),
) -> dict:
    """Cocycle law, conjugation invariance and multiplicativity of the sign.

    The multiplier satisfies J(ab, S) = J(b, S) J(a, bS) exactly at the
    matrix level, no stability needed; the sign is conjugation invariant
    on stabilizers and multiplicative on each stabilizer subgroup.
    """
    checks = 0
    k3 = ff.make_field(3, 1)
    pgl3 = mb.enumerate_pgl(k3)
    sample = list(itertools.islice(ns.enumerate_nsets(k3, 6), 4))
    special = ns.make_nset(k3, ff.pmul(k3, (0, 2, 0, 1), (1, 0, 1)), True)
    sample.append(special)
    for s in sample:
        for rho in pgl3:
            s_r = ns.apply_moebius(rho, s, k3)
            j_r = mult.kappa_multiplier(rho.mat, s, k3)
            for gam in pgl3:
                prod = mb.mat_mul(k3, gam.mat, rho.mat)
                left = mult.kappa_multiplier(prod, s, k3)
                right = ff.mul(k3, j_r, mult.kappa_multiplier(gam.mat, s_r, k3))
                _check(left == right, "cocycle: cocycle law", s, rho.mat, gam.mat)
                checks += 1

    rng = random.Random(seed)
    for q in (5, 7):
        k = ff.make_field(q, 1)
        for _ in range(triples):
            gam = _random_gl(rng, k)
            rho = _random_gl(rng, k)
            s = _random_nset(rng, k, 6)
            s_r = ns.act_form(k, rho, s)[0]
            left = mult.kappa_multiplier(mb.mat_mul(k, gam, rho), s, k)
            right = ff.mul(
                k,
                mult.kappa_multiplier(rho, s, k),
                mult.kappa_multiplier(gam, s_r, k),
            )
            _check(left == right, "cocycle: cocycle law, random triple", q, gam, rho, s)
            checks += 1

    # conjugation moves a stabilizing element to the image set, same sign
    stab = ns.stabilizer(special, k3)
    _check(len(stab) == 8, "cocycle: stabilizer order", special, len(stab))
    gl3 = [
        m
        for m in (
            GlMatrix(a, b, c, d)
            for a, b, c, d in itertools.product(range(3), repeat=4)
        )
        if mb.mat_det(k3, m) != 0
    ]
    _check(len(gl3) == 48, "cocycle: |GL2(F_3)|", len(gl3))
    for gam in stab:
        base_eps = mult.epsilon(gam.mat, special, k3)
        for rho in gl3:
            conj = mb.mat_mul(k3, mb.mat_mul(k3, rho, gam.mat), mb.mat_inv(k3, rho))
            s_r = ns.act_form(k3, rho, special)[0]
            _check(mult.epsilon(conj, s_r, k3) == base_eps, "cocycle: conjugation invariance",
                   gam.mat, rho)
            checks += 1

    # epsilon restricted to a stabilizer is a homomorphism to {1, -1}
    for q in (3, 5, 7):
        ctx = ff.make_field(q, 1)
        index = mb.pgl_table(ctx).index
        for s in _stab_test_sets(q, ctx):
            stab = ns.stabilizer(s, ctx)
            _check(len(stab) > 1, "cocycle: nontrivial stabilizer", q, s)
            signs = [mult.epsilon(el.mat, s, ctx) for el in stab]
            for el, e in zip(stab, signs):
                if el.kind != "identity":
                    _check(e == mult.epsilon_closed_form(el, s, ctx),
                           "cocycle: closed form on a stabilizer", q, s, el.mat)
            checks += _sign_homomorphism(ctx, [index[el.mat] for el in stab], signs, q, s)

    # the same, over every stabilizer at once where the set space is small
    for q, n in hom_exhaustive:
        checks += _exhaustive_sign_homomorphism(ff.make_field(q, 1), n)

    # where it is not, full stabilizers of engine-picked stable sets
    for q, n in hom_sampled:
        ctx = ff.make_field(q, 1)
        index = mb.pgl_table(ctx).index
        st = ActionState(ctx, n)
        for kind, m in _subtype_list(ctx):
            elem, _ = mb.subtype_representative(ctx, kind, m)
            idx, _ = st.stable_indices(elem.mat)
            for i in idx[:20].tolist():
                s = st.nset_at(i)
                stab = ns.stabilizer(s, ctx)
                signs = [mult.epsilon(el.mat, s, ctx) for el in stab]
                checks += _sign_homomorphism(ctx, [index[el.mat] for el in stab], signs, q, n, s)
    return {"suite": "cocycle", "checks": checks}


def _sign_homomorphism(ctx: ff.FieldCtx, members: list[int], signs: list[int], *where) -> int:
    """sign(ga rb) == sign(ga) sign(rb) for every ordered pair of members.

    members are enumerate_pgl positions with their signs alongside; the
    identity reads +1 unless it is a member, every other non-member 0, so
    a product leaving the members fails as well.  One gather over the
    product table does every pair; the number of pairs is returned.
    """
    table = mb.pgl_table(ctx)
    sign = np.zeros(len(table.prod), np.int8)
    sign[table.index[mb.IDENTITY]] = 1
    m = np.asarray(members)
    sign[m] = signs
    bad = np.argwhere(sign[table.prod[np.ix_(m, m)]] != np.outer(sign[m], sign[m]))
    if len(bad):
        pgl = mb.enumerate_pgl(ctx)
        i, j = bad[0]
        _check(False, "cocycle: homomorphism", *where, (pgl[m[i]].mat, pgl[m[j]].mat))
    return len(m) ** 2


def _exhaustive_sign_homomorphism(ctx: ff.FieldCtx, n: int) -> int:
    """Multiplicativity of the sign on the stabilizer of every single n-set,
    read off the engine's stable masks."""
    st = ActionState(ctx, n)
    stab_of: dict[int, tuple[list[int], list[int]]] = {}
    for gi, elem in enumerate(mb.enumerate_pgl(ctx)):
        if elem.kind == "identity":
            continue
        idx, kappas = st.stable_indices(elem.mat)
        for i, sg in zip(idx.tolist(), st.tabs.CHI[kappas].tolist()):
            members, signs = stab_of.setdefault(i, ([], []))
            members.append(gi)
            signs.append(sg)
    return sum(
        _sign_homomorphism(ctx, members, signs, ctx.q, n, i)
        for i, (members, signs) in stab_of.items()
    )


def verify_quotient(qs=(3, 5), nmax=8, strata_nmax=4) -> dict:
    """Quotient counts: the stable nm-sets avoiding the fixed locus of an
    order-m element match the n-set totals of the quotient variety.

    The quotient of each punctured ambient variety by its order-m
    automorphism is a variety of the same shape, so the stable counts are
    the same closed counts as in verify_counts, evaluated at n = (nm)/m.
    A second pass cross-checks raw stable totals against the generating
    function of the joint orbits of the element and Frobenius.
    """
    checks = 0
    for q in qs:
        ctx = ff.make_field(q, 1)
        for kind, m in _subtype_list(ctx):
            elem, _ = mb.subtype_representative(ctx, kind, m)
            for n in range(1, nmax // m + 1):
                st = ActionState(ctx, n * m)
                _, stable = st.kappa_stable(elem.mat)
                if kind == "B":
                    _, _, fixed = mb.fixed_points(elem, ctx)
                    _check(list(fixed) == [mb.INF], "quot: B fixes only infinity", q, m, fixed)
                    away = np.zeros(st.count, bool)
                    away[: st.n0] = True
                    want = q * a1(n, q)
                elif kind == "C":
                    _, _, fixed = mb.fixed_points(elem, ctx)
                    _check(set(fixed) == {mb.INF, mb.fin(0)}, "quot: C fixes 0 and infinity",
                           q, m, fixed)
                    away = np.zeros(st.count, bool)
                    away[: st.n0] = st.V[: st.n0, n * m] != 0
                    want = (q - 1) * a2(n, q)
                else:
                    mu = _fixed_pair_quadratic(elem, ctx)
                    away = ~_divisible_by_quadratic(st, mu)
                    want = (q + 1) * a0(n, q)
                got = int((stable & away).sum())
                _check(got == want, "quot: stable sets off the fixed locus", q, kind, m, n, got)
                checks += 1

    for q in qs:
        ctx = ff.make_field(q, 1)
        states = {n: ActionState(ctx, n) for n in range(1, strata_nmax + 1)}
        strata = [(ctx, None, [mb.INF] + [mb.fin(x) for x in range(q)])]
        for d in range(2, strata_nmax + 1):
            extd, embd = ff.extend(ctx, d)
            pts = []
            for x in range(extd.q):
                y = ff.frobenius(x, extd, q)
                size = 1
                while y != x:
                    y = ff.frobenius(y, extd, q)
                    size += 1
                if size == d:
                    pts.append(mb.fin(x))
            _check(len(pts) % d == 0, "quot: Frobenius orbits of size d", q, d, len(pts))
            strata.append((extd, embd, pts))
        for kind, m in _subtype_list(ctx):
            elem, _ = mb.subtype_representative(ctx, kind, m)
            sizes = []
            for ctxd, embd, pts in strata:
                q_here = ctxd.q
                pts_set = set(pts)
                visited: set[mb.ProjPoint] = set()
                for t0 in pts:
                    if t0 in visited:
                        continue
                    frontier = [t0]
                    visited.add(t0)
                    orb = 1
                    while frontier:
                        u = frontier.pop()
                        nbrs = [mb.act_point(elem.mat, u, ctxd, embd)]
                        if u.finite:
                            nbrs.append(mb.fin(ff.frobenius(u.x, ctxd, q)))
                        else:
                            nbrs.append(mb.INF)
                        for v in nbrs:
                            _check(v in pts_set, "quot: orbit stays in its stratum",
                                   q, kind, m, q_here, v)
                            if v not in visited:
                                visited.add(v)
                                frontier.append(v)
                                orb += 1
                    sizes.append(orb)
            ways = [1] + [0] * strata_nmax
            for sz in sizes:
                if sz > strata_nmax:
                    continue
                for j in range(strata_nmax, sz - 1, -1):
                    ways[j] += ways[j - sz]
            for n in range(1, strata_nmax + 1):
                st = states[n]
                _, stable = st.kappa_stable(elem.mat)
                got = int(stable.sum())
                _check(got == ways[n], "quot: stable total == orbit generating function",
                       q, kind, m, n, got)
                checks += 1
    return {"suite": "quot", "checks": checks}


def verify_points(qs=(3, 5), g: int = 2) -> dict:
    """Model-level sanity: smooth point counts are constant on orbits and
    equal q + 1 exactly on the self-dual classes (where the curve and its
    twist are isomorphic, and the two counts average to q + 1)."""
    checks = 0
    n = 2 * g + 2
    for q in qs:
        ctx = ff.make_field(q, 1)
        nonsq = next(x for x in range(1, q) if ff.chi(x, ctx) == -1)
        st = ActionState(ctx, n)
        lab1, lab2 = _partition(st)
        count = st.count
        smooth = np.empty(2 * count, np.int64)
        for i in range(count):
            s = st.nset_at(i)
            smooth[i] = curve_point_counts(ctx, 1, s)[1]
            smooth[i + count] = curve_point_counts(ctx, nonsq, s)[1]
        # every twisted node against the smallest node of its orbit
        off = np.flatnonzero(smooth != smooth[lab2])
        _check(len(off) == 0, "points: orbit-invariant point count", q, off[:1].tolist())
        checks += 2 * count
        for i in np.flatnonzero(lab1 == np.arange(count)).tolist():
            merged = bool(lab2[i] == lab2[i + count])
            _check(merged == selfdual_nset(st.nset_at(i), ctx), "points: sd", q, i)
            _check(not merged or smooth[i] == q + 1, "points: q + 1", q, i)
            checks += 1
    return {"suite": "points", "checks": checks}


SUITES = {
    "eps": verify_epsilon,
    "counts": verify_counts,
    "norm": verify_norm,
    "orbit_lemma": verify_orbit_lemma,
    "cocycle": verify_cocycle,
    "quot": verify_quotient,
    "points": verify_points,
}


def verify_suite(name: str, **kwargs) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
