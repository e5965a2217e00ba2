"""Exhaustive verification engine for the census formulas.

Every rational n-set is a canonical binary-form coefficient row; a 2x2
matrix acts on all rows at once, a column of exact int codes at a time
(ActionState._image_col, one field.dot over the columns of V).  The two
counts read different primitives.  The orbit census labels the graph of
the three generators' row permutations (dest_flip), over two row sets
and never all rows: P, the n-sets with no rational point (rootless_mask
marks their f), under all three generators, and R, the n-sets through
infinity, under x + 1, x -> zeta x and x -> 1/x taken from R0, the sets
through 0 and infinity.  PGL2 keeps the number of rational points, and
by the Bruhat decomposition PGL2 = B u BwB (B the stabilizer of infinity,
w = x -> 1/x) every orbit with a rational point meets R in one class of
those edges, so the counts of P and R add up (orbit_census).  Each row
set is an ActionState built from the block masks it is given.  Two of
the generators, x + 1 and x -> zeta x, fix infinity, so their kappa is
one constant per block of rows (avoiding infinity, through it): dest_flip
folds 1/kappa into the substitution rows once per block and reads the
row codes straight off the image columns; only x -> 1/x divides by kappa
row by row.
Burnside reads the rows that one representative of each of the q + 2
conjugacy classes of PGL2 (moebius.conjugacy_classes) fixes off the
eigenspaces of its substitution matrix, and weights them by class size.
ActionState.fixed_rows finds those eigenspaces for a whole stack of
matrices with one field.kernels call and looks their normalized vectors
up as rows, so it never scans V; Burnside reads dest_flip only to
cross-check the generators' fixed rows.
Nothing reuses the closed formulas: agreement with census.hyp /
census.sd is the independent evidence.

The twisted census tracks pairs (twist class, n-set); an edge flips the
class when the substitution multiplier is a nonsquare.  One min-label pass
carries that class as a parity bit per row (c = 2 label + bit): it labels
each n-set orbit by its smallest row, and an orbit is self-dual (its two
twist classes merge) when some generator edge contradicts the bits.  Its
rounds take the generator minima and jump each pointer once, and stop as
soon as the labels agree across every generator edge.
It is the one orbit primitive: verify_points reads its twisted keys, and
verify_quotient labels, with no twist, the joint orbits of an element and
Frobenius on the points of P^1 over each extension, both maps vectorized
over the extension's log tables (_point_images).
The suites that read twist signs (eps, cocycle, points) take them in bulk
from multiplier.epsilons and multiplier.epsilon_closed_forms, the batched
views of the per-pair sweep and closed form, which stay as references:
one call per batch of (element, n-set) pairs.  Stabilizers take one
path: _stabilizer_signs gives the (form, element, sign) memberships of a
batch of forms from one stabilizer_masks and one epsilons call, and
_sign_homomorphisms checks in one product-table gather that the sign is
multiplicative on each group of members, whatever its source.  The
cocycle suite holds its random triples, GL2(F_3) and its stabilizer test
sets as code arrays (matrix entries, form rows) from the draw to the
check, and builds matrix and n-set objects only to name a failure.  The
suites that need fixed n-sets (eps, counts, cocycle, quot) read them from one
fixed_rows call per ActionState.  The counts and quot suites check them
against the census rule for fixed n-sets: the rows holding none of an
element's fixed points, from one stacked nset.fixed_point_counts call
per ActionState, against free_count.
The suites share their engine data within a process.  action_state(ctx,
n) caches one ActionState per (field, n), at most 32 like squarefree_mask,
and each state memoizes (shared_fixed_rows) the fixed rows of the two
stacks several suites read: every nonidentity element of enumerate_pgl,
and the subtype representatives.  V, the row table and the memoized
arrays are read-only, so no suite can change what the next one reads.
After the seven suites at small arguments (the benchmark's verify pass)
the cache holds 16 states in 10 MB of arrays; after counts at its
default arguments, 24 states in 151 MB, 122 MB of it F_7 at n = 8.
action_state.cache_clear() frees all of it.  A single suite in a fresh
process (one `hypcensus verify` command) builds what it built before;
orbit_census and burnside_hyp build their own states and free them.
A suite builds the field of each q it is given as
make_field(*factor_prime_power(q)), so it runs the same code for every
odd prime power q and refuses any other q.
Engine invariants and the checks of verify_suite() (multiplier, fixed
counts, norm and orbit lemmas, cocycle, quotients, point counts) raise
VerificationError naming the check, so `python -O` keeps them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import field as ff
from . import moebius as mb
from . import multiplier as mult
from . import nset as ns
from .census import (
    DEFAULT_BUDGET,
    SUITE_NAMES,
    a_p1,
    factor_prime_power,
    free_count,
    plain_fixed_count,
    subtypes,
    twisted_fixed_count,
    VerificationError,
)
from .moebius import GlMatrix


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


def _digits(q: int, d: int, j: int, dtype) -> np.ndarray:
    """Digit j (the x^j coefficient) of every code 0 .. q**d - 1, without
    division: arange(q) broadcast to shape (q**(d-1-j), q, q**j), whose C
    order is code order."""
    shape = (q ** (d - 1 - j), q, q**j)
    return np.broadcast_to(np.arange(q, dtype=dtype)[:, None], shape).ravel()


@functools.lru_cache(maxsize=32)
def squarefree_mask(ctx: ff.FieldCtx, d: int) -> np.ndarray:
    """Read-only mask over monic degree-d polynomials in code order.

    Sieve: every monic with a repeated factor is g**2 * h for monic g of
    some degree k >= 1 and monic h of degree d - 2k, so mark those codes
    and negate.  Per k, the coefficients of g**2 come from the digit
    columns of all q**k polynomials g at once, and the code of g**2 * h
    is accumulated by Horner over an outer product of all (g, h) pairs, each
    coefficient one field.dot: the Python loops run over degrees and
    coefficient positions only.  Cached, since the suites build engines for
    the same few (q, n) again and again.
    """
    q = ctx.q
    if d <= 1:
        mask = np.ones(q**d, dtype=bool)
        mask.flags.writeable = False
        return mask
    itype = np.int32 if q**d < 2**31 else np.int64  # the codes
    seen = np.zeros(q**d, dtype=bool)
    for k in range(1, d // 2 + 1):
        hdeg = d - 2 * k
        g = [_digits(q, k, j, itype)[:, None] for j in range(k)] + [1]
        h = [_digits(q, hdeg, j, itype) for j in range(hdeg)] + [1]
        g2 = [ff.dot(ctx, [(g[a], g[i - a]) for a in range(max(0, i - k), min(i, k) + 1)])
              for i in range(2 * k)] + [1]
        code = np.zeros((), itype)  # Horner in itype, not in the int16 of extension gathers
        for m in reversed(range(d)):
            code = code * q + ff.dot(ctx, [(g2[i], h[m - i])
                                           for i in range(max(0, m - hdeg), min(2 * k, m) + 1)])
        seen[code] = True
    mask = ~seen
    _check(int(mask.sum()) == q**d - q ** (d - 1), "squarefree count", q, d)
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=32)
def rootless_mask(ctx: ff.FieldCtx, d: int) -> np.ndarray:
    """Read-only mask over monic degree-d polynomials in code order: f has
    no root in F_q.

    For every a in F_q and every choice of the upper digits, exactly one
    constant digit makes f(a) = 0: minus a times the Horner value of the
    upper digits at a.  Horner runs top digit first, one field.dot a digit,
    over the arrays [a, upper digits seen so far], so the marks cost about
    2 q**d entries in all.  Checked against inclusion-exclusion over the
    sets of k roots: sum_k (-1)**k C(q, k) q**(d - k).  Cached like
    squarefree_mask.
    """
    q = ctx.q
    a = np.arange(q, dtype=np.intp)[:, None, None]
    h = np.ones((q, 1), np.intp)  # [a, upper code]: the leading 1
    for _ in range(d - 1):  # h <- digit + a h, the new digit least significant
        h = ff.dot(ctx, ((1, np.arange(q)), (a, h[:, :, None]))).reshape(q, -1)
    seen = np.zeros(q**d, dtype=bool)
    if d:
        minus_a = ff.dot(ctx, ((ctx.p - 1, a[:, :, 0]),))
        seen[ff.dot(ctx, ((minus_a, h),)) + q * np.arange(q ** (d - 1))] = True
    mask = ~seen
    want = sum((-1) ** k * math.comb(q, k) * q ** (d - k) for k in range(min(q, d) + 1))
    _check(int(mask.sum()) == want, "rootless count", q, d)
    mask.flags.writeable = False
    return mask


class ActionState:
    """Every rational n-set over ctx as a canonical form row, with the
    vectorized matrix action.

    Row order: first the sets avoiding infinity (form coefficient 0
    equal to 1), then the rest (coefficients 0, 1 equal to 0, 1), each
    block in increasing code, the integer whose base-q digits are the
    non-leading coefficients of f (constant coefficient least
    significant).  The tests hold it against a plain enumeration of the
    monic squarefree f.  V[r, i] is the X^(n-i) Z^i coefficient of row r;
    V is stored column-major, since the action reads it a column at a time.

    V is filled a column at a time from the sieve, with no division: in
    code order, digit j runs through arange(q) in runs of q**j codes, so
    its column repeats each digit as often as the sieve keeps codes in that
    run (a mask select for j = 0, run counts summed up level by level).

    masks, the codes each block keeps (over the q**n and q**(n-1) monic
    codes), defaults to the two squarefree masks, every n-set; the orbit
    census passes narrower ones to build a PGL2-invariant part of the rows,
    or the part one of its generators keeps.
    """

    def __init__(self, ctx: ff.FieldCtx, n: int, masks=None):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.ctx = ctx
        self.n = n
        self.tabs = ff.tables(ctx)
        q = ctx.q
        if masks is None:
            masks = squarefree_mask(ctx, n), squarefree_mask(ctx, n - 1)
        n0 = int(np.count_nonzero(masks[0]))
        count = n0 + int(np.count_nonzero(masks[1]))
        v = np.zeros((count, n + 1), np.int16, order="F")
        # row of each monic code; the sets through infinity at q**n + code
        row_of = np.full(q**n + q ** (n - 1), -1, np.int32)
        blocks = (slice(0, n0), slice(q**n)), (slice(n0, count), slice(q**n, None))
        ar = np.arange(q, dtype=np.int16)
        for lead, (mask, (rows, codes)) in enumerate(zip(masks, blocks)):
            if rows.start == rows.stop:  # a block the masks leave empty costs nothing
                continue
            v[rows, lead] = 1
            runs = mask  # sieved codes in each run of q**j codes that share digit j
            for j in range(n - lead):  # the x^j coefficient is column n - j
                digit = np.tile(ar, len(runs) // q)
                v[rows, n - j] = digit[runs] if j == 0 else np.repeat(digit, runs)
                runs = runs.reshape(-1, q).sum(1)
            row_of[codes][mask] = np.arange(rows.start, rows.stop, dtype=np.int32)
        v.flags.writeable = row_of.flags.writeable = False
        self.n0 = n0
        self.count = count
        self.V = v
        self._row_of = row_of
        self._shared: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def nset_at(self, i: int) -> ns.RationalNSet:
        row = self.V[i]
        n = self.n
        if i < self.n0:
            return ns.RationalNSet(tuple(int(row[n - j]) for j in range(n + 1)), False)
        return ns.RationalNSet(tuple(int(row[n - j]) for j in range(n)), True)

    def _image_col(self, rows, trow) -> np.ndarray:
        """Image coefficient sum_k trow[k] V[rows, k] of the given rows (a
        slice or an index array), as codes; trow is one row of
        nset.substitution_matrix, and never all zero.  One field.dot, which
        reads the columns of the nonzero coefficients only."""
        v = self.V
        return ff.dot(self.ctx, ((c, v[rows, k]) for k, c in enumerate(trow) if c))

    def apply(self, mat: GlMatrix) -> np.ndarray:
        """Image form rows under nset.substitution_matrix, the matrix
        act_form uses; entries are codes, each column from _image_col."""
        t = ns.substitution_matrix(self.ctx, mat, self.n)
        g = np.empty((self.count, self.n + 1), np.int16, order="F")
        for i, trow in enumerate(t):
            g[:, i] = self._image_col(slice(None), trow)
        return g

    def fixed_rows(self, mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(element, row, kappa) of every row fixed setwise by a matrix of
        the stack mats (entry codes (k, 4)), sorted by element and then by
        row: element indexes mats, and kappa (int16) is the image coefficient
        at the row's defining position.

        gamma fixes the n-set of form F with kappa lam exactly when
        T F = lam F, T = nset.substitution_matrices(gamma), so the fixed
        forms are the squarefree vectors of the eigenspaces ker(T - lam I),
        lam in F_q*.  One field.kernels call finds them for every (element,
        lam), and each basis vector is checked to satisfy T v = lam v.  A
        kernel's q^dim vectors are field.dot sums over the digits of their
        coordinates, at most count vectors a chunk; the one multiple of a
        form with F[0] = 1, or F[0] = 0 and F[1] = 1, is looked up in
        _row_of, where -1 marks a form that is not squarefree.  T = lam I
        fixes every row.
        """
        ctx, n, q = self.ctx, self.n, self.ctx.q
        m = n + 1
        mats = np.asarray(mats, np.intp).reshape(-1, 4)
        t = ns.substitution_matrices(ctx, mats, n)
        lam = np.arange(1, q)
        diag = np.arange(m)
        a = np.repeat(t[:, None], q - 1, axis=1)  # [element, lam - 1] = T - lam I
        a[..., diag, diag] = ff.dot(ctx, ((1, a[..., diag, diag]), (ctx.p - 1, lam[:, None])))
        basis, free = ff.kernels(ctx, a)
        residue = ff.dot(ctx, ((a[..., None, :, k], basis[..., :, None, k]) for k in range(m)))
        bad = np.argwhere(free & residue.any(-1))
        if len(bad):
            e, l, j = bad[0]
            _check(False, "fixed_rows: T v == lam v on every kernel basis vector",
                   q, n, mb.GlMatrix(*mats[e].tolist()), int(lam[l]), basis[e, l, j].tolist())
        dim = free.sum(-1)
        found = []
        for e, l in np.argwhere(dim == m):
            found.append((np.full(self.count, e), np.arange(self.count), np.full(self.count, lam[l])))
        weight = q ** np.arange(n - 1, -1, -1)  # of the form columns 1 .. n
        for d in range(1, m):
            which = np.argwhere(dim == d)
            if not len(which):
                continue
            kern = basis[free & (dim == d)[..., None]].reshape(-1, d, m)
            coords = [_digits(q, d, j, np.intp) for j in range(d)]
            step = max(1, self.count // q**d)
            for lo in range(0, len(kern), step):
                part = kern[lo : lo + step]
                f0, f1 = (ff.dot(ctx, ((coords[j], part[:, j, i, None]) for j in range(d)))
                          for i in (0, 1))
                k, c = np.nonzero((f0 == 1) | ((f0 == 0) & (f1 == 1)))
                code = ff.dot(ctx, ((coords[j][c], part[k, j, 1:].T) for j in range(d))).T @ weight
                code += np.where(f0[k, c] == 0, q**n - q ** (n - 1), 0)
                row = self._row_of[code]
                keep = row >= 0
                e, l = which[lo + k[keep]].T
                found.append((e, row[keep], lam[l]))
        if not found:
            return np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, np.int16)
        elem, rows, kappa = (np.concatenate(x) for x in zip(*found))
        order = np.lexsort((rows, elem))
        return elem[order], rows[order].astype(np.intp), kappa[order].astype(np.int16)

    def shared_fixed_rows(self, stack: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """fixed_rows of a stack the suites share, read-only and computed
        once per state: "nonidentity", every nonidentity element of
        enumerate_pgl in its order, or "subtypes", one representative per
        census.subtypes entry (_STACKS)."""
        hit = self._shared.get(stack)
        if hit is None:
            hit = self.fixed_rows(mb.mat_codes(el.mat for el in _STACKS[stack](self.ctx)))
            for a in hit:
                a.flags.writeable = False
            self._shared[stack] = hit
        return hit

    def kappa_stable(self, mat: GlMatrix) -> tuple[np.ndarray, np.ndarray]:
        """fixed_rows of the one matrix as per-row arrays: kappa (int16, 0
        off the stable rows) and the mask of the rows fixed setwise."""
        _, rows, kap = self.fixed_rows(mb.mat_codes([mat]))
        kappa = np.zeros(self.count, np.int16)
        kappa[rows] = kap
        stable = np.zeros(self.count, bool)
        stable[rows] = True
        return kappa, stable

    def dest_flip(self, mat: GlMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Row permutation of the action (int32) and the twist-flip mask.

        kappa is image column 0, or 1 through infinity; the code of the
        image over kappa is accumulated a column at a time (Horner in q).
        The flip is chi(multiplier) = -1, for even n the class of kappa.

        An element with c = 0 fixes infinity and T is lower triangular, so
        kappa is the constant T[0][0] on the rows avoiding infinity and
        T[1][1] on the rows through it: 1 / kappa is folded into the rows
        of T once per block, whose image columns are then the code digits.
        """
        q, n = self.ctx.q, self.n
        if n % 2:
            raise ValueError(f"twist transport is defined for even n, got {n}")
        if len(self._row_of) > 2**31:
            raise ValueError(f"q = {q}, n = {n} overflows the int32 row codes")
        ctx, t = self.ctx, ns.substitution_matrix(self.ctx, mat, n)
        if mat.c:
            col0, col1 = (self._image_col(slice(None), trow) for trow in t[:2])
            kap = np.where(col0 != 0, col0, col1)
            _check(kap.all(), "the image of an n-set must be an n-set", mat)
            mul = self.tabs.MUL.ravel()
            row = self.tabs.INV[kap].astype(np.int32) * q  # MUL row of 1 / kappa
            code = mul[row + col1].astype(np.int32)  # 1 on the images through infinity
            for trow in t[2:]:
                code *= q
                code += mul[row + self._image_col(slice(None), trow)]
            # codes through infinity drop that 1 and start at q**n in _row_of
            np.add(code, q**n - q ** (n - 1), out=code, where=col0 == 0)
            flip = self.tabs.CHI[kap] == -1
        else:
            code, flip = np.empty(self.count, np.int32), np.empty(self.count, bool)
            for lead, rows in enumerate((slice(0, self.n0), slice(self.n0, self.count))):
                kap = t[lead][lead]
                _check(kap, "the image of an n-set must be an n-set", mat)
                over = self.tabs.MUL[ff.inv(ctx, kap)]  # the MUL row of 1 / kappa
                scaled = over[np.array(t[lead + 1 :])].tolist()
                part = code[rows]
                part[:] = self._image_col(rows, scaled[0])
                for trow in scaled[1:]:
                    part *= q
                    part += self._image_col(rows, trow)
                part += lead * q**n  # the rows through infinity from q**n on
                flip[rows] = self.tabs.CHI[kap] == -1
        dest = self._row_of[code]
        _check((dest >= 0).all(), "the image of an n-set must be a canonical row", mat)
        return dest, flip


@functools.lru_cache(maxsize=32)
def action_state(ctx: ff.FieldCtx, n: int) -> ActionState:
    """The one ActionState of (ctx, n) that every suite reads, with its
    shared_fixed_rows memo.  Cached like squarefree_mask, whose masks it
    is built from; action_state.cache_clear() frees the states.  The
    engines (orbit_census, burnside_hyp) build their own and free them."""
    return ActionState(ctx, n)


def _nonidentity(ctx: ff.FieldCtx) -> list[mb.MoebiusElem]:
    return [el for el in mb.enumerate_pgl(ctx) if el.kind != "identity"]


def _subtype_reps(ctx: ff.FieldCtx) -> list[mb.MoebiusElem]:
    return [mb.subtype_representative(ctx, kind, m)[0] for kind, m in subtypes(ctx.q)]


_STACKS = {"nonidentity": _nonidentity, "subtypes": _subtype_reps}


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


def burnside_hyp(g: int, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """hyp(g, q) by Burnside's lemma over the conjugacy classes of PGL2.

    An element fixes both twisted pairs over an n-set it stabilizes with
    chi(kappa) = 1 and neither otherwise.  That count is a class function
    (conjugation moves the stable rows and keeps the sign), so the fixed
    rows of one representative per class, weighted by the class size, do
    the sum.  The generators stand for their own classes, and their fixed
    rows are checked against the row permutations the orbit census reads;
    one fixed_rows call serves the generators and the other classes.
    """
    check_budget(g, q, budget)
    ctx = ff.make_field(*factor_prime_power(q))
    st = ActionState(ctx, 2 * g + 2)
    chi = st.tabs.CHI
    gens = _generators(ctx)
    mats, index = list(gens), {}  # class key -> position of its representative in mats
    for i, mat in enumerate(gens):
        index.setdefault(mb.class_key(ctx, mat), i)
    classes = mb.conjugacy_classes(ctx)
    for key, (rep, _) in classes.items():
        if key not in index:
            index[key] = len(mats)
            mats.append(rep)
    elem, rows, kappa = st.fixed_rows(mb.mat_codes(mats))
    for i, mat in enumerate(gens):  # the fixed rows are the stable ones, flipped where chi(kappa) = -1
        mine = elem == i
        dest, flip = st.dest_flip(mat)
        _check(np.array_equal(np.flatnonzero(dest == np.arange(st.count)), rows[mine]),
               "fixed rows", mat)
        _check(np.array_equal(flip[rows[mine]], chi[kappa[mine]] < 0), "flip", mat)
    fixed = np.bincount(elem[chi[kappa] == 1], minlength=len(mats))
    total = sum(size * 2 * int(fixed[index[key]]) for key, (_, size) in classes.items())
    order = q**3 - q
    _check(total % order == 0, "fixed-pair total divisible by |PGL2|", g, q, total)
    return total // order


def _parity_labels(acts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One min-label pass over the rows permuted by the (dest, flip) pairs
    of acts, e.g. dest_flip of the generators, that also carries the twist.

    c[i] = 2 L + b (int32) says that (twist 0, row i) and (twist b, row L)
    share a twisted orbit.  An edge i -> dest[i] with flip f makes
    c[dest[i]] ^ f valid for c[i] too, and c[L] ^ b jumps the pointer, so
    each round takes those minima and then jumps once, and c stays valid
    with L <= i.  The rounds stop as soon as L = c >> 1 agrees across every
    generator edge: generators permute rows in cycles, so L is then
    constant on each orbit and, being a member no larger than any row of
    it, the orbit's smallest row r.  An orbit is merged (one twisted orbit)
    iff no twist bit fits every edge: iff some generator edge in it has
    c[i] != c[dest[i]] ^ f; elsewhere the bits are the one colouring with
    b = 0 at r.  Each dest must permute the rows, or the rounds may never
    end: that is checked first.  Returns L and the twisted orbit keys 2 L + b
    of (twist 0, i) and (twist 1, i), with b = 0 on merged orbits."""
    c = np.arange(0, 2 * len(acts[0][0]), 2, dtype=np.int32)
    for dest, _ in acts:
        _check(len(dest) == len(c) and (np.bincount(dest, minlength=len(c)) == 1).all(),
               "every generator permutes the rows")
    while True:
        for dest, flip in acts:
            c = np.minimum(c, c.take(dest) ^ flip)
        c = c.take(c >> 1) ^ (c & 1)
        lab = c >> 1
        if all(np.array_equal(lab, lab.take(dest)) for dest, _ in acts):
            break
    merged = np.zeros(len(c), bool)
    for dest, flip in acts:
        off = c ^ c.take(dest) ^ flip  # 1 where the twist bits disagree
        merged[lab[off == 1]] = True
    m = merged[lab]
    key0 = np.where(m, c & ~1, c)
    return lab, key0, key0 ^ ~m


def _orbit_labels(perms) -> np.ndarray:
    """Smallest-member orbit labels of the group the int32 permutations
    generate: _parity_labels with no twist."""
    return _parity_labels([(p, np.zeros(len(p), bool)) for p in perms])[0]


def _pointless_acts(ctx: ff.FieldCtx, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """dest_flip of the three generators on P, the n-sets with no rational
    point: they avoid infinity and f has no root in F_q.  PGL2 keeps the
    number of rational points, so P is a union of orbits."""
    none = np.zeros(ctx.q ** (n - 1), bool)
    st = ActionState(ctx, n, (squarefree_mask(ctx, n) & rootless_mask(ctx, n), none))
    return [st.dest_flip(mat) for mat in _generators(ctx)]


def _infinity_acts(ctx: ff.FieldCtx, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(dest, flip) on R, the n-sets through infinity: x + 1 and x -> zeta x,
    which keep R, and x -> 1/x on R0, the sets through 0 and infinity,
    which it keeps, embedded in R as the identity with flip 0 elsewhere."""
    q = ctx.q
    none, through = np.zeros(q**n, bool), squarefree_mask(ctx, n - 1)
    at0 = np.zeros_like(through)
    at0[::q] = through[::q]  # constant coefficient 0: f(0) = 0
    shift, scale, invert = _generators(ctx)
    st = ActionState(ctx, n, (none, through))
    acts = [st.dest_flip(shift), st.dest_flip(scale)]
    emb = st._row_of[q**n + np.flatnonzero(at0)]  # the R row of each R0 row
    del st
    dest0, flip0 = ActionState(ctx, n, (none, at0)).dest_flip(invert)
    dest = np.arange(len(acts[0][0]), dtype=np.int32)
    dest[emb] = emb[dest0]
    flip = np.zeros(len(dest), bool)
    flip[emb] = flip0
    return [*acts, (dest, flip)]


def _orbit_counts(acts) -> tuple[int, int, int]:
    """(n-set classes, twisted orbits, merged classes) of the rows that the
    (dest, flip) pairs acts join, from one _parity_labels pass: the classes
    are the self-labelled rows, the merged ones those whose two twisted keys
    are equal, and the twisted orbits the distinct keys."""
    lab, key0, key1 = _parity_labels(acts)
    count = len(lab)
    roots = np.flatnonzero(lab == np.arange(count))
    seen = np.zeros(2 * count, bool)  # one flag per key, none per node
    seen[key0] = seen[key1] = True
    return len(roots), int(np.count_nonzero(seen)), int(np.count_nonzero(key0[roots] == key1[roots]))


def orbit_census(g: int, q: int, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Orbit counts, summed over two PGL2-invariant row sets: P, the n-sets
    with no rational point (_pointless_acts), and R, those through infinity
    (_infinity_acts).

    Every orbit with a rational point meets R, since PGL2 is transitive on
    P^1(F_q), so the orbits are those of P and the classes of R.  Two sets
    S, S' of R lie in one orbit iff B = <x + 1, zeta x>, the stabilizer of
    infinity, and x -> 1/x on the sets through 0 and infinity (R0) join
    them: by the Bruhat decomposition PGL2 = B u BwB, w = x -> 1/x, and
    gamma S = S' with gamma = b1 w b2 puts both 0 and infinity in b2 S.
    The twist flips compose along that path by the cocycle law.  Each row
    set is built by its own ActionState and labelled by its own
    _parity_labels pass; the full rows are never built, and n_sets counts
    them from the squarefree masks."""
    check_budget(g, q, budget)
    ctx, n = ff.make_field(*factor_prime_power(q)), 2 * g + 2
    y = hyp_count = sd = 0
    for row_set in (_pointless_acts, _infinity_acts):
        classes, twisted, merged = _orbit_counts(row_set(ctx, n))
        y, hyp_count, sd = y + classes, hyp_count + twisted, sd + merged
    _check(hyp_count == 2 * y - sd, "hyp == 2y - merged", g, q, hyp_count, y, sd)
    count = sum(int(np.count_nonzero(squarefree_mask(ctx, d))) for d in (n, n - 1))
    return OracleResult(g=g, q=q, n_sets=count, nset_classes=y, hyp=hyp_count, sd=sd)


def selfdual_nset(s: ns.RationalNSet, ctx: ff.FieldCtx) -> bool:
    """Whether the two twist classes over the n-set fall in one orbit.

    That happens exactly when some setwise stabilizer element carries the
    sign -1, and the answer is constant on the orbit of the n-set.
    """
    return bool(_selfdual_forms(ctx, [ns.to_form(ctx, s)])[0])


def _stabilizer_signs(ctx: ff.FieldCtx, forms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (form, element, sign) memberships of the stabilizers of n-set
    forms (rows, n+1), grouped by form, each in enumerate_pgl order
    (element is the position there): one stabilizer_masks call finds every
    member and one multiplier.epsilons call signs them."""
    forms = np.asarray(forms)
    form, elem = np.nonzero(ns.stabilizer_masks(ctx, forms))
    codes = mb.mat_codes(el.mat for el in mb.enumerate_pgl(ctx))
    return form, elem, mult.epsilons(ctx, codes[elem], forms[form])


def _selfdual_forms(ctx: ff.FieldCtx, forms) -> np.ndarray:
    """selfdual_nset of many n-set forms (rows, n+1): the rows with a
    stabilizer member of sign -1 among their _stabilizer_signs."""
    form, _, signs = _stabilizer_signs(ctx, forms)
    return np.bincount(form[signs == -1], minlength=len(forms)) > 0


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


def smooth_point_counts(ctx: ff.FieldCtx, forms, lams) -> np.ndarray:
    """curve_point_counts' smooth count for many n-set forms (rows, n+1)
    and twist scalars at once, shape (rows, len(lams)).

    With T = sum over x in F_q of chi(f(x)), from one table of f over F_q,
    the affine count of y^2 = lam f(x) is q + chi(lam) T; over infinity
    sit one point when the set holds infinity and 1 + chi(lam) otherwise.
    """
    chi = ff.tables(ctx).CHI
    forms = np.asarray(forms)
    t = chi[ns.form_values(ctx, forms[:, None], np.arange(ctx.q))].sum(1, dtype=np.int64)
    c = chi[np.asarray(lams)].astype(np.int64)
    return ctx.q + t[:, None] * c + np.where(forms[:, :1] == 0, 1, 1 + c)


# ---------------------------------------------------------------------------
# verification suites


def verify_epsilon(qs=(3, 5), ns_list=(6, 8)) -> dict:
    """Every stable pair: engine sign == cocycle sweep == closed form.

    Per (q, n) the stable (element, row) pairs come from one fixed_rows
    call, their sweep signs from one multiplier.epsilons call, and their
    closed forms from one multiplier.epsilon_closed_forms call; a mismatch
    names the first failing pair in element order, then row order.
    """
    checks = 0
    for q in qs:
        ctx = ff.make_field(*factor_prime_power(q))
        elems = _nonidentity(ctx)
        codes = mb.mat_codes(el.mat for el in elems)
        for n in ns_list:
            st = action_state(ctx, n)
            pair_elem, rows, kappa = st.shared_fixed_rows("nonidentity")
            e0 = st.tabs.CHI[kappa]
            e2 = mult.epsilon_closed_forms(elems, pair_elem, st.V[rows], ctx)
            e1 = mult.epsilons(ctx, codes[pair_elem], st.V[rows])
            bad = np.flatnonzero((e0 != e1) | (e1 != e2))
            if len(bad):
                b = bad[0]
                _check(False, "eps: engine == sweep == closed form", q, n,
                       elems[pair_elem[b]].mat, st.nset_at(rows[b]),
                       (int(e0[b]), int(e1[b]), int(e2[b])))
            checks += len(rows)
    return {"suite": "eps", "checks": checks}


def verify_counts(qs=(3, 5, 7), nmax=8) -> dict:
    """n-set totals of the four ambient varieties and per-subtype fixed
    counts, all against the closed counting polynomials."""
    checks = 0
    for q in qs:
        ctx = ff.make_field(*factor_prime_power(q))
        kinds = subtypes(q)
        reps = _subtype_reps(ctx)
        rep_of = {kind: rep for (kind, _), rep in zip(kinds, reps)}  # any one of the kind
        ambient = (("B", "the affine line"), ("C", "the torus"), ("A", "the punctured line"))
        ambient_codes = mb.mat_codes(rep_of[kind].mat for kind, _ in ambient)[:, None]
        for n in range(1, nmax + 1):
            st = action_state(ctx, n)
            # the line, then the affine line, the torus and the line minus
            # a conjugate quadratic pair, each off the fixed locus of an
            # element of the kind: the quotient check at m = 1
            _check(st.count == a_p1(n, q), "counts: the line", q, n, st.count)
            off = np.count_nonzero(ns.fixed_point_counts(ctx, ambient_codes, st.V) == 0, 1)
            for (kind, name), got in zip(ambient, off.tolist()):
                _check(got == free_count(q, kind, n), f"counts: {name}", q, n, got)
            checks += 4
            if n < 3:
                continue
            plain, twisted = _fixed_tallies(st, "subtypes", len(kinds))
            for i, (kind, m) in enumerate(kinds):
                _check(plain[i] == plain_fixed_count(q, n, kind, m), "counts: plain fixed",
                       q, n, kind, m, plain[i])
                checks += 1
                if n % 2 == 0 and n >= 4:
                    _check(twisted[i] == twisted_fixed_count(q, n, kind, m),
                           "counts: twisted fixed", q, n, kind, m, twisted[i])
                    checks += 1
        # fixed tallies depend only on the subtype, not the element
        if q <= 5 and nmax >= 6:
            elems = _nonidentity(ctx)
            tallies: dict[tuple[str, int], set] = {}
            for elem, tally in zip(elems, zip(*_fixed_tallies(action_state(ctx, 6), "nonidentity",
                                                              len(elems)))):
                tallies.setdefault((elem.kind, elem.order), set()).add(tally)
            for key, vals in tallies.items():
                _check(len(vals) == 1, "counts: one tally per subtype", q, key, vals)
                checks += 1
    return {"suite": "counts", "checks": checks}


def _fixed_tallies(st: ActionState, stack: str, size: int) -> tuple[list[int], list[int]]:
    """Per element of a shared stack of size elements, from its
    shared_fixed_rows: the number of stable rows and twice the number with
    chi(kappa) = 1, the plain and twisted fixed counts."""
    elem, _, kappa = st.shared_fixed_rows(stack)
    plain = np.bincount(elem, minlength=size)
    square = np.bincount(elem[st.tabs.CHI[kappa] == 1], minlength=size)
    return plain.tolist(), (2 * square).tolist()


def verify_norm(qs=(3, 5, 7, 9, 11, 13)) -> dict:
    """Norm criterion for every nonzero element of each quadratic extension."""
    checks = 0
    for q in qs:
        ctx = ff.make_field(*factor_prime_power(q))
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
        ctx = ff.make_field(*factor_prime_power(q))
        ext2, _ = ff.extend(ctx, 2)
        allpts = [mb.INF] + [mb.fin(x) for x in range(ext2.q)]
        for m in (m for kind, m in subtypes(q) if kind == "A"):
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


def _random_codes(rng: random.Random, q: int, count: int) -> list[int]:
    """count draws of rng.randrange(q), made as randrange makes them (the
    loop of CPython's _randbelow_with_getrandbits): getrandbits of the bit
    length of q, drawn again while it is q or more.  The values and the
    state of rng after them are randrange's."""
    bits, width, out = rng.getrandbits, q.bit_length(), []
    for _ in range(count):
        r = bits(width)
        while r >= q:
            r = bits(width)
        out.append(r)
    return out


def _random_gl(rng: random.Random, ctx: ff.FieldCtx) -> list[int]:
    """Entry codes a, b, c, d drawn until ad != bc, the determinant nonzero."""
    while True:
        a, b, c, d = abcd = _random_codes(rng, ctx.q, 4)
        if ff.mul(ctx, a, d) != ff.mul(ctx, b, c):
            return abcd


def _random_nset(rng: random.Random, q: int, masks) -> tuple[int, ...]:
    """The form row of an n-set through infinity when rng.random() < 0.5,
    its lower coefficients drawn until masks[has_inf] keeps them: the
    squarefree mask of degree n - has_inf, shaped (q,) * degree so that the
    coefficients, highest first, index it, as they stand in the form."""
    while True:
        has_inf = rng.random() < 0.5
        mask = masks[has_inf]
        high_first = tuple(reversed(_random_codes(rng, q, mask.ndim)))
        if mask[high_first]:
            return (0,) * has_inf + (1, *high_first)


def _random_triples(rng: random.Random, ctx: ff.FieldCtx, n: int, count: int):
    """count (gam, rho, S) triples of verify_cocycle, drawn in that order,
    as the code arrays gam (count, 4), rho (count, 4) and the n-set forms
    (count, n+1), with the two squarefree masks of n-sets over ctx
    resolved once."""
    masks = [squarefree_mask(ctx, d).reshape((ctx.q,) * d) for d in (n, n - 1)]
    draws = np.array([(*_random_gl(rng, ctx), *_random_gl(rng, ctx),
                       *_random_nset(rng, ctx.q, masks)) for _ in range(count)], np.intp)
    draws = draws.reshape(count, 8 + n + 1)
    return draws[:, :4], draws[:, 4:8], draws[:, 8:]


# highly symmetric sets, so the stabilizers are large: (f, has_inf)
_STAB_TEST_SETS = {
    3: (((1, 0, 1, 0, 1, 0, 1), False),  # the six quadratic points
        ((0, 1, 0, 1, 0, 1, 0, 1), True)),  # plus 0, inf
    5: (((0, 4, 0, 0, 0, 1), True),  # x^5 - x: all of P^1
        ((0, 3, 0, 4, 0, 2, 0, 1), True)),  # (x^5 - x)(x^2 + 2): plus a pair
    7: (((6, 0, 0, 0, 0, 0, 1), False),  # sixth roots of unity
        ((0, 6, 0, 0, 0, 0, 0, 1), True)),  # all of P^1
}


def _stab_test_sets(q: int, ctx: ff.FieldCtx) -> list[ns.RationalNSet]:
    if q not in _STAB_TEST_SETS:
        raise ValueError(f"no stabilizer test sets for q = {q}")
    return [ns.make_nset(ctx, f, has_inf) for f, has_inf in _STAB_TEST_SETS[q]]


def verify_cocycle(
    seed: int = 0,
    triples: int = 5000,
    hom_exhaustive=((3, 6), (3, 8), (5, 6), (7, 6)),
    hom_sampled=((5, 8), (7, 8)),
) -> dict:
    """Cocycle law, conjugation invariance and multiplicativity of the sign.

    The multiplier satisfies J(ab, S) = J(b, S) J(a, bS) exactly at the
    matrix level, no stability needed; the sign is conjugation invariant
    on stabilizers and multiplicative on each stabilizer subgroup.  The
    cocycle law is checked in batches (multiplier.kappa_multipliers): every
    PGL2(F_3) pair on all five sample sets in one batch, and the random
    triples in one batch per field.  _random_triples draws them one by one
    from rng.getrandbits, the loop rng.randrange runs, so the triples of a
    seed and the final state of rng are randrange's; it returns them as
    code arrays (matrix entries, n-set forms), and only a failing triple
    is rebuilt as matrices and an n-set to name it.  The 48 elements of
    GL2(F_3) and their adjugates are code arrays too, and the 8 x 48
    conjugation pairs are one multiplier.epsilons call.  The stabilizers
    come with their signs from _stabilizer_signs, one call per set and
    one per hom_sampled (q, n); hom_exhaustive reads them off the shared
    "nonidentity" fixed rows, the rows in order of their first stabilizing
    element.  Each set and each (q, n) is one _sign_homomorphisms call,
    and the closed forms on each test set (_STAB_TEST_SETS) one
    multiplier.epsilon_closed_forms call.  The (q, n) pairs of
    hom_exhaustive and hom_sampled take any odd prime power q and an even
    n only, since the twist sign is defined for even n.
    """
    if triples < 0:
        raise ValueError(f"triples must be >= 0, got {triples}")
    if any(n % 2 for _, n in (*hom_exhaustive, *hom_sampled)):
        raise ValueError("epsilon is defined for even n only")
    checks = 0
    k3 = ff.make_field(3, 1)
    pgl3 = mb.enumerate_pgl(k3)
    st3 = action_state(k3, 6)
    sample = [st3.nset_at(i) for i in range(4)]  # the first rows, in row order
    special = ns.make_nset(k3, ff.pmul(k3, (0, 2, 0, 1), (1, 0, 1)), True)
    sample.append(special)
    # every (set, rho, gam) triple in one batch, [s, r, g] = (S_s, rho_r, gam_g)
    g3 = mb.mat_codes(el.mat for el in pgl3)
    forms = np.array([ns.to_form(k3, s) for s in sample])[:, None, None]
    bad = np.argwhere(_cocycle_defects(k3, g3, g3[:, None], forms))
    if len(bad):
        s, r, g = bad[0]
        _check(False, "cocycle: cocycle law", sample[s], pgl3[r].mat, pgl3[g].mat)
    checks += len(sample) * len(g3) ** 2

    # random triples, drawn one at a time and checked in one batch per field
    rng = random.Random(seed)
    for q in (5, 7):
        k = ff.make_field(q, 1)
        gam, rho, forms = _random_triples(rng, k, 6, triples)
        bad = np.flatnonzero(_cocycle_defects(k, gam, rho, forms))
        if len(bad):
            b = bad[0]
            _check(False, "cocycle: cocycle law, random triple", q, GlMatrix(*gam[b].tolist()),
                   GlMatrix(*rho[b].tolist()), ns.from_form(k, forms[b].tolist())[0])
        checks += triples

    # conjugation moves a stabilizing element to the image set, same sign
    form = ns.to_form(k3, special)
    _, stab, base_eps = _stabilizer_signs(k3, [form])
    _check(len(stab) == 8, "cocycle: stabilizer order", special, len(stab))
    # GL2(F_3): the 2 x 2 matrices whose product with the adjugate
    # (d, -b, -c, a), det times the identity, is nonzero
    mats = np.array(list(itertools.product(range(3), repeat=4)))
    adj = ff.dot(k3, ((mats[:, [3, 1, 2, 0]], (1, 2, 2, 1)),))  # 2 = -1
    gl3 = mb.mat_mul_codes(k3, mats, adj)[:, 0] != 0
    _check(gl3.sum() == 48, "cocycle: |GL2(F_3)|", int(gl3.sum()))
    # [g, r] = (gam_g, rho_r): rho gam rho^-1 on rho S against gam on S, one batch
    rho, adj, gam = mats[gl3], adj[gl3], g3[stab]
    conj = mb.mat_mul_codes(k3, mb.mat_mul_codes(k3, rho, gam[:, None]), adj)
    images, _ = ns.act_forms(k3, ns.substitution_matrices(k3, rho, special.n), form)
    bad = np.argwhere(mult.epsilons(k3, conj, images) != base_eps[:, None])
    if len(bad):
        g, r = bad[0]
        _check(False, "cocycle: conjugation invariance", pgl3[stab[g]].mat,
               GlMatrix(*rho[r].tolist()))
    checks += conj.shape[0] * conj.shape[1]

    # epsilon restricted to a stabilizer is a homomorphism to {1, -1}
    for q in (3, 5, 7):
        ctx = ff.make_field(q, 1)
        pgl = mb.enumerate_pgl(ctx)
        for s in _stab_test_sets(q, ctx):
            form = ns.to_form(ctx, s)
            group, elems, signs = _stabilizer_signs(ctx, [form])
            _check(len(elems) > 1, "cocycle: nontrivial stabilizer", q, s)
            nonid = np.flatnonzero([pgl[i].kind != "identity" for i in elems])
            closed = mult.epsilon_closed_forms([pgl[i] for i in elems[nonid]],
                                               np.arange(len(nonid)), form, ctx)
            bad = nonid[signs[nonid] != closed]
            if len(bad):
                _check(False, "cocycle: closed form on a stabilizer", q, s, pgl[elems[bad[0]]].mat)
            checks += _sign_homomorphisms(ctx, group, elems, signs, lambda _: (q, s))

    # the same, over every stabilizer at once where the set space is small:
    # the engine's nonidentity memberships, rows by their first member
    for q, n in hom_exhaustive:
        ctx = ff.make_field(*factor_prime_power(q))
        st = action_state(ctx, n)
        at, rows, kappa = st.shared_fixed_rows("nonidentity")
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        order = np.argsort(first[inverse], kind="stable")  # each row's members stay in order
        nonid = np.flatnonzero([el.kind != "identity" for el in mb.enumerate_pgl(ctx)])
        checks += _sign_homomorphisms(ctx, rows[order], nonid[at[order]],
                                      st.tabs.CHI[kappa[order]], lambda r: (q, n, int(r)))

    # where it is not, full stabilizers of engine-picked stable sets
    for q, n in hom_sampled:
        ctx = ff.make_field(*factor_prime_power(q))
        st = action_state(ctx, n)
        elem, fixed, _ = st.shared_fixed_rows("subtypes")
        rows = [i for k in range(len(subtypes(q))) for i in fixed[elem == k][:20].tolist()]
        checks += _sign_homomorphisms(ctx, *_stabilizer_signs(ctx, st.V[rows]),
                                      lambda r: (q, n, st.nset_at(rows[r])))
    return {"suite": "cocycle", "checks": checks}


def _cocycle_defects(ctx: ff.FieldCtx, gam, rho, forms) -> np.ndarray:
    """Mask of J(gam rho, S) != J(rho, S) J(gam, rho S) over stacks of
    matrices gam and rho (entry codes) and n-set forms S, broadcast against
    each other as in multiplier.kappa_multipliers."""
    j_rho, images = mult.kappa_multipliers(ctx, rho, forms)
    left, _ = mult.kappa_multipliers(ctx, mb.mat_mul_codes(ctx, gam, rho), forms)
    j_gam, _ = mult.kappa_multipliers(ctx, gam, images)
    return left != ff.tables(ctx).MUL[j_rho, j_gam]


def _sign_homomorphisms(ctx: ff.FieldCtx, group, elems, signs, where) -> int:
    """sign(g h) == sign(g) sign(h) for every ordered pair of members of
    each group of the memberships (group, element, sign): element is an
    enumerate_pgl position, and each group's members are listed together.

    In a group the identity reads +1 unless it is a member, and every
    other non-member 0, so a product leaving the group fails as well.  One
    gather over the product table checks every pair; a failure names the
    first failing pair in listing order as where(group) + (g, h).  Returns
    the number of pairs.
    """
    table = mb.pgl_table(ctx)
    group, elems, signs = (np.asarray(a) for a in (group, elems, signs))
    start = np.flatnonzero(np.diff(group, prepend=group[:1] - 1))  # first member of each group
    size = np.diff(start, append=len(group))
    gid = np.repeat(np.arange(len(start)), size)  # group number of each membership
    sign_of = np.zeros((len(start), len(table.prod)), np.int8)  # 0 off the group
    sign_of[:, table.index[mb.IDENTITY]] = 1
    sign_of[gid, elems] = signs
    # every ordered pair (u, v) of memberships of one group
    reps = size[gid]
    u = np.repeat(np.arange(len(gid)), reps)
    v = np.repeat(start[gid], reps) + np.arange(len(u)) - np.repeat(np.cumsum(reps) - reps, reps)
    bad = np.flatnonzero(sign_of[gid[u], table.prod[elems[u], elems[v]]] != signs[u] * signs[v])
    if len(bad):
        pgl, b = mb.enumerate_pgl(ctx), bad[0]
        _check(False, "cocycle: homomorphism", *where(group[u[b]]),
               (pgl[elems[u[b]]].mat, pgl[elems[v[b]]].mat))
    return len(u)


def verify_quotient(qs=(3, 5), nmax=8, strata_nmax=4) -> dict:
    """Quotient counts: the stable nm-sets avoiding the fixed locus of an
    order-m element match the n-set totals of the quotient variety.

    The quotient of each punctured ambient variety by its order-m
    automorphism is a variety of the same shape, so the stable counts are
    the same closed counts as in verify_counts, evaluated at n = (nm)/m.
    A second pass cross-checks raw stable totals against the generating
    function of the joint orbits of the element and Frobenius.  Both passes
    run in one loop per q, on one field, subtype list and set of subtype
    representatives, and read one ActionState per (q, N) with one
    fixed_rows call on it for every representative.
    """
    checks = 0
    for q in qs:
        ctx = ff.make_field(*factor_prime_power(q))
        kinds = subtypes(q)
        reps = _subtype_reps(ctx)
        codes = mb.mat_codes(el.mat for el in reps)
        totals = {}  # N -> the stable N-sets of each subtype representative
        off = {}  # (subtype, n) -> its stable nm-sets off the fixed locus
        nm = {n * m for _, m in kinds for n in range(1, nmax // m + 1)}
        for size in sorted(nm | set(range(1, strata_nmax + 1))):
            st = action_state(ctx, size)
            elem, rows, _ = st.shared_fixed_rows("subtypes")
            totals[size] = np.bincount(elem, minlength=len(kinds)).tolist()
            if size > nmax:
                continue
            held = ns.fixed_point_counts(ctx, codes[elem], st.V[rows])
            free = np.bincount(elem[held == 0], minlength=len(kinds))
            for i, (_, m) in enumerate(kinds):
                if size % m == 0:
                    off[i, size // m] = int(free[i])
        for i, (kind, m) in enumerate(kinds):
            for n in range(1, nmax // m + 1):
                _check(off[i, n] == free_count(q, kind, n), "quot: stable sets off the fixed locus",
                       q, kind, m, n, off[i, n])
                checks += 1

        # P^1(F_{q^d}) per d, infinity at index q^d, with the Frobenius
        # permutation and the exact degree of each point: its Frobenius orbit size
        strata = []
        for d in range(1, strata_nmax + 1):
            ctxd, embd = (ctx, None) if d == 1 else ff.extend(ctx, d)
            exp, log = ff.log_arrays(ctxd)
            frob = np.where(log < 0, 0, exp[log * q % (ctxd.q - 1)])  # x -> x^q
            frob = np.append(frob, ctxd.q).astype(np.int32)
            lab = _orbit_labels([frob])
            deg = np.bincount(lab)[lab]
            _check((d % deg == 0).all(), "quot: Frobenius orbit sizes divide d", q, d)
            strata.append((d, ctxd, embd, frob, deg))
        for i, ((kind, m), elem) in enumerate(zip(kinds, reps)):
            sizes = []
            for d, ctxd, embd, frob, deg in strata:
                act = _point_images(ctxd, embd, elem.mat)
                _check((deg[act] == deg).all(), "quot: orbit stays in its stratum",
                       q, kind, m, d)
                # the joint orbits of exact degree d, each at its smallest point
                lab = _orbit_labels([frob, act])
                roots = (lab == np.arange(len(lab))) & (deg == d)
                sizes.extend(np.bincount(lab, minlength=len(lab))[roots].tolist())
            ways = [1] + [0] * strata_nmax
            for sz in sizes:
                if sz > strata_nmax:
                    continue
                for j in range(strata_nmax, sz - 1, -1):
                    ways[j] += ways[j - sz]
            for n in range(1, strata_nmax + 1):
                got = totals[n][i]
                _check(got == ways[n], "quot: stable total == orbit generating function",
                       q, kind, m, n, got)
                checks += 1
    return {"suite": "quot", "checks": checks}


def _point_images(ctx: ff.FieldCtx, emb, mat: GlMatrix) -> np.ndarray:
    """mb.act_point of mat on every point of P^1(ctx), infinity at index
    ctx.q, as one int32 permutation: x -> (a x + b) / (c x + d), the entries
    lifted by emb when it is not None.  Products and the quotient read
    field.log_arrays and the sums add base-p digits, so no q x q table is
    built: the quotient suite's extensions reach q**4 elements."""
    q, p = ctx.q, ctx.p
    exp, log = ff.log_arrays(ctx)
    a, b, c, d = (mat.a, mat.b, mat.c, mat.d) if emb is None else (
        emb[mat.a], emb[mat.b], emb[mat.c], emb[mat.d])
    x = np.arange(q)
    place = p ** np.arange(ctx.e)

    def affine(s, t):  # s x + t, the sum digit by digit
        sx = np.where(x == 0, 0, exp[log + log[s]]) if s else np.zeros(q, np.intp)
        return (sx[:, None] // place + t // place) % p @ place

    def over(u, v):  # u / v, and infinity (q) where v = 0
        return np.where(v == 0, q, np.where(u == 0, 0, exp[(log[u] - log[v]) % (q - 1)]))

    return over(np.append(affine(a, b), a), np.append(affine(c, d), c)).astype(np.int32)


def verify_points(qs=(3, 5), g: int = 2) -> dict:
    """Model-level sanity: smooth point counts are constant on orbits and
    equal q + 1 exactly on the self-dual classes (where the curve and its
    twist are isomorphic, and the two counts average to q + 1).

    The counts of every row and both twists come from one table of f over
    F_q (smooth_point_counts), and self-duality of every orbit root from
    one stabilizer and sign batch (_selfdual_forms).
    """
    checks = 0
    n = 2 * g + 2
    for q in qs:
        ctx = ff.make_field(*factor_prime_power(q))
        nonsq = next(x for x in range(1, q) if ff.chi(x, ctx) == -1)
        st = action_state(ctx, n)
        lab, key0, key1 = _parity_labels([st.dest_flip(mat) for mat in _generators(ctx)])
        count = st.count
        # twisted node i + count twists row i
        smooth = smooth_point_counts(ctx, st.V, (1, nonsq)).ravel(order="F")
        # every twisted node against the node its orbit key 2 L + b names
        keys = np.concatenate([key0, key1])
        off = np.flatnonzero(smooth != smooth[(keys >> 1) + (keys & 1) * count])
        _check(len(off) == 0, "points: orbit-invariant point count", q, off[:1].tolist())
        checks += 2 * count
        roots = np.flatnonzero(lab == np.arange(count))
        merged = key0[roots] == key1[roots]
        sd = _selfdual_forms(ctx, st.V[roots])
        for i, m, s in zip(roots.tolist(), merged.tolist(), sd.tolist()):
            _check(m == s, "points: sd", q, i)
            _check(not m or smooth[i] == q + 1, "points: q + 1", q, i)
            checks += 1
    return {"suite": "points", "checks": checks}


SUITES = dict(zip(SUITE_NAMES, (verify_epsilon, verify_counts, verify_norm, verify_orbit_lemma,
                                verify_cocycle, verify_quotient, verify_points), strict=True))


def verify_suite(name: str, **kwargs) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
