"""Exhaustive verification engine for the census formulas.

Every rational n-set is a canonical binary-form coefficient row, held as
its code split into two halves of digits; a 2x2 matrix acts on all rows
at once by table lookups on those halves (ActionState.dest_flip).  The two
counts read different primitives.  The orbit census labels the graph of
the three generators' row permutations (dest_flip), over two row sets
and never all rows: P, the n-sets with no rational point (rootless_mask
marks their f), under all three generators, and R, the n-sets through
infinity, under x + 1, x -> zeta x and x -> 1/x taken from R0, the sets
through 0 and infinity.  PGL2 keeps the number of rational points, and
by the Bruhat decomposition PGL2 = B u BwB (B the stabilizer of infinity,
w = x -> 1/x) every orbit with a rational point meets R in one class of
those edges, so the counts of P and R add up (orbit_census).  Each row
set is an ActionState built from the block masks it is given, which
holds each row's code as two int32 halves, the upper and the lower digits,
and fills no form rows.  The image of a row is the field sum of the
images of its two halves, so dest_flip looks the halves' images up, as
in the Method of Four Russians: per matrix and block, one field.dot gives
the image columns of every value of each half, scaled by 1/kappa and
packed one base-p digit a bit field into an int64 table entry, so that
one integer sum of two entries adds the images digit by digit, and a few
chunk tables decode it to the image's code.  Two of the generators,
x + 1 and x -> zeta x, fix infinity, so their kappa is one constant per
block of rows (avoiding infinity, through it) and the tables have one
row; x -> 1/x reads kappa row by row off the unscaled halves, and its
tables have a row per kappa.
Burnside reads the n-sets that one representative of each of the q + 2
conjugacy classes of PGL2 (moebius.conjugacy_classes) fixes off the
eigenspaces of its substitution matrix, and weights them by class size;
the identity fixes every row.  fixed_forms finds those eigenspaces for a
whole stack of nonidentity matrices with one field.kernels call and
returns their normalized vectors as forms, squarefree where the sieve
mask keeps their code, so it needs no ActionState; Burnside reads
dest_flip only to cross-check the rows of the generators' fixed forms
against the rows each generator fixes, and neither engine fills V.
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
suites that need fixed n-sets (eps, counts, cocycle, quot) read them as
forms from shared_fixed_forms, which memoizes fixed_forms of the two
stacks several suites read, every nonidentity element of enumerate_pgl
and the subtype representatives, per (field, n), at most 32 like
squarefree_mask, as read-only arrays, so no suite can change what the
next one reads.  The counts and quot suites check them against the
census rule for fixed n-sets: the forms holding none of an element's
fixed points, from one stacked nset.fixed_point_counts call, against
free_count.  The counts suite's ambient totals read every n-set, but a
block of rows at a time (_form_blocks, at most _ROW_BLOCK monic codes a
block, filled by the same _fill_rows as ActionState's V), and keep only
sums.
Only points (for its orbit labels, and its point counts, which read V)
builds an ActionState, one per (q, n),
and frees it when it is done with it; so do orbit_census and
burnside_hyp.  No state outlives its call: after the seven suites at
small arguments (the benchmark's verify pass) only the masks and the
fixed-form memo stay, and shared_fixed_forms.cache_clear() frees the
memo.  eps, quot and counts at F_9 hold no full n = 8 rows, only the
43 MB squarefree mask of degree 8, the fixed forms and, for counts, one
block.  A suite whose arguments leave it nothing to check (no field, no
degree) is refused with ValueError, since 0 checks would read as a pass.
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
from typing import NamedTuple

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


def _refuse_empty(suite: str, *sizes: tuple[str, int]) -> None:
    """Raise ValueError for the first (name, size) with size below 1 (a
    field count, a degree count or bound): a suite left nothing to check
    would pass with 0 checks."""
    for name, size in sizes:
        if size < 1:
            raise ValueError(f"suite {suite}: {name} = {size} leaves nothing to check")


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
    upper digits at a.  One root a at a time, Horner runs top digit first,
    one field.dot a digit, over the upper digits seen so far (int32 codes),
    and one scatter marks the q**(d - 1) codes with that root, so the
    temporaries stay at a few q**(d - 1) entries.  Checked against
    inclusion-exclusion over the sets of k roots:
    sum_k (-1)**k C(q, k) q**(d - k).  Cached like squarefree_mask.
    """
    q = ctx.q
    seen = np.zeros(q**d, dtype=bool)
    if d:
        itype = np.int32 if q**d < 2**31 else np.int64
        upper = np.arange(0, q**d, q, dtype=itype)  # the codes with constant digit 0
        digit = np.arange(q, dtype=itype)
        for a in range(q):
            h = np.ones(1, itype)  # the upper code's value at a: the leading 1
            for _ in range(d - 1):  # h <- digit + a h, the new digit least significant
                h = ff.dot(ctx, ((1, digit), (a, h[:, None]))).ravel()
            seen[ff.dot(ctx, ((ff.neg(ctx, a), h),)) + upper] = True
    mask = ~seen
    want = sum((-1) ** k * math.comb(q, k) * q ** (d - k) for k in range(min(q, d) + 1))
    _check(int(mask.sum()) == want, "rootless count", q, d)
    mask.flags.writeable = False
    return mask


def _fill_rows(v: np.ndarray, q: int, mask: np.ndarray, lead: int, high=()) -> None:
    """Fill v (int16 zeros, n+1 columns, one row per code the mask keeps)
    with the forms of those codes: monic codes of degree n - lead whose
    lowest k digits run through all q**k values, len(mask) = q**k, in code
    order, and whose digits above them are the constants high, lowest
    first.  Column lead is 1 and the columns before it stay 0.

    No division: in code order, digit j runs through arange(q) in runs of
    q**j codes, so its column repeats each digit as often as the mask keeps
    codes in that run (a mask select for j = 0, run counts summed up level
    by level), and each fixed digit is one constant column."""
    n = v.shape[1] - 1
    k = n - lead - len(high)
    v[:, lead] = 1
    ar = np.arange(q, dtype=np.int16)
    runs = mask  # kept codes in each run of q**j codes that share digit j
    for j in range(k):  # the x^j coefficient is column n - j
        digit = np.tile(ar, len(runs) // q)
        v[:, n - j] = digit[runs] if j == 0 else np.repeat(digit, runs)
        runs = runs.reshape(-1, q).sum(1)
    for j, digit in enumerate(high, k):
        v[:, n - j] = digit


class _Packing(NamedTuple):
    """n-coefficient codes as int64 integers that add digit by digit: the
    e base-p digits of each coefficient, each in its own field of
    b = bit_length(2p - 2) bits, so that the sum of two packed codes holds
    the sum of each pair of digits, unreduced and with no carry."""

    PACK: np.ndarray  # int64 [x] = the digits of code x in fields 0 .. e - 1
    width: int  # e b, the bits of one packed coefficient
    chunks: tuple[tuple[int, np.ndarray], ...]  # (shift, table) per run of whole fields

    def pack(self, codes) -> np.ndarray:
        """The packed int64 of each code vector, codes (..., m) of
        coefficients, the most significant first (form column order)."""
        codes = np.asarray(codes)
        shift = self.width * np.arange(codes.shape[-1] - 1, -1, -1, dtype=np.int64)
        return (self.PACK[codes] << shift).sum(-1)

    def unpack(self, s: np.ndarray) -> np.ndarray:
        """The code (each digit reduced mod p) of each packed sum s: one
        chunk table gather a run of at most 16 bits of s, summed."""
        code = self.chunks[0][1].take(s & (len(self.chunks[0][1]) - 1))
        for shift, table in self.chunks[1:]:
            code += table.take((s >> shift) & (len(table) - 1))
        return code


@functools.lru_cache(maxsize=32)
def _packing(ctx: ff.FieldCtx, n: int) -> _Packing:
    """The packing of n-coefficient codes over ctx (_Packing).  A packed
    width above 63 bits, n e b, is refused with ValueError before any table
    is built.  The chunk tables split the n e fields into runs of equal
    length, at most 16 bits each, and map every value of a run to the sum
    of its digits, each reduced mod p, at their places p**f in the code."""
    p, e, q = ctx.p, ctx.e, ctx.q
    b = (2 * p - 2).bit_length()
    fields = n * e
    if fields * b > 63:
        raise ValueError(f"q = {q}, n = {n}: the packed codes take {fields * b} bits, "
                         f"more than the 63 of an int64")
    place = p ** np.arange(e)
    pack = ((np.arange(q)[:, None] // place % p) << (b * np.arange(e))).sum(1).astype(np.int64)
    runs = -(-fields // (16 // b))
    per = -(-fields // runs)  # fields a run
    reduced = np.arange(2**b, dtype=np.int64) % p  # of each value of a field
    chunks = []
    for first in range(0, fields, per):
        table = np.zeros(1, np.int64)
        for f in range(first, min(first + per, fields)):  # field f above the ones before it
            table = (reduced[:, None] * p**f + table).ravel()
        table = table.astype(np.int32 if q**n <= 2**31 else np.int64)
        table.flags.writeable = False
        chunks.append((first * b, table))
    pack.flags.writeable = False
    return _Packing(pack, e * b, tuple(chunks))


@functools.lru_cache(maxsize=32)
def _split_forms(q: int, n: int, lead: int) -> np.ndarray:
    """The form columns (intp, read-only, (n+1, q**(d - h) + q**h)) of the
    two halves of the codes of one lead block (d = n - lead digits, split
    at digit h = d // 2): first every value of the upper digits, with the
    form's 1 at column lead, then every value of the lower digits."""
    d = n - lead
    h = d // 2
    size_hi = q ** (d - h)
    x = np.zeros((n + 1, size_hi + q**h), np.intp)
    x[lead, :size_hi] = 1
    for j in range(d):  # the x^j coefficient is column n - j
        if j < h:
            x[n - j, size_hi:] = _digits(q, h, j, np.intp)
        else:
            x[n - j, :size_hi] = _digits(q, d - h, j - h, np.intp)
    x.flags.writeable = False
    return x


def _split_images(ctx: ff.FieldCtx, t: np.ndarray, lead: int) -> tuple[np.ndarray, np.ndarray]:
    """The image columns sum_k t[i, k] F[k] of the two halves of the codes
    of one lead block (_split_forms): upper, (n+1, q**(d - h)), and lower,
    (n+1, q**h).  A row's image column is the field sum of its halves'.
    One field.dot over the form columns of both halves."""
    n = len(t) - 1
    x = _split_forms(ctx.q, n, lead)
    img = ff.dot(ctx, ((t[:, k, None], x[k]) for k in range(lead, n + 1)))
    size_hi = ctx.q ** (n - lead - (n - lead) // 2)
    return img[:, :size_hi], img[:, size_hi:]


class ActionState:
    """Every rational n-set over ctx as a canonical form row, with the
    vectorized matrix action.

    Row order: first the sets avoiding infinity (form coefficient 0
    equal to 1), then the rest (coefficients 0, 1 equal to 0, 1), each
    block in increasing code, the integer whose base-q digits are the
    non-leading coefficients of f (constant coefficient least
    significant).  The tests hold it against a plain enumeration of the
    monic squarefree f.

    A row is held as its code, split at digit h = d // 2 of the d = n -
    lead digits of its block into int32 hi (the upper digits) and lo (the
    lower h), the halves dest_flip looks up.  V[r, i], the X^(n-i) Z^i
    coefficient of row r, is built only on first read (by _fill_rows, the
    fill that _form_blocks streams the same rows with), column-major,
    since apply reads it a column at a time; only verify_points, apply
    (through _image_col) and the tests read it.

    masks, the codes each block keeps (over the q**n and q**(n-1) monic
    codes), defaults to the two squarefree masks, every n-set; the orbit
    census passes narrower ones to build a PGL2-invariant part of the rows,
    or the part one of its generators keeps.  The row table (rows_of)
    spans only the code blocks the masks keep.
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
        hi, lo = np.empty(count, np.int32), np.empty(count, np.int32)
        # row of each canonical code (the sets through infinity at q**n +
        # code), over the code blocks the masks keep: from code_lo on
        code_lo = 0 if n0 else q**n
        row_of = np.full((q**n + q ** (n - 1) if count > n0 else q**n) - code_lo, -1, np.int32)
        blocks = ((slice(0, n0), slice(0, q**n)),
                  (slice(n0, count), slice(q**n - code_lo, None)))
        for lead, (mask, (rows, codes)) in enumerate(zip(masks, blocks)):
            if rows.start == rows.stop:  # a block the masks leave empty costs nothing
                continue
            kept = np.flatnonzero(mask)
            row_of[codes][kept] = np.arange(rows.start, rows.stop, dtype=np.int32)
            split = q ** ((n - lead) // 2)  # the values of the lower digits
            np.floor_divide(kept, split, out=hi[rows], casting="unsafe")
            np.subtract(kept, hi[rows].astype(np.intp) * split, out=lo[rows], casting="unsafe")
        hi.flags.writeable = lo.flags.writeable = row_of.flags.writeable = False
        self.n0 = n0
        self.count = count
        self.hi, self.lo = hi, lo
        self._row_of = row_of
        self._code_lo = code_lo

    def _blocks(self) -> tuple[slice, slice]:
        """The rows of the sets avoiding infinity, and of those through it."""
        return slice(0, self.n0), slice(self.n0, self.count)

    @functools.cached_property
    def V(self) -> np.ndarray:
        """The form rows (int16, n+1 columns, column-major, read-only),
        filled a block at a time from the codes the row table keeps."""
        q, n = self.ctx.q, self.n
        v = np.zeros((self.count, n + 1), np.int16, order="F")
        for lead, rows in enumerate(self._blocks()):
            if rows.start < rows.stop:
                start = lead * q**n - self._code_lo
                _fill_rows(v[rows], q, self._row_of[start : start + q ** (n - lead)] >= 0, lead)
        v.flags.writeable = False
        return v

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

    def rows_of(self, codes) -> np.ndarray:
        """The row of each canonical code (form_codes), -1 where the masks
        keep none, also outside the code blocks the table spans."""
        i = np.asarray(codes) - self._code_lo
        if not i.size or (0 <= i.min() and i.max() < len(self._row_of)):
            return self._row_of[i]
        inside = (i >= 0) & (i < len(self._row_of))
        rows = np.full(i.shape, -1, np.int32)
        rows[inside] = self._row_of[i[inside]]
        return rows

    def kappa_stable(self, mat: GlMatrix) -> tuple[np.ndarray, np.ndarray]:
        """fixed_forms of the one matrix as per-row arrays: kappa (int16, 0
        off the stable rows) and the mask of the rows fixed setwise.  A
        scalar matrix (a, 0, 0, a) fixes every row, with kappa a^n."""
        kappa = np.zeros(self.count, np.int16)
        stable = np.zeros(self.count, bool)
        if mat.b == mat.c == 0 and mat.a == mat.d:
            kappa[:], stable[:] = ff.pw(self.ctx, mat.a, self.n), True
            return kappa, stable
        _, forms, kap = fixed_forms(self.ctx, self.n, mb.mat_codes([mat]))
        rows = self.rows_of(form_codes(self.ctx.q, forms))
        keep = rows >= 0
        kappa[rows[keep]] = kap[keep]
        stable[rows[keep]] = True
        return kappa, stable

    def dest_flip(self, mat: GlMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Row permutation of the action (int32) and the twist-flip mask.

        The image of a row is the field sum of the images of its code's two
        halves (_split_images), so per block and matrix the halves' image
        columns 1 .. n, scaled by 1 / kappa, are packed (_packing) into
        tables PH[kappa, hi] and PL[kappa, lo]: PH + PL adds the two
        images digit by digit, and unpack reduces the sum to the code of
        the image over kappa, read by rows_of, at most _DEST_BLOCK rows at a
        time.  kappa is image column 0, or column 1 through infinity; the
        flip is chi(multiplier) = -1, for even n the class of kappa.

        An element with c = 0 fixes infinity and T is lower triangular, so
        kappa is the constant T[0][0] on the rows avoiding infinity and
        T[1][1] on the rows through it: the tables have the one row of that
        kappa.  Otherwise kappa comes row by row from the unscaled halves
        of columns 0 and 1 through the ADD table, and the tables have a row
        for each kappa (row 0, kappa = 0, is never read).
        """
        q, n = self.ctx.q, self.n
        if n % 2:
            raise ValueError(f"twist transport is defined for even n, got {n}")
        if q**n + q ** (n - 1) > 2**31:
            raise ValueError(f"q = {q}, n = {n} overflows the int32 row codes")
        pk = _packing(self.ctx, n)
        t = np.array(ns.substitution_matrix(self.ctx, mat, n))
        add, mul, chi = self.tabs.ADD.ravel(), self.tabs.MUL, self.tabs.CHI
        through = q**n - q ** (n - 1)  # added to the codes of the images through infinity
        dest, flip = np.empty(self.count, np.int32), np.empty(self.count, bool)
        for lead, rows in enumerate(self._blocks()):
            if rows.start == rows.stop:
                continue
            upper, lower = _split_images(self.ctx, t, lead)
            if mat.c:
                over = self.tabs.INV  # 1 / kappa, per kappa
                kap_halves = [(upper[i].astype(np.int32) * q, lower[i]) for i in (0, 1)]
            else:
                kap = int(t[lead, lead])
                _check(kap, "the image of an n-set must be an n-set", mat)
                over = self.tabs.INV[kap : kap + 1]
                flip[rows] = chi[kap] == -1
            ph, pl = (pk.pack(mul[over[:, None, None], half[1:].T]) for half in (upper, lower))
            for start in range(rows.start, rows.stop, _DEST_BLOCK):
                part = slice(start, min(start + _DEST_BLOCK, rows.stop))
                hi, lo = self.hi[part], self.lo[part]
                if mat.c:
                    col0, col1 = (add.take(up.take(hi) + low.take(lo)) for up, low in kap_halves)
                    kap = np.where(col0 != 0, col0, col1)
                    _check(kap.all(), "the image of an n-set must be an n-set", mat)
                    code = pk.unpack(ph.take(np.multiply(kap, ph.shape[1], dtype=np.int32) + hi)
                                     + pl.take(np.multiply(kap, pl.shape[1], dtype=np.int32) + lo))
                    np.add(code, through, out=code, where=col0 == 0)
                    flip[part] = chi[kap] == -1
                else:
                    code = pk.unpack(ph.take(hi) + pl.take(lo))
                    code += lead * through
                dest[part] = self.rows_of(code)
        _check((dest >= 0).all(), "the image of an n-set must be a canonical row", mat)
        return dest, flip


def form_codes(q: int, forms) -> np.ndarray:
    """The canonical code (int64) of each n-set form (rows, n+1), F[0] = 1
    or F[0] = 0 and F[1] = 1: the code of f, and q**n + the code of f for
    the sets through infinity.  Their order is ActionState's row order."""
    forms = np.asarray(forms)
    n = forms.shape[-1] - 1
    weight = q ** np.arange(n - 1, -1, -1, dtype=np.int64)  # of the form columns 1 .. n
    return forms[:, 1:] @ weight + np.where(forms[:, 0] == 0, q**n - q ** (n - 1), 0)


_ROW_BLOCK = 2**17  # monic codes a block of _form_blocks, to bound its rows
_DEST_BLOCK = 2**16  # rows a block of dest_flip's lookups, to bound its temporaries
_KERNEL_BLOCK = 2**16  # kernel vectors a chunk of fixed_forms, to bound its temporaries


def _form_blocks(ctx: ff.FieldCtx, n: int):
    """The form rows (int16, n+1, column-major) of every n-set over ctx in
    ActionState's row order, a block at a time, so that no caller holds
    them all: each of the two code blocks (the q**n monic codes of the sets
    avoiding infinity, the q**(n-1) of those through it) is cut by its
    leading digits into parts of q**k codes, q**k <= _ROW_BLOCK (one code
    a part when _ROW_BLOCK < q), and each part the squarefree mask keeps
    any code of is one block, filled by _fill_rows."""
    q = ctx.q
    for lead in (0, 1):
        d = n - lead
        mask = squarefree_mask(ctx, d)
        k = 0
        while k < d and q ** (k + 1) <= _ROW_BLOCK:
            k += 1
        size = q**k
        for top in range(q ** (d - k)):
            part = mask[top * size : (top + 1) * size]
            count = int(np.count_nonzero(part))
            if count:
                v = np.zeros((count, n + 1), np.int16, order="F")
                _fill_rows(v, q, part, lead, [top // q**i % q for i in range(d - k)])
                yield v


def fixed_forms(ctx: ff.FieldCtx, n: int, mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(element, form, kappa) of every n-set fixed setwise by a matrix of
    the stack mats (entry codes (k, 4)), sorted by element and then by
    canonical code (form_codes): element indexes mats, form is the n-set's
    form (int16 rows, n+1) and kappa (int16) the image coefficient at its
    defining position.

    gamma fixes the n-set of form F with kappa lam exactly when
    T F = lam F, T = nset.substitution_matrices(gamma), so the fixed
    forms are the squarefree vectors of the eigenspaces ker(T - lam I),
    lam in F_q*.  One field.kernels call finds them for every (element,
    lam), and each basis vector is checked to satisfy T v = lam v.  A
    kernel's q^dim vectors are field.dot sums over the digits of their
    coordinates, at most _KERNEL_BLOCK vectors a chunk; the one multiple
    with F[0] = 1, or F[0] = 0 and F[1] = 1, is an n-set form where the
    squarefree mask of degree n, or n - 1, keeps its code.  A scalar matrix
    fixes every n-set, which only an ActionState lists, so it is refused.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q, m = ctx.q, n + 1
    mats = np.asarray(mats, np.intp).reshape(-1, 4)
    scalar = (mats[:, 1] == 0) & (mats[:, 2] == 0) & (mats[:, 0] == mats[:, 3])
    if scalar.any():
        raise ValueError(f"a scalar matrix fixes every n-set: {mats[scalar][0].tolist()}")
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
        _check(False, "fixed_forms: T v == lam v on every kernel basis vector",
               q, n, mb.GlMatrix(*mats[e].tolist()), int(lam[l]), basis[e, l, j].tolist())
    dim = free.sum(-1)
    masks = squarefree_mask(ctx, n), squarefree_mask(ctx, n - 1)
    found = []
    for d in range(1, m):  # dim m is T = lam I, refused above
        which = np.argwhere(dim == d)
        if not len(which):
            continue
        kern = basis[free & (dim == d)[..., None]].reshape(-1, d, m)
        coords = [_digits(q, d, j, np.intp) for j in range(d)]
        step = max(1, _KERNEL_BLOCK // q**d)
        for lo in range(0, len(kern), step):
            part = kern[lo : lo + step]
            f0, f1 = (ff.dot(ctx, ((coords[j], part[:, j, i, None]) for j in range(d)))
                      for i in (0, 1))
            k, c = np.nonzero((f0 == 1) | ((f0 == 0) & (f1 == 1)))
            forms = np.empty((len(k), m), np.int16)
            forms[:, 0] = f0[k, c]
            forms[:, 1:] = ff.dot(ctx, ((coords[j][c], part[k, j, 1:].T) for j in range(d))).T
            code = form_codes(q, forms)
            inf = forms[:, 0] == 0
            keep = np.empty(len(code), bool)
            keep[~inf] = masks[0][code[~inf]]
            keep[inf] = masks[1][code[inf] - q**n]
            e, l = which[lo + k[keep]].T
            found.append((e, code[keep], forms[keep], lam[l]))
    if not found:
        return np.zeros(0, np.intp), np.zeros((0, m), np.int16), np.zeros(0, np.int16)
    elem, code, forms, kappa = (np.concatenate(x) for x in zip(*found))
    order = np.lexsort((code, elem))
    return elem[order], forms[order], kappa[order].astype(np.int16)


@functools.lru_cache(maxsize=32)
def shared_fixed_forms(ctx: ff.FieldCtx, n: int, stack: str) -> tuple[np.ndarray, ...]:
    """fixed_forms of a stack several suites read, read-only and computed
    once per (field, n): "nonidentity", every nonidentity element of
    enumerate_pgl in its order, or "subtypes", one representative per
    census.subtypes entry (_STACKS).  Cached like squarefree_mask;
    shared_fixed_forms.cache_clear() frees the arrays."""
    hit = fixed_forms(ctx, n, mb.mat_codes(el.mat for el in _STACKS[stack](ctx)))
    for a in hit:
        a.flags.writeable = False
    return hit


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
    the sum.  The identity fixes every row with kappa 1.  The generators
    stand for their own classes, and their fixed forms are checked against
    the row permutations the orbit census reads; one fixed_forms call
    serves the generators and the other nonidentity classes.
    """
    check_budget(g, q, budget)
    ctx = ff.make_field(*factor_prime_power(q))
    n = 2 * g + 2
    st = ActionState(ctx, n)
    chi = st.tabs.CHI
    gens = _generators(ctx)
    identity = mb.class_key(ctx, mb.IDENTITY)
    mats, index = list(gens), {}  # class key -> position of its representative in mats
    for i, mat in enumerate(gens):
        index.setdefault(mb.class_key(ctx, mat), i)
    classes = mb.conjugacy_classes(ctx)
    for key, (rep, _) in classes.items():
        if key not in index and key != identity:
            index[key] = len(mats)
            mats.append(rep)
    elem, forms, kappa = fixed_forms(ctx, n, mb.mat_codes(mats))
    for i, mat in enumerate(gens):  # the fixed rows are the stable ones, flipped where chi(kappa) = -1
        mine = elem == i
        dest, flip = st.dest_flip(mat)
        stable = np.flatnonzero(dest == np.arange(st.count))
        _check(np.array_equal(st.rows_of(form_codes(q, forms[mine])), stable), "fixed rows", mat)
        _check(np.array_equal(flip[stable], chi[kappa[mine]] < 0), "flip", mat)
    fixed = np.bincount(elem[chi[kappa] == 1], minlength=len(mats))
    total = sum(size * 2 * (st.count if key == identity else int(fixed[index[key]]))
                for key, (_, size) in classes.items())
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
    emb = st.rows_of(q**n + np.flatnonzero(at0))  # the R row of each R0 row
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


def _nset_of(ctx: ff.FieldCtx, form) -> ns.RationalNSet:
    """The n-set of a form row, to name it in a failure."""
    return ns.from_form(ctx, np.asarray(form).tolist())[0]


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

    Per (q, n) the stable (element, n-set) pairs come from the shared
    fixed_forms, their sweep signs from one multiplier.epsilons call, and
    their closed forms from one multiplier.epsilon_closed_forms call; a
    mismatch names the first failing pair in element order, then row order.
    """
    _refuse_empty("eps", ("len(qs)", len(qs)), ("len(ns_list)", len(ns_list)))
    checks = 0
    for q in qs:
        ctx = ff.make_field(*factor_prime_power(q))
        elems = _nonidentity(ctx)
        codes = mb.mat_codes(el.mat for el in elems)
        for n in ns_list:
            pair_elem, forms, kappa = shared_fixed_forms(ctx, n, "nonidentity")
            e0 = ff.tables(ctx).CHI[kappa]
            e2 = mult.epsilon_closed_forms(elems, pair_elem, forms, ctx)
            e1 = mult.epsilons(ctx, codes[pair_elem], forms)
            bad = np.flatnonzero((e0 != e1) | (e1 != e2))
            if len(bad):
                b = bad[0]
                _check(False, "eps: engine == sweep == closed form", q, n,
                       elems[pair_elem[b]].mat, _nset_of(ctx, forms[b]),
                       (int(e0[b]), int(e1[b]), int(e2[b])))
            checks += len(forms)
    return {"suite": "eps", "checks": checks}


def verify_counts(qs=(3, 5, 7), nmax=8) -> dict:
    """n-set totals of the four ambient varieties and per-subtype fixed
    counts, all against the closed counting polynomials.

    The ambient totals read every n-set once, a block of rows at a time
    from _form_blocks, and keep only sums: the row count and, per ambient
    element, the rows holding none of its fixed points; no ActionState is
    built.  The fixed counts read the shared "subtypes" fixed forms."""
    _refuse_empty("counts", ("len(qs)", len(qs)), ("nmax", nmax))
    checks = 0
    for q in qs:
        ctx = ff.make_field(*factor_prime_power(q))
        kinds = subtypes(q)
        reps = _subtype_reps(ctx)
        rep_of = {kind: rep for (kind, _), rep in zip(kinds, reps)}  # any one of the kind
        ambient = (("B", "the affine line"), ("C", "the torus"), ("A", "the punctured line"))
        ambient_codes = mb.mat_codes(rep_of[kind].mat for kind, _ in ambient)[:, None]
        for n in range(1, nmax + 1):
            # the line, then the affine line, the torus and the line minus
            # a conjugate quadratic pair, each off the fixed locus of an
            # element of the kind: the quotient check at m = 1
            count, off = 0, np.zeros(len(ambient), np.int64)
            for forms in _form_blocks(ctx, n):
                count += len(forms)
                off += np.count_nonzero(ns.fixed_point_counts(ctx, ambient_codes, forms) == 0, 1)
            _check(count == a_p1(n, q), "counts: the line", q, n, count)
            for (kind, name), got in zip(ambient, off.tolist()):
                _check(got == free_count(q, kind, n), f"counts: {name}", q, n, got)
            checks += 4
            if n < 3:
                continue
            plain, twisted = _fixed_tallies(ctx, n, "subtypes", len(kinds))
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
            for elem, tally in zip(elems, zip(*_fixed_tallies(ctx, 6, "nonidentity", len(elems)))):
                tallies.setdefault((elem.kind, elem.order), set()).add(tally)
            for key, vals in tallies.items():
                _check(len(vals) == 1, "counts: one tally per subtype", q, key, vals)
                checks += 1
    return {"suite": "counts", "checks": checks}


def _fixed_tallies(ctx: ff.FieldCtx, n: int, stack: str, size: int) -> tuple[list[int], list[int]]:
    """Per element of a shared stack of size elements, from its
    shared_fixed_forms: the number of fixed n-sets and twice the number
    with chi(kappa) = 1, the plain and twisted fixed counts."""
    elem, _, kappa = shared_fixed_forms(ctx, n, stack)
    plain = np.bincount(elem, minlength=size)
    square = np.bincount(elem[ff.tables(ctx).CHI[kappa] == 1], minlength=size)
    return plain.tolist(), (2 * square).tolist()


def verify_norm(qs=(3, 5, 7, 9, 11, 13)) -> dict:
    """Norm criterion for every nonzero element of each quadratic extension."""
    _refuse_empty("norm", ("len(qs)", len(qs)))
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
    _refuse_empty("orbit_lemma", ("len(qs)", len(qs)))
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
    "nonidentity" fixed forms, grouped by form code, the n-sets in order
    of their first stabilizing element.  Each set and each (q, n) is one _sign_homomorphisms call,
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
    # the first four 6-sets in row order: the smallest squarefree codes
    sample = [ns.RationalNSet((*(c // 3**j % 3 for j in range(6)), 1), False)
              for c in np.flatnonzero(squarefree_mask(k3, 6))[:4].tolist()]
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
    # the engine's nonidentity memberships, grouped by form code, each
    # group named by its first membership, the groups by their first member
    for q, n in hom_exhaustive:
        ctx = ff.make_field(*factor_prime_power(q))
        at, forms, kappa = shared_fixed_forms(ctx, n, "nonidentity")
        _, first, inverse = np.unique(form_codes(q, forms), return_index=True, return_inverse=True)
        group = first[inverse]
        order = np.argsort(group, kind="stable")  # each form's members stay in order
        nonid = np.flatnonzero([el.kind != "identity" for el in mb.enumerate_pgl(ctx)])
        checks += _sign_homomorphisms(ctx, group[order], nonid[at[order]],
                                      ff.tables(ctx).CHI[kappa[order]],
                                      lambda i: (q, n, _nset_of(ctx, forms[i])))

    # where it is not, full stabilizers of engine-picked stable sets
    for q, n in hom_sampled:
        ctx = ff.make_field(*factor_prime_power(q))
        elem, fixed, _ = shared_fixed_forms(ctx, n, "subtypes")
        forms = np.concatenate([fixed[elem == k][:20] for k in range(len(subtypes(q)))])
        checks += _sign_homomorphisms(ctx, *_stabilizer_signs(ctx, forms),
                                      lambda r: (q, n, _nset_of(ctx, forms[r])))
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
    representatives, and read the shared fixed_forms of every
    representative per (q, N); no ActionState is built.
    """
    # every subtype has order m >= 2, so the first pass checks n <= nmax // 2 at most
    _refuse_empty("quot", ("len(qs)", len(qs)),
                  ("max(nmax // 2, strata_nmax)", max(nmax // 2, strata_nmax)))
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
            elem, forms, _ = shared_fixed_forms(ctx, size, "subtypes")
            totals[size] = np.bincount(elem, minlength=len(kinds)).tolist()
            if size > nmax:
                continue
            held = ns.fixed_point_counts(ctx, codes[elem], forms)
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
    _refuse_empty("points", ("len(qs)", len(qs)))
    checks = 0
    n = 2 * g + 2
    for q in qs:
        ctx = ff.make_field(*factor_prime_power(q))
        nonsq = next(x for x in range(1, q) if ff.chi(x, ctx) == -1)
        st = ActionState(ctx, n)
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
