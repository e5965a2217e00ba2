"""Exact arithmetic in F_q, q = p^e with p an odd prime.

Field elements are plain ints in [0, q).  The base-p digits of the int,
least significant first, are the coordinates of the element in the power
basis 1, x, x^2, ... of the defining modulus.  For prime fields this makes
the element code equal to the residue it represents.  Keeping elements as
ints means they are hashable, cheap to store in bulk arrays, and carry no
hidden context; every operation takes the field context explicitly.

Every field, prime or not, computes its scalar ops by table lookup
(Zech logarithms).  On first use (any arithmetic, mult_generator or
tables) a context takes the least code g of order q - 1, the first of
2, 3, ... with g^((q - 1) / l) != 1 for every prime l dividing q - 1,
and walks its powers by digit-vector products, the arithmetic of
_mul_raw.  From this least generator it keeps exp[i] = g^i (stored twice
over, so that log x + log y indexes it directly), the discrete logarithm
log and the Zech logarithm zech[k] = log(1 + g^k), which turns addition
into g^a + g^b = g^(a + zech[b - a]).  g is a nonsquare, so x is a
square exactly when log x is even.  _mul_raw stays as the reference the
tests compare against.

tables(ctx) holds the same arithmetic as numpy q x q int16 arrays for the
vectorized code, int_tables(ctx) its cached intp view (gathers indexed by
intp codes skip the index conversion) and powers(ctx, n) the cached
table of x^e; log_arrays(ctx) holds exp and log as arrays, for products
of code arrays over fields too large for q x q tables.  dot(ctx, pairs)
is the one F_q linear combination, sum c x elementwise over code arrays.
Every PGL2 action on forms reads it, and so do the substitution
matrices themselves (the power columns of nset.substitution_matrices and
their convolution), the products and canonical scaling of
moebius.pgl_table and the squarefree sieve, so no other module branches
on the field kind.
kernels(ctx, a) gives the null spaces of a stack of square matrices by one
batched Gauss-Jordan elimination over the same tables.

Polynomials over a field are tuples of element codes in ascending degree
order with no trailing zeros; the empty tuple is the zero polynomial.
pmul, pmod, pgcd and peval are the one polynomial arithmetic over F_q,
and the fields are built with it.  make_field takes the first monic
irreducible of degree e whose lower coefficients are the base-p digits
of 0, 1, 2, ..., tested by Ben-Or: gcd(x^(p^i) - x, f) = 1 over F_p for
i <= e / 2.  extend(base, d) sends the power-basis generator of base to
the least root of base.modulus in the extension (found with peval, since
the codes 0..p-1 are the prime field in every field) and each base code
to its digits evaluated there.  _poly_mulmod_p, the digit-vector product
mod a monic modulus over F_p, keeps the two jobs that come before any
table exists: Ben-Or's p-th powers of x mod a candidate modulus, and the
powers that bootstrap the log tables (with _mul_raw, its one-product view).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .census import VerificationError, _prime_factors, is_prime


class _Logs(NamedTuple):
    exp: list[int]  # exp[i] = g^(i mod (q - 1)) for 0 <= i < 2(q - 1)
    log: list[int]  # log[g^i] = i for 0 <= i < q - 1; log[0] = -1
    zech: list[int]  # zech[k] = log(1 + g^k); -1 where 1 + g^k = 0


@dataclass(frozen=True)
class FieldCtx:
    """Immutable description of one concrete finite field."""

    p: int
    e: int
    q: int
    modulus: tuple[int, ...]  # monic, ascending coefficients, length e + 1

    @functools.cached_property
    def _logs(self) -> _Logs:
        p, q, one = self.p, self.q, [1] + [0] * (self.e - 1)
        # the least code of order q - 1: g^((q - 1) / l) != 1 for each prime l | q - 1
        cofactors = [(q - 1) // l for l in _prime_factors(q - 1)]
        g = next((g for g in range(2, q)
                  if all(_poly_powmod_p(to_digits(self, g), k, self.modulus, p) != one
                         for k in cofactors)), 0)
        gen = cur = to_digits(self, g)
        exp = [1]
        while cur != one and len(exp) < q:
            exp.append(from_digits(self, cur))
            cur = _poly_mulmod_p(cur, gen, self.modulus, p)
        if len(exp) != q - 1:
            raise ValueError(f"no generator of the units: {self.modulus} is reducible")
        log = [-1] * q
        for i, x in enumerate(exp):
            log[x] = i
        # 1 + x raises the constant digit of x by one
        zech = [log[x + 1 if x % p != p - 1 else x + 1 - p] for x in exp]
        return _Logs(exp + exp, log, zech)


_FIELD_CACHE: dict[tuple[int, int], FieldCtx] = {}
_EXT_CACHE: dict[tuple[FieldCtx, int], tuple[FieldCtx, tuple[int, ...]]] = {}


def to_digits(ctx: FieldCtx, x: int) -> list[int]:
    """Base-p digits of x, least significant first, padded to length e."""
    ds = []
    for _ in range(ctx.e):
        x, r = divmod(x, ctx.p)
        ds.append(r)
    return ds


def from_digits(ctx: FieldCtx, ds) -> int:
    x = 0
    for d in reversed(list(ds)):
        x = x * ctx.p + d % ctx.p
    return x


def _poly_mulmod_p(a: list[int], b: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    # schoolbook product of digit vectors, reduced mod the monic modulus
    e = len(mod) - 1
    conv = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] = (conv[i + j] + ai * bj) % p
    for k in range(len(conv) - 1, e - 1, -1):
        c = conv[k]
        if c:
            conv[k] = 0
            for j in range(e):
                conv[k - e + j] = (conv[k - e + j] - c * mod[j]) % p
    out = conv[:e]
    out += [0] * (e - len(out))
    return out


def _poly_powmod_p(a: list[int], k: int, mod: tuple[int, ...], p: int) -> list[int]:
    # a^k mod the monic modulus by square-and-multiply, k >= 0
    acc = [1] + [0] * (len(mod) - 2)
    while k:
        if k & 1:
            acc = _poly_mulmod_p(acc, a, mod, p)
        a = _poly_mulmod_p(a, a, mod, p)
        k >>= 1
    return acc


def _irreducible(p: int, coeffs: tuple[int, ...]) -> bool:
    """Ben-Or's test: a monic f of degree e is irreducible over F_p exactly
    when gcd(x^(p^i) - x, f) = 1 for every 1 <= i <= e // 2."""
    e = len(coeffs) - 1
    h = [0, 1] + [0] * (e - 2)  # x^(p^i) mod f, one p-th power at a time
    for _ in range(e // 2):
        h = _poly_powmod_p(h, p, coeffs, p)
        if len(pgcd(make_field(p, 1), [(c - (i == 1)) % p for i, c in enumerate(h)], coeffs)) != 1:
            return False
    return True


def make_field(p: int, e: int) -> FieldCtx:
    """Field context for F_{p^e}, p odd prime, e >= 1.

    The modulus is the first monic irreducible of degree e in integer-code
    order of its non-leading coefficients (constant coefficient is the low
    digit), so repeated calls always build the same field.
    """
    key = (p, e)
    hit = _FIELD_CACHE.get(key)
    if hit is not None:
        return hit
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    for code in range(p**e):
        coeffs = tuple(code // p**i % p for i in range(e)) + (1,)
        if _irreducible(p, coeffs):
            break
    else:
        raise VerificationError(f"no monic irreducible of degree {e} over F_{p}")
    ctx = _FIELD_CACHE[key] = FieldCtx(p, e, p**e, coeffs)
    return ctx


def add(ctx: FieldCtx, x: int, y: int) -> int:
    if not x:
        return y
    if not y:
        return x
    exp, log, zech = ctx._logs
    lx = log[x]
    z = zech[log[y] - lx]  # a negative difference wraps mod q - 1
    return exp[lx + z] if z >= 0 else 0


def neg(ctx: FieldCtx, x: int) -> int:
    if not x:
        return 0
    logs = ctx._logs
    return logs.exp[logs.log[x] + ctx.q // 2]  # -1 = g^((q - 1) / 2)


def sub(ctx: FieldCtx, x: int, y: int) -> int:
    return add(ctx, x, neg(ctx, y))


def _mul_raw(ctx: FieldCtx, x: int, y: int) -> int:
    ds = _poly_mulmod_p(to_digits(ctx, x), to_digits(ctx, y), ctx.modulus, ctx.p)
    return from_digits(ctx, ds)


def mul(ctx: FieldCtx, x: int, y: int) -> int:
    if not x or not y:
        return 0
    exp, log, _ = ctx._logs
    return exp[log[x] + log[y]]


def pw(ctx: FieldCtx, x: int, k: int) -> int:
    """x^k for k >= 0 (0^0 = 1)."""
    if not x:
        return 0 if k else 1
    logs = ctx._logs
    return logs.exp[logs.log[x] * k % (ctx.q - 1)]


def inv(ctx: FieldCtx, x: int) -> int:
    if x == 0:
        raise ZeroDivisionError("inverse of 0")
    logs = ctx._logs
    return logs.exp[ctx.q - 1 - logs.log[x]]


def div(ctx: FieldCtx, x: int, y: int) -> int:
    return mul(ctx, x, inv(ctx, y))


def is_square(x: int, ctx: FieldCtx) -> bool:
    """Parity of the logarithm (the generator is a nonsquare); rejects 0
    since 0 is neither square nor non-square here."""
    if x == 0:
        raise ValueError("is_square is undefined at 0")
    return ctx._logs.log[x] % 2 == 0


def chi(x: int, ctx: FieldCtx) -> int:
    """Quadratic character on nonzero elements: +1 on squares, -1 otherwise."""
    return 1 if is_square(x, ctx) else -1


def mult_generator(ctx: FieldCtx) -> int:
    """Least element code generating the multiplicative group."""
    return ctx._logs.exp[1]


class Tables(NamedTuple):
    """The field arithmetic as numpy lookup tables over element codes."""

    ADD: np.ndarray  # int16 [x, y] = x + y
    MUL: np.ndarray  # int16 [x, y] = x * y
    INV: np.ndarray  # int16 [x] = 1 / x, with INV[0] = 0
    CHI: np.ndarray  # int8 quadratic character, with CHI[0] = 0


@functools.cache
def tables(ctx: FieldCtx) -> Tables:
    """Cached q x q tables, computed with numpy from the digits of the
    codes (addition) and from the exp/log tables (the rest)."""
    q, p = ctx.q, ctx.p
    exp, log, _ = ctx._logs
    ex = np.array(exp, np.int16)
    lg = np.array(log, np.int64)
    place = p ** np.arange(ctx.e)
    digits = np.arange(q)[:, None] // place % p
    add_t = ((digits[:, None, :] + digits[None, :, :]) % p @ place).astype(np.int16)
    mul_t = ex[lg[:, None] + lg[None, :]]
    mul_t[0, :] = mul_t[:, 0] = 0
    inv_t = ex[q - 1 - lg]
    inv_t[0] = 0
    chi_t = np.where(lg % 2 == 0, 1, -1).astype(np.int8)
    chi_t[0] = 0
    return Tables(add_t, mul_t, inv_t, chi_t)


@functools.cache
def int_tables(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ADD, MUL and INV of tables(ctx) as intp arrays: gathers indexed by
    intp codes skip the index conversion, which dominates on small stacks."""
    tabs = tables(ctx)
    return tabs.ADD.astype(np.intp), tabs.MUL.astype(np.intp), tabs.INV.astype(np.intp)


@functools.lru_cache(maxsize=64)
def powers(ctx: FieldCtx, n: int) -> np.ndarray:
    """[x, e] = x^e as intp for every code x and 0 <= e <= n, with 0^0 = 1."""
    _, mul, _ = int_tables(ctx)
    pw = np.ones((ctx.q, n + 1), np.intp)
    for e in range(1, n + 1):
        pw[:, e] = mul[pw[:, e - 1], np.arange(ctx.q)]
    return pw


@functools.lru_cache(maxsize=8)
def log_arrays(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """exp and log of the scalar ops as read-only intp arrays, exp twice
    over and log[0] = -1: products, quotients and powers of code arrays in
    O(q) memory, for fields too large for the q x q tables."""
    exp, log, _ = ctx._logs
    out = np.array(exp, np.intp), np.array(log, np.intp)
    for a in out:
        a.flags.writeable = False
    return out


def dot(ctx: FieldCtx, pairs) -> np.ndarray:
    """The field sum of c * x over the pairs (c, x), elementwise over code
    arrays broadcast together; either factor may also be an int.  pairs may
    be a generator: a caller that leaves out the zero coefficients never
    reads their columns.

    Over a prime field the products are summed in int32, in place where
    the shapes allow, and in int64 once len(pairs) (p - 1)^2 reaches 2**31;
    the sum is reduced mod p once.  Over an extension field the terms are
    int16 gathers from the flattened tables: a row of MUL for an int
    coefficient, MUL at c q + x for an array one, and ADD at acc q + term;
    a unit int coefficient reads its column as is, and the sum of one such
    term is a copy, never the caller's array.
    """
    acc = None
    if ctx.e == 1:
        p, bound = ctx.p, 0
        for c, x in pairs:
            bound += (p - 1) ** 2  # the largest partial sum
            term = np.multiply(x, c, dtype=np.int32 if bound < 2**31 else np.int64)
            if acc is None:
                acc = term
            elif acc.shape == term.shape and acc.dtype == term.dtype:
                acc += term
            else:  # a wider shape or dtype
                acc = acc + term
        return np.mod(acc, p, out=acc)
    q, tabs = ctx.q, tables(ctx)
    add, mul = tabs.ADD.ravel(), tabs.MUL.ravel()
    unit = None  # a column read as is, for a unit coefficient
    for c, x in pairs:  # int16 codes, so the int32 indices c q + x stay below 2**30
        if not isinstance(c, int):
            term = mul.take(np.multiply(c, q, dtype=np.int32) + x)
        elif c == 1 and isinstance(x, np.ndarray):
            term = unit = x
        else:
            term = tabs.MUL[c].take(x)
        acc = term if acc is None else add.take(np.multiply(acc, q, dtype=np.int32) + term)
    if unit is not None and acc is unit:  # a lone unit term: never alias the caller's array
        acc = acc.astype(tabs.MUL.dtype)
    return acc


def kernels(ctx: FieldCtx, a) -> tuple[np.ndarray, np.ndarray]:
    """Null spaces of a stack of square matrices of codes (..., m, m), by
    one Gauss-Jordan elimination of the whole stack (_eliminate, a column
    at a time) to reduced row echelon form R.

    Returns (basis, free), intp codes (..., m, m) and a mask (..., m).
    free marks the columns of R without a pivot; for each free column j,
    basis[..., j, :] is the kernel vector with 1 at j, 0 at the other free
    columns and -R[i, j] at the pivot column of row i.  The rows at pivot
    columns are zero, so the free rows are a basis of the kernel and its
    dimension is free.sum(-1); the coordinates of a kernel vector in that
    basis are its entries at the free columns.
    """
    a = np.array(a, np.intp)
    shape, m = a.shape[:-2], a.shape[-1]
    r = a.reshape(-1, m, m)
    rank = np.zeros(len(r), np.intp)
    pivot_col = np.zeros((len(r), m), np.intp)  # of rows 0 .. rank - 1
    free = np.empty((len(r), m), bool)
    for c in range(m):
        free[:, c] = ~_eliminate(ctx, r, rank, pivot_col, c)
    basis = np.zeros_like(r)
    basis[:, np.arange(m), np.arange(m)] = free
    mat, row = np.nonzero(np.arange(m) < rank[:, None])
    basis[mat, :, pivot_col[mat, row]] = np.where(free[mat], dot(ctx, [(ctx.p - 1, r[mat, row])]), 0)
    return basis.reshape(a.shape), free.reshape(*shape, m)


def _eliminate(ctx: FieldCtx, r, rank, pivot_col, c: int) -> np.ndarray:
    """One Gauss-Jordan step on column c of the stack r (k, m, m), in
    place: in each matrix with a nonzero entry in column c at or below row
    rank, the first such row is swapped to row rank and scaled to a leading
    1, column c is cleared in every other row, and rank grows by one.
    Returns the mask of the matrices that took a pivot."""
    m = r.shape[-1]
    cand = (r[:, :, c] != 0) & (np.arange(m) >= rank[:, None])
    took = cand.any(1)
    sel = np.flatnonzero(took)
    at, k = np.arange(len(sel)), rank[sel]
    rows = r[sel]
    piv = cand[sel].argmax(1)
    top = rows[at, piv]
    rows[at, piv] = rows[at, k]
    rows[at, k] = top = dot(ctx, [(tables(ctx).INV[top[:, c, None]], top)])
    factor = dot(ctx, [(ctx.p - 1, rows[:, :, c])])  # minus the entry of column c
    factor[at, k] = 0
    r[sel] = dot(ctx, ((1, rows), (factor[:, :, None], top[:, None, :])))
    pivot_col[sel, k] = c
    rank[sel] += 1
    return took


def extend(base: FieldCtx, d: int) -> tuple[FieldCtx, tuple[int, ...]]:
    """Degree-d extension of base, d >= 2.

    Returns (ext, emb) where emb is a lookup tuple of length base.q taking
    each base element code to its image in ext.  The embedding sends the
    power-basis generator of base to the least root of base.modulus in ext,
    so it is deterministic and compatible across repeated calls.
    """
    if d < 2:
        raise ValueError(f"extension degree must be >= 2, got {d}")
    key = (base, d)
    hit = _EXT_CACHE.get(key)
    if hit is not None:
        return hit
    ext = make_field(base.p, base.e * d)
    # the codes 0..p-1 are the prime field in every field, so base.modulus
    # reads as a polynomial over ext
    root = next((t for t in range(ext.q) if peval(ext, base.modulus, t) == 0), None)
    if root is None:
        raise VerificationError(f"modulus {base.modulus} must split in F_{ext.q}")
    emb = tuple(peval(ext, to_digits(base, x), root) for x in range(base.q))
    _EXT_CACHE[key] = (ext, emb)
    return ext, emb


# ---------------------------------------------------------------------------
# polynomials over a field: tuples of codes, ascending degree, no trailing 0s


def pnorm(f) -> tuple[int, ...]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def pscale(ctx: FieldCtx, c: int, f) -> tuple[int, ...]:
    if c == 0:
        return ()
    return pnorm([mul(ctx, c, a) for a in f])


def pmul(ctx: FieldCtx, f, g) -> tuple[int, ...]:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = add(ctx, out[i + j], mul(ctx, a, b))
    return pnorm(out)


def pmod(ctx: FieldCtx, f, g) -> tuple[int, ...]:
    g = pnorm(g)
    if not g:
        raise ZeroDivisionError("poly mod by zero")
    r = list(pnorm(f))
    dg = len(g) - 1
    ginv = inv(ctx, g[-1])
    while len(r) - 1 >= dg:
        c = mul(ctx, r[-1], ginv)
        off = len(r) - 1 - dg
        for i, b in enumerate(g):
            r[off + i] = sub(ctx, r[off + i], mul(ctx, c, b))
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def pgcd(ctx: FieldCtx, f, g) -> tuple[int, ...]:
    """Monic gcd."""
    a, b = pnorm(f), pnorm(g)
    while b:
        a, b = b, pmod(ctx, a, b)
    if a:
        a = pscale(ctx, inv(ctx, a[-1]), a)
    return a


def pderiv(ctx: FieldCtx, f) -> tuple[int, ...]:
    out = []
    for i in range(1, len(f)):
        c = mul(ctx, i % ctx.p, f[i])
        out.append(c)
    return pnorm(out)


def peval(ctx: FieldCtx, f, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = add(ctx, mul(ctx, acc, x), c)
    return acc


def is_squarefree_poly(ctx: FieldCtx, f) -> bool:
    f = pnorm(f)
    if not f:
        return False
    if len(f) == 1:
        return True
    return len(pgcd(ctx, f, pderiv(ctx, f))) == 1
