"""Rational n-sets on the projective line.

An n-set is a Galois-stable set of n distinct points of the projective
line over the algebraic closure.  It is stored as the monic squarefree
polynomial vanishing on its finite points (ascending coefficients, codes
of the base field) plus a flag for the point at infinity, so
n = deg f + has_inf.

The degree-n binary form of an n-set S is F[i] = coefficient of
X^(n-i) Z^i, i.e. the homogenization of f when inf is absent and Z times
the degree-(n-1) homogenization when inf is present (then F[0] = 0).
A matrix acts on forms by substitution with its adjugate, which realizes
the point action t -> (at+b)/(ct+d) on roots; the image form equals the
image n-set's form up to the nonzero leading scalar kappa recovered here.
The substitution is one linear map on the n + 1 coefficients, and
substitution_matrices is the only routine that expands it, for a whole
stack of matrices at once.  Everything else reads from it: act_forms
applies a stack to many forms through field.dot, stabilizer_masks acts
with all of PGL2 on many forms in one act_forms call, and
substitution_matrix, its cached one-matrix view, serves the oracle
engine and act_form, the one-pair view of act_forms.  form_values
evaluates many forms at many points by gathers from the field tables,
for the batched twist signs.  fixed_point_counts says how many of their
fixed points a stack of elements' forms hold, in base-field arithmetic,
broadcast as act_forms is: the j of census.CONFIGURATIONS, which the
closed-form signs and the counts and quot suites read, one call a batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import field as ff
from .field import FieldCtx
from .moebius import GlMatrix, MoebiusElem, ProjPoint, act_point, enumerate_pgl, mat_codes


@dataclass(frozen=True)
class RationalNSet:
    f: tuple[int, ...]  # monic, squarefree, ascending coefficients
    has_inf: bool

    @property
    def n(self) -> int:
        return len(self.f) - 1 + (1 if self.has_inf else 0)


def make_nset(ctx: FieldCtx, f, has_inf: bool) -> RationalNSet:
    f = ff.pnorm(f)
    if not f or f[-1] != 1:
        raise ValueError("f must be monic")
    if not ff.is_squarefree_poly(ctx, f):
        raise ValueError("f must be squarefree")
    return RationalNSet(tuple(f), bool(has_inf))


def to_form(ctx: FieldCtx, s: RationalNSet, n: int | None = None) -> tuple[int, ...]:
    if n is None:
        n = s.n
    if s.n != n:
        raise ValueError(f"{s} is a {s.n}-set, not an {n}-set")
    d = len(s.f) - 1
    # F[i] = coeff of X^(n-i) Z^i = f[d - (i - (n - d))] shifted by has_inf
    form = [0] * (n + 1)
    for j, c in enumerate(s.f):  # c = coeff of x^j
        form[n - j] = c
    return tuple(form)


def from_form(ctx: FieldCtx, form) -> tuple[RationalNSet, int]:
    """Recover (n-set, kappa) from a nonzero multiple of an n-set form."""
    n = len(form) - 1
    if form[0] != 0:
        kappa = form[0]
        inv = ff.inv(ctx, kappa)
        f = tuple(ff.mul(ctx, inv, form[n - j]) for j in range(n + 1))
        return RationalNSet(f, False), kappa
    kappa = form[1]
    if kappa == 0:
        raise ValueError(f"form has a double root at infinity: {form}")
    inv = ff.inv(ctx, kappa)
    f = tuple(ff.mul(ctx, inv, form[n - j]) for j in range(n))
    return RationalNSet(f, True), kappa


def substitution_matrices(ctx: FieldCtx, mats, n: int) -> np.ndarray:
    """Substitution matrices of a stack of matrices given as entry codes
    (a, b, c, d) of shape (..., 4): intp codes of shape (..., n+1, n+1),
    where T[..., i, k] is the coefficient of X^(n-i) Z^i in
    (dX - bZ)^(n-k) (-cX + aZ)^k, the image of the basis form X^(n-k) Z^k.
    The image of a form F has coefficients sum_k T[i, k] F[k].

    Row j of the powers of a linear form uX + vZ holds the Z^m
    coefficients C(j, m) u^(j-m) v^m, gathered from a table of powers;
    column k is the product of row n - k of the first form and row k of
    the second, accumulated over the Z-degree of the second factor.  Every
    product and sum is a gather from the field tables, so it serves every
    field and every matrix of the stack at once.
    """
    add, mul, _ = ff.int_tables(ctx)
    pw, binom, jm, m = _expansion_tables(ctx, n)
    mats = np.asarray(mats, np.intp)
    signed = np.concatenate((mats, mul[ctx.p - 1, mats]), -1)  # a b c d -a -b -c -d
    u = signed[..., [3, 6], None, None]  # X coefficients d, -c of the two forms
    v = signed[..., [5, 0], None, None]  # Z coefficients -b, a
    rows = mul[binom, mul[pw[u, jm], pw[v, m]]]  # [..., form, j, m]
    first, second = rows[..., 0, ::-1, :], rows[..., 1, :, :]  # row k: powers n - k, k
    t = mul[first, second[..., :1]]  # t[..., k, i], the transpose
    for j in range(1, n + 1):
        t[..., j:] = add[t[..., j:], mul[first[..., : n + 1 - j], second[..., j : j + 1]]]
    return np.swapaxes(t, -1, -2)


@functools.lru_cache(maxsize=64)
def _expansion_tables(ctx: FieldCtx, n: int):
    """field.powers up to n; the binomials C(j, m) as codes (0 for m > j);
    the exponents j - m (clipped at 0, where the binomial vanishes) and m
    over 0 <= j, m <= n."""
    binom = np.array([[math.comb(j, m) % ctx.p for m in range(n + 1)] for j in range(n + 1)])
    j, m = np.ogrid[: n + 1, : n + 1]
    return ff.powers(ctx, n), binom, np.maximum(j - m, 0), m


@functools.lru_cache(maxsize=4096)
def substitution_matrix(ctx: FieldCtx, mat: GlMatrix, n: int) -> tuple[tuple[int, ...], ...]:
    """substitution_matrices of the one matrix, as nested tuples of ints.
    Cached, since the suites act with the same few matrices on many sets."""
    t = substitution_matrices(ctx, (mat.a, mat.b, mat.c, mat.d), n)
    return tuple(map(tuple, t.tolist()))


def act_forms(ctx: FieldCtx, subs, forms) -> tuple[np.ndarray, np.ndarray]:
    """Image n-set forms and their kappas under stacks of substitution
    matrices (..., n+1, n+1) and forms (..., n+1), broadcast against each
    other as numpy does: paired rows, or one side a single row.

    Each image form sum_k T[i, k] F[k], one field.dot over the columns, is
    returned divided by its kappa, the coefficient 0, or 1 through
    infinity, so that it is the to_form of the image n-set; kappa comes
    back beside it.
    """
    _, mul, inv = ff.int_tables(ctx)
    subs, forms = np.asarray(subs), np.asarray(forms)
    img = ff.dot(ctx, ((subs[..., k], forms[..., None, k]) for k in range(forms.shape[-1])))
    kappa = np.where(img[..., 0] != 0, img[..., 0], img[..., 1])
    if not kappa.all():
        raise ValueError("an image form has a double root at infinity")
    return mul[inv[kappa][..., None], img], kappa


def form_values(ctx: FieldCtx, forms, x) -> np.ndarray:
    """F(x, 1) of n-set forms (..., n+1) at codes x broadcast against
    forms[..., 0]: the value of f, which the form dehomogenizes to with or
    without the point at infinity.  Horner over the form columns, by
    gathers from the field tables."""
    add, mul, _ = ff.int_tables(ctx)
    forms, x = np.asarray(forms, np.intp), np.asarray(x, np.intp)
    val = np.broadcast_to(forms[..., 0], np.broadcast_shapes(forms[..., 0].shape, x.shape))
    for k in range(1, forms.shape[-1]):
        val = add[mul[val, x], forms[..., k]]
    return val


_COUNT_BLOCK = 2**16  # pairs a block of fixed_point_counts, to bound its temporaries


def fixed_point_counts(ctx: FieldCtx, mats, forms) -> np.ndarray:
    """How many of the fixed points of a nonidentity matrix each n-set form
    holds, as int8, in F_q arithmetic only, for stacks of matrices given as
    entry codes (a, b, c, d) of shape (..., 4) and forms (..., n+1),
    broadcast against each other as in act_forms.

    A stack of at most _COUNT_BLOCK pairs is counted in one block.  A
    larger one is counted one index of its leading batch axes and at most
    _COUNT_BLOCK rows of the last axis at a time: that keeps the
    temporaries small, and where a block's matrices are one element (a few
    elements stacked against every row of a state) it reads only the form
    columns with a nonzero weight for that element.
    """
    mats, forms = np.asarray(mats, np.intp), np.asarray(forms)
    final = np.broadcast_shapes(mats.shape[:-1], forms.shape[:-1])
    shape = final or (1,)
    size = math.prod(shape)
    if not size:
        return np.zeros(final, np.int8)
    mats, forms = (x.reshape((1,) * (len(shape) + 1 - x.ndim) + x.shape) for x in (mats, forms))
    if size <= _COUNT_BLOCK:
        return _fixed_point_counts(ctx, mats, forms).reshape(final)
    out = np.empty(shape, np.int8)
    for lead in np.ndindex(shape[:-1]):
        # each side's block: index 0 on the axes it broadcasts along
        m, f = (x[tuple(i if x.shape[a] > 1 else 0 for a, i in enumerate(lead))]
                for x in (mats, forms))
        for lo in range(0, shape[-1], _COUNT_BLOCK):
            rows = slice(lo, lo + _COUNT_BLOCK)
            out[lead][rows] = _fixed_point_counts(ctx, m[rows] if len(m) > 1 else m,
                                                  f[rows] if len(f) > 1 else f)
    return out.reshape(final)


def _fixed_point_counts(ctx: FieldCtx, mats, forms) -> np.ndarray:
    """fixed_point_counts of one block.

    Each count reads two sums r0 = sum_i w0[i] F[i] and r1 = sum_i w1[i] F[i]
    whose weights are gathered per matrix.  With c = 0 the fixed points are
    infinity, held where r1 = F[0] vanishes, and unless d = a the point
    t = b/(d - a), held where r0 = f(t) vanishes (w0[i] = t^(n-i)).
    Otherwise they are the roots of mu = x^2 + e1 x + e0, e1 = (d - a)/c,
    e0 = -b/c, and r0 + r1 x = f mod mu, with x^j mod mu = A_j + B_j x from
    x^(j+1) = -e0 B_j + (A_j - e1 B_j) x.  r = 0 holds both roots; else one
    is held where the resultant r0^2 - e1 r0 r1 + e0 r1^2 (f at one root
    times f at the other) vanishes.  It never does for an irreducible mu
    (nonsquare discriminant), whose conjugate roots are held together or
    not at all, so a block without a split mu skips it; nor for a double
    root (kind B) held twice, since an n-set form has no square factor.
    """
    add, mul, inv = ff.int_tables(ctx)
    n = forms.shape[-1] - 1
    minus = ctx.p - 1  # the code of -1
    a, b, c, d = np.moveaxis(mats, -1, 0)
    d_a = add[d, mul[minus, a]]
    e1, ne0 = mul[d_a, inv[c]], mul[b, inv[c]]  # e1 and -e0, 0 when c = 0
    aj, bj = np.ones_like(c), np.zeros_like(c)
    w0, w1 = [aj], [bj]  # [j] = A_j, B_j, the weights of column n - j
    for _ in range(n):
        aj, bj = mul[ne0, bj], add[aj, mul[minus, mul[e1, bj]]]
        w0.append(aj)
        w1.append(bj)
    diag = c == 0
    t = mul[b, inv[d_a]]
    w0 = np.where(diag[..., None], ff.powers(ctx, n)[t, ::-1], np.stack(w0[::-1], -1))
    w1 = np.where(diag[..., None], np.arange(n + 1) == 0, np.stack(w1[::-1], -1))

    def weighted(wk):  # sum_i wk[i] F[i], over the columns some matrix weights
        cols = np.flatnonzero(wk.reshape(-1, n + 1).any(0))
        return ff.dot(ctx, ((wk[..., i], forms[..., i]) for i in cols))

    r0, r1 = weighted(w0), weighted(w1)
    z0, z1 = r0 == 0, r1 == 0
    fixed = free = None
    if diag.any():  # infinity, and b/(d - a) unless d = a
        fixed = z1.astype(np.int8)
        fixed += (d != a) & z0
    if not diag.all():  # both roots of mu, or one where the resultant vanishes
        both = z0 & z1
        free = both * np.int8(2)
        disc = add[mul[e1, e1], mul[4 % ctx.p, ne0]]  # e1^2 - 4 e0
        if (~diag & (ff.tables(ctx).CHI[disc] != -1)).any():
            half = ff.dot(ctx, ((1, r0), (mul[minus, e1], r1)))  # r0 - e1 r1
            res = ff.dot(ctx, ((r0, half), (mul[minus, ne0], ff.dot(ctx, ((r1, r1),)))))
            free[~both & (res == 0)] = 1
    if free is None or fixed is None:
        return fixed if free is None else free
    return np.where(diag, fixed, free)


def act_form(ctx: FieldCtx, mat: GlMatrix, s: RationalNSet) -> tuple[RationalNSet, int]:
    """Image n-set under the point action plus the leading scalar kappa:
    the one-pair view of act_forms with the cached substitution_matrix,
    the adjugate substitution (dX - bZ, -cX + aZ), so that roots of the
    image form are exactly the images (at+b)/(ct+d) of roots.
    """
    img, kappa = act_forms(ctx, substitution_matrix(ctx, mat, s.n), to_form(ctx, s))
    return from_form(ctx, tuple(img.tolist()))[0], int(kappa)


def apply_moebius(gamma, s: RationalNSet, ctx: FieldCtx) -> RationalNSet:
    mat = gamma.mat if isinstance(gamma, MoebiusElem) else gamma
    return act_form(ctx, mat, s)[0]


def contains_point(s: RationalNSet, t: ProjPoint, ctx: FieldCtx, emb=None) -> bool:
    """Membership of a point; ctx is the field of t, emb lifts the
    coefficients of f when t lives in an extension."""
    if not t.finite:
        return s.has_inf
    if emb is None:
        return ff.peval(ctx, s.f, t.x) == 0
    lifted = tuple(emb[c] for c in s.f)
    return ff.peval(ctx, lifted, t.x) == 0


@functools.lru_cache(maxsize=16)
def _pgl_substitutions(ctx: FieldCtx, n: int) -> np.ndarray:
    """substitution_matrices of every element of enumerate_pgl, in order."""
    return substitution_matrices(ctx, mat_codes(e.mat for e in enumerate_pgl(ctx)), n)


def stabilizer_masks(ctx: FieldCtx, forms) -> np.ndarray:
    """Masks (..., |PGL2|) of the enumerate_pgl elements fixing each of the
    n-set forms (..., n+1) setwise: one act_forms call of every element
    against every form."""
    forms = np.asarray(forms, np.intp)[..., None, :]
    img, _ = act_forms(ctx, _pgl_substitutions(ctx, forms.shape[-1] - 1), forms)
    return (img == forms).all(-1)


def stabilizer(s: RationalNSet, ctx: FieldCtx) -> list[MoebiusElem]:
    """All classes fixing the n-set (setwise), in enumerate_pgl order."""
    pgl = enumerate_pgl(ctx)
    return [pgl[i] for i in np.flatnonzero(stabilizer_masks(ctx, to_form(ctx, s)))]
