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
substitution_matrix is the only routine that expands it: act_form applies
it to one form, the oracle engine to every form at once.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from . import field as ff
from .field import FieldCtx
from .moebius import INF, GlMatrix, MoebiusElem, ProjPoint, act_point, enumerate_pgl, fin


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


def points_to_nset(ctx: FieldCtx, pts) -> RationalNSet:
    """n-set through the given rational points (distinct, base field)."""
    f = (1,)
    has_inf = False
    seen = set()
    for t in pts:
        if t in seen:
            raise ValueError(f"repeated point {t}")
        seen.add(t)
        if t.finite:
            f = ff.pmul(ctx, f, (ff.neg(ctx, t.x), 1))
        else:
            has_inf = True
    return RationalNSet(f, has_inf)


def nset_str(s: RationalNSet) -> str:
    """Canonical textual form: comma-joined coefficient codes, low degree
    first and the monic 1 included, with ';inf' appended when present."""
    body = ",".join(str(c) for c in s.f)
    return body + (";inf" if s.has_inf else "")


def enumerate_nsets(ctx: FieldCtx, n: int):
    """All rational n-sets, deterministic order.

    First the sets avoiding infinity (monic squarefree f of degree n),
    then the sets containing it (degree n - 1), each block ordered by the
    integer whose base-q digits are the non-leading coefficients (constant
    coefficient least significant).  Total count is a_p1(n, q).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q = ctx.q
    for has_inf in (False, True):
        deg = n - (1 if has_inf else 0)
        if deg == 0:
            yield RationalNSet((1,), True)
            continue
        for code in range(q**deg):
            coeffs = []
            c = code
            for _ in range(deg):
                c, r = divmod(c, q)
                coeffs.append(r)
            f = tuple(coeffs) + (1,)
            if ff.is_squarefree_poly(ctx, f):
                yield RationalNSet(f, has_inf)


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


@functools.lru_cache(maxsize=4096)
def substitution_matrix(ctx: FieldCtx, mat: GlMatrix, n: int) -> tuple[tuple[int, ...], ...]:
    """(n+1)x(n+1) matrix T of the adjugate substitution on form
    coefficients: the image of a form F has coefficients sum_k T[i][k] F[k].

    Column k holds the coefficients of (dX - bZ)^(n-k) (-cX + aZ)^k, the
    image of the basis form X^(n-k) Z^k.  Cached, since the suites act with
    the same few matrices on many sets.
    """
    l1 = (mat.d, ff.neg(ctx, mat.b))  # coeff of X, coeff of Z in the X-slot
    l2 = (ff.neg(ctx, mat.c), mat.a)
    # pow1[j] = coefficient vector of (dX - bZ)^j indexed by Z-degree
    pow1 = [(1,)]
    pow2 = [(1,)]
    for _ in range(n):
        pow1.append(_linmul(ctx, pow1[-1], l1))
        pow2.append(_linmul(ctx, pow2[-1], l2))
    t = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        for j1, c1 in enumerate(pow1[n - k]):
            if c1 == 0:
                continue
            for j2, c2 in enumerate(pow2[k]):
                if c2 == 0:
                    continue
                t[j1 + j2][k] = ff.add(ctx, t[j1 + j2][k], ff.mul(ctx, c1, c2))
    return tuple(map(tuple, t))


def act_form(ctx: FieldCtx, mat: GlMatrix, s: RationalNSet) -> tuple[RationalNSet, int]:
    """Image n-set under the point action plus the leading scalar kappa.

    The form is multiplied by the cached substitution_matrix, the adjugate
    substitution (dX - bZ, -cX + aZ), so that roots of the image form are
    exactly the images (at+b)/(ct+d) of roots.
    """
    form = to_form(ctx, s)
    t = substitution_matrix(ctx, mat, s.n)
    if ctx.e == 1:
        p = ctx.p
        out = [sum(map(operator.mul, row, form)) % p for row in t]
    else:
        out = [0] * len(form)
        for i, row in enumerate(t):
            for c, f in zip(row, form):
                if c and f:
                    out[i] = ff.add(ctx, out[i], ff.mul(ctx, c, f))
    return from_form(ctx, tuple(out))


def _linmul(ctx: FieldCtx, vec, lin):
    # multiply a Z-degree-indexed coefficient vector by (u X + v Z)
    u, v = lin
    out = [0] * (len(vec) + 1)
    for i, c in enumerate(vec):
        if c == 0:
            continue
        out[i] = ff.add(ctx, out[i], ff.mul(ctx, c, u))
        out[i + 1] = ff.add(ctx, out[i + 1], ff.mul(ctx, c, v))
    return tuple(out)


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


def stabilizer(s: RationalNSet, ctx: FieldCtx) -> list[MoebiusElem]:
    """All classes fixing the n-set (setwise)."""
    out = []
    for e in enumerate_pgl(ctx):
        if apply_moebius(e, s, ctx) == s:
            out.append(e)
    return out


def rational_points(s: RationalNSet, ctx: FieldCtx) -> list[ProjPoint]:
    pts = [fin(x) for x in range(ctx.q) if ff.peval(ctx, s.f, x) == 0]
    if s.has_inf:
        pts.append(INF)
    return pts
