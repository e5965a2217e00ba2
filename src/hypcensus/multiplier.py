"""Multiplier cocycle of the fractional linear action on n-sets.

For a matrix gamma and an n-set S with image S' = gamma S, the two forms
F_S(adjugate substitution) and F_S' agree up to a nonzero scalar; the
global multiplier J(gamma, S) = det(gamma)^n / kappa measures that scalar
against the determinant normalization.  It satisfies the cocycle law
J(gamma rho, S) = J(rho, S) J(gamma, rho S) and, for even n, its square
class is independent of the matrix chosen in a projective class.

The sign epsilon(gamma, S) = chi(J) for even n decides whether gamma maps
the twisted class (lambda, S) to (lambda, gamma S) or flips the twist.
The closed forms below evaluate epsilon for stable S without computing J:
kind B always +1; kind C via the parity of (q-1)/order and the number of
fixed points inside S; kind A via divisibility of n by the order.
"""

from __future__ import annotations

from typing import NamedTuple

from . import field as ff
from .census import VerificationError
from .field import FieldCtx
from .moebius import GlMatrix, MoebiusElem, ProjPoint, act_point, fixed_points
from .nset import RationalNSet, act_form, apply_moebius, contains_point


def local_multiplier(mat: GlMatrix, t: ProjPoint, ctx: FieldCtx, emb=None) -> int:
    """Multiplier of gamma at a single point of the projective line.

    Piecewise: det/(ct+d) at ordinary finite t, c at the pole t = -d/c,
    and at infinity d (when c = 0) or -det/c (when c != 0).  ctx is the
    field of t; emb lifts the matrix entries into it.
    """
    a, b, c, d = mat.a, mat.b, mat.c, mat.d
    if emb is not None:
        a, b, c, d = emb[a], emb[b], emb[c], emb[d]
    det = ff.sub(ctx, ff.mul(ctx, a, d), ff.mul(ctx, b, c))
    if t.finite:
        den = ff.add(ctx, ff.mul(ctx, c, t.x), d)
        if den != 0:
            return ff.div(ctx, det, den)
        return c
    if c == 0:
        return d
    return ff.neg(ctx, ff.div(ctx, det, c))


def kappa_multiplier(mat: GlMatrix, s: RationalNSet, ctx: FieldCtx) -> int:
    """J via the leading scalar of the substituted form: det^n / kappa."""
    n = s.n
    _, kappa = act_form(ctx, mat, s)
    det = ff.sub(ctx, ff.mul(ctx, mat.a, mat.d), ff.mul(ctx, mat.b, mat.c))
    return ff.div(ctx, ff.pw(ctx, det, n), kappa)


def _sweep_candidates(ctx: FieldCtx):
    """(field, emb, candidate codes) triples: base field, then the
    quadratic and quartic extensions, codes ascending in each."""
    yield ctx, None, range(ctx.q)
    ext2, emb2 = ff.extend(ctx, 2)
    yield ext2, emb2, range(ext2.q)
    ext4, emb4 = ff.extend(ctx, 4)
    yield ext4, emb4, range(ext4.q)


def global_multiplier(mat: GlMatrix, s: RationalNSet, ctx: FieldCtx, debug: bool = False) -> int:
    """J(gamma, S) by evaluating the form ratio at a generic point.

    Sweeps x0 through the base field and then the quadratic and quartic
    extensions until f_S(x0) != 0 and c x0 + d != 0; such a point always
    exists over the quartic extension since at most n + 1 <= 9 values are
    excluded.  J = (c x0 + d)^n f_S'(gamma x0) / f_S(x0), which lies in
    the base field; with debug=True a second valid x0 re-derives it.
    """
    n = s.n
    s_img = apply_moebius(mat, s, ctx)
    values = []
    for fld, emb, cands in _sweep_candidates(ctx):
        if emb is None:
            c, d = mat.c, mat.d
            f = s.f
            f_img = s_img.f
            back = None
        else:
            c, d = emb[mat.c], emb[mat.d]
            f = tuple(emb[v] for v in s.f)
            f_img = tuple(emb[v] for v in s_img.f)
            back = {v: i for i, v in enumerate(emb)}
        for x0 in cands:
            den = ff.peval(fld, f, x0)
            lin = ff.add(fld, ff.mul(fld, c, x0), d)
            if den == 0 or lin == 0:
                continue
            y0 = act_point(mat, ProjPoint(True, x0), fld, emb)
            if not y0.finite:
                raise VerificationError(f"finite point {x0} with c x0 + d != 0 mapped to infinity")
            num = ff.peval(fld, f_img, y0.x)
            j = ff.div(fld, ff.mul(fld, ff.pw(fld, lin, n), num), den)
            if back is not None:
                if j not in back:
                    raise VerificationError(f"multiplier must descend to the base field: {mat}, {s}")
                j = back[j]
            values.append(j)
            if not debug or len(values) == 2:
                if any(v != values[0] for v in values):
                    raise VerificationError(f"multiplier depends on the evaluation point: {values}")
                return values[0]
    raise VerificationError("no valid evaluation point found")


def epsilon(gamma, s: RationalNSet, ctx: FieldCtx) -> int:
    """Twist sign chi(J(gamma, S)) for even n; +1 or -1."""
    mat = gamma.mat if isinstance(gamma, MoebiusElem) else gamma
    if s.n % 2 != 0:
        raise ValueError("epsilon is defined for even n only")
    j = global_multiplier(mat, s, ctx)
    return 1 if ff.is_square(j, ctx) else -1


def epsilon_closed_form(gamma: MoebiusElem, s: RationalNSet, ctx: FieldCtx) -> int:
    """epsilon(gamma, S) for nonidentity gamma stabilizing S, without
    evaluating the cocycle.

    kind B: always +1.  kind C of order m: -1 exactly when (q-1)/m is odd
    and both fixed points lie in S.  kind A of order m: with both conjugate
    fixed points in S (then m | n-2) the sign is (-1)^((q+1)/m + (n-2)/m),
    otherwise (then m | n) it is (-1)^(n/m).
    """
    if s.n % 2 != 0:
        raise ValueError("epsilon is defined for even n only")
    if gamma.kind == "identity":
        raise ValueError("closed form requires a nonidentity element")
    if apply_moebius(gamma, s, ctx) != s:
        raise ValueError("closed form requires gamma S = S")
    if gamma.kind == "B":
        return 1
    m = gamma.order
    ext, emb, pts = fixed_points(gamma, ctx)
    cnt = sum(1 for t in pts if contains_point(s, t, ext, emb))
    n = s.n
    if gamma.kind == "C":
        return -1 if (((ctx.q - 1) // m) % 2 == 1 and cnt == 2) else 1
    # kind A: the conjugate pair is in S together or not at all
    if cnt not in (0, 2):
        raise VerificationError(f"kind A fixes a conjugate pair, {cnt} of it in S: {s}")
    if cnt == 2:
        if (n - 2) % m:
            raise VerificationError(f"order {m} must divide n - 2 = {n - 2}")
        return -1 if (((ctx.q + 1) // m + (n - 2) // m) % 2 == 1) else 1
    if n % m:
        raise VerificationError(f"order {m} must divide n = {n}")
    return -1 if ((n // m) % 2 == 1) else 1


class NormLemmaReport(NamedTuple):
    m: int
    statement1: bool  # Norm(alpha) is a square iff (q+1)/m is even
    statement2: bool  # m even implies alpha^m is a nonsquare of F_q


def norm_lemma_check(base: FieldCtx, alpha: int) -> NormLemmaReport:
    """Check the norm parity facts for alpha in the quadratic extension.

    m is the least positive exponent with alpha^m in the base field (it
    always divides q + 1 when alpha has the subtype-representative shape).
    """
    ext, emb = ff.extend(base, 2)
    base_img = set(emb)
    m = 1
    x = alpha
    while x not in base_img:
        x = ff.mul(ext, x, alpha)
        m += 1
        if m > ext.q:
            raise VerificationError(f"alpha^m never landed in the base field: {alpha}")
    q = base.q
    norm = ff.mul(ext, alpha, ff.frobenius(alpha, ext, q))
    if norm not in base_img:
        raise VerificationError(f"the norm of {alpha} is not in the base field")
    back = {v: i for i, v in enumerate(emb)}
    stmt1 = ff.is_square(back[norm], base) == (((q + 1) // m) % 2 == 0)
    if m % 2 == 0:
        stmt2 = not ff.is_square(back[x], base)
    else:
        stmt2 = True
    return NormLemmaReport(m, stmt1, stmt2)


def orbit_multiplier_check(
    gamma: MoebiusElem, alpha: int, t: ProjPoint, ctx: FieldCtx
) -> tuple[int, int]:
    """Product of local multipliers along the gamma-orbit of t over the
    quadratic extension, paired with its predicted value alpha^order.

    Pre: gamma of kind A with eigenvalue alpha, t not fixed by gamma.
    The orbit must have size exactly the order; both returned values are
    codes of the quadratic extension.
    """
    if gamma.kind != "A":
        raise ValueError(f"orbit lemma is for kind A elements, got {gamma.kind}")
    ext, emb = ff.extend(ctx, 2)
    orbit = [t]
    cur = act_point(gamma.mat, t, ext, emb)
    while cur != t:
        orbit.append(cur)
        cur = act_point(gamma.mat, cur, ext, emb)
        if len(orbit) > gamma.order:
            raise VerificationError(f"orbit of {t} outgrew the order {gamma.order}")
    if len(orbit) == 1:
        raise ValueError(f"{t} is fixed by {gamma.mat}")
    if len(orbit) != gamma.order:
        raise VerificationError(f"non-fixed orbits have size exactly the order: {t}, {len(orbit)}")
    prod = 1
    for pt in orbit:
        prod = ff.mul(ext, prod, local_multiplier(gamma.mat, pt, ext, emb))
    expected = ff.pw(ext, alpha, gamma.order)
    return prod, expected
