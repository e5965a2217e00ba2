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
fixed points inside S; kind A via divisibility of n by the order.  The
per-pair epsilon_closed_form, the reference, writes that rule out; the
batched epsilon_closed_forms reads it from census.twist_sign.

Each quantity has a per-pair function, the reference, and a batched view
over numpy stacks of (element, n-set) pairs that the verification suites
call once per batch: kappa_multipliers beside kappa_multiplier, epsilons
beside epsilon (the global_multiplier sweep), and epsilon_closed_forms,
a list of elements with an index pairing each form with one of them,
beside epsilon_closed_form.  epsilons keeps the sweep order of
_sweep_candidates: per pair it takes the least base field code x0 with
f_S(x0) != 0 and c x0 + d != 0 from one table of f_S over F_q, then the
least such code of the quadratic extension, then of the quartic one,
each level in one batch over the pairs still left.
It reads the image forms from act_forms, never kappa, so the eps suite
still compares two independent routes to the sign.  The batched closed
form counts the fixed points in S with one nset.fixed_point_counts call
over all its pairs, over F_q; the per-pair one finds them over F_(q^2),
so the tests comparing the two compare two derivations of that count.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import field as ff
from .census import CONFIGURATIONS, VerificationError, twist_sign
from .field import FieldCtx
from .moebius import GlMatrix, MoebiusElem, ProjPoint, act_point, fixed_points, mat_codes, mat_det
from .nset import RationalNSet, act_form, act_forms, apply_moebius, contains_point
from .nset import fixed_point_counts, form_values, from_form, substitution_matrices


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
    _, kappa = act_form(ctx, mat, s)
    return ff.div(ctx, ff.pw(ctx, mat_det(ctx, mat), s.n), kappa)


def kappa_multipliers(ctx: FieldCtx, mats, forms) -> tuple[np.ndarray, np.ndarray]:
    """kappa_multiplier of many pairs at once: J = det^n / kappa and the
    image n-set forms, for matrices given as entry codes (..., 4) and
    n-set forms (..., n+1), broadcast against each other as in act_forms."""
    add, mul, inv, _ = ff.tables(ctx)
    mats = np.asarray(mats)
    n = np.shape(forms)[-1] - 1
    img, kappa = act_forms(ctx, substitution_matrices(ctx, mats, n), forms)
    a, b, c, d = np.moveaxis(mats, -1, 0)
    det = add[mul[a, d], mul[ctx.p - 1, mul[b, c]]]
    return mul[ff.powers(ctx, n)[det, n], inv[kappa]], img


def _sweep_candidates(ctx: FieldCtx):
    """(field, emb, candidate codes) triples: base field, then the
    quadratic and quartic extensions, codes ascending in each."""
    yield ctx, None, range(ctx.q)
    ext2, emb2 = ff.extend(ctx, 2)
    yield ext2, emb2, range(ext2.q)
    ext4, emb4 = ff.extend(ctx, 4)
    yield ext4, emb4, range(ext4.q)


def global_multiplier(mat: GlMatrix, s: RationalNSet, ctx: FieldCtx) -> int:
    """J(gamma, S) by evaluating the form ratio at a generic point.

    Sweeps x0 through the base field and then the quadratic and quartic
    extensions for points with f_S(x0) != 0 and c x0 + d != 0; at most
    n + 1 values are excluded, so the quartic extension holds two of them
    for n < q^4 - 2.  J = (c x0 + d)^n f_S'(gamma x0) / f_S(x0) lies in the
    base field, and is derived at the first two valid x0, which must agree.
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
            if len(values) == 2:
                if values[0] != j:
                    raise VerificationError(f"multiplier depends on the evaluation point: {values}")
                return j
    raise VerificationError(f"fewer than two valid evaluation points: {mat}, {s}")


def epsilon(gamma, s: RationalNSet, ctx: FieldCtx) -> int:
    """Twist sign chi(J(gamma, S)) for even n; +1 or -1."""
    mat = gamma.mat if isinstance(gamma, MoebiusElem) else gamma
    if s.n % 2 != 0:
        raise ValueError("epsilon is defined for even n only")
    j = global_multiplier(mat, s, ctx)
    return 1 if ff.is_square(j, ctx) else -1


def _sweep_level(fld: FieldCtx, mats, forms, img, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One level of the sweep for paired rows already lifted into fld:
    the mask of rows with a valid x0 in fld, and J there (codes of fld).

    f_S over all of fld is one (rows, q) table; argmax takes the least
    valid code, as global_multiplier's ascending loop does.
    """
    add, mul, inv = ff.int_tables(fld)
    a, b, c, d = mats.T
    xs = np.arange(fld.q)
    fx = form_values(fld, forms[:, None], xs)
    lin = add[mul[c[:, None], xs], d[:, None]]
    valid = (fx != 0) & (lin != 0)
    found = valid.any(1)
    x0 = valid.argmax(1)
    rows = np.arange(len(x0))
    den, l0 = fx[rows, x0], lin[rows, x0]
    num = form_values(fld, img, mul[add[mul[a, x0], b], inv[l0]])  # f_S' at gamma x0
    if not num[found].all():
        raise VerificationError("the image form vanishes at gamma x0")
    return found, mul[mul[ff.powers(fld, n)[l0, n], num], inv[den]]


def _images(ctx: FieldCtx, mats, forms, n: int) -> np.ndarray:
    """act_forms of paired rows, expanding each distinct matrix once."""
    q = ctx.q
    code = ((mats[:, 0] * q + mats[:, 1]) * q + mats[:, 2]) * q + mats[:, 3]
    _, first, which = np.unique(code, return_index=True, return_inverse=True)
    return act_forms(ctx, substitution_matrices(ctx, mats[first], n)[which.ravel()], forms)[0]


def epsilons(ctx: FieldCtx, mats, forms) -> np.ndarray:
    """epsilon of many pairs at once: chi(J) as int8 for matrices given as
    entry codes (..., 4) and even-n forms (..., n+1), paired rows or one
    side a single row.

    J = (c x0 + d)^n f_S'(gamma x0) / f_S(x0) as in global_multiplier,
    with the image forms f_S' from act_forms.  Rows without a valid x0 in
    F_q are swept over F_(q^2), and the rows left after that over F_(q^4),
    each level in one batch through the embedding; J must descend to F_q.
    """
    mats, forms = np.asarray(mats, np.intp), np.asarray(forms, np.intp)
    n = forms.shape[-1] - 1
    if n % 2 != 0:
        raise ValueError("epsilon is defined for even n only")
    shape = np.broadcast_shapes(mats.shape[:-1], forms.shape[:-1])
    mats = np.broadcast_to(mats, shape + (4,)).reshape(-1, 4)
    forms = np.broadcast_to(forms, shape + (n + 1,)).reshape(-1, n + 1)
    img = _images(ctx, mats, forms, n)
    j = np.zeros(len(forms), np.intp)
    rest = np.arange(len(forms))
    for fld, emb, _ in _sweep_candidates(ctx):
        lift = np.arange(ctx.q) if emb is None else np.asarray(emb)
        found, jf = _sweep_level(fld, lift[mats[rest]], lift[forms[rest]], lift[img[rest]], n)
        if emb is not None:
            back = np.full(fld.q, -1)
            back[lift] = np.arange(ctx.q)
            jf = back[jf]
            low = np.flatnonzero(found & (jf < 0))
            if len(low):
                i = rest[low[0]]
                raise VerificationError(f"multiplier must descend to the base field: "
                                        f"{mats[i].tolist()}, {forms[i].tolist()}")
        j[rest[found]] = jf[found]
        rest = rest[~found]
        if not len(rest):
            return ff.tables(ctx).CHI[j].reshape(shape)
    i = rest[0]
    raise VerificationError(f"no valid evaluation point: {mats[i].tolist()}, {forms[i].tolist()}")


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


def epsilon_closed_forms(elems, which, forms, ctx: FieldCtx) -> np.ndarray:
    """epsilon_closed_form of many (element, n-set) pairs at once, as int8
    signs: elems are nonidentity MoebiusElems, and which (m,) pairs each of
    the n-set forms (m, n+1), or one form for every pair, with elems[which].

    gamma S = S is checked on every pair by one act_forms call, and the
    number j of gamma's fixed points in S comes from one
    nset.fixed_point_counts call, over F_q alone; epsilon_closed_form finds
    the points over F_(q^2) instead.  Each (kind, order, j) takes one
    census.twist_sign, and a failure names the first pair in row order.
    """
    which = np.asarray(which, np.intp)
    forms = np.asarray(forms, np.intp)
    n = forms.shape[-1] - 1
    if n % 2 != 0:
        raise ValueError("epsilon is defined for even n only")
    if any(el.kind == "identity" for el in elems):
        raise ValueError("closed form requires a nonidentity element")
    forms = np.broadcast_to(forms, which.shape + (n + 1,))
    mats = mat_codes(el.mat for el in elems)[which]
    moved = np.flatnonzero((_images(ctx, mats, forms, n) != forms).any(-1))
    if len(moved):
        i = moved[0]
        raise ValueError(f"closed form requires gamma S = S: {elems[which[i]].mat}, "
                         f"{from_form(ctx, tuple(forms[i].tolist()))[0]}")
    cnt = fixed_point_counts(ctx, mats, forms)
    conf = dict(CONFIGURATIONS)
    sign_of = {(el.kind, el.order): [0, 0, 0] for el in elems}  # of j = 0, 1, 2; 0: no n-set
    for (kind, m), row in sign_of.items():
        for j, _ in conf[kind]:
            if (n - j) % m == 0:
                row[j] = twist_sign(ctx.q, kind, m, j, (n - j) // m)
    table = np.array([sign_of[el.kind, el.order] for el in elems], np.int8).reshape(-1, 3)
    signs = table[which, cnt]
    if not signs.all():
        i = np.flatnonzero(signs == 0)[0]
        el, j = elems[which[i]], int(cnt[i])
        if j in dict(conf[el.kind]):
            raise VerificationError(f"order {el.order} must divide n - {j} = {n - j}")
        s, _ = from_form(ctx, tuple(forms[i].tolist()))
        raise VerificationError(f"kind {el.kind} has {j} of its fixed points in S: {s}")
    return signs


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
    norm = ff.mul(ext, alpha, ff.pw(ext, alpha, q))
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
