"""Fractional linear transformations of the projective line over F_q.

A transformation is stored as an invertible 2x2 matrix over the base
field.  The canonical representative of a projective class scales the
first nonzero entry of (a, b, c, d) to 1, which makes equality of classes
plain dataclass equality.

Nonidentity classes split into three kinds by the discriminant of the
characteristic polynomial: "B" (zero discriminant, order p, one fixed
point), "C" (square discriminant, order dividing q - 1, two rational
fixed points), "A" (nonsquare discriminant, order dividing q + 1, two
conjugate fixed points over the quadratic extension).  The kind and the
order are class functions: class_key (scalar or not, tr^2 / det and
chi(disc)) names the q + 2 conjugacy classes, and enumerate_pgl runs the
per-element classify on one member of each and counts the members
(conjugacy_classes).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import field as ff
from .census import VerificationError
from .field import FieldCtx


@dataclass(frozen=True)
class ProjPoint:
    """Point of the projective line: finite x or the point at infinity."""

    finite: bool
    x: int

    def __repr__(self):
        return f"pt({self.x})" if self.finite else "pt(inf)"


INF = ProjPoint(False, 0)


def fin(x: int) -> ProjPoint:
    return ProjPoint(True, x)


@dataclass(frozen=True)
class GlMatrix:
    a: int
    b: int
    c: int
    d: int


@dataclass(frozen=True)
class MoebiusElem:
    """Canonical class representative with its order and kind."""

    mat: GlMatrix
    order: int
    kind: str  # "identity", "A", "B", "C"


def mat_det(ctx: FieldCtx, m: GlMatrix) -> int:
    return ff.sub(ctx, ff.mul(ctx, m.a, m.d), ff.mul(ctx, m.b, m.c))


def mat_mul(ctx: FieldCtx, m: GlMatrix, n: GlMatrix) -> GlMatrix:
    return GlMatrix(
        ff.add(ctx, ff.mul(ctx, m.a, n.a), ff.mul(ctx, m.b, n.c)),
        ff.add(ctx, ff.mul(ctx, m.a, n.b), ff.mul(ctx, m.b, n.d)),
        ff.add(ctx, ff.mul(ctx, m.c, n.a), ff.mul(ctx, m.d, n.c)),
        ff.add(ctx, ff.mul(ctx, m.c, n.b), ff.mul(ctx, m.d, n.d)),
    )


def mat_codes(mats) -> np.ndarray:
    """The entries (a, b, c, d) of the matrices as an (N, 4) int64 array."""
    return np.array([(m.a, m.b, m.c, m.d) for m in mats], np.int64).reshape(-1, 4)


def mat_mul_codes(ctx: FieldCtx, x, y) -> np.ndarray:
    """Products x y of matrices given as entry codes (..., 4), broadcast
    against each other, each entry one field.dot."""
    a, b, c, d = np.moveaxis(np.asarray(x), -1, 0)
    e, f, g, h = np.moveaxis(np.asarray(y), -1, 0)
    return np.stack([ff.dot(ctx, ((a, e), (b, g))), ff.dot(ctx, ((a, f), (b, h))),
                     ff.dot(ctx, ((c, e), (d, g))), ff.dot(ctx, ((c, f), (d, h)))], axis=-1)


def mat_inv(ctx: FieldCtx, m: GlMatrix) -> GlMatrix:
    # adjugate; same projective class as the true inverse
    return GlMatrix(m.d, ff.neg(ctx, m.b), ff.neg(ctx, m.c), m.a)


def canonical_matrix(ctx: FieldCtx, m: GlMatrix) -> GlMatrix:
    if mat_det(ctx, m) == 0:
        raise ValueError("matrix is singular")
    for lead in (m.a, m.b, m.c, m.d):
        if lead:
            s = ff.inv(ctx, lead)
            return GlMatrix(
                ff.mul(ctx, s, m.a),
                ff.mul(ctx, s, m.b),
                ff.mul(ctx, s, m.c),
                ff.mul(ctx, s, m.d),
            )
    raise ValueError("zero matrix")


IDENTITY = GlMatrix(1, 0, 0, 1)


def act_point(mat: GlMatrix, t: ProjPoint, ctx: FieldCtx, emb=None) -> ProjPoint:
    """Image of t under the transformation; emb lifts the matrix entries
    into the field of t when t lives in an extension."""
    a, b, c, d = mat.a, mat.b, mat.c, mat.d
    if emb is not None:
        a, b, c, d = emb[a], emb[b], emb[c], emb[d]
    if not t.finite:
        if c == 0:
            return INF
        return fin(ff.div(ctx, a, c))
    den = ff.add(ctx, ff.mul(ctx, c, t.x), d)
    num = ff.add(ctx, ff.mul(ctx, a, t.x), b)
    if den == 0:
        return INF
    return fin(ff.div(ctx, num, den))


def _invariants(ctx: FieldCtx, m: GlMatrix) -> tuple[int, int, int]:
    """tr^2, det and the discriminant tr^2 - 4 det of the characteristic
    polynomial of m."""
    tr = ff.add(ctx, m.a, m.d)
    tr2, det = ff.mul(ctx, tr, tr), mat_det(ctx, m)
    return tr2, det, ff.sub(ctx, tr2, ff.mul(ctx, 4 % ctx.p, det))


def class_key(ctx: FieldCtx, m: GlMatrix) -> tuple[bool, int, int]:
    """Conjugacy invariant of a PGL2 element over odd q: whether it is
    scalar, tr^2 / det, and chi(tr^2 - 4 det) (0 at discriminant 0), which
    splits the two classes of involutions, the only ones tr^2 / det mixes.
    Unchanged by scaling m, so any matrix of the class will do."""
    tr2, det, disc = _invariants(ctx, m)
    scalar = m.b == m.c == 0 and m.a == m.d
    return scalar, ff.div(ctx, tr2, det), ff.chi(disc, ctx) if disc else 0


def classify(ctx: FieldCtx, m: GlMatrix) -> MoebiusElem:
    """Canonicalize and attach projective order plus kind."""
    cm = canonical_matrix(ctx, m)
    if cm == IDENTITY:
        return MoebiusElem(cm, 1, "identity")
    order = 1
    acc = cm
    while canonical_matrix(ctx, acc) != IDENTITY:
        acc = mat_mul(ctx, acc, cm)
        order += 1
        if order > ctx.q + 1:
            raise VerificationError(f"projective order exceeded q + 1: {m}")
    chi = class_key(ctx, cm)[2]
    kind, period = {0: ("B", ctx.p), 1: ("C", ctx.q - 1), -1: ("A", ctx.q + 1)}[chi]
    if period % order:  # by kind, the order (> 1) divides p, q - 1 or q + 1
        raise VerificationError(f"order {order} does not fit kind {kind}: {m}")
    return MoebiusElem(cm, order, kind)


# field -> (enumerate_pgl's elements, conjugacy_classes' classes)
_PGL_CACHE: dict[FieldCtx, tuple[tuple[MoebiusElem, ...], dict]] = {}


def enumerate_pgl(ctx: FieldCtx) -> tuple[MoebiusElem, ...]:
    """All q^3 - q classes, canonical representatives, deterministic order.

    Representatives with a = 0 (so b = 1) come first, then the a = 1 block.
    Order and kind are class functions, so classify runs on the first
    member of each class_key only.  The same loop counts the members of
    each key (conjugacy_classes): the keys must number q + 2, the count of
    conjugacy classes, or one of them would mix two classes, and their
    sizes must sum to q^3 - q and divide it.
    """
    hit = _PGL_CACHE.get(ctx)
    if hit is not None:
        return hit[0]
    q = ctx.q
    order = q**3 - q
    mats = [GlMatrix(0, 1, c, d) for c in range(1, q) for d in range(q)]
    for b in range(q):
        for c in range(q):
            bc = ff.mul(ctx, b, c)
            mats.extend(GlMatrix(1, b, c, d) for d in range(q) if d != bc)
    if len(mats) != order:
        raise VerificationError(f"|PGL2(F_{q})| = {len(mats)}, not q^3 - q")
    first: dict[tuple, MoebiusElem] = {}
    size: dict[tuple, int] = {}
    out = []
    for m in mats:
        key = class_key(ctx, m)
        el = first.get(key)
        if el is None:
            el = first[key] = classify(ctx, m)
        size[key] = size.get(key, 0) + 1
        out.append(MoebiusElem(m, el.order, el.kind))
    sizes = list(size.values())
    if len(sizes) != q + 2:
        raise VerificationError(f"q + 2 conjugacy classes: F_{q} has {len(sizes)} class keys")
    if sum(sizes) != order:
        raise VerificationError(f"class sizes sum to |PGL2(F_{q})|: {sizes}")
    if any(order % s for s in sizes):
        raise VerificationError(f"class sizes divide |PGL2(F_{q})|: {sizes}")
    res = tuple(out)
    _PGL_CACHE[ctx] = res, {key: (el.mat, size[key]) for key, el in first.items()}
    return res


def conjugacy_classes(ctx: FieldCtx) -> dict[tuple, tuple[GlMatrix, int]]:
    """Class key -> (first member in enumerate_pgl order, size) for the
    q + 2 conjugacy classes, as enumerate_pgl counted them."""
    enumerate_pgl(ctx)
    return dict(_PGL_CACHE[ctx][1])


class PglTable(NamedTuple):
    """The elements of enumerate_pgl numbered by position, with their
    product table."""

    index: dict[GlMatrix, int]  # canonical matrix -> position
    prod: np.ndarray  # int32 [i, j] = index of canonical(e_i * e_j)


@functools.cache
def pgl_table(ctx: FieldCtx) -> PglTable:
    """Numbering and product table of PGL2(F_q), built a block of rows at a
    time: the products by mat_mul_codes, each scaled to its canonical
    representative by field.dot, so it serves every field."""
    q, inv = ctx.q, ff.tables(ctx).INV
    pgl = enumerate_pgl(ctx)
    n = len(pgl)
    codes = mat_codes(m.mat for m in pgl)
    at = np.full(q**4, -1, np.int32)  # position by entry code ((a q + b) q + c) q + d
    at[((codes[:, 0] * q + codes[:, 1]) * q + codes[:, 2]) * q + codes[:, 3]] = np.arange(n)
    prod = np.empty((n, n), np.int32)
    rows = max(1, 2**18 // n)  # left factors per block: bounds the temporaries
    for lo in range(0, n, rows):
        pa, pb, pc, pd = np.moveaxis(mat_mul_codes(ctx, codes[lo : lo + rows, None], codes), -1, 0)
        s = inv[np.where(pa != 0, pa, pb)]  # scale the first nonzero entry to 1
        code = np.zeros(s.shape, np.int32)
        for x in (pa, pb, pc, pd):
            code *= q
            code += ff.dot(ctx, [(s, x)])
        prod[lo : lo + rows] = at[code]
    if (prod < 0).any():
        raise ValueError("product table left a class without a representative")
    return PglTable({m.mat: i for i, m in enumerate(pgl)}, prod)


def fixed_points(elem: MoebiusElem, ctx: FieldCtx):
    """Fixed points on the projective line over the quadratic extension.

    Returns (ext, emb, points) with every point expressed over ext, the
    point at infinity first and finite points in ascending code order.
    """
    if elem.kind == "identity":
        raise ValueError("every point is fixed by the identity")
    ext, emb = ff.extend(ctx, 2)
    m = elem.mat
    pts: list[ProjPoint] = []
    if m.c == 0:
        pts.append(INF)
        if m.d != m.a:
            t = ff.div(ctx, m.b, ff.sub(ctx, m.d, m.a))
            pts.append(fin(emb[t]))
    else:
        # c t^2 + (d - a) t - b = 0; the discriminant is tr^2 - 4 det
        de = emb[_invariants(ctx, m)[2]]
        sqrt = None
        for cand in range(ext.q):
            if ff.mul(ext, cand, cand) == de:
                sqrt = cand
                break
        if sqrt is None:
            raise VerificationError(f"discriminant must be a square over the extension: {m}")
        ad = emb[ff.sub(ctx, m.a, m.d)]
        twoc = emb[ff.mul(ctx, 2 % ctx.p, m.c)]
        r1 = ff.div(ext, ff.add(ext, ad, sqrt), twoc)
        r2 = ff.div(ext, ff.sub(ext, ad, sqrt), twoc)
        pts = [fin(x) for x in sorted({r1, r2})]
    expected = {"A": 2, "B": 1, "C": 2}[elem.kind]
    if len(pts) != expected:
        raise VerificationError(f"kind {elem.kind} has {len(pts)} fixed points: {m}")
    if elem.kind == "C" and not set(emb).issuperset(p.x for p in pts if p.finite):
        raise VerificationError(f"kind C fixed points must be rational: {m}")
    return ext, emb, pts


def _check_subtype(elem: MoebiusElem, kind: str, m: int) -> None:
    if (elem.kind, elem.order) != (kind, m):
        raise VerificationError(f"representative of {kind}{m} classified as {elem}")


def subtype_representative(ctx: FieldCtx, kind: str, m: int):
    """A concrete element of the requested kind and order.

    Returns (elem, alpha); alpha is None except for kind "A", where it is
    the eigenvalue in the quadratic extension whose companion matrix is
    returned (alpha = zeta^((q+1)/m) for the canonical generator zeta).
    """
    q = ctx.q
    if kind == "C":
        if m <= 1 or (q - 1) % m != 0:
            raise ValueError(f"kind C requires m > 1 dividing q - 1, got m={m}")
        lam = ff.pw(ctx, ff.mult_generator(ctx), (q - 1) // m)
        elem = classify(ctx, GlMatrix(lam, 0, 0, 1))
        _check_subtype(elem, kind, m)
        return elem, None
    if kind == "B":
        if m != ctx.p:
            raise ValueError(f"kind B elements have order p = {ctx.p}, got m={m}")
        elem = classify(ctx, GlMatrix(1, 1, 0, 1))
        _check_subtype(elem, kind, m)
        return elem, None
    if kind == "A":
        if m <= 1 or (q + 1) % m != 0:
            raise ValueError(f"kind A requires m > 1 dividing q + 1, got m={m}")
        ext, emb = ff.extend(ctx, 2)
        zeta = ff.mult_generator(ext)
        alpha = ff.pw(ext, zeta, (q + 1) // m)
        # companion matrix of the minimal polynomial of alpha over F_q
        norm = ff.mul(ext, alpha, ff.pw(ext, alpha, q))
        trace = ff.add(ext, alpha, ff.pw(ext, alpha, q))
        back = {v: i for i, v in enumerate(emb)}
        mat = GlMatrix(0, 1, ff.neg(ctx, back[norm]), back[trace])
        elem = classify(ctx, mat)
        _check_subtype(elem, kind, m)
        return elem, alpha
    raise ValueError(f"unknown kind {kind!r}")
