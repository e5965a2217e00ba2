"""Transformation group unit tests."""

import numpy as np
import pytest

from hypcensus import field as ff
from hypcensus import moebius as mo


def K(p, e=1):
    return ff.make_field(p, e)


def test_canonical_matrix():
    k = K(5)
    m = mo.GlMatrix(2, 4, 0, 3)
    cm = mo.canonical_matrix(k, m)
    assert cm == mo.GlMatrix(1, 2, 0, 4)
    # scalar multiples collapse to the same representative
    for s in range(1, 5):
        sm = mo.GlMatrix(*(ff.mul(k, s, v) for v in (2, 4, 0, 3)))
        assert mo.canonical_matrix(k, sm) == cm
    with pytest.raises(ValueError):
        mo.canonical_matrix(k, mo.GlMatrix(1, 1, 2, 2))


def test_enumerate_sizes():
    for q in (3, 5, 7):
        k = K(q)
        elems = mo.enumerate_pgl(k)
        assert len(elems) == q**3 - q
        assert len({e.mat for e in elems}) == q**3 - q
        assert sum(1 for e in elems if e.kind == "identity") == 1


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2)])
def test_enumerate_copies_the_classification_of_each_class(p, e):
    # enumerate_pgl classifies one member per class key; every element
    # must still read as the per-element classify would have it
    k = K(p, e)
    pgl = mo.enumerate_pgl(k)
    assert pgl == tuple(mo.classify(k, el.mat) for el in pgl)


def test_enumerate_f9():
    k = K(3, 2)
    elems = mo.enumerate_pgl(k)
    assert len(elems) == 9**3 - 9


def test_kind_census():
    # class sizes: order-p elements form one class of size q^2 - 1; each
    # order m > 1 dividing q - 1 contributes phi(m) * q(q+1)/2 elements,
    # each m > 1 dividing q + 1 contributes phi(m) * q(q-1)/2
    from hypcensus.census import divisors, phi

    for q in (3, 5, 7, 9):
        k = K(*((q, 1) if q != 9 else (3, 2)))
        elems = mo.enumerate_pgl(k)
        by_kind = {}
        for e in elems:
            by_kind.setdefault((e.kind, e.order), 0)
            by_kind[(e.kind, e.order)] += 1
        assert by_kind[("identity", 1)] == 1
        assert by_kind[("B", k.p)] == q**2 - 1
        for m in divisors(q - 1):
            if m > 1:
                assert by_kind[("C", m)] == phi(m) * q * (q + 1) // 2
        for m in divisors(q + 1):
            if m > 1:
                assert by_kind[("A", m)] == phi(m) * q * (q - 1) // 2


def test_act_point():
    k = K(3)
    m = mo.GlMatrix(2, 0, 0, 1)  # t -> 2t
    assert mo.act_point(m, mo.fin(1), k) == mo.fin(2)
    assert mo.act_point(m, mo.INF, k) == mo.INF
    inv = mo.GlMatrix(0, 1, 1, 0)  # t -> 1/t
    assert mo.act_point(inv, mo.fin(0), k) == mo.INF
    assert mo.act_point(inv, mo.INF, k) == mo.fin(0)
    assert mo.act_point(inv, mo.fin(2), k) == mo.fin(2)


def test_act_is_group_action():
    k = K(5)
    pts = [mo.INF] + [mo.fin(x) for x in range(5)]
    mats = [e.mat for e in mo.enumerate_pgl(k)[:40]]
    for m in mats:
        for n in mats[:10]:
            mn = mo.mat_mul(k, m, n)
            for t in pts:
                assert mo.act_point(mn, t, k) == mo.act_point(
                    m, mo.act_point(n, t, k), k
                )
        # bijectivity
        images = {mo.act_point(m, t, k) for t in pts}
        assert len(images) == len(pts)


def test_group_law_respects_classes():
    # canonical(M N) only depends on the classes of M and N
    k = K(3)
    reps = [e.mat for e in mo.enumerate_pgl(k)]
    for m in reps[:8]:
        for n in reps[:8]:
            base = mo.canonical_matrix(k, mo.mat_mul(k, m, n))
            for s in range(2, 3):
                ms = mo.GlMatrix(*(ff.mul(k, s, v) for v in (m.a, m.b, m.c, m.d)))
                assert mo.canonical_matrix(k, mo.mat_mul(k, ms, n)) == base


def test_classify_orders():
    k = K(7)
    for e in mo.enumerate_pgl(k):
        # e.order is the true projective order
        acc = e.mat
        for _ in range(e.order - 1):
            acc = mo.mat_mul(k, acc, e.mat)
        assert mo.canonical_matrix(k, acc) == mo.IDENTITY
        if e.order > 1:
            assert e.kind in ("A", "B", "C")


def test_fixed_points_counts_and_membership():
    for q in (3, 5, 7):
        k = K(q)
        for e in mo.enumerate_pgl(k):
            if e.kind == "identity":
                continue
            ext, emb, pts = mo.fixed_points(e, k)
            assert len(pts) == (1 if e.kind == "B" else 2)
            for t in pts:
                assert mo.act_point(e.mat, t, ext, emb) == t


def test_fixed_points_rationality_by_kind():
    k = K(5)
    ext, emb = ff.extend(k, 2)
    base_img = set(emb)
    for e in mo.enumerate_pgl(k):
        if e.kind == "identity":
            continue
        _, _, pts = mo.fixed_points(e, k)
        rational = all((not t.finite) or t.x in base_img for t in pts)
        if e.kind == "A":
            assert not rational
            # the two points are frobenius conjugates
            xs = {t.x for t in pts}
            assert {ff.pw(ext, x, k.q) for x in xs} == xs
        else:
            assert rational


def test_subtype_representatives():
    k = K(7)
    elem, alpha = mo.subtype_representative(k, "C", 3)
    assert elem.kind == "C" and elem.order == 3 and alpha is None
    elem, alpha = mo.subtype_representative(k, "B", 7)
    assert elem.kind == "B" and elem.order == 7
    elem, alpha = mo.subtype_representative(k, "A", 8)
    assert elem.kind == "A" and elem.order == 8
    assert alpha is not None


def test_subtype_representative_alpha_eigenvalue():
    for q, m in [(3, 4), (5, 3), (7, 8), (9, 5)]:
        k = K(*((q, 1) if q != 9 else (3, 2)))
        elem, alpha = mo.subtype_representative(k, "A", m)
        ext, emb = ff.extend(k, 2)
        # companion matrix: eigenvalue equation alpha^2 = -n + t*alpha
        mat = elem.mat
        # canonical rep of the companion matrix [[0,1],[-n,t]] is itself,
        # and alpha satisfies alpha^2 = t*alpha - n = mat.d*alpha + mat.c
        assert mat.a == 0 and mat.b == 1
        lhs = ff.mul(ext, alpha, alpha)
        rhs = ff.add(ext, emb[mat.c], ff.mul(ext, emb[mat.d], alpha))
        assert lhs == rhs
        assert elem.order == m


def test_subtype_representative_validation():
    k = K(5)
    with pytest.raises(ValueError):
        mo.subtype_representative(k, "C", 3)  # 3 does not divide 4
    with pytest.raises(ValueError):
        mo.subtype_representative(k, "B", 3)
    with pytest.raises(ValueError):
        mo.subtype_representative(k, "A", 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        mo.subtype_representative(k, "Z", 2)


def _reference_mul(ctx, x, y):
    """Products of field elements given as base-p digit arrays (..., e),
    independent of the exp/log tables: the digit polynomials are multiplied
    and reduced modulo ctx.modulus, then mod p."""
    p, e, mod = ctx.p, ctx.e, ctx.modulus
    shape = np.broadcast_shapes(x.shape, y.shape)[:-1]
    prod = np.zeros(shape + (2 * e - 1,), np.int64)
    for s in range(e):
        for t in range(e):
            prod[..., s + t] += x[..., s] * y[..., t]
    for deg in range(2 * e - 2, e - 1, -1):  # x^deg = x^(deg - e) (x^e - modulus)
        lead = prod[..., deg] % p
        for i in range(e):
            prod[..., deg - e + i] -= lead * mod[i]
    return prod[..., :e] % p


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_pgl_table_matches_matrix_products(p, e):
    k = K(p, e)
    q = k.q
    table = mo.pgl_table(k)
    pgl = mo.enumerate_pgl(k)
    assert table.index == {el.mat: i for i, el in enumerate(pgl)}
    place = p ** np.arange(e)
    digits = mo.mat_codes(el.mat for el in pgl)[..., None] // place % p  # (|G|, 4, e)
    at = np.full(q**4, -1)
    at[((digits @ place) @ q ** np.arange(3, -1, -1))] = np.arange(len(pgl))
    elems = np.arange(q)[:, None] // place % p
    one = _reference_mul(k, elems[:, None], elems[None]) @ place == 1
    inv = elems[one.argmax(1)]  # inv[x] x = 1 for x != 0
    for lo in range(0, len(pgl), 120):
        x, y = digits[lo : lo + 120, None], digits[None]
        a, b, c, d = (x[..., i, :] for i in range(4))
        e_, f, g, h = (y[..., i, :] for i in range(4))
        prods = [(_reference_mul(k, u1, v1) + _reference_mul(k, u2, v2)) % p
                 for u1, v1, u2, v2 in ((a, e_, b, g), (a, f, b, h), (c, e_, d, g), (c, f, d, h))]
        lead = np.where((prods[0] != 0).any(-1, keepdims=True), prods[0], prods[1])
        scale = inv[lead @ place]  # 1 / the first nonzero entry
        code = 0
        for entry in prods:
            code = code * q + _reference_mul(k, scale, entry) @ place
        assert np.array_equal(table.prod[lo : lo + 120], at[code])