"""n-set encoding and action unit tests."""

import functools
import itertools
import random

import numpy as np
import pytest

from hypcensus import field as ff
from hypcensus import moebius as mo
from hypcensus import multiplier as mult
from hypcensus import nset as ns
from hypcensus import oracle as oc
from hypcensus.census import a_p1

import reference as ref


def K(p, e=1):
    return ff.make_field(p, e)


def test_enumeration_counts_match_formula():
    for q in (3, 5):
        k = K(q)
        for n in range(1, 7):
            count = sum(1 for _ in ref.enumerate_nsets(k, n))
            assert count == a_p1(n, q), (q, n)


def test_enumeration_counts_f9():
    k = K(3, 2)
    for n in (1, 2, 3):
        assert sum(1 for _ in ref.enumerate_nsets(k, n)) == a_p1(n, 9)


def test_enumeration_is_deterministic_and_distinct():
    k = K(3)
    sets = list(ref.enumerate_nsets(k, 4))
    assert sets == list(ref.enumerate_nsets(k, 4))
    assert len(set(sets)) == len(sets)
    # block order: no-inf block first, then inf block
    first_inf = next(i for i, s in enumerate(sets) if s.has_inf)
    assert all(s.has_inf for s in sets[first_inf:])
    assert all(not s.has_inf for s in sets[:first_inf])


def test_n_property_and_make_nset():
    k = K(5)
    s = ns.make_nset(k, (0, 1), True)  # {0, inf}
    assert s.n == 2
    with pytest.raises(ValueError):
        ns.make_nset(k, (0, 0, 1), False)  # x^2, double root
    with pytest.raises(ValueError):
        ns.make_nset(k, (1, 2), False)  # not monic


def test_points_to_nset_roundtrip():
    k = K(7)
    pts = [mo.fin(2), mo.fin(5), mo.INF]
    s = ref.points_to_nset(k, pts)
    assert s.n == 3
    assert set(ref.rational_points(s, k)) == set(pts)
    with pytest.raises(ValueError):
        ref.points_to_nset(k, [mo.fin(1), mo.fin(1)])


def test_form_roundtrip():
    k = K(3)
    for n in (2, 3, 4):
        for s in ref.enumerate_nsets(k, n):
            form = ns.to_form(k, s, n)
            back, kappa = ns.from_form(k, form)
            assert back == s and kappa == 1
            if s.has_inf:
                assert form[0] == 0 and form[1] == 1
            else:
                assert form[0] == 1


def test_action_moves_points():
    # image of the rational points of S is the rational point set of gamma S
    for q in (3, 5):
        k = K(q)
        elems = mo.enumerate_pgl(k)
        for s in ref.enumerate_nsets(k, 3):
            for e in elems[:: max(1, len(elems) // 17)]:
                img = ns.apply_moebius(e, s, k)
                assert img.n == s.n
                moved = {mo.act_point(e.mat, t, k) for t in ref.rational_points(s, k)}
                assert moved == set(ref.rational_points(img, k))


def test_action_is_group_action():
    k = K(3)
    elems = mo.enumerate_pgl(k)
    sets = list(ref.enumerate_nsets(k, 4))[:20]
    for s in sets:
        assert ns.apply_moebius(mo.classify(k, mo.IDENTITY), s, k) == s
        for e1 in elems[::5]:
            for e2 in elems[::7]:
                prod = mo.classify(k, mo.mat_mul(k, e1.mat, e2.mat))
                lhs = ns.apply_moebius(prod, s, k)
                rhs = ns.apply_moebius(e1, ns.apply_moebius(e2, s, k), k)
                assert lhs == rhs


def test_action_preserves_squarefree():
    k = K(5)
    for s in ref.enumerate_nsets(k, 4):
        for e in mo.enumerate_pgl(k)[::11]:
            img = ns.apply_moebius(e, s, k)
            assert ff.is_squarefree_poly(k, img.f)


def test_contains_point_extension():
    k = K(3)
    ext, emb = ff.extend(k, 2)
    # x^2 + 1 vanishes at the 4th roots of unity in F_9
    s = ns.make_nset(k, (1, 0, 1), False)
    roots = [x for x in range(ext.q) if ff.peval(ext, (emb[1], 0, emb[1]), x) == 0]
    assert len(roots) == 2
    for r in roots:
        assert ns.contains_point(s, mo.fin(r), ext, emb)
    assert not ns.contains_point(s, mo.fin(emb[1]), ext, emb)
    assert not ns.contains_point(s, mo.INF, ext, emb)


def test_stabilizer_of_symmetric_set():
    # {0, inf} is stabilized by t -> at and t -> a/t: 2(q-1) classes
    for q in (3, 5):
        k = K(q)
        s = ref.points_to_nset(k, [mo.fin(0), mo.INF])
        stab = ns.stabilizer(s, k)
        assert len(stab) == 2 * (q - 1)


def test_stabilizer_order_divides_group_order():
    k = K(3)
    for s in ref.enumerate_nsets(k, 4):
        stab = ns.stabilizer(s, k)
        assert (k.q**3 - k.q) % len(stab) == 0


def test_orbit_stabilizer_theorem():
    # orbit size x stabilizer size = group order, sweeping one full orbit
    k = K(3)
    s = next(ref.enumerate_nsets(k, 4))
    orbit = {ns.apply_moebius(e, s, k) for e in mo.enumerate_pgl(k)}
    stab = ns.stabilizer(s, k)
    assert len(orbit) * len(stab) == k.q**3 - k.q


def test_nset_str():
    k = K(3)
    s = ns.make_nset(k, (1, 0, 1), False)
    assert ref.nset_str(s) == "1,0,1"
    s2 = ns.make_nset(k, (0, 1), True)
    assert ref.nset_str(s2) == "0,1;inf"


@functools.cache
def _scalar_ops(ctx):
    """ff.add and ff.mul as nested lists, [x][y], from the scalar functions."""
    codes = range(ctx.q)
    return ([[ff.add(ctx, x, y) for y in codes] for x in codes],
            [[ff.mul(ctx, x, y) for y in codes] for x in codes])


def _reference_linmul(ctx, vec, lin):
    # multiply a Z-degree-indexed coefficient vector by (u X + v Z)
    add, mul = _scalar_ops(ctx)
    u, v = lin
    out = [0] * (len(vec) + 1)
    for i, c in enumerate(vec):
        if c == 0:
            continue
        out[i] = add[out[i]][mul[c][u]]
        out[i + 1] = add[out[i + 1]][mul[c][v]]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _reference_powers(ctx, mat, nmax=8):
    """The powers 0 .. nmax of dX - bZ and of -cX + aZ as Z-degree-indexed
    coefficient tuples, grown one linear factor at a time."""
    l1 = (mat.d, ff.neg(ctx, mat.b))
    l2 = (ff.neg(ctx, mat.c), mat.a)
    pow1 = [(1,)]
    pow2 = [(1,)]
    for _ in range(nmax):
        pow1.append(_reference_linmul(ctx, pow1[-1], l1))
        pow2.append(_reference_linmul(ctx, pow2[-1], l2))
    return pow1, pow2


def _reference_substitution_matrix(ctx, mat, n):
    """The scalar expansion substitution_matrices replaced, with scalar
    field arithmetic: column k is the product of the powers n - k of
    dX - bZ and k of -cX + aZ (shared between the n, n <= 8)."""
    pow1, pow2 = _reference_powers(ctx, mat)
    add, mul = _scalar_ops(ctx)
    t = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        for j1, c1 in enumerate(pow1[n - k]):
            if c1 == 0:
                continue
            for j2, c2 in enumerate(pow2[k]):
                if c2 == 0:
                    continue
                t[j1 + j2][k] = add[t[j1 + j2][k]][mul[c1][c2]]
    return tuple(map(tuple, t))


def _reference_act_form(ctx, mat, s):
    """The scalar loop act_form replaced: the form times the cached
    substitution_matrix, a fold of ff.add and ff.mul per coefficient."""
    form = ns.to_form(ctx, s)
    out = [0] * len(form)
    for i, row in enumerate(ns.substitution_matrix(ctx, mat, s.n)):
        for c, f in zip(row, form):
            out[i] = ff.add(ctx, out[i], ff.mul(ctx, c, f))
    return ns.from_form(ctx, tuple(out))


def _random_gl(rng, ctx):
    while True:
        m = mo.GlMatrix(*(rng.randrange(ctx.q) for _ in range(4)))
        if mo.mat_det(ctx, m):
            return m


def _random_nset(rng, ctx, n, has_inf=None):
    while True:
        inf = rng.random() < 0.5 if has_inf is None else has_inf
        f = tuple(rng.randrange(ctx.q) for _ in range(n - inf)) + (1,)
        if ff.is_squarefree_poly(ctx, f):
            return ns.RationalNSet(f, inf)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_substitution_matrices_match_scalar_expansion(p, e):
    k = K(p, e)
    mats = [el.mat for el in mo.enumerate_pgl(k)]
    codes = mo.mat_codes(mats)
    for n in range(1, 9):
        want = np.array([_reference_substitution_matrix(k, m, n) for m in mats])
        assert np.array_equal(ns.substitution_matrices(k, codes, n), want), (p, e, n)
        # any stack shape, and the cached one-matrix view
        got = ns.substitution_matrices(k, codes[:6].reshape(2, 3, 4), n)
        assert np.array_equal(got, want[:6].reshape(2, 3, n + 1, n + 1)), (p, e, n)
        assert ns.substitution_matrix(k, mats[-1], n) == _reference_substitution_matrix(k, mats[-1], n)


@pytest.mark.parametrize("p,e,n", [(3, 3, 4), (3, 5, 2)])
def test_substitution_matrices_match_scalar_expansion_sampled(p, e, n):
    k = K(p, e)
    rng = random.Random(p**e)
    mats = [_random_gl(rng, k) for _ in range(300)]
    want = np.array([_reference_substitution_matrix(k, m, n) for m in mats])
    assert np.array_equal(ns.substitution_matrices(k, mo.mat_codes(mats), n), want)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_act_forms_and_kappa_multipliers_match_scalar(p, e):
    k = K(p, e)
    rng = random.Random(10 * p + e)
    for n in (2, 3, 4, 6):
        mats = [_random_gl(rng, k) for _ in range(60)]
        # the first sets pass through infinity, then avoid it, then either
        sets = ([_random_nset(rng, k, n, True) for _ in range(20)]
                + [_random_nset(rng, k, n, False) for _ in range(20)]
                + [_random_nset(rng, k, n) for _ in range(20)])
        codes = mo.mat_codes(mats)
        forms = np.array([ns.to_form(k, s) for s in sets])
        subs = ns.substitution_matrices(k, codes, n)
        # paired rows
        img, kappa = ns.act_forms(k, subs, forms)
        j, img2 = mult.kappa_multipliers(k, codes, forms)
        assert np.array_equal(img, img2)
        for i, (m, s) in enumerate(zip(mats, sets)):
            s2, kap = _reference_act_form(k, m, s)
            assert ns.act_form(k, m, s) == (s2, kap), (m, s)
            assert img[i].tolist() == list(ns.to_form(k, s2)), (m, s)
            assert kappa[i] == kap and j[i] == mult.kappa_multiplier(m, s, k), (m, s)
        # one form broadcast against every matrix, one matrix against every form
        for s in sets[:3]:
            img, kappa = ns.act_forms(k, subs, ns.to_form(k, s))
            j, _ = mult.kappa_multipliers(k, codes, ns.to_form(k, s))
            for i, m in enumerate(mats):
                s2, kap = _reference_act_form(k, m, s)
                assert img[i].tolist() == list(ns.to_form(k, s2)) and kappa[i] == kap
                assert j[i] == mult.kappa_multiplier(m, s, k)
        j, img = mult.kappa_multipliers(k, codes[0], forms)
        for i, s in enumerate(sets):
            assert img[i].tolist() == list(ns.to_form(k, _reference_act_form(k, mats[0], s)[0]))
            assert j[i] == mult.kappa_multiplier(mats[0], s, k)
        # every (form, matrix) pair, as the cocycle suite batches them
        j, img = mult.kappa_multipliers(k, codes[:7], forms[:5, None])
        assert j.shape == (5, 7) and img.shape == (5, 7, n + 1)
        for (r, s), (g, m) in itertools.product(enumerate(sets[:5]), enumerate(mats[:7])):
            assert j[r, g] == mult.kappa_multiplier(m, s, k)


def test_act_forms_rejects_a_double_root_at_infinity():
    k = K(5)
    subs = ns.substitution_matrices(k, (1, 0, 0, 1), 3)
    with pytest.raises(ValueError):
        ns.act_forms(k, subs, (0, 0, 1, 2))


def _reference_stabilizer(s, ctx):
    """The scan stabilizer replaced: the scalar act_form with every element
    of PGL2."""
    return [e for e in mo.enumerate_pgl(ctx) if _reference_act_form(ctx, e.mat, s)[0] == s]


@pytest.mark.parametrize("q,n", [(3, 6), (5, 4)])
def test_stabilizer_matches_scan_on_every_set(q, n):
    k = K(q)
    for s in ref.enumerate_nsets(k, n):
        assert ns.stabilizer(s, k) == _reference_stabilizer(s, k), s


@pytest.mark.parametrize("p,e,n", [(7, 1, 8), (3, 2, 4)])
def test_stabilizer_matches_scan_on_sampled_sets(p, e, n):
    k = K(p, e)
    rng = random.Random(p + e + n)
    sets = [_random_nset(rng, k, n) for _ in range(12)]
    if p == 7:  # all of P^1(F_7), stabilized by the whole group
        sets += [s for s in oc._stab_test_sets(7, k) if s.n == n]
    else:  # P^1(F_3) inside P^1(F_9)
        sets.append(ref.points_to_nset(k, [mo.fin(0), mo.fin(1), mo.fin(2), mo.INF]))
    sizes = set()
    for s in sets:
        stab = ns.stabilizer(s, k)
        assert stab == _reference_stabilizer(s, k), s
        sizes.add(len(stab))
    assert len(sizes) > 1
