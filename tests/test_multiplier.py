"""Multiplier cocycle unit tests."""

import pytest

from hypcensus import field as ff
from hypcensus import moebius as mo
from hypcensus import multiplier as mult
from hypcensus import nset as ns
from hypcensus.census import divisors


def K(p, e=1):
    return ff.make_field(p, e)


def test_local_multiplier_cases():
    k = K(3)
    m = mo.GlMatrix(0, 1, 2, 0)  # det = -2 = 1
    # ordinary finite point: det / (c t + d)
    assert mult.local_multiplier(m, mo.fin(1), k) == ff.div(k, 1, 2)
    # pole t = -d/c = 0: multiplier is c
    assert mult.local_multiplier(m, mo.fin(0), k) == 2
    # infinity with c != 0: -det/c
    assert mult.local_multiplier(m, mo.INF, k) == ff.neg(k, ff.div(k, 1, 2))
    m2 = mo.GlMatrix(2, 1, 0, 1)
    # infinity with c = 0: d
    assert mult.local_multiplier(m2, mo.INF, k) == 1


def test_global_multiplier_worked_example():
    k = K(3)
    s = ns.points_to_nset(k, [mo.fin(0), mo.INF])
    assert mult.global_multiplier(mo.GlMatrix(2, 0, 0, 1), s, k) == 2


def test_global_equals_kappa_exhaustive_q3():
    k = K(3)
    for n in (2, 3, 4):
        for s in ns.enumerate_nsets(k, n):
            for e in mo.enumerate_pgl(k):
                assert mult.global_multiplier(e.mat, s, k) == mult.kappa_multiplier(
                    e.mat, s, k
                )


def test_global_equals_kappa_sampled_q5_q9():
    for p, e in [(5, 1), (3, 2)]:
        k = K(p, e)
        sets = list(ns.enumerate_nsets(k, 4))[::7]
        mats = [el.mat for el in mo.enumerate_pgl(k)[::13]]
        for s in sets:
            for m in mats:
                assert mult.global_multiplier(m, s, k) == mult.kappa_multiplier(m, s, k)


def test_debug_mode_double_evaluates():
    k = K(5)
    s = ns.make_nset(k, (0, 1, 0, 1, 1), False)
    m = mo.GlMatrix(1, 2, 3, 0)
    assert mult.global_multiplier(m, s, k, debug=True) == mult.global_multiplier(
        m, s, k
    )


def test_sweep_falls_through_to_extension():
    # a set whose finite part covers all of F_3 forces x0 into F_9
    k = K(3)
    s = ns.points_to_nset(k, [mo.fin(0), mo.fin(1), mo.fin(2), mo.INF])
    m = mo.GlMatrix(0, 1, 1, 0)
    assert mult.global_multiplier(m, s, k) == mult.kappa_multiplier(m, s, k)


def test_cocycle_law():
    # J(gamma rho, S) = J(rho, S) * J(gamma, rho S), no stability needed
    k = K(3)
    sets = list(ns.enumerate_nsets(k, 4))[::5]
    elems = mo.enumerate_pgl(k)
    for s in sets:
        for g1 in elems[::4]:
            for g2 in elems[::6]:
                prod = mo.mat_mul(k, g1.mat, g2.mat)
                lhs = mult.global_multiplier(prod, s, k)
                rhs = ff.mul(
                    k,
                    mult.global_multiplier(g2.mat, s, k),
                    mult.global_multiplier(g1.mat, ns.apply_moebius(g2, s, k), k),
                )
                assert lhs == rhs


def test_epsilon_scaling_invariance():
    # for even n the sign only depends on the projective class
    k = K(5)
    s = next(iter(ns.enumerate_nsets(k, 4)))
    m = mo.GlMatrix(1, 2, 3, 0)
    base = mult.epsilon(m, s, k)
    for c in range(2, 5):
        scaled = mo.GlMatrix(*(ff.mul(k, c, v) for v in (m.a, m.b, m.c, m.d)))
        assert mult.epsilon(scaled, s, k) == base
    with pytest.raises(ValueError):
        mult.epsilon(m, ns.make_nset(k, (0, 1), False), k)  # odd n


def test_epsilon_closed_form_exhaustive_q3_n4():
    k = K(3)
    sets = list(ns.enumerate_nsets(k, 4))
    checked = 0
    for e in mo.enumerate_pgl(k):
        if e.kind == "identity":
            continue
        for s in sets:
            if ns.apply_moebius(e, s, k) == s:
                assert mult.epsilon_closed_form(e, s, k) == mult.epsilon(e, s, k)
                checked += 1
    assert checked > 100


def test_epsilon_closed_form_requires_stability():
    k = K(3)
    e = mo.classify(k, mo.GlMatrix(1, 1, 0, 1))
    s = ns.points_to_nset(k, [mo.fin(0), mo.fin(1)])
    assert ns.apply_moebius(e, s, k) != s
    with pytest.raises(ValueError, match="closed form requires gamma S = S"):
        mult.epsilon_closed_form(e, s, k)


def test_epsilon_conjugation_invariance_on_stabilizer():
    # J itself is conjugation invariant when gamma stabilizes S
    k = K(3)
    s = ns.points_to_nset(k, [mo.fin(0), mo.INF])
    stab = [e for e in ns.stabilizer(s, k) if e.kind != "identity"]
    for rho in mo.enumerate_pgl(k):
        s2 = ns.apply_moebius(rho, s, k)
        for gam in stab:
            conj = mo.mat_mul(k, mo.mat_mul(k, rho.mat, gam.mat), mo.mat_inv(k, rho.mat))
            assert mult.global_multiplier(conj, s2, k) == mult.global_multiplier(
                gam.mat, s, k
            )


def test_norm_lemma_all_subtypes():
    for p, e in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        k = K(p, e)
        for m in divisors(k.q + 1):
            if m == 1:
                continue
            _, alpha = mo.subtype_representative(k, "A", m)
            rep = mult.norm_lemma_check(k, alpha)
            assert rep.m == m
            assert rep.statement1
            assert rep.statement2


def test_orbit_multiplier_worked_example():
    k = K(3)
    gamma, alpha = mo.subtype_representative(k, "A", 2)
    prod, expected = mult.orbit_multiplier_check(gamma, alpha, mo.fin(0), k)
    assert prod == expected
    # m = 2: alpha^2 = -1 in F_9 terms embeds the base element 2
    ext, emb = ff.extend(k, 2)
    assert expected == emb[2]


def test_orbit_multiplier_all_points_q3_q5():
    for q in (3, 5):
        k = K(q)
        ext, emb = ff.extend(k, 2)
        for m in divisors(q + 1):
            if m == 1:
                continue
            gamma, alpha = mo.subtype_representative(k, "A", m)
            _, _, fixed = mo.fixed_points(gamma, k)
            fixed = set(fixed)
            pts = [mo.INF] + [mo.fin(x) for x in range(ext.q)]
            for t in pts:
                if t in fixed:
                    continue
                prod, expected = mult.orbit_multiplier_check(gamma, alpha, t, k)
                assert prod == expected, (q, m, t)
