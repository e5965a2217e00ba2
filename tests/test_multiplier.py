"""Multiplier cocycle unit tests."""

import random
import re

import numpy as np
import pytest

from hypcensus import field as ff
from hypcensus import moebius as mo
from hypcensus import multiplier as mult
from hypcensus import nset as ns
from hypcensus import oracle as oc
from hypcensus.census import VerificationError, divisors

import reference as ref


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
    s = ref.points_to_nset(k, [mo.fin(0), mo.INF])
    assert mult.global_multiplier(mo.GlMatrix(2, 0, 0, 1), s, k) == 2


def test_global_equals_kappa_exhaustive_q3():
    k = K(3)
    for n in (2, 3, 4):
        for s in ref.enumerate_nsets(k, n):
            for e in mo.enumerate_pgl(k):
                assert mult.global_multiplier(e.mat, s, k) == mult.kappa_multiplier(
                    e.mat, s, k
                )


def test_global_equals_kappa_sampled_q5_q9():
    for p, e in [(5, 1), (3, 2)]:
        k = K(p, e)
        sets = list(ref.enumerate_nsets(k, 4))[::7]
        mats = [el.mat for el in mo.enumerate_pgl(k)[::13]]
        # the kappa side in one batch per field, [i, j] = (sets[i], mats[j])
        forms = np.array([ns.to_form(k, s) for s in sets])
        kappa, _ = mult.kappa_multipliers(k, mo.mat_codes(mats), forms[:, None])
        for s, row in zip(sets, kappa.tolist()):
            for m, j in zip(mats, row):
                assert mult.global_multiplier(m, s, k) == j


def test_global_multiplier_checks_a_second_point(monkeypatch):
    # J is derived at two evaluation points; an image point moved at the
    # second one makes them disagree
    k = K(5)
    s = ns.make_nset(k, (0, 1, 0, 1, 1), False)
    m = mo.GlMatrix(1, 2, 3, 0)
    calls = []
    reference = mult.act_point
    monkeypatch.setattr(mult, "act_point",
                        lambda *args: calls.append(args[1]) or reference(*args))
    assert mult.global_multiplier(m, s, k) == mult.kappa_multiplier(m, s, k)
    assert len(calls) == 2

    def moved(mat, t, ctx, emb=None):
        calls.append(t)
        y = reference(mat, t, ctx, emb)
        return mo.fin(ff.add(ctx, y.x, 2)) if len(calls) == 2 else y

    calls.clear()
    monkeypatch.setattr(mult, "act_point", moved)
    with pytest.raises(VerificationError, match="depends on the evaluation point"):
        mult.global_multiplier(m, s, k)


def test_sweep_falls_through_to_extension():
    # a set whose finite part covers all of F_3 forces x0 into F_9
    k = K(3)
    s = ref.points_to_nset(k, [mo.fin(0), mo.fin(1), mo.fin(2), mo.INF])
    m = mo.GlMatrix(0, 1, 1, 0)
    assert mult.global_multiplier(m, s, k) == mult.kappa_multiplier(m, s, k)


def test_cocycle_law():
    # J(gamma rho, S) = J(rho, S) * J(gamma, rho S), no stability needed
    k = K(3)
    sets = list(ref.enumerate_nsets(k, 4))[::5]
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
    s = next(iter(ref.enumerate_nsets(k, 4)))
    m = mo.GlMatrix(1, 2, 3, 0)
    base = mult.epsilon(m, s, k)
    for c in range(2, 5):
        scaled = mo.GlMatrix(*(ff.mul(k, c, v) for v in (m.a, m.b, m.c, m.d)))
        assert mult.epsilon(scaled, s, k) == base
    with pytest.raises(ValueError):
        mult.epsilon(m, ns.make_nset(k, (0, 1), False), k)  # odd n
    with pytest.raises(ValueError, match="even n"):
        mult.epsilons(k, [1, 0, 0, 1], [1, 0, 1, 2])


def test_epsilon_closed_form_exhaustive_q3_n4():
    k = K(3)
    sets = list(ref.enumerate_nsets(k, 4))
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
    s = ref.points_to_nset(k, [mo.fin(0), mo.fin(1)])
    assert ns.apply_moebius(e, s, k) != s
    with pytest.raises(ValueError, match="closed form requires gamma S = S"):
        mult.epsilon_closed_form(e, s, k)
    # the batched view checks every pair: one stable pair, then two that
    # move, and it names the first of them
    e = mo.classify(k, mo.GlMatrix(0, 1, 1, 0))
    fixed = ref.points_to_nset(k, [mo.fin(1), mo.fin(2)])  # the fixed points of 1/x
    other = ref.points_to_nset(k, [mo.fin(0), mo.fin(2)])
    forms = np.array([ns.to_form(k, t) for t in (fixed, s, other)])
    assert mult.epsilon_closed_forms([e], [0], forms[:1], k).tolist() == [
        mult.epsilon_closed_form(e, fixed, k)]
    moved = re.escape(f"closed form requires gamma S = S: {e.mat}, {s}")
    with pytest.raises(ValueError, match=moved):
        mult.epsilon_closed_forms([e], [0, 0, 0], forms, k)


def test_epsilon_conjugation_invariance_on_stabilizer():
    # J itself is conjugation invariant when gamma stabilizes S
    k = K(3)
    s = ref.points_to_nset(k, [mo.fin(0), mo.INF])
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


# ---------------------------------------------------------------------------
# the batched views against the per-pair references


@pytest.mark.parametrize("q", [3, 5])
def test_batched_signs_match_references_on_every_stable_pair(q):
    k = K(q)
    st = oc.ActionState(k, 6)
    elems = [e for e in mo.enumerate_pgl(k) if e.kind != "identity"]
    codes = mo.mat_codes(e.mat for e in elems)
    which, forms, kappa = oc.fixed_forms(k, 6, codes)
    want_which, rows, want_kappa = ref.fixed_rows(k, st.V, codes)
    assert np.array_equal(which, want_which) and np.array_equal(kappa, want_kappa)
    assert np.array_equal(forms, st.V[rows])
    pairs = [(elems[w], ref.nset_at(st, i)) for w, i in zip(which.tolist(), rows.tolist())]
    # every stable pair of every element in one closed-form call
    closed = mult.epsilon_closed_forms(elems, which, forms, k)
    assert closed.tolist() == [mult.epsilon_closed_form(e, s, k) for e, s in pairs]
    for e in elems:
        idx = np.flatnonzero(st.kappa_stable(e.mat)[1])
        sets = [ref.nset_at(st, i) for i in idx.tolist()]
        swept = mult.epsilons(k, mo.mat_codes([e.mat]), st.V[idx])
        assert swept.tolist() == [mult.epsilon(e.mat, s, k) for s in sets], e
    assert len(pairs) == {3: 264, 5: 3720}[q]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_batched_closed_form_matches_reference_on_stabilizer_test_sets(q):
    # every nonidentity member of each stabilizer test set in one call
    k = K(q)
    for s in oc._stab_test_sets(q, k):
        members = [e for e in ns.stabilizer(s, k) if e.kind != "identity"]
        closed = mult.epsilon_closed_forms(members, np.arange(len(members)), ns.to_form(k, s), k)
        assert closed.tolist() == [mult.epsilon_closed_form(e, s, k) for e in members], s


def test_batched_closed_form_names_the_first_bad_pair(monkeypatch):
    # two pairs given a fixed-point count no configuration of their kind
    # has: the error names the first of them
    k = K(5)
    st = oc.ActionState(k, 6)
    elems = [e for e in mo.enumerate_pgl(k) if e.kind == "A"]
    codes = mo.mat_codes(e.mat for e in elems)
    which, forms, kappa = oc.fixed_forms(k, 6, codes)
    want_which, rows, want_kappa = ref.fixed_rows(k, st.V, codes)
    assert np.array_equal(which, want_which) and np.array_equal(kappa, want_kappa)
    assert np.array_equal(forms, st.V[rows])
    counts = ns.fixed_point_counts
    bad = [3, 7]

    def miscounted(ctx, mats, forms):
        cnt = counts(ctx, mats, forms).copy()
        cnt[bad] = 1  # kind A holds its conjugate pair together or not at all
        return cnt

    monkeypatch.setattr(mult, "fixed_point_counts", miscounted)
    first = ref.nset_at(st, int(rows[bad[0]]))
    want = re.escape(f"kind A has 1 of its fixed points in S: {first}")
    with pytest.raises(VerificationError, match=want):
        mult.epsilon_closed_forms(elems, which, forms, k)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_epsilons_match_sweep_on_random_pairs(p, e):
    k = K(p, e)
    rng = random.Random(100 * p + e)
    for n in (2, 4, 6, 8):
        mats, sets = [], []
        while len(mats) < 150:
            m = mo.GlMatrix(*(rng.randrange(k.q) for _ in range(4)))
            inf = rng.random() < 0.5
            f = tuple(rng.randrange(k.q) for _ in range(n - inf)) + (1,)
            if mo.mat_det(k, m) and ff.is_squarefree_poly(k, f):
                mats.append(m)
                sets.append(ns.RationalNSet(f, inf))
        forms = np.array([ns.to_form(k, s) for s in sets])
        got = mult.epsilons(k, mo.mat_codes(mats), forms)
        assert got.tolist() == [mult.epsilon(m, s, k) for m, s in zip(mats, sets)], (p, e, n)
        # one matrix against every form, and one form against every matrix
        assert mult.epsilons(k, mo.mat_codes(mats[:1]), forms).tolist() == [
            mult.epsilon(mats[0], s, k) for s in sets]
        assert mult.epsilons(k, mo.mat_codes(mats), forms[0]).tolist() == [
            mult.epsilon(m, sets[0], k) for m in mats]


def test_epsilons_fall_back_level_by_level(monkeypatch):
    k = K(3)
    inv = mo.GlMatrix(0, 1, 1, 0)  # x -> 1/x, whose pole is 0
    # P^1(F_3): no x0 in F_3, one in F_9
    line = ref.points_to_nset(k, [mo.fin(0), mo.fin(1), mo.fin(2), mo.INF])
    # (x^9 - x) / x vanishes on F_9 minus 0, the pole: x0 lies in F_81
    quartic = ns.make_nset(k, (2, 0, 0, 0, 0, 0, 0, 0, 1), False)
    ext, emb = ff.extend(k, 2)
    f9 = tuple(emb[c] for c in quartic.f)
    assert all(ff.peval(ext, f9, x) == 0 for x in range(1, 9))
    assert mult.global_multiplier(inv, quartic, k) == mult.kappa_multiplier(inv, quartic, k)
    want = [mult.epsilon(inv, s, k) for s in (line, quartic)]
    # both levels are swept in batch: no pair reaches the per-pair sweep
    calls = []
    reference = mult.global_multiplier
    monkeypatch.setattr(mult, "global_multiplier",
                        lambda mat, s, ctx: calls.append((mat, s)) or reference(mat, s, ctx))
    assert mult.epsilons(k, mo.mat_codes([inv]), ns.to_form(k, line)).tolist() == want[:1]
    assert mult.epsilons(k, mo.mat_codes([inv]), ns.to_form(k, quartic)).tolist() == want[1:]
    assert not calls

