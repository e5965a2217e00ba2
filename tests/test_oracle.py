"""Group-action engine against the closed-form census."""

import numpy as np
import pytest

from hypcensus import census
from hypcensus import field as ff
from hypcensus import moebius as mb
from hypcensus import multiplier as mult
from hypcensus import nset as ns
from hypcensus import oracle as oc

# frozen engine outputs: (hyp, sd, n-set classes)
ANCHORS = {
    (2, 3): (69, 7, 38),
    (2, 5): (285, 27, 156),
    (2, 7): (749, 49, 399),
    (2, 9): (1557, 79, 818),
    (3, 3): (526, 12, 269),
    (3, 5): (6508, 0, 3254),
    (4, 3): (4463, 73, 2268),
}

FAST_PAIRS = [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (4, 3)]


@pytest.mark.parametrize("g,q", FAST_PAIRS)
def test_orbit_census_frozen_and_formulas(g, q):
    res = oc.orbit_census(g, q)
    assert (res.hyp, res.sd, res.nset_classes) == ANCHORS[(g, q)]
    assert res.hyp == census.hyp(g, q)
    assert res.sd == census.sd(g, q)
    assert res.nset_classes == census.y_nset_classes(g, q)
    assert res.n_sets == census.a_p1(2 * g + 2, q)


@pytest.mark.parametrize("g,q", [(2, 3), (2, 5), (3, 3), (4, 3)])
def test_burnside_agrees(g, q):
    assert oc.burnside_hyp(g, q) == ANCHORS[(g, q)][0]


@pytest.mark.slow
def test_pair_2_9_both_paths():
    res = oc.orbit_census(2, 9)
    assert (res.hyp, res.sd, res.nset_classes) == ANCHORS[(2, 9)]
    assert res.hyp == census.hyp(2, 9)
    assert res.sd == census.sd(2, 9)
    assert oc.burnside_hyp(2, 9) == res.hyp


def test_budget_refusals():
    assert oc.action_cost(2, 3) == (3**3 - 3) * census.a_p1(6, 3)
    for g, q in ((2, 11), (3, 7), (4, 5)):
        with pytest.raises(oc.BudgetError):
            oc.orbit_census(g, q)
        with pytest.raises(oc.BudgetError):
            oc.burnside_hyp(g, q)
    with pytest.raises(oc.BudgetError):
        oc.orbit_census(2, 5, budget=1000)
    # a raised budget unlocks the same pair
    assert oc.orbit_census(2, 5, budget=oc.action_cost(2, 5)).hyp == 285


@pytest.mark.parametrize("p,e,n", [(3, 1, 4), (5, 1, 3), (3, 2, 2)])
def test_engine_enumeration_matches_nsets(p, e, n):
    ctx = ff.make_field(p, e)
    st = oc.ActionState(ctx, n)
    sets = list(ns.enumerate_nsets(ctx, n))
    assert st.count == len(sets)
    for i, s in enumerate(sets):
        assert st.nset_at(i) == s


@pytest.mark.parametrize("p,e,n", [(3, 1, 4), (3, 2, 2)])
def test_engine_action_matches_act_form(p, e, n):
    ctx = ff.make_field(p, e)
    st = oc.ActionState(ctx, n)
    sets = list(ns.enumerate_nsets(ctx, n))
    index = {s: i for i, s in enumerate(sets)}
    for elem in mb.enumerate_pgl(ctx):
        dest, flip = st.dest_flip(elem.mat)
        kappa, stable = st.kappa_stable(elem.mat)
        for i, s in enumerate(sets):
            s2, kap = ns.act_form(ctx, elem.mat, s)
            assert int(dest[i]) == index[s2]
            assert bool(flip[i]) == (ff.chi(kap, ctx) == -1)
            assert bool(stable[i]) == (s2 == s)
            if s2 == s:
                assert int(kappa[i]) == kap


def test_engine_apply_exact_beyond_int16_sums():
    # before reduction mod 131, some image coefficients of the first matrix
    # exceed 2**15: an int16 product would wrap on ten rows
    ctx = ff.make_field(131, 1)
    st = oc.ActionState(ctx, 2)
    sets = list(ns.enumerate_nsets(ctx, 2))
    for mat in (mb.GlMatrix(47, 12, 92, 21), mb.GlMatrix(0, 1, 1, 0)):
        dest, flip = st.dest_flip(mat)
        for i, s in enumerate(sets):
            s2, kap = ns.act_form(ctx, mat, s)
            assert st.nset_at(int(dest[i])) == s2
            assert bool(flip[i]) == (ff.chi(kap, ctx) == -1)


def _reference_apply(st, mat):
    """The full-image action the column kernel replaced: an int32 matmul
    reduced mod p over a prime field, table gathers over an extension."""
    ctx, n, p = st.ctx, st.n, st.ctx.p
    t = ns.substitution_matrix(ctx, mat, n)
    if ctx.e == 1:
        g = st.V.astype(np.int32) @ np.asarray(t, np.int32).T
        np.mod(g, p, out=g)
        return g.astype(np.int16)
    mul, add = st.tabs.MUL, st.tabs.ADD
    cols = st.V.T
    g = np.zeros_like(cols)
    for i, row in enumerate(t):
        for k, c in enumerate(row):
            if c:
                g[i] = add[g[i], mul[c][cols[k]]]
    return g.T


def _reference_kappa_stable(st, g):
    """kappa and the stable mask read off the full image rows g."""
    kappa = np.concatenate([g[: st.n0, 0], g[st.n0 :, 1]])
    expected = st.tabs.MUL[kappa[:, None], st.V]
    stable = (kappa != 0) & np.all(expected == g, axis=1)
    return kappa, stable


def _assert_kernel_matches_reference(st, mat):
    g = _reference_apply(st, mat)
    got = st.apply(mat)
    assert got.dtype == g.dtype and np.array_equal(got, g), mat
    want_kappa, want_stable = _reference_kappa_stable(st, g)
    kappa, stable = st.kappa_stable(mat)
    assert kappa.dtype == want_kappa.dtype and np.array_equal(kappa, want_kappa), mat
    assert np.array_equal(stable, want_stable), mat


@pytest.mark.parametrize("p,e,n", [(3, 1, 6), (5, 1, 4), (7, 1, 4), (3, 2, 4), (5, 2, 2)])
def test_column_kernel_matches_full_image(p, e, n):
    st = oc.ActionState(ff.make_field(p, e), n)
    for elem in mb.enumerate_pgl(st.ctx):
        _assert_kernel_matches_reference(st, elem.mat)


def test_column_kernel_matches_full_image_beyond_int16_sums():
    st = oc.ActionState(ff.make_field(131, 1), 2)
    for mat in (mb.GlMatrix(47, 12, 92, 21), mb.GlMatrix(0, 1, 1, 0)):
        _assert_kernel_matches_reference(st, mat)


@pytest.mark.parametrize("p,e,d", [(3, 1, 6), (5, 1, 4), (3, 2, 3), (7, 1, 1), (7, 1, 0)])
def test_squarefree_mask_cached_and_read_only(p, e, d):
    ctx = ff.make_field(p, e)
    mask = oc.squarefree_mask(ctx, d)
    assert oc.squarefree_mask(ctx, d) is mask
    assert np.array_equal(mask, oc.squarefree_mask.__wrapped__(ctx, d))
    with pytest.raises(ValueError):
        mask[0] = not mask[0]


@pytest.mark.parametrize("p,e,n", [(3, 1, 6), (5, 1, 4), (3, 2, 4)])
def test_composed_actions_match_direct(p, e, n):
    ctx = ff.make_field(p, e)
    st = oc.ActionState(ctx, n)
    walked = []
    for mat, dest, flip in oc._composed_actions(st):
        want_dest, want_flip = st.dest_flip(mat)
        assert np.array_equal(dest, want_dest), mat
        assert np.array_equal(flip, want_flip), mat
        walked.append(mat)
    pgl = [el.mat for el in mb.enumerate_pgl(ctx)]
    assert len(walked) == len(pgl) == len(set(walked))
    assert set(walked) == set(pgl)


def _uf_find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _uf_union(parent, a, b):
    ra = _uf_find(parent, a)
    rb = _uf_find(parent, b)
    if ra != rb:
        parent[rb] = ra


def _reference_partition(st):
    """Union-find forests of the set and twisted-pair generator graphs."""
    n = st.count
    parent1 = list(range(n))
    parent2 = list(range(2 * n))
    for mat in oc._generators(st.ctx):
        dest, flip = st.dest_flip(mat)
        for i, (d, f) in enumerate(zip(dest.tolist(), flip.tolist())):
            _uf_union(parent1, i, d)
            _uf_union(parent2, i, d + n * f)
            _uf_union(parent2, i + n, d + n * (not f))
    return parent1, parent2


def _smallest_member(parent):
    roots = [_uf_find(parent, x) for x in range(len(parent))]
    least = {}
    for x, r in enumerate(roots):
        least.setdefault(r, x)
    return [least[r] for r in roots]


@pytest.mark.parametrize("p,e,n", [(3, 1, 6), (5, 1, 6), (3, 2, 4)])
def test_orbit_labels_match_union_find(p, e, n):
    st = oc.ActionState(ff.make_field(p, e), n)
    lab1, lab2 = oc._partition(st)
    parent1, parent2 = _reference_partition(st)
    assert lab1.tolist() == _smallest_member(parent1)
    assert lab2.tolist() == _smallest_member(parent2)


def test_twisted_act_flip_matches_engine():
    ctx = ff.make_field(3, 1)
    st = oc.ActionState(ctx, 6)
    sets = list(ns.enumerate_nsets(ctx, 6))
    for elem in mb.enumerate_pgl(ctx):
        dest, flip = st.dest_flip(elem.mat)
        for i in (0, 17, 100, 333, len(sets) - 1):
            lam2, s2 = oc.twisted_act(elem, 1, sets[i], ctx)
            assert s2 == sets[int(dest[i])]
            assert (ff.chi(lam2, ctx) == -1) == bool(flip[i])


def test_selfdual_trivial_stabilizer_is_false():
    ctx = ff.make_field(3, 1)
    for s in ns.enumerate_nsets(ctx, 6):
        if len(ns.stabilizer(s, ctx)) == 1:
            assert not oc.selfdual_nset(s, ctx)
            return
    raise AssertionError("no free 6-set found")


def test_selfdual_inversion_example():
    # (x^3 - x)(x^2 + x + 2) plus infinity is stable under t -> -1/t,
    # and the irrational fixed pair of that map stays outside the set
    ctx = ff.make_field(3, 1)
    f = ff.pmul(ctx, (0, 2, 0, 1), (2, 1, 1))
    s = ns.make_nset(ctx, f, True)
    gam = mb.GlMatrix(0, 1, 2, 0)
    s2, _ = ns.act_form(ctx, gam, s)
    assert s2 == s
    ext, emb = ff.extend(ctx, 2)
    i_unit = next(x for x in range(ext.q) if ff.add(ext, ff.mul(ext, x, x), emb[1]) == 0)
    f_ext = tuple(emb[c] for c in f)
    assert ff.peval(ext, f_ext, i_unit) != 0
    assert mult.epsilon(gam, s, ctx) == -1
    assert oc.selfdual_nset(s, ctx)


def test_selfdual_orbit_invariant_and_class_count():
    ctx = ff.make_field(3, 1)
    sets = list(ns.enumerate_nsets(ctx, 6))
    pgl = mb.enumerate_pgl(ctx)
    flags = {s: oc.selfdual_nset(s, ctx) for s in sets}
    seen = set()
    selfdual_classes = 0
    for s in sets:
        if s in seen:
            continue
        orbit = {ns.act_form(ctx, el.mat, s)[0] for el in pgl}
        assert len({flags[t] for t in orbit}) == 1
        seen |= orbit
        if flags[s]:
            selfdual_classes += 1
    assert selfdual_classes == census.sd(2, 3) == 7


def test_point_counts_smooth_vs_affine():
    ctx = ff.make_field(3, 1)
    # y^2 = x^5 - x has all nine affine points plus one at infinity
    s = ns.make_nset(ctx, (0, 2, 0, 0, 0, 1), True)
    aff, smooth = oc.curve_point_counts(ctx, 1, s)
    assert (aff, smooth) == (3, 4)
    s2 = ns.make_nset(ctx, ff.pmul(ctx, (1, 0, 1), (2, 1, 1)), False)
    aff2, smooth2 = oc.curve_point_counts(ctx, 1, s2)
    assert (aff2, smooth2) == (2, 4)


def test_suites_reduced_grids():
    assert oc.verify_suite("eps", qs=(3,), ns_list=(6,))["checks"] > 0
    assert oc.verify_suite("counts", qs=(3, 5), nmax=6)["checks"] > 0
    assert oc.verify_suite("norm")["checks"] == 448
    assert oc.verify_suite("orbit_lemma")["checks"] == 232
    r = oc.verify_suite(
        "cocycle", triples=300, hom_exhaustive=((3, 6),), hom_sampled=()
    )
    assert r["checks"] > 0
    assert oc.verify_suite("quot", qs=(3,))["checks"] > 0
    assert oc.verify_suite("points", qs=(3,))["checks"] > 0


def test_verify_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        oc.verify_suite("nope")


def test_sign_homomorphism_reports_first_failing_pair():
    ctx = ff.make_field(3, 1)
    special = ns.make_nset(ctx, ff.pmul(ctx, (0, 2, 0, 1), (1, 0, 1)), True)
    stab = ns.stabilizer(special, ctx)
    index = mb.pgl_table(ctx).index
    members = [index[el.mat] for el in stab]
    signs = [mult.epsilon(el.mat, special, ctx) for el in stab]
    assert oc._sign_homomorphism(ctx, members, signs) == len(stab) ** 2
    # flipping one non-identity sign breaks sign(g h) for some member h
    g = next(k for k, el in enumerate(stab) if el.kind != "identity")
    flipped = signs[:g] + [-signs[g]] + signs[g + 1 :]
    with pytest.raises(census.VerificationError, match="cocycle: homomorphism"):
        oc._sign_homomorphism(ctx, members, flipped, "where")
    # a product outside the members reads sign 0 and fails as well
    with pytest.raises(census.VerificationError, match="cocycle: homomorphism"):
        oc._sign_homomorphism(ctx, members[:g] + members[g + 1 :], signs[:g] + signs[g + 1 :])
