"""Group-action engine against the closed-form census."""

import collections
import functools
import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from hypcensus import census
from hypcensus import field as ff
from hypcensus import moebius as mb
from hypcensus import multiplier as mult
from hypcensus import nset as ns
from hypcensus import oracle as oc

import reference as ref
from test_nset import _reference_act_form

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


@pytest.mark.slow
def test_orbit_census_past_default_budget():
    # (2, 11) is refused at the default budget; a raised one runs it
    res = oc.orbit_census(2, 11, budget=oc.action_cost(2, 11))
    assert (res.hyp, res.sd, res.nset_classes) == (2813, 121, 1467)
    assert res.hyp == census.hyp(2, 11)
    assert res.sd == census.sd(2, 11)
    assert oc.burnside_hyp(2, 11, budget=oc.action_cost(2, 11)) == 2813


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
    sets = list(ref.enumerate_nsets(ctx, n))
    assert st.count == len(sets)
    for i, s in enumerate(sets):
        assert st.nset_at(i) == s


def _reference_rows(ctx, n):
    """V and the code -> row table rebuilt from nset.enumerate_nsets, which
    tests squarefreeness by a polynomial gcd, and nset.to_form."""
    q = ctx.q
    sets = list(ref.enumerate_nsets(ctx, n))
    v = np.array([ns.to_form(ctx, s, n) for s in sets], np.int16, order="F")
    row_of = np.full(q**n + q ** (n - 1), -1, np.int32)
    for i, s in enumerate(sets):
        row_of[q**n * s.has_inf + sum(c * q**j for j, c in enumerate(s.f[:-1]))] = i
    return v, row_of


@pytest.mark.parametrize(
    "p,e,n", [(3, 1, 6), (5, 1, 4), (7, 1, 4), (3, 2, 4), (5, 2, 2), (3, 3, 3), (131, 1, 2)]
)
def test_rows_match_enumeration(p, e, n):
    ctx = ff.make_field(p, e)
    st = oc.ActionState(ctx, n)
    v, row_of = _reference_rows(ctx, n)
    assert st.V.dtype == np.int16 and st.V.flags.f_contiguous
    assert np.array_equal(st.V, v)
    assert st._row_of.dtype == np.int32 and np.array_equal(st._row_of, row_of)
    assert st.n0 == int(np.count_nonzero(v[:, 0])) and st.count == len(v)


@pytest.mark.parametrize("p,e,n", [(3, 1, 4), (3, 2, 2)])
def test_engine_action_matches_act_form(p, e, n):
    ctx = ff.make_field(p, e)
    st = oc.ActionState(ctx, n)
    sets = list(ref.enumerate_nsets(ctx, n))
    index = {s: i for i, s in enumerate(sets)}
    for elem in mb.enumerate_pgl(ctx):
        dest, flip = st.dest_flip(elem.mat)
        kappa, stable = st.kappa_stable(elem.mat)
        for i, s in enumerate(sets):
            s2, kap = _reference_act_form(ctx, elem.mat, s)
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
    sets = list(ref.enumerate_nsets(ctx, 2))
    for mat in (mb.GlMatrix(47, 12, 92, 21), mb.GlMatrix(0, 1, 1, 0)):
        dest, flip = st.dest_flip(mat)
        for i, s in enumerate(sets):
            s2, kap = _reference_act_form(ctx, mat, s)
            assert st.nset_at(int(dest[i])) == s2
            assert bool(flip[i]) == (ff.chi(kap, ctx) == -1)


@functools.lru_cache(maxsize=1)
def _reference_tables(st):
    """Per state, rebuilt from V: the code -> row tables of the two blocks
    (the int64 codes of the form coefficients), and over an extension field
    the base-p digits of V, digit s of column k at column k e + s."""
    q, n = st.ctx.q, st.n
    weights = q ** np.arange(n, dtype=np.int64)
    row_codes = st.V[:, n:0:-1] @ weights
    inv0 = np.full(q**n, -1, np.int64)
    inv0[row_codes[: st.n0]] = np.arange(st.n0)
    inv1 = np.full(q ** (n - 1), -1, np.int64)
    inv1[row_codes[st.n0 :] - q ** (n - 1)] = np.arange(st.n0, st.count)
    digits = None
    if st.ctx.e > 1:
        p, e = st.ctx.p, st.ctx.e
        place = p ** np.arange(e, dtype=np.int16)
        digits = (st.V[:, :, None] // place % p).reshape(st.count, -1).astype(np.float32)
    return inv0, inv1, digits


@functools.cache
def _reference_times(ctx):
    """[c] = the e x e matrix over F_p of y -> c y on base-p digits: column
    s holds the digits of c x^s, from ff.mul on the basis 1, x, .., x^(e-1)."""
    basis = [ctx.p**s for s in range(ctx.e)]
    return np.array([[ff.to_digits(ctx, ff.mul(ctx, c, b)) for b in basis]
                     for c in range(ctx.q)]).transpose(0, 2, 1)


def _reference_apply(st, mat):
    """The full image of every row, independent of the field tables: an
    int32 matmul reduced mod p over a prime field.  Over F_(p^e) the action
    is F_p-linear on base-p digits, block (i, k) the matrix of y -> T[i][k] y
    (_reference_times), so one matmul of the digits by the block matrix,
    reduced mod p, gives every image digit.  Its entries are small
    integers: a float32 (BLAS) product is exact, and fits int16, while
    (n + 1) e (p - 1)^2 < 2**15."""
    ctx, n, p = st.ctx, st.n, st.ctx.p
    t = ns.substitution_matrix(ctx, mat, n)
    if ctx.e == 1:
        g = st.V.astype(np.int32) @ np.asarray(t, np.int32).T
        np.mod(g, p, out=g)
        return g.astype(np.int16)
    e = ctx.e
    assert (n + 1) * e * (p - 1) ** 2 < 2**15
    size = (n + 1) * e
    block = _reference_times(ctx)[np.asarray(t)].transpose(0, 2, 1, 3).reshape(size, size)
    img = (_reference_tables(st)[2] @ block.T.astype(np.float32)).astype(np.int16)
    img %= p
    g = img[:, e - 1 :: e]  # the codes, by Horner over the digits
    for s in range(e - 2, -1, -1):
        g = g * p + img[:, s::e]
    return g


def _reference_kappa_stable(st, g):
    """kappa and the stable mask read off the full image rows g."""
    kappa = np.concatenate([g[: st.n0, 0], g[st.n0 :, 1]])
    expected = st.tabs.MUL[kappa[:, None], st.V]
    stable = (kappa != 0) & np.all(expected == g, axis=1)
    return kappa, stable


def _assert_kernel_matches_reference(st, mat, g=None):
    """apply and kappa_stable of one matrix against the full image; returns
    the reference kappa and stable mask."""
    if g is None:
        g = _reference_apply(st, mat)
    got = st.apply(mat)
    assert got.dtype == g.dtype and np.array_equal(got, g), mat
    want_kappa, want_stable = _reference_kappa_stable(st, g)
    kappa, stable = st.kappa_stable(mat)
    assert np.array_equal(stable, want_stable), mat
    assert kappa.dtype == want_kappa.dtype, mat
    assert np.array_equal(kappa[stable], want_kappa[stable]), mat
    assert not kappa[~stable].any(), mat
    return want_kappa, want_stable


@pytest.mark.parametrize(
    "p,e,n", [(3, 1, n) for n in range(1, 9)]
    + [(5, 1, 4), (5, 1, 6), (7, 1, 4), (3, 2, 4), (5, 2, 2)])
def test_column_kernel_matches_full_image(p, e, n):
    # per element, and fixed_rows of all of PGL2 in one call: the stable
    # (row, kappa) of each element, sorted by element and then by row
    st = oc.ActionState(ff.make_field(p, e), n)
    pgl = mb.enumerate_pgl(st.ctx)
    elem, rows, kappa = st.fixed_rows(mb.mat_codes(el.mat for el in pgl))
    assert kappa.dtype == np.int16
    assert np.array_equal(np.lexsort((rows, elem)), np.arange(len(rows)))
    for i, el in enumerate(pgl):
        want_kappa, want_stable = _assert_kernel_matches_reference(st, el.mat)
        mine = elem == i
        assert np.array_equal(rows[mine], np.flatnonzero(want_stable)), el.mat
        assert np.array_equal(kappa[mine], want_kappa[want_stable]), el.mat


@pytest.mark.parametrize("p,e,n", [(3, 1, 1), (5, 1, 4), (7, 1, 3), (3, 2, 2)])
def test_fixed_rows_of_scalar_and_empty_stacks(p, e, n):
    # (a, 0, 0, a) substitutes a^n times each form: every row, kappa a^n;
    # an empty stack fixes nothing
    ctx = ff.make_field(p, e)
    st = oc.ActionState(ctx, n)
    scalars = [(a, 0, 0, a) for a in range(1, ctx.q)]
    elem, rows, kappa = st.fixed_rows(scalars)
    assert np.array_equal(elem, np.repeat(np.arange(ctx.q - 1), st.count))
    assert np.array_equal(rows, np.tile(np.arange(st.count), ctx.q - 1))
    assert kappa.tolist() == [ff.pw(ctx, a, n) for a in range(1, ctx.q) for _ in range(st.count)]
    for got in st.fixed_rows(np.zeros((0, 4), int)):
        assert got.shape == (0,)


def test_column_kernel_matches_full_image_beyond_int16_sums():
    st = oc.ActionState(ff.make_field(131, 1), 2)
    for mat in (mb.GlMatrix(47, 12, 92, 21), mb.GlMatrix(0, 1, 1, 0)):
        _assert_kernel_matches_reference(st, mat)


def _reference_dest_flip(st, mat, g=None):
    """The full-image dest_flip the column accumulation replaced: every
    image row divided by its kappa, then coded by two int64 matmuls and
    looked up in the code -> row tables rebuilt from V."""
    q, n = st.ctx.q, st.n
    if g is None:
        g = _reference_apply(st, mat)
    kap = np.where(g[:, 0] != 0, g[:, 0], g[:, 1])
    assert kap.all(), mat
    c = st.tabs.MUL[st.tabs.INV[kap][:, None], g]
    weights = q ** np.arange(n, dtype=np.int64)
    inv0, inv1, _ = _reference_tables(st)
    code0 = c[:, n:0:-1] @ weights
    code1 = c[:, n:1:-1] @ weights[:-1]
    dest = np.where(g[:, 0] != 0, inv0[code0], inv1[code1])
    assert (dest >= 0).all(), mat
    return dest, st.tabs.CHI[kap] == -1


def _assert_dest_flip_matches_reference(st, mat, g=None):
    want_dest, want_flip = _reference_dest_flip(st, mat, g)
    dest, flip = st.dest_flip(mat)
    assert dest.dtype == np.int32, mat
    assert np.array_equal(dest, want_dest), mat
    assert flip.dtype == want_flip.dtype and np.array_equal(flip, want_flip), mat


@pytest.mark.parametrize("p,e,n", [(3, 1, 6), (5, 1, 4), (7, 1, 4), (3, 2, 4)])
def test_column_dest_flip_matches_full_image(p, e, n):
    st = oc.ActionState(ff.make_field(p, e), n)
    for elem in mb.enumerate_pgl(st.ctx):
        _assert_dest_flip_matches_reference(st, elem.mat)


def test_column_dest_flip_matches_full_image_beyond_int16_sums():
    st = oc.ActionState(ff.make_field(131, 1), 2)
    for mat in (mb.GlMatrix(47, 12, 92, 21), mb.GlMatrix(0, 1, 1, 0)):
        _assert_dest_flip_matches_reference(st, mat)


@pytest.mark.slow
def test_extension_gathers_match_full_image_on_f27():
    # the generators and 64 seeded random GL2 matrices over F_27, each
    # about 0.4 s at 530,712 rows: all of PGL2(F_27) is out of reach
    ctx = ff.make_field(3, 3)
    st = oc.ActionState(ctx, 4)
    rng = random.Random(27)
    mats = list(oc._generators(ctx))
    while len(mats) < 3 + 64:
        mat = mb.GlMatrix(*(rng.randrange(27) for _ in range(4)))
        if mb.mat_det(ctx, mat):
            mats.append(mat)
    rows = np.array(sorted(rng.sample(range(st.count), 2000)))
    for mat in mats:
        g = _reference_apply(st, mat)
        for i, trow in enumerate(ns.substitution_matrix(ctx, mat, st.n)):
            col = st._image_col(rows, trow)
            assert col.dtype == g.dtype and np.array_equal(col, g[rows, i]), mat
        _assert_kernel_matches_reference(st, mat, g)
        _assert_dest_flip_matches_reference(st, mat, g)


def test_extension_gathers_beyond_int16_indices():
    # over F_243 the flat ADD index acc * q + term reaches 243**2 - 1,
    # past int16
    ctx = ff.make_field(3, 5)
    st = oc.ActionState(ctx, 2)
    for mat in (*oc._generators(ctx), mb.GlMatrix(200, 17, 99, 242)):
        g = _reference_apply(st, mat)
        _assert_kernel_matches_reference(st, mat, g)
        _assert_dest_flip_matches_reference(st, mat, g)


def _reference_squarefree_mask(ctx, d):
    """The per-polynomial sieve the vectorized one replaced: for each monic
    g of degree k, g**2 by scalar polynomial multiplication, then g**2 * h
    for every monic h of degree d - 2k by gathers in the field tables."""
    q = ctx.q
    if d <= 1:
        return np.ones(q**d, dtype=bool)
    tabs = ff.tables(ctx)
    seen = np.zeros(q**d, dtype=bool)
    for k in range(1, d // 2 + 1):
        hdeg = d - 2 * k
        hcodes = np.arange(q**hdeg, dtype=np.int64)
        hfull = np.ones((len(hcodes), hdeg + 1), np.int16)
        for j in range(hdeg):
            hfull[:, j] = hcodes // q**j % q
        for gcode in range(q**k):
            gc = tuple((gcode // q**j) % q for j in range(k)) + (1,)
            g2 = ff.pmul(ctx, gc, gc)
            prod = np.zeros((len(hcodes), d + 1), np.int16)
            for i, gi in enumerate(g2):
                if gi == 0:
                    continue
                row = tabs.MUL[gi]
                for j in range(hdeg + 1):
                    prod[:, i + j] = tabs.ADD[prod[:, i + j], row[hfull[:, j]]]
            seen[prod[:, :d] @ q ** np.arange(d)] = True
    return ~seen


@pytest.mark.parametrize(
    "p,e,dlo,dhi",
    [(3, 1, 0, 10), (5, 1, 0, 8), (7, 1, 0, 6), (3, 2, 0, 6), (5, 2, 0, 4), (3, 3, 0, 4),
     (131, 1, 3, 3), (191, 1, 2, 2)],
)
def test_squarefree_mask_matches_reference(p, e, dlo, dhi):
    # at q = 131 and 191, q**2 exceeds int16: the codes need int32
    ctx = ff.make_field(p, e)
    for d in range(dlo, dhi + 1):
        mask = oc.squarefree_mask.__wrapped__(ctx, d)
        assert mask.dtype == bool and not mask.flags.writeable, d
        assert np.array_equal(mask, _reference_squarefree_mask(ctx, d)), d


@pytest.mark.parametrize("p,e,d", [(3, 1, 6), (5, 1, 4), (3, 2, 3), (7, 1, 1), (7, 1, 0)])
def test_squarefree_mask_cached_and_read_only(p, e, d):
    ctx = ff.make_field(p, e)
    mask = oc.squarefree_mask(ctx, d)
    assert oc.squarefree_mask(ctx, d) is mask
    assert np.array_equal(mask, oc.squarefree_mask.__wrapped__(ctx, d))
    assert np.array_equal(mask, _reference_squarefree_mask(ctx, d))
    with pytest.raises(ValueError):
        mask[0] = not mask[0]


def _reference_rootless_mask(ctx, d):
    """Every monic degree-d code evaluated at every a in F_q, code by
    code: its form row (1, c_{d-1}, ..., c_0) through nset.form_values."""
    q = ctx.q
    codes = np.arange(q**d)
    forms = np.ones((q**d, d + 1), np.intp)
    for j in range(d):
        forms[:, d - j] = codes // q**j % q
    return (ns.form_values(ctx, forms[:, None], np.arange(q)) != 0).all(1)


@pytest.mark.parametrize(
    "p,e,dhi", [(3, 1, 6), (5, 1, 6), (7, 1, 5), (3, 2, 4), (5, 2, 3), (3, 3, 3)])
def test_rootless_mask_matches_per_code_reference(p, e, dhi):
    ctx = ff.make_field(p, e)
    for d in range(0, dhi + 1):
        mask = oc.rootless_mask.__wrapped__(ctx, d)
        assert mask.dtype == bool and not mask.flags.writeable, d
        assert np.array_equal(mask, _reference_rootless_mask(ctx, d)), d
    assert oc.rootless_mask(ctx, dhi) is oc.rootless_mask(ctx, dhi)


def test_rootless_mask_count_check_trips(monkeypatch):
    # a field.dot that reads 0 everywhere marks only the codes with
    # constant digit 0, which the inclusion-exclusion count refuses
    monkeypatch.setattr(ff, "dot", lambda ctx, pairs: np.zeros(
        np.broadcast_shapes(*(np.shape(x) for _, x in pairs)), np.intp))
    with pytest.raises(census.VerificationError, match="rootless count"):
        oc.rootless_mask.__wrapped__(ff.make_field(3, 1), 3)


def test_narrower_masks_build_a_subset_of_the_rows():
    # each block keeps exactly the codes of its mask, in code order, with
    # the rows of the full state
    ctx, n = ff.make_field(3, 1), 5
    full = oc.ActionState(ctx, n)
    keep = [oc.squarefree_mask(ctx, n) & oc.rootless_mask(ctx, n), oc.squarefree_mask(ctx, n - 1)]
    keep[1] = keep[1] & (np.arange(len(keep[1])) % 2 == 0)
    st = oc.ActionState(ctx, n, keep)
    codes = np.concatenate([np.flatnonzero(keep[0]), 3**n + np.flatnonzero(keep[1])])
    assert st.count == len(codes) and st.n0 == np.count_nonzero(keep[0])
    assert np.array_equal(st.V, full.V[full._row_of[codes]])
    assert np.array_equal(st._row_of[codes], np.arange(st.count))
    assert np.count_nonzero(st._row_of >= 0) == st.count


def _pointless_rows(q, n):
    """The coefficient of t^n in prod_{d >= 2} (1 + t^d)^N_d, N_d the number
    of monic irreducibles of degree d over F_q: the squarefree monics of
    degree n with no linear factor."""
    irreducible = {}  # N_d, from q^d = sum over e | d of e N_e
    for d in range(1, n + 1):
        irreducible[d] = (q**d - sum(e * irreducible[e] for e in range(1, d) if d % e == 0)) // d
    coeffs = [1] + [0] * n
    for d in range(2, n + 1):
        count = irreducible[d]
        coeffs = [sum(math.comb(count, k) * coeffs[i - d * k] for k in range(i // d + 1))
                  for i in range(n + 1)]
    return coeffs[n]


@pytest.mark.parametrize("g,q", FAST_PAIRS + [pytest.param(2, 9, marks=pytest.mark.slow)])
def test_row_sets_split_the_full_census(g, q):
    # P's rows are the pointless n-sets, and R's classes are the full-row
    # orbits that meet the rows through infinity
    ctx, n = ff.make_field(*census.factor_prime_power(q)), 2 * g + 2
    pointless = oc._pointless_acts(ctx, n)
    assert len(pointless[0][0]) == _pointless_rows(q, n)
    n0, (lab, _, _) = ref.full_row_labels(ctx, n)
    assert oc._orbit_counts(oc._infinity_acts(ctx, n))[0] == len(np.unique(lab[n0:]))
    assert oc._orbit_counts(pointless)[0] == len(np.unique(lab)) - len(np.unique(lab[n0:]))


@pytest.mark.parametrize("g,q", FAST_PAIRS + [pytest.param(2, 9, marks=pytest.mark.slow)])
def test_orbit_census_matches_full_row_reference(g, q):
    assert oc.orbit_census(g, q) == ref.orbit_census_full(g, q)


def test_pointless_rows_at_2_9():
    acts = oc._pointless_acts(ff.make_field(3, 2), 6)
    assert len(acts[0][0]) == _pointless_rows(9, 6) == 182_580


@pytest.mark.parametrize("g,q", [(2, 3), (2, 5), (3, 3)])
def test_orbit_census_needs_both_row_sets_and_every_generator(monkeypatch, g, q):
    # R labelled without R0's x -> 1/x edges, or the census without P,
    # must miss the anchors
    infinity, anchor = oc._infinity_acts, ANCHORS[(g, q)]
    with monkeypatch.context() as m:
        m.setattr(oc, "_infinity_acts", lambda ctx, n: infinity(ctx, n)[:2])
        res = oc.orbit_census(g, q)
        assert (res.hyp, res.sd, res.nset_classes) != anchor
    with monkeypatch.context() as m:
        m.setattr(oc, "_pointless_acts", lambda ctx, n: [(np.zeros(0, np.int32), np.zeros(0, bool))])
        res = oc.orbit_census(g, q)
        assert (res.hyp, res.sd, res.nset_classes) != anchor
    res = oc.orbit_census(g, q)
    assert (res.hyp, res.sd, res.nset_classes) == anchor


def _composed_actions(st):
    """Yield (matrix, dest, flip) for every element of PGL2 over st.ctx,
    composing the generators' row permutations along a breadth-first
    spanning tree over the edges m -> m * gen: by the cocycle law of the
    multiplier, dest_h = dest_m[dest_gen] and flip_h = flip_m[dest_gen] ^
    flip_gen for each child h = m * gen."""
    ctx = st.ctx
    gens = oc._generators(ctx)
    acts = [st.dest_flip(mat) for mat in gens]
    mats = [el.mat for el in mb.enumerate_pgl(ctx)]
    index = {m: i for i, m in enumerate(mats)}
    root = index[mb.IDENTITY]
    children = [[] for _ in mats]
    seen = {root}
    queue = [root]  # breadth first: the loop also visits what it appends
    for u in queue:
        for k, gen in enumerate(gens):
            v = index[mb.canonical_matrix(ctx, mb.mat_mul(ctx, mats[u], gen))]
            if v not in seen:
                seen.add(v)
                children[u].append((v, k))
                queue.append(v)
    assert len(queue) == len(mats) == ctx.q**3 - ctx.q

    def walk(u, dest, flip):
        yield mats[u], dest, flip
        for v, k in children[u]:
            dest_gen, flip_gen = acts[k]
            yield from walk(v, dest.take(dest_gen), flip.take(dest_gen) ^ flip_gen)

    yield from walk(root, np.arange(st.count, dtype=np.int32), np.zeros(st.count, bool))


@pytest.mark.parametrize("p,e,n", [(3, 1, 6), (5, 1, 4), (3, 2, 4)])
def test_composed_actions_match_direct(p, e, n):
    ctx = ff.make_field(p, e)
    st = oc.ActionState(ctx, n)
    walked = []
    for mat, dest, flip in _composed_actions(st):
        want_dest, want_flip = st.dest_flip(mat)
        assert np.array_equal(dest, want_dest), mat
        assert np.array_equal(flip, want_flip), mat
        walked.append(mat)
    pgl = [el.mat for el in mb.enumerate_pgl(ctx)]
    assert len(walked) == len(pgl) == len(set(walked))
    assert set(walked) == set(pgl)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_class_keys_are_conjugacy_classes(q):
    # true conjugacy from the product table: x is labelled by the least
    # position of g x g^-1 over all g
    ctx = ff.make_field(*census.factor_prime_power(q))
    table = mb.pgl_table(ctx)
    inv = np.argmax(table.prod == table.index[mb.IDENTITY], axis=1)
    labels = table.prod[table.prod, inv[:, None]].min(axis=0)
    keys = [mb.class_key(ctx, el.mat) for el in mb.enumerate_pgl(ctx)]
    pairs = set(zip(labels.tolist(), keys))
    assert len(pairs) == len(set(labels.tolist())) == len(set(keys)) == q + 2
    classes = mb.conjugacy_classes(ctx)
    assert sorted(size for _, size in classes.values()) == sorted(
        np.unique(labels, return_counts=True)[1].tolist())


@pytest.mark.parametrize("g,q", FAST_PAIRS + [(2, 9)])
def test_class_sums_match_hyp_components(g, q):
    # grouped by kind, the Burnside class sums of the fixed twisted pairs
    # are the paper's components; the same sum over the stable sets of
    # twist sign -1 is sd
    ctx = ff.make_field(*census.factor_prime_power(q))
    st = oc.ActionState(ctx, 2 * g + 2)
    order = q**3 - q
    fixed_pairs = dict.fromkeys(("A", "B", "C", "identity"), 0)
    fixed_sd = 0
    for rep, size in mb.conjugacy_classes(ctx).values():
        kappa, stable = st.kappa_stable(rep)
        chi = st.tabs.CHI[kappa[stable]]
        kind = mb.classify(ctx, rep).kind
        fixed_pairs[kind] += size * 2 * int(np.count_nonzero(chi == 1))
        fixed_sd += size * 2 * int(np.count_nonzero(chi == -1))
    want = census.hyp_components(g, q)
    assert [fixed_pairs[k] for k in ("A", "B", "C", "identity")] == [order * h for h in want]
    assert fixed_sd == order * census.sd(g, q)


def _extension_fixed_point_counts(ctx, elem, forms):
    """How many of elem's fixed points each form holds, with the points
    found over F_(q^2) and the forms lifted there."""
    rows = np.asarray(forms, np.intp)
    ext, emb, pts = mb.fixed_points(elem, ctx)
    lifted = np.asarray(emb)[rows]
    return sum(ns.form_values(ext, lifted, t.x) == 0 if t.finite else rows[:, 0] == 0
               for t in pts)


# every nonidentity element over F_3, F_5 and F_7; a seeded sample of 60
# over F_9 and of 40 over F_25 and F_27
@pytest.mark.parametrize("q,ns_list,sample", [
    (3, range(1, 8), None), (5, (4,), None), (7, (3,), None),
    (9, (2, 3, 4), 60), (25, (2,), 40), (27, (2,), 40),
], ids=["3", "5", "7", "9", "25", "27"])
def test_fixed_point_counts_match_extension_membership(q, ns_list, sample):
    ctx = ff.make_field(*census.factor_prime_power(q))
    elems = [el for el in mb.enumerate_pgl(ctx) if el.kind != "identity"]
    if sample:
        elems = random.Random(q).sample(elems, sample)
    codes = mb.mat_codes(el.mat for el in elems)
    for n in ns_list:
        st = oc.ActionState(ctx, n)
        # every element against every row in one stacked call
        got = ns.fixed_point_counts(ctx, codes[:, None], st.V)
        assert got.dtype == np.int8 and got.shape == (len(elems), st.count)
        for elem, row in zip(elems, got):
            assert np.array_equal(row, _extension_fixed_point_counts(ctx, elem, st.V)), (n, elem)


# even n = 4..8 over F_3, F_5, F_7 and F_9, all but F_9 at n = 8 (43 M rows)
CONFIGURATION_PAIRS = [(q, n) for q in (3, 5, 7, 9) for n in (4, 6, 8) if q**n < 10**7]


@pytest.mark.parametrize("q,n", CONFIGURATION_PAIRS)
def test_fixed_configurations_match_engine(q, n):
    # each subtype representative's stable rows, grouped by j (how many of
    # its fixed points the set holds) and by chi(kappa), are census's
    # pieces count for count and sign: a wrong sign or multiplicity moves
    # rows between groups even where the totals still balance
    ctx = ff.make_field(*census.factor_prime_power(q))
    st = oc.ActionState(ctx, n)
    for kind, m in census.subtypes(q):
        elem, _ = mb.subtype_representative(ctx, kind, m)
        kappa, stable = st.kappa_stable(elem.mat)
        j = _extension_fixed_point_counts(ctx, elem, st.V[stable])
        chi = st.tabs.CHI[kappa[stable]]
        got = collections.Counter(zip(j.tolist(), chi.tolist()))
        pieces = census._fixed_pieces(q, n, kind, m, dict(census.CONFIGURATIONS)[kind])
        want = {(jj, sign): count for jj, count, sign in pieces if count}
        assert dict(got) == want, (q, n, kind, m)


def test_class_checks_reject_a_missing_class(monkeypatch):
    # merging two classes under one key leaves q + 1 of them: the class
    # list and enumerate_pgl, which classifies one member per key and counts
    # the members, must refuse
    ctx = ff.make_field(5, 1)
    key = mb.class_key

    def merged(ctx, m):  # the two classes of involutions (tr = 0) share a key
        scalar, ratio, chi = key(ctx, m)
        return scalar, ratio, 1 if ratio == 0 else chi

    monkeypatch.setattr(mb, "class_key", merged)
    for build in (mb.conjugacy_classes, mb.enumerate_pgl):
        monkeypatch.setattr(mb, "_PGL_CACHE", {})
        with pytest.raises(census.VerificationError, match="q \\+ 2 conjugacy classes"):
            build(ctx)


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


def _union_find(n, acts):
    """Union-find forests of the set and twisted-pair graphs of the
    (dest, flip) pairs in acts."""
    parent1 = list(range(n))
    parent2 = list(range(2 * n))
    for dest, flip in acts:
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


@pytest.mark.parametrize("p,e,n", [(3, 1, 6), (5, 1, 6), (3, 2, 4), (7, 1, 4)])
def test_orbit_labels_match_union_find(p, e, n):
    st = oc.ActionState(ff.make_field(p, e), n)
    _assert_parity_labels_match_union_find(
        st.count, [st.dest_flip(mat) for mat in oc._generators(st.ctx)])


def _assert_parity_labels_match_union_find(n, acts):
    lab, key0, key1 = oc._parity_labels(acts)
    parent1, parent2 = _union_find(n, acts)
    assert lab.tolist() == _smallest_member(parent1)
    # twisted nodes share a key exactly when they share a twisted orbit
    keys = np.concatenate([key0, key1]).tolist()
    least = _smallest_member(parent2)
    assert all(keys[x] == keys[r] for x, r in enumerate(least))
    assert len(set(keys)) == len(set(least))


def test_parity_labels_merge_an_odd_cycle():
    # the flips around this 3-cycle add up to 1, so its two twist classes
    # merge; when the labels agree across the edges rows 1 and 2 carry
    # twist bit 1, and the keys of a merged orbit must ignore it
    acts = [(np.array([1, 2, 0], np.int32), np.array([False, False, True]))]
    lab, key0, key1 = oc._parity_labels(acts)
    assert lab.tolist() == [0, 0, 0]
    assert key0.tolist() == key1.tolist() == [0, 0, 0]
    _assert_parity_labels_match_union_find(3, acts)


class _CountedTakes(np.ndarray):
    """An array whose take calls are counted, and refused past a bound."""
    bound = takes = 0

    def take(self, *args, **kwargs):
        type(self).takes += 1
        assert type(self).takes <= type(self).bound, "too many labelling rounds"
        return super().take(*args, **kwargs)


@pytest.mark.parametrize("odd", [False, True])
def test_parity_labels_on_one_long_cycle(monkeypatch, odd):
    # one 2**16-row cycle, each row sent to the one below it: the minima
    # alone lower a label by one row a round, the pointer jump after them
    # halves the distance left, so the labelling takes about 16 rounds of
    # a few takes each; a flip mask of the counting class makes the labels
    # count their takes.  With one odd flip the cycle is one merged orbit.
    n = 2**16
    dest = np.roll(np.arange(n, dtype=np.int32), 1)
    flip = np.zeros(n, bool)
    flip[n // 3] = odd
    monkeypatch.setattr(_CountedTakes, "bound", 8 * 17)
    monkeypatch.setattr(_CountedTakes, "takes", 0)
    acts = [(dest, flip.view(_CountedTakes))]
    lab, key0, key1 = oc._parity_labels(acts)
    assert not lab.any()
    assert np.array_equal(key0, key1) == odd
    _assert_parity_labels_match_union_find(n, [(dest, flip)])


@pytest.mark.parametrize("seed", range(20))
def test_parity_labels_match_union_find_on_random_permutations(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    acts = [(rng.permutation(n).astype(np.int32), rng.random(n) < 0.5)
            for _ in range(int(rng.integers(1, 4)))]
    _assert_parity_labels_match_union_find(n, acts)


@pytest.mark.parametrize("dest", [[1, 1], [0, 0, 1], [1, 2, 3]])
def test_parity_labels_refuse_a_dest_that_is_no_permutation(dest):
    # with dest = [1, 1] the labels [0, 1] never agree across the edge
    # 1 -> 1 and stop changing, so without the check the rounds never end
    dest = np.array(dest, np.int32)
    with pytest.raises(oc.VerificationError, match="permutes the rows"):
        oc._parity_labels([(dest, np.zeros(len(dest), bool))])


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_fixed_point_counts_match_pmod(p, e):
    # x -> (a x - v) / (x + a + u) fixes the roots of mu = x^2 + u x + v:
    # the form holds deg gcd(f, mu) of them, both where mu divides f
    ctx = ff.make_field(p, e)
    st = oc.ActionState(ctx, 4)
    mus = [(1, 0, 1), (2, 1, 1), (0, 1, 1)]
    mats = []
    for v, u, _ in mus:
        a = 0 if v else 1  # a nonzero determinant a (a + u) + v
        mats.append(mb.GlMatrix(a, ff.neg(ctx, v), 1, ff.add(ctx, a, u)))
    sets = [st.nset_at(i) for i in range(st.count)]
    # each matrix paired with every row: one stacked call of paired rows
    which = np.repeat(np.arange(len(mats)), st.count)
    got = ns.fixed_point_counts(ctx, mb.mat_codes(mats)[which], np.tile(st.V, (len(mats), 1)))
    for mu, part in zip(mus, got.reshape(len(mats), st.count)):
        want = [len(ff.pgcd(ctx, s.f, mu)) - 1 for s in sets]
        assert part.tolist() == want, mu
        assert (part == 2).tolist() == [ff.pmod(ctx, s.f, mu) == () for s in sets], mu


@pytest.mark.parametrize("block", [7, 100])
def test_fixed_point_counts_in_blocks_match_one_block(monkeypatch, block):
    # stacks larger than a block are counted one leading index and a run
    # of rows at a time: outer, paired and transposed stacks must give the
    # counts of one block over everything.  An outer stack whose matrices
    # vary along its leading axis is split by element even when it fits a
    # block; the paired stack of every (element, row) is one block.
    ctx = ff.make_field(5, 1)
    st = oc.ActionState(ctx, 4)
    elems = [el for el in mb.enumerate_pgl(ctx) if el.kind != "identity"][::13]
    codes = mb.mat_codes(el.mat for el in elems)
    whole = ns.fixed_point_counts(ctx, codes[:, None], st.V)
    assert whole.size <= ns._COUNT_BLOCK
    paired = ns.fixed_point_counts(ctx, np.repeat(codes, st.count, 0), np.tile(st.V, (len(codes), 1)))
    assert np.array_equal(paired.reshape(whole.shape), whole)
    rng = np.random.default_rng(block)
    which, rows = rng.integers(len(elems), size=500), rng.integers(st.count, size=500)
    monkeypatch.setattr(ns, "_COUNT_BLOCK", block)
    assert np.array_equal(ns.fixed_point_counts(ctx, codes[:, None], st.V), whole)
    assert np.array_equal(ns.fixed_point_counts(ctx, codes[which], st.V[rows]), whole[which, rows])
    assert np.array_equal(ns.fixed_point_counts(ctx, codes, st.V[:, None]), whole.T)


def _twisted_act(gamma, lam, s, ctx):
    """Image of a (twist scalar, n-set) pair, one pair at a time; the
    scalar is transported by the multiplier, so it is well defined up to
    squares."""
    mat = gamma.mat if isinstance(gamma, mb.MoebiusElem) else gamma
    s2, kappa = ns.act_form(ctx, mat, s)
    j = ff.div(ctx, ff.pw(ctx, mb.mat_det(ctx, mat), s.n), kappa)
    return ff.mul(ctx, lam, j), s2


def test_twisted_act_flip_matches_engine():
    ctx = ff.make_field(3, 1)
    st = oc.ActionState(ctx, 6)
    sets = list(ref.enumerate_nsets(ctx, 6))
    for elem in mb.enumerate_pgl(ctx):
        dest, flip = st.dest_flip(elem.mat)
        for i in (0, 17, 100, 333, len(sets) - 1):
            lam2, s2 = _twisted_act(elem, 1, sets[i], ctx)
            assert s2 == sets[int(dest[i])]
            assert (ff.chi(lam2, ctx) == -1) == bool(flip[i])


def test_selfdual_trivial_stabilizer_is_false():
    ctx = ff.make_field(3, 1)
    for s in ref.enumerate_nsets(ctx, 6):
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
    sets = list(ref.enumerate_nsets(ctx, 6))
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


def test_smooth_point_counts_match_scalar_counts():
    ctx = ff.make_field(3, 1)
    st = oc.ActionState(ctx, 6)
    got = oc.smooth_point_counts(ctx, st.V, (1, 2))
    assert got.shape == (st.count, 2)
    for i in range(st.count):
        s = st.nset_at(i)
        assert got[i].tolist() == [oc.curve_point_counts(ctx, lam, s)[1] for lam in (1, 2)], s


def test_batched_selfdual_matches_per_pair_signs():
    ctx = ff.make_field(3, 1)
    st = oc.ActionState(ctx, 6)
    got = oc._selfdual_forms(ctx, st.V)
    for i in range(st.count):
        s = st.nset_at(i)
        want = any(mult.epsilon(el.mat, s, ctx) == -1 for el in ns.stabilizer(s, ctx))
        assert got[i] == want == oc.selfdual_nset(s, ctx), s
    assert got.any() and not got.all()


def test_suites_reduced_grids():
    assert oc.verify_suite("eps", qs=(3,), ns_list=(6,))["checks"] > 0
    assert oc.verify_suite("counts", qs=(3, 5), nmax=6)["checks"] > 0
    assert oc.verify_suite("norm")["checks"] == 448
    assert oc.verify_suite("orbit_lemma")["checks"] == 232
    r = oc.verify_suite(
        "cocycle", triples=300, hom_exhaustive=((3, 6),), hom_sampled=()
    )
    assert r["checks"] > 0
    # no random triples: the checks of a one-triple run, less that
    # triple's one check per field
    r = oc.verify_suite("cocycle", triples=0, hom_exhaustive=(), hom_sampled=())
    assert r["checks"] == 131442 - 2
    assert oc.verify_suite("quot", qs=(3,))["checks"] > 0
    assert oc.verify_suite("points", qs=(3,))["checks"] > 0


# every suite over F_9 at reduced arguments, and over F_25 and F_27 where
# that is cheap
@pytest.mark.parametrize("suite,kwargs,checks", [
    pytest.param("eps", dict(qs=(9,), ns_list=(4, 6)), 72000, id="eps-9"),
    pytest.param("eps", dict(qs=(25, 27), ns_list=(2,)), 69158, id="eps-25-27",
                 marks=pytest.mark.slow),
    pytest.param("counts", dict(qs=(9,), nmax=6), 66, id="counts-9"),
    pytest.param("counts", dict(qs=(25, 27), nmax=4), 92, id="counts-25-27"),
    pytest.param("orbit_lemma", dict(qs=(9, 25, 27)), 5752, id="orbit_lemma-9-25-27"),
    pytest.param("quot", dict(qs=(9,), nmax=6), 38, id="quot-9"),
    pytest.param("quot", dict(qs=(25,), nmax=4, strata_nmax=3), 39, id="quot-25"),
    pytest.param("points", dict(qs=(9,)), 1050578, id="points-9"),
    # the checks of a run with no random triples and no homomorphism pairs
    # (test_suites_reduced_grids), then the exhaustive ones over F_9 at
    # n = 4 and 6 and the sampled ones at n = 6
    pytest.param("cocycle", dict(triples=0, hom_exhaustive=((9, 4), (9, 6)),
                                 hom_sampled=((9, 6),)),
                 131440 + 33840 + 118800 + 2488, id="cocycle-9"),
])
def test_suites_on_extension_fields(suite, kwargs, checks):
    assert oc.verify_suite(suite, **kwargs)["checks"] == checks


@pytest.mark.parametrize("p,e,d", [(3, 1, 1), (3, 1, 3), (5, 1, 2), (3, 2, 2), (5, 2, 1)])
def test_point_images_match_act_point(p, e, d):
    # the vectorized map of the quotient suite against the scalar one, on
    # every point of P^1 over the extension, infinity at index q**d
    ctx = ff.make_field(p, e)
    ext, emb = (ctx, None) if d == 1 else ff.extend(ctx, d)
    pts = [mb.fin(x) for x in range(ext.q)] + [mb.INF]
    for el in mb.enumerate_pgl(ctx)[:: max(1, ctx.q - 2)]:
        want = [t.x if t.finite else ext.q for t in (mb.act_point(el.mat, t, ext, emb) for t in pts)]
        assert oc._point_images(ext, emb, el.mat).tolist() == want, el.mat


def test_verify_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        oc.verify_suite("nope")


def _one_group_verdicts(ctx, members, signs):
    """The batched homomorphism check of one stabilizer and the per-set
    reference: each one's pair count, or its failure message."""
    out = []
    for check in (lambda: oc._sign_homomorphisms(ctx, np.zeros(len(members), int), members,
                                                 signs, lambda _: ("where",)),
                  lambda: ref.sign_homomorphism(ctx, members, signs, "where")):
        try:
            out.append(check())
        except census.VerificationError as exc:
            out.append(str(exc))
    return out


def test_sign_homomorphism_reports_first_failing_pair():
    ctx = ff.make_field(3, 1)
    special = ns.make_nset(ctx, ff.pmul(ctx, (0, 2, 0, 1), (1, 0, 1)), True)
    stab = ns.stabilizer(special, ctx)
    index = mb.pgl_table(ctx).index
    members = [index[el.mat] for el in stab]
    signs = [mult.epsilon(el.mat, special, ctx) for el in stab]
    assert _one_group_verdicts(ctx, members, signs) == [len(stab) ** 2] * 2
    # flipping one non-identity sign breaks sign(g h) for some member h
    g = next(k for k, el in enumerate(stab) if el.kind != "identity")
    flipped = signs[:g] + [-signs[g]] + signs[g + 1 :]
    got, want = _one_group_verdicts(ctx, members, flipped)
    assert got == want and want.startswith("cocycle: homomorphism: ('where', ")
    # a product outside the members reads sign 0 and fails as well
    got, want = _one_group_verdicts(ctx, members[:g] + members[g + 1 :], signs[:g] + signs[g + 1 :])
    assert got == want and want.startswith("cocycle: homomorphism: ('where', ")


def test_cocycle_grid_names_the_failing_pair(monkeypatch):
    # J(gam rho, S) times 2 for one pair of the F_3 grid: the error names
    # the first sample set, rho and gam, as the per-pair loop did
    k3 = ff.make_field(3, 1)
    pgl3 = mb.enumerate_pgl(k3)
    batched = mult.kappa_multipliers

    def perturbed(ctx, mats, forms):
        j, img = batched(ctx, mats, forms)
        if np.shape(mats) == (24, 24, 4):  # the products, [..., rho, gam]
            j = j.copy()
            j[..., 5, 17] = ff.tables(ctx).MUL[2, j[..., 5, 17]]
        return j, img

    monkeypatch.setattr(mult, "kappa_multipliers", perturbed)
    first = next(ref.enumerate_nsets(k3, 6))
    with pytest.raises(census.VerificationError) as err:
        oc.verify_cocycle(triples=0, hom_exhaustive=(), hom_sampled=())
    assert str(err.value) == f"cocycle: cocycle law: {(first, pgl3[5].mat, pgl3[17].mat)}"


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("seed", [0, 1, 5, 7])
def test_random_triples_match_randrange_draws(q, seed):
    # the getrandbits draws equal the randrange reference, triple by triple,
    # and leave the generator in the same state
    k = ff.make_field(q, 1)
    rng, want_rng = random.Random(seed), random.Random(seed)
    gam, rho, forms = oc._random_triples(rng, k, 6, 300)
    want = [(ref.random_gl(want_rng, k), ref.random_gl(want_rng, k), ref.random_nset(want_rng, k, 6))
            for _ in range(300)]
    assert gam.tolist() == mb.mat_codes(w[0] for w in want).tolist()
    assert rho.tolist() == mb.mat_codes(w[1] for w in want).tolist()
    assert forms.tolist() == [list(ns.to_form(k, w[2])) for w in want]
    assert rng.getstate() == want_rng.getstate()
    through_inf = forms[:, 0] == 0
    assert through_inf.any() and not through_inf.all()


def test_stab_test_sets_match_their_constructions():
    # the literal (f, has_inf) table against the products it stands for
    k3 = ff.make_field(3, 1)
    quads = (1,)  # the product of the monic irreducible quadratics over F_3
    for c0, c1 in itertools.product(range(3), repeat=2):
        if all(ff.peval(k3, (c0, c1, 1), x) for x in range(3)):
            quads = ff.pmul(k3, quads, (c0, c1, 1))
    assert oc._stab_test_sets(3, k3) == [ns.make_nset(k3, quads, False),
                                         ns.make_nset(k3, ff.pmul(k3, quads, (0, 1)), True)]
    k5 = ff.make_field(5, 1)
    line = (0, 4, 0, 0, 0, 1)  # x^5 - x
    assert oc._stab_test_sets(5, k5) == [ns.make_nset(k5, line, True),
                                         ns.make_nset(k5, ff.pmul(k5, line, (2, 0, 1)), True)]
    with pytest.raises(ValueError, match="no stabilizer test sets for q = 9"):
        oc._stab_test_sets(9, ff.make_field(3, 2))


def test_cocycle_refuses_odd_n():
    # the twist sign is chi(kappa) only at even n
    for hom in (dict(hom_exhaustive=((3, 5),), hom_sampled=()),
                dict(hom_exhaustive=(), hom_sampled=((5, 7),))):
        with pytest.raises(ValueError, match="epsilon is defined for even n only"):
            oc.verify_cocycle(triples=0, **hom)


def _reference_exhaustive_sign_homomorphism(ctx, n):
    """The per-set check the one-gather version replaced: a dict of
    stabilizer lists in order of first appearance, then the reference
    sign_homomorphism on each."""
    st = oc.ActionState(ctx, n)
    stab_of = {}
    for gi, elem in enumerate(mb.enumerate_pgl(ctx)):
        if elem.kind == "identity":
            continue
        kappa, stable = st.kappa_stable(elem.mat)
        idx = np.flatnonzero(stable)
        for i, sg in zip(idx.tolist(), st.tabs.CHI[kappa[idx]].tolist()):
            members, signs = stab_of.setdefault(i, ([], []))
            members.append(gi)
            signs.append(sg)
    return sum(
        ref.sign_homomorphism(ctx, members, signs, ctx.q, n, i)
        for i, (members, signs) in stab_of.items()
    )


def _flip_signs(monkeypatch, mat, pick):
    """Make fixed_rows report a nonsquare multiple of kappa on the fixed
    rows of mat that pick (an index or a slice into them) selects: the sign
    of mat on those sets flips."""
    fixed_rows = oc.ActionState.fixed_rows
    codes = mb.mat_codes([mat])

    def flipped(self, mats):
        elem, rows, kappa = fixed_rows(self, mats)
        for k in np.flatnonzero((np.asarray(mats) == codes).all(-1)):
            mine = np.flatnonzero(elem == k)
            if len(mine):
                mine = mine[pick]
                kappa = kappa.copy()
                kappa[mine] = self.tabs.MUL[ff.mult_generator(self.ctx), kappa[mine]]
        return elem, rows, kappa

    monkeypatch.setattr(oc.ActionState, "fixed_rows", flipped)


def _exhaustive_cocycle(q, n):
    """The cocycle suite with no random triples and no sampled stabilizers,
    checking every stabilizer of the q, n-sets at once."""
    return oc.verify_cocycle(triples=0, hom_exhaustive=((q, n),), hom_sampled=())


@pytest.mark.parametrize("q,n", [(3, 6), (3, 8), (5, 6), (9, 4)])
def test_exhaustive_sign_homomorphism_matches_per_set_check(q, n):
    ctx = ff.make_field(*census.factor_prime_power(q))
    base = oc.verify_cocycle(triples=0, hom_exhaustive=(), hom_sampled=())["checks"]
    got = _exhaustive_cocycle(q, n)["checks"] - base
    assert got == _reference_exhaustive_sign_homomorphism(ctx, n)


@pytest.mark.parametrize(
    "q,n,pos,pick",
    [(3, 6, 0, 0), (3, 6, 2, -1), (3, 8, 14, 0), (5, 6, 40, -1), (5, 6, 70, 0),
     # every stable row of one element: failures in many rows, the first
     # named in order of first stabilizing element, not of row
     (3, 8, 9, "all"), (5, 6, 30, "all")],
)
def test_exhaustive_sign_homomorphism_names_the_first_failing_pair(monkeypatch, q, n, pos, pick):
    ctx = ff.make_field(q, 1)
    _flip_signs(monkeypatch, mb.enumerate_pgl(ctx)[pos].mat, slice(None) if pick == "all" else pick)
    with pytest.raises(census.VerificationError, match="cocycle: homomorphism") as want:
        _reference_exhaustive_sign_homomorphism(ctx, n)
    with pytest.raises(census.VerificationError) as got:
        _exhaustive_cocycle(q, n)
    assert str(got.value) == str(want.value)


# the seven suites at the benchmark's reduced arguments and their pinned
# check counts, which do not depend on the cocycle seed
REDUCED_SUITES = {
    "cocycle": dict(seed=2, triples=1000, hom_exhaustive=((3, 6), (3, 8), (5, 6)),
                    hom_sampled=((5, 8),)),
    "eps": dict(qs=(3, 5), ns_list=(6,)),
    "counts": dict(qs=(3, 5), nmax=8),
    "quot": {},
    "points": dict(qs=(3,)),
    "norm": {},
    "orbit_lemma": {},
}
REDUCED_CHECKS = {"cocycle": 162717, "eps": 3984, "counts": 164, "quot": 66, "points": 1334,
                  "norm": 448, "orbit_lemma": 232}


def _state_digest(st):
    """Hash of everything a suite reads from a shared state: V, the row
    table and the memoized fixed rows."""
    h = hashlib.sha256()
    for a in (st.V, st._row_of, *(x for key in sorted(st._shared) for x in st._shared[key])):
        h.update(a.tobytes())
    return h.hexdigest(), sorted(st._shared)


def test_shared_state_is_read_only():
    ctx = ff.make_field(3, 1)
    st = oc.action_state(ctx, 6)
    assert oc.action_state(ctx, 6) is st
    memo = st.shared_fixed_rows("nonidentity")
    assert all(a is b for a, b in zip(st.shared_fixed_rows("nonidentity"), memo))
    assert [a.tolist() for a in memo] == [a.tolist() for a in st.fixed_rows(
        mb.mat_codes(el.mat for el in mb.enumerate_pgl(ctx) if el.kind != "identity"))]
    for a in (st.V, st._row_of, *memo, *st.shared_fixed_rows("subtypes")):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


@pytest.mark.parametrize("order", [list(REDUCED_SUITES), list(REDUCED_SUITES)[::-1]],
                         ids=["forward", "reversed"])
def test_suites_share_states_in_any_order(monkeypatch, order):
    # cold, then warm: the same pinned counts, every (q, n) built once, and
    # the warm sweep builds nothing and leaves every shared state as it was
    built = []
    init = oc.ActionState.__init__

    def recording(self, ctx, n):
        init(self, ctx, n)
        built.append(self)

    monkeypatch.setattr(oc.ActionState, "__init__", recording)
    for sweep in ("cold", "warm"):
        got = {name: oc.verify_suite(name, **REDUCED_SUITES[name])["checks"] for name in order}
        assert got == REDUCED_CHECKS, sweep
        if sweep == "cold":
            assert len(built) == len({(st.ctx, st.n) for st in built}) == 16
            assert oc.action_state.cache_info().currsize == 16
            digests = [_state_digest(st) for st in built]
    assert len(built) == 16
    assert [_state_digest(st) for st in built] == digests


def test_engines_add_nothing_to_the_state_cache():
    oc.action_state(ff.make_field(5, 1), 6)
    before = oc.action_state.cache_info().currsize
    assert oc.orbit_census(2, 5).hyp == oc.burnside_hyp(2, 5) == ANCHORS[(2, 5)][0]
    assert oc.action_state.cache_info().currsize == before


def test_cache_clear_drops_the_fixed_row_memos(monkeypatch):
    # a memo computed before a patch hides it until the cache is cleared,
    # which is why every test starts with an empty cache (conftest.py)
    ctx = ff.make_field(3, 1)
    oc.verify_epsilon(qs=(3,), ns_list=(4,))
    _flip_signs(monkeypatch, mb.enumerate_pgl(ctx)[2].mat, 0)
    assert oc.verify_epsilon(qs=(3,), ns_list=(4,))["checks"] > 0
    oc.action_state.cache_clear()
    with pytest.raises(census.VerificationError, match="eps: engine == sweep == closed form"):
        oc.verify_epsilon(qs=(3,), ns_list=(4,))
