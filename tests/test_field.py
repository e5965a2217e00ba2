"""Field arithmetic unit tests."""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from hypcensus import census
from hypcensus import field as ff


def test_make_field_prime():
    k = ff.make_field(7, 1)
    assert (k.p, k.e, k.q) == (7, 1, 7)
    assert k.modulus == (0, 1)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        ff.make_field(2, 1)
    with pytest.raises(ValueError):
        ff.make_field(9, 1)
    with pytest.raises(ValueError):
        ff.make_field(5, 0)


def test_modulus_f9_is_x2_plus_1():
    # first monic irreducible quadratic over F_3 in code order
    k = ff.make_field(3, 2)
    assert k.modulus == (1, 0, 1)
    assert k.q == 9


def test_modulus_f27():
    # x^3 + 1, x^3 + 2, x^3 + x, x^3 + x + 1, x^3 + x + 2 all have roots;
    # x^3 + 2x + 1 is the first root-free cubic
    k = ff.make_field(3, 3)
    assert k.modulus == (1, 2, 0, 1)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (3, 4), (5, 2)])
def test_field_axioms_exhaustive(p, e):
    k = ff.make_field(p, e)
    q = k.q
    xs = range(q)
    for x in xs:
        assert ff.add(k, x, 0) == x
        assert ff.mul(k, x, 1) == x
        assert ff.add(k, x, ff.neg(k, x)) == 0
        if x:
            assert ff.mul(k, x, ff.inv(k, x)) == 1
    # spot-check associativity and distributivity on a stride
    stride = max(1, q // 11)
    pts = list(range(0, q, stride))
    for x in pts:
        for y in pts:
            assert ff.add(k, x, y) == ff.add(k, y, x)
            assert ff.mul(k, x, y) == ff.mul(k, y, x)
            for z in pts:
                assert ff.mul(k, x, ff.add(k, y, z)) == ff.add(
                    k, ff.mul(k, x, y), ff.mul(k, x, z)
                )


def test_digit_roundtrip():
    k = ff.make_field(3, 4)
    for x in range(0, k.q, 7):
        assert ff.from_digits(k, ff.to_digits(k, x)) == x


def test_squares_mod_7():
    k = ff.make_field(7, 1)
    squares = {x for x in range(1, 7) if ff.is_square(x, k)}
    assert squares == {1, 2, 4}
    with pytest.raises(ValueError):
        ff.is_square(0, k)


def test_is_square_matches_enumeration():
    for p, e in [(3, 1), (5, 1), (3, 2), (7, 1)]:
        k = ff.make_field(p, e)
        actual_squares = {ff.mul(k, x, x) for x in range(1, k.q)}
        for x in range(1, k.q):
            assert ff.is_square(x, k) == (x in actual_squares)


def test_mult_generator_small_fields():
    assert ff.mult_generator(ff.make_field(3, 1)) == 2
    assert ff.mult_generator(ff.make_field(5, 1)) == 2
    assert ff.mult_generator(ff.make_field(7, 1)) == 3


def test_mult_generator_orders():
    for p, e in [(3, 2), (5, 2), (3, 3)]:
        k = ff.make_field(p, e)
        g = ff.mult_generator(k)
        seen = set()
        x = 1
        for _ in range(k.q - 1):
            x = ff.mul(k, x, g)
            seen.add(x)
        assert len(seen) == k.q - 1


def test_f9_structure():
    # code 3 is the power-basis generator x; x^2 = -1 since the modulus
    # is x^2 + 1, and x+1 (code 4) generates the multiplicative group
    k = ff.make_field(3, 2)
    assert ff.mul(k, 3, 3) == 2
    assert ff.mult_generator(k) == 4
    assert ff.pw(k, 3, 3) == ff.mul(k, 2, 3)  # x^3 = -x


def test_extend_prime_base():
    base = ff.make_field(5, 1)
    ext, emb = ff.extend(base, 2)
    assert ext.q == 25
    assert emb == tuple(range(5))
    for x in range(5):
        for y in range(5):
            assert emb[ff.add(base, x, y)] == ff.add(ext, emb[x], emb[y])
            assert emb[ff.mul(base, x, y)] == ff.mul(ext, emb[x], emb[y])


def test_extend_nonprime_base_is_homomorphism():
    base = ff.make_field(3, 2)
    ext, emb = ff.extend(base, 2)
    assert ext.q == 81
    assert emb[0] == 0 and emb[1] == 1
    for x in range(base.q):
        for y in range(base.q):
            assert emb[ff.add(base, x, y)] == ff.add(ext, emb[x], emb[y])
            assert emb[ff.mul(base, x, y)] == ff.mul(ext, emb[x], emb[y])
    with pytest.raises(ValueError):
        ff.extend(base, 1)


def _divides_mod_p(g, f, p):
    # g | f over F_p for monic g, by long division on plain ints
    r = list(f)
    for off in range(len(f) - len(g), -1, -1):
        c = r[off + len(g) - 1]
        for i, b in enumerate(g):
            r[off + i] = (r[off + i] - c * b) % p
    return not any(r)


def _monic(p, d):
    # every monic polynomial of degree d over F_p, ascending coefficients
    for code in range(p**d):
        yield tuple(code // p**i % p for i in range(d)) + (1,)


def test_irreducible_matches_divisor_scan():
    # reducible exactly when a monic divisor of degree <= e / 2 exists;
    # 1674 polynomials in all
    for p, emax in ((3, 5), (5, 4), (7, 3), (11, 2)):
        for e in range(1, emax + 1):
            for f in _monic(p, e):
                reducible = any(_divides_mod_p(g, f, p)
                                for d in range(1, e // 2 + 1) for g in _monic(p, d))
                assert ff._irreducible(p, f) == (not reducible), (p, f)


# sha256 of the moduli of make_field(p, e) for every odd p <= 23 with
# p^e <= 3 * 10^5, then (modulus, embedding) of extend(base, d) for the
# bases and degrees the suites and the engine build: the first monic
# irreducible in code order and the least root fix every field code
FIELD_DIGEST = "e0371a5e6e7d2d032afc8e6538e6f047d45fe6c050a58d7973add1110a944f4a"
EXTENSIONS = (((3, 1), (2, 3, 4)), ((5, 1), (2, 3, 4)), ((7, 1), (2, 3, 4)),
              ((11, 1), (2, 3)), ((13, 1), (2, 3)), ((3, 2), (2, 3)), ((5, 2), (2,)),
              ((3, 3), (2,)))


def test_field_construction_frozen():
    rows = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        e = 1
        while p**e <= 3 * 10**5:
            rows.append([p, e, list(ff.make_field(p, e).modulus)])
            e += 1
    for (p, e), ds in EXTENSIONS:
        for d in ds:
            ext, emb = ff.extend(ff.make_field(p, e), d)
            rows.append([p, e, d, list(ext.modulus), list(emb)])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == FIELD_DIGEST


def test_frobenius_fixes_base_field():
    base = ff.make_field(3, 1)
    ext, emb = ff.extend(base, 2)
    for x in range(base.q):
        assert ff.pw(ext, emb[x], base.q) == emb[x]
    # frobenius is an involution on the quadratic extension
    for x in range(ext.q):
        fx = ff.pw(ext, x, base.q)
        assert ff.pw(ext, fx, base.q) == x


def test_poly_helpers():
    k = ff.make_field(5, 1)
    f = (1, 2, 1)  # (x+1)^2
    g = (4, 1)  # x + 4 = x - 1
    assert ff.pmul(k, g, g) == (1, 3, 1)
    assert ff.pmod(k, f, g) == (4,)  # f(1) = 4
    assert ff.pgcd(k, f, (1, 1)) == (1, 1)
    assert ff.peval(k, f, 4) == 0
    assert not ff.is_squarefree_poly(k, f)
    assert ff.is_squarefree_poly(k, ff.pmul(k, g, (1, 1)))
    assert ff.pderiv(k, (3, 0, 1)) == (0, 2)


def test_squarefree_matches_root_multiplicity():
    k = ff.make_field(3, 1)
    # x^2 (double root) vs x^2 + 1 (irreducible) vs x^2 + 2 = (x-1)(x+1)
    assert not ff.is_squarefree_poly(k, (0, 0, 1))
    assert ff.is_squarefree_poly(k, (1, 0, 1))
    assert ff.is_squarefree_poly(k, (2, 0, 1))


def _digit_add(k, x, y):
    return ff.from_digits(k, [a + b for a, b in zip(ff.to_digits(k, x), ff.to_digits(k, y))])


def _euler(k, x):
    # x^((q - 1) / 2) by square and multiply over the digit-vector product
    acc, base, n = 1, x, (k.q - 1) // 2
    while n:
        if n & 1:
            acc = ff._mul_raw(k, acc, base)
        base = ff._mul_raw(k, base, base)
        n >>= 1
    return 1 if acc == 1 else -1


def _check_against_reference(k, pairs, exps):
    for x, y in pairs:
        assert ff.mul(k, x, y) == ff._mul_raw(k, x, y), (x, y)
        assert ff.add(k, x, y) == _digit_add(k, x, y), (x, y)
    for x in sorted({x for pair in pairs for x in pair}):
        assert ff.add(k, x, ff.neg(k, x)) == 0
        acc = 1
        for j in range(exps):
            assert ff.pw(k, x, j) == acc, (x, j)
            acc = ff._mul_raw(k, acc, x)
        if x:
            assert ff.mul(k, x, ff.inv(k, x)) == 1
            assert ff.chi(x, k) == _euler(k, x)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                                 (3, 2), (5, 2), (3, 3), (3, 4)])
def test_table_arithmetic_matches_reference_exhaustive(p, e):
    k = ff.make_field(p, e)
    _check_against_reference(k, [(x, y) for x in range(k.q) for y in range(k.q)], k.q + 2)


@pytest.mark.parametrize("p,e", [(5, 4), (7, 4), (3, 8)])
def test_table_arithmetic_matches_reference_sampled(p, e):
    k = ff.make_field(p, e)
    rng = random.Random(p * 100 + e)
    pairs = [(rng.randrange(k.q), rng.randrange(k.q)) for _ in range(1000)]
    pairs += [(0, rng.randrange(k.q)), (rng.randrange(k.q), 0), (k.q - 1, 1)]
    _check_against_reference(k, pairs, 12)
    for x, _ in pairs[:50]:
        if x:
            assert ff.pw(k, x, k.q - 1) == 1
            assert ff.pw(k, x, k.q) == x


def test_mult_generator_values():
    # the least generator, as computed by trial exponentiation
    want = {(3, 2): 4, (5, 2): 6, (3, 3): 3, (7, 2): 9, (3, 4): 3, (5, 4): 6}
    assert {pe: ff.mult_generator(ff.make_field(*pe)) for pe in want} == want


def test_mult_generator_is_least_code_of_full_order():
    # brute force over every odd q <= 729: the order of 2, 3, ... by
    # walking its powers with the reference product, up to the first of
    # order q - 1
    for p in (p for p in range(3, 730) if ff.is_prime(p)):
        e = 1
        while p**e <= 729:
            k = ff.make_field(p, e)
            for g in range(2, k.q):
                x, order = g, 1
                while x != 1:
                    x, order = ff._mul_raw(k, x, g), order + 1
                if order == k.q - 1:
                    break
            assert ff.mult_generator(k) == g, (p, e)
            e += 1


def test_kernels_match_brute_force_null_space():
    # seeded square matrices of sizes 1..4 over F_3, F_5 and F_9, with
    # the zero matrix (rank 0), rank-1 and column-dropped ones and full
    # rank; each kernel against every vector v with a v = 0
    rng = np.random.default_rng(9)
    for p, e in ((3, 1), (5, 1), (3, 2)):
        k = ff.make_field(p, e)
        for m in (1, 2, 3, 4):
            mats = rng.integers(k.q, size=(12, m, m))
            mats[0] = 0
            mats[1] = ff.tables(k).MUL[rng.integers(k.q, size=(m, 1)), mats[1, :1]]  # rank <= 1
            mats[2, :, : m // 2] = 0
            mats[3] = np.eye(m, dtype=int)
            basis, free = ff.kernels(k, mats)
            assert basis.shape == mats.shape and free.shape == mats.shape[:2]
            vecs = np.array(list(itertools.product(range(k.q), repeat=m)))
            ranks = set()
            for a, b, f in zip(mats, basis, free):
                image = ff.dot(k, ((a[:, j, None], vecs[:, j]) for j in range(m)))
                want = vecs[~image.any(0)]
                got = np.zeros((1, m), int)  # the span of the free rows of b
                if f.any():
                    coords = vecs[:, : f.sum()]  # every coordinate vector, repeated
                    span = ff.dot(k, ((coords[:, i, None], b[f][i]) for i in range(f.sum())))
                    got = np.unique(span, axis=0)
                assert np.array_equal(got, want), (p, e, a.tolist())
                assert not b[~f].any()
                ranks.add(m - int(f.sum()))
            assert {0, m} <= ranks, (p, e, m)


@pytest.mark.parametrize("p,e", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_numpy_tables_match_scalar_ops(p, e):
    k = ff.make_field(p, e)
    t = ff.tables(k)
    xs = range(k.q)
    assert t.ADD.tolist() == [[ff.add(k, x, y) for y in xs] for x in xs]
    assert t.MUL.tolist() == [[ff.mul(k, x, y) for y in xs] for x in xs]
    assert t.INV.tolist() == [0] + [ff.inv(k, x) for x in xs[1:]]
    assert t.CHI.tolist() == [0] + [ff.chi(x, k) for x in xs[1:]]
    for wide, narrow in zip(ff.int_tables(k), t):
        assert wide.dtype == np.intp and np.array_equal(wide, narrow)
    assert ff.powers(k, 4).tolist() == [[ff.pw(k, x, j) for j in range(5)] for x in xs]


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (131, 1), (32749, 1), (3, 2), (3, 3), (3, 5)])
def test_dot_matches_scalar_fold(p, e):
    # int, zero-int, unit and (m, 1) array coefficients against (k,)
    # columns and an int, summed into (m, k); columns of q - 1 make the
    # prime-field partial sums largest: at p = 32749 the third term passes
    # 2**31, and no q x q table of that field is built
    k = ff.make_field(p, e)
    rng = np.random.default_rng(p**e)
    cols = rng.integers(k.q, size=(3, 6))
    cols[:, :2] = k.q - 1
    arrs = rng.integers(k.q, size=(2, 4, 1))
    arrs[:, :2] = k.q - 1
    pairs = [(k.q - 1, cols[0]), (0, cols[1]), (arrs[0], cols[2]),
             (int(rng.integers(1, k.q)), cols[1]), (1, cols[2]), (arrs[1], 1)]
    got = ff.dot(k, iter(pairs))
    want = np.zeros((4, 6), np.int64)
    for i, j in np.ndindex(want.shape):
        for c, x in pairs:
            c = c if isinstance(c, int) else int(c[i, 0])
            x = x if isinstance(x, int) else int(x[j])
            want[i, j] = ff.add(k, int(want[i, j]), ff.mul(k, c, x))
    assert np.array_equal(got, want)
    if e > 1:
        assert got.dtype == np.int16
    else:
        assert got.dtype == (np.int64 if p == 32749 else np.int32)


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2), (3, 3)])
def test_dot_lone_unit_term_is_a_copy(p, e):
    # a unit coefficient reads its column as is; the sum of that one term
    # must still be a new array of codes, whatever the column's dtype
    k = ff.make_field(p, e)
    for x in (np.arange(k.q, dtype=np.int16), np.arange(k.q)):
        got = ff.dot(k, [(1, x)])
        assert np.array_equal(got, x) and not np.shares_memory(got, x)
        assert got.dtype == (np.int32 if e == 1 else np.int16)
        got[:] = 0
        assert np.array_equal(x, np.arange(k.q))


def test_prime_factors_and_is_prime():
    assert census._prime_factors(1) == []
    assert census._prime_factors(6560) == [2, 5, 41]
    assert census._prime_factors(2401) == [7]
    assert [n for n in range(30) if ff.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def _pmod_reference(ctx, f, g):
    # long division re-normalizing the remainder from scratch on every pass
    g = ff.pnorm(g)
    r = list(f)
    dg = len(g) - 1
    ginv = ff.inv(ctx, g[-1])
    while len(ff.pnorm(r)) - 1 >= dg and ff.pnorm(r):
        r = list(ff.pnorm(r))
        c = ff.mul(ctx, r[-1], ginv)
        off = len(r) - 1 - dg
        for i, b in enumerate(g):
            r[off + i] = ff.sub(ctx, r[off + i], ff.mul(ctx, c, b))
    return ff.pnorm(r)


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2), (7, 1)])
def test_pmod_matches_reference(p, e):
    k = ff.make_field(p, e)
    rng = random.Random(11)
    for _ in range(300):
        f = [rng.randrange(k.q) for _ in range(rng.randrange(0, 9))]
        f += [0] * rng.randrange(3)  # unnormalized input
        g = [rng.randrange(k.q) for _ in range(rng.randrange(1, 5))] + [rng.randrange(1, k.q)]
        assert ff.pmod(k, f, g) == _pmod_reference(k, f, g)
    with pytest.raises(ZeroDivisionError):
        ff.pmod(k, (1, 2), (0, 0))
