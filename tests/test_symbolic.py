"""Tests for conditional-polynomial formulas and transcribed tables."""

import functools
import hashlib
import json
import random
from math import gcd

import numpy as np
import pytest

from hypcensus import census, symbolic as sy, tables
from hypcensus.cli import main

import reference as ref


def test_poly_arithmetic():
    f = (1, 2)  # 1 + 2q
    g = (0, 0, 3)  # 3q^2
    assert sy.poly_add(f, g) == (1, 2, 3)
    assert ref.poly_sub(f, f) == ()
    assert ref.poly_mul(f, g) == (0, 0, 3, 6)
    assert ref.poly_neg(g) == (0, 0, -3)
    assert sy.poly_scale(2, f) == (2, 4)
    assert sy.poly_norm((1, 0, 0)) == (1,)
    assert sy.poly_eval((1, 2, 3), 10) == 321
    assert ref.poly_degree(()) == -1
    assert ref.poly_degree((5,)) == 0
    assert ref.poly_degree((0, 0, 7)) == 2


def test_poly_divexact():
    num = ref.poly_mul((1, 1), (2, 0, 3))
    assert ref.poly_divexact(num, (1, 1)) == (2, 0, 3)
    with pytest.raises(AssertionError):
        ref.poly_divexact((1, 1, 1), (1, 1))


def test_poly_str():
    assert sy.poly_str((-2, 2, 1, 2)) == "2q^3 + q^2 + 2q - 2"
    assert sy.poly_str(()) == "0"
    assert sy.poly_str((7,)) == "7"
    assert sy.poly_str((0, -1)) == "-q"


def test_a_polys_match_exact_counts():
    for n in range(1, 11):
        for q in (3, 5, 7, 9, 11, 13, 25, 27):
            assert sy.poly_eval(sy.a0_poly(n), q) == census.a0(n, q)
            assert sy.poly_eval(sy.a1_poly(n), q) == census.a1(n, q)
            assert sy.poly_eval(sy.a2_poly(n), q) == census.a2(n, q)


def test_a_polys_reject_n_below_1():
    for fn in (sy.a0_poly, sy.a1_poly, sy.a2_poly):
        for n in (0, -1):
            with pytest.raises(ValueError):
                fn(n)


def test_guard_holds():
    g = sy.Guard(mod=8, residues=frozenset({1, 3}))
    assert g.holds(9)
    assert g.holds(17)
    assert not g.holds(7)
    c = sy.Guard(char_eq=5)
    assert c.holds(25)
    assert not c.holds(27)
    both = sy.Guard(mod=3, residues=frozenset({1}), char_eq=7)
    assert both.holds(7)
    assert not both.holds(13)
    assert sy.Guard().is_always_true()
    assert not g.is_always_true()
    # q alone decides the characteristic conditions (char_eq is a prime):
    # p = 3 at q = 81, which a caller could also write as a power of 9
    assert sy.Guard(char_eq=3).holds(81)
    assert not sy.Guard(char_eq=5).holds(81)
    assert not sy.Guard(char_eq=3).holds(625)
    assert sy.Guard(char_eq=5).holds(625)
    gt = sy.Guard(char_gt=3)
    qs = (3, 5, 7, 9, 25, 27, 49, 81, 121, 625, 729)
    assert [q for q in qs if gt.holds(q)] == [5, 7, 25, 49, 121, 625]
    assert not sy.Guard(char_gt=5).holds(625)
    assert sy.Guard(char_gt=4).holds(625)
    assert sy.Guard(mod=4, residues=frozenset({1}), char_gt=3).holds(625)
    assert not sy.Guard(mod=4, residues=frozenset({1}), char_gt=3).holds(343)
    assert not sy.Guard(mod=4, residues=frozenset({1}), char_gt=3).holds(81)


def test_achievable_residues():
    # odd prime powers hit all coprime residues plus odd prime power chains
    assert sorted(sy.achievable_residues(6)) == [1, 3, 5]  # 3 mod 6 via q = 3^j
    assert sorted(sy.achievable_residues(4)) == [1, 3]
    assert sorted(sy.achievable_residues(8)) == [1, 3, 5, 7]
    assert sorted(sy.achievable_residues(12)) == [1, 3, 5, 7, 9, 11]
    assert sorted(sy.achievable_residues(5)) == [0, 1, 2, 3, 4]
    assert sorted(sy.achievable_residues(1)) == [0]
    for m in range(1, 40):
        ach = sy.achievable_residues(m)
        for q, p in census.odd_prime_powers(200):
            assert q % m in ach


def test_symbolic_matches_census():
    qs = census.odd_prime_powers(200)
    for g in range(2, 9):
        hcp = sy.symbolic_hyp(g)
        scp = sy.symbolic_sd(g)
        for q, p in qs:
            assert hcp.evaluate(q, p) == census.hyp(g, q), (g, q)
            assert scp.evaluate(q, p) == census.sd(g, q), (g, q)


def test_symbolic_matches_census_seeded_sweep():
    # beyond the g <= 8, q <= 200 grid above: random genera up to 200 and
    # odd prime powers up to 10^4
    rng = random.Random(20071)
    qs = census.odd_prime_powers(10**4)
    for _ in range(100):
        g = rng.randint(2, 200)
        q, p = rng.choice(qs)
        hyp, sd = census.hyp(g, q), census.sd(g, q)
        assert sy.symbolic_hyp(g).evaluate(q, p) == hyp, (g, q)
        assert sy.symbolic_sd(g).evaluate(q, p) == sd, (g, q)
        assert (hyp + sd) % 2 == 0, (g, q)


def test_genus_two_closed_form():
    assert sy.render(sy.symbolic_hyp(2)) == (
        "2q^3 + q^2 + 2q - 2"
        "  +  [2]_{p = 5}"
        "  +  [2]_{q = 1 (mod 3)}"
        "  +  [8]_{q = 1 (mod 5)}"
        "  +  [2]_{q = 1,3 (mod 8)}"
    )
    assert sy.render(sy.symbolic_sd(2)) == (
        "q^2 - 2  +  [2]_{q = 2 (mod 3)}  +  [2]_{q = 5,7 (mod 8)}"
    )


def test_symbolic_generic_leading_term():
    # leading term is 2q^(2g-1) for every genus
    for g in range(2, 11):
        gen = sy.symbolic_hyp(g).generic
        assert ref.poly_degree(gen) == 2 * g - 1
        assert gen[-1] == 2


def test_symbolic_rejects_small_genus():
    with pytest.raises(ValueError):
        sy.symbolic_hyp(1)
    with pytest.raises(ValueError):
        sy.symbolic_sd(0)


def test_evaluate_numpy_integers_exactly():
    # a numpy q would wrap at q^n with only a RuntimeWarning
    cp = sy.symbolic_hyp(30)
    want = census.hyp(30, 997)
    assert cp.evaluate(np.int64(997)) == want
    assert cp.evaluate(np.int64(997), np.int64(997)) == want
    assert sy.symbolic_hyp(np.int64(30)) is cp


def test_evaluate_and_build_reject_floats():
    cp = sy.symbolic_hyp(30)
    for args in ((997.0,), (997, 997.0)):
        with pytest.raises(TypeError):
            cp.evaluate(*args)
    with pytest.raises(TypeError):
        sy.symbolic_sd(30.0)


def test_evaluate_and_table_value_reject_a_wrong_characteristic():
    # a p of which q is not a power would pick wrong characteristic guards
    # (with p = 5 they sum to 1559 at q = 9, not hyp(2, 9) = 1557); even
    # numbers are no characteristic.  table_value checks before its early
    # sd return, here at odd g with q = 1 mod 4
    assert sy.symbolic_hyp(2).evaluate(9, 3) == tables.table_value("hyp", 2, 9, 3) == 1557
    assert tables.table_value("sd", 3, 9, 3) == 0
    for q, p in ((9, 5), (10, 2), (8, 2), (9, 1), (1, 3), (0, 3), (3, 9), (25, -5)):
        with pytest.raises(ValueError):
            sy.symbolic_hyp(2).evaluate(q, p)
    for which, g, q, p in (("hyp", 2, 9, 5), ("sd", 2, 9, 5), ("sd", 3, 9, 5), ("sd", 3, 5, 3)):
        with pytest.raises(ValueError):
            tables.table_value(which, g, q, p)


def test_evaluate_and_table_value_read_the_characteristic_from_q():
    # a composite p of which q is a power passes the characteristic check;
    # the guards read the true characteristic from q, so the value is the
    # one at p = None
    assert sy.symbolic_hyp(4).evaluate(81, 9) == census.hyp(4, 81) == 45753627970091
    pairs = ((81, 9), (729, 27), (729, 9), (625, 25), (81, 3), (729, 3), (625, 5))
    for g in range(2, 40):
        for which in ("hyp", "sd"):
            cp = getattr(sy, f"symbolic_{which}")(g)
            for q, p in pairs:
                want = getattr(census, which)(g, q)
                assert cp.evaluate(q, p) == cp.evaluate(q) == want, (which, g, q, p)
                assert cp.evaluate(np.int64(q), np.int64(p)) == want, (which, g, q, p)
    for g in tables.TABLE_GENUS_RANGE:
        for which in ("hyp", "sd"):
            for q, p in pairs:
                want = tables.table_value(which, g, q)
                assert tables.table_value(which, g, q, p) == want, (which, g, q, p)


def test_poly_eval_matches_plain_horner():
    # Horner in q^4 past 8 coefficients, with the 0 to 3 top ones first
    rng = random.Random(33)
    for q in (3, 9973, 3**40, 2**61 - 1):
        for n in range(41):
            f = [rng.choice((0, rng.randint(-10**6, 10**6))) for _ in range(n)]
            want = ref.poly_eval_horner(f, q)
            assert sy.poly_eval(f, q) == sy.poly_eval(tuple(f), q) == want, (q, f)
            assert sy.poly_eval(f, -q) == ref.poly_eval_horner(f, -q), (q, f)


def test_evaluate_matches_the_sum_over_terms():
    # evaluate adds the active terms into the generic coefficients and runs
    # one Horner; the sum of one Horner per term must agree
    qs = [q for q, _ in census.odd_prime_powers(300)] + [3**20]
    for g in range(2, 61):
        for cp in (sy.symbolic_hyp(g), sy.symbolic_sd(g)):
            for q in qs:
                assert cp.evaluate(q) == ref.evaluate_per_term(cp, q), (g, q)
    guard = sy.Guard(4, frozenset({1}))
    empty_generic = sy.ConditionalPolynomial((), ((guard, (5, 0, -1)), (sy.Guard(char_eq=3), (7,))))
    long_term = sy.ConditionalPolynomial((1, 2), ((guard, tuple(range(-10, 11))),))
    for cp in (empty_generic, long_term):
        for q in (3, 5, 9, 13, 27, 3**20):
            assert cp.evaluate(q) == ref.evaluate_per_term(cp, q), (cp, q)
    assert empty_generic.evaluate(7) == 0
    assert long_term.evaluate(7) == 15
    assert long_term.evaluate(5) == 11 + ref.poly_eval_horner(range(-10, 11), 5)


def test_chain_residues_are_built_on_demand():
    # the cover-merge screen reads only phi of most lcm moduli, so a cold
    # build computes chain residues for fewer moduli than it factors
    _clear_caches()
    for g in range(2, 201):
        sy.symbolic_hyp(g)
        sy.symbolic_sd(g)
    assert 0 < len(sy._CHAIN_CACHE) < len(sy._MODULUS_CACHE)
    assert set(sy._CHAIN_CACHE) <= set(sy._MODULUS_CACHE)


def test_restrict_to_class():
    cp = sy.symbolic_sd(2)
    mod = ref.congruence_lcm(cp)
    assert mod == 24
    for q, p in census.odd_prime_powers(300):
        f = sy.restrict_to_class(cp, q % 24, 24)
        assert sy.poly_eval(f, q) == census.sd(2, q)


def test_restrict_to_class_rejects_partial_modulus():
    cp = sy.symbolic_sd(2)
    with pytest.raises(ValueError):
        sy.restrict_to_class(cp, 1, 3)  # does not decide the mod 8 guard


def test_restrict_to_class_char_guard():
    cp = sy.symbolic_hyp(2)  # has a p = 5 term
    with pytest.raises(ValueError):
        sy.restrict_to_class(cp, 1, ref.congruence_lcm(cp))
    f = sy.restrict_to_class(cp, 1, ref.congruence_lcm(cp), assume_large_char=True)
    # q = 1 mod 120 with large p: all congruence terms on, char term off
    q = 241
    assert sy.poly_eval(f, q) == census.hyp(2, q)


def test_congruence_lcm_and_char_degree():
    cp = sy.symbolic_hyp(2)
    assert ref.congruence_lcm(cp, base=4) % 4 == 0
    assert ref.max_char_term_degree(cp) == 0  # the [2]_{p=5} term
    assert ref.max_char_term_degree(sy.symbolic_sd(2)) == -1


def test_json_roundtrip(capsys):
    for g in (2, 3, 5):
        cp = sy.symbolic_hyp(g)
        back = sy.cp_from_json_dict(sy.cp_to_json_dict(cp))
        assert back == cp
        assert sy.cp_to_json_dict(back) == sy.cp_to_json_dict(cp)
    # cp_from_json_dict stays in the package as the reader of the forms the
    # command line prints with --format json
    assert main(["symbolic", "--g", "2..3", "--which", "sd", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [sy.cp_from_json_dict(r["form"]) for r in rows] == [sy.symbolic_sd(2), sy.symbolic_sd(3)]


def test_render_formats():
    # render is the text form; the JSON form is cp_to_json_dict
    cp = sy.symbolic_sd(2)
    assert sy.render(cp).startswith("q^2 - 2  +  [2]_{q = 2 (mod 3)}  +  ")
    assert sy.cp_to_json_dict(cp)["generic"] == list(cp.generic)


def test_simplify_preserves_values():
    # simplify must never change the function, only its presentation: hyp
    # and sd at g = 2, 3, 4 and at a seeded sample of genera up to 200
    genera = [2, 3, 4] + random.Random(16).sample(range(5, 201), 12)
    for g in genera:
        for which, raw_cp in zip(("hyp", "sd"), sy._raw_forms(g)):
            simp = sy.simplify(raw_cp)
            for q, p in census.odd_prime_powers(300):
                assert raw_cp.evaluate(q, p) == simp.evaluate(q, p), (g, which, q)


def test_simplify_reaches_its_normal_form():
    # the loop in simplify stops without a confirming pass, so a second
    # simplify must find nothing left to do
    for g in range(2, 201):
        for cp in (sy.symbolic_hyp(g), sy.symbolic_sd(g)):
            assert sy.simplify(cp) == cp, g


def test_simplify_keeps_both_summands_of_overlapping_guards():
    # [1]_{q = 1 (mod 8)} + [1]_{q = 1,3 (mod 8)} is 2 at q = 17, not 1
    cp = sy.ConditionalPolynomial((), ((sy.Guard(8, frozenset({1})), (1,)),
                                       (sy.Guard(8, frozenset({1, 3})), (1,))))
    assert sy.simplify(cp).evaluate(17, 17) == cp.evaluate(17, 17) == 2


def test_simplify_preserves_values_of_overlapping_guards():
    # seeded random sums of guards sharing a modulus and a polynomial, with
    # residue sets that overlap as often as not, and characteristic guards
    rng = random.Random(17)
    qs = census.odd_prime_powers(400)
    for trial in range(300):
        mod = rng.choice((3, 4, 5, 8, 12, 16, 24))
        terms = []
        for _ in range(rng.randint(2, 6)):
            residues = frozenset(rng.sample(range(mod), rng.randint(1, mod)))
            char_eq, char_gt = rng.choice(((None, None), (None, None), (3, None), (None, 3)))
            terms.append((sy.Guard(mod, residues, char_eq, char_gt),
                          rng.choice(((1,), (0, 1), (2, 0, -1)))))
        cp = sy.ConditionalPolynomial(rng.choice(((), (1,))), tuple(terms))
        simp = sy.simplify(cp)
        for q, p in qs:
            assert simp.evaluate(q, p) == cp.evaluate(q, p), (trial, terms, q)


# the simplified forms for g = 2..200, frozen when simplify and the raw
# builders still scanned residue sets
SYMBOLIC_DIGEST = "99980402572c9c73c83a713bd5d094ff7386262d9b611136f2e7c4ddf59b8fcf"


def _forms_digest(forms):
    text = json.dumps(forms, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_symbolic_output_frozen():
    forms = [
        [sy.cp_to_json_dict(sy.symbolic_hyp(g)), sy.cp_to_json_dict(sy.symbolic_sd(g))]
        for g in range(2, 201)
    ]
    assert _forms_digest(forms) == SYMBOLIC_DIGEST


def _clear_caches():
    for name, val in vars(sy).items():
        if name.endswith("_CACHE"):
            val.clear()


@pytest.mark.parametrize("order", [("hyp", "sd"), ("sd", "hyp")], ids=["hyp-first", "sd-first"])
def test_symbolic_output_frozen_when_built_cold(order):
    # the census benchmark clears every *_CACHE dict before each query, so
    # each genus builds from empty per-modulus tables, hyp first, then sd;
    # both targets read one memoized expansion, which either may build
    forms = []
    for g in range(2, 201):
        _clear_caches()
        built = {which: getattr(sy, f"symbolic_{which}")(g) for which in order}
        forms.append([sy.cp_to_json_dict(built["hyp"]), sy.cp_to_json_dict(built["sd"])])
    assert _forms_digest(forms) == SYMBOLIC_DIGEST


def test_every_memo_is_a_cache_dict():
    # the census benchmark times cold builds by clearing the module's
    # *_CACHE dicts; a functools cache or a table under another name would
    # keep build work out of its figures
    def cached(fn):
        return hasattr(fn, "cache_info") or isinstance(fn, functools.cached_property)

    for name, val in vars(sy).items():
        if name.startswith("__"):
            continue
        assert not cached(val), name
        if isinstance(val, type) and val.__module__ == sy.__name__:
            for attr, member in vars(val).items():
                assert not cached(member), f"{name}.{attr}"
        if name.endswith("_CACHE"):
            assert isinstance(val, dict), name
        else:
            assert not isinstance(val, (dict, set, frozenset, list)), name


def _achievable_reference(mod):
    # units by a gcd scan, plus the powers of every odd prime dividing mod
    out = {r for r in range(mod) if gcd(r, mod) == 1}
    for ell in range(3, mod + 1, 2):
        if mod % ell == 0 and all(ell % d for d in range(3, ell, 2)):
            x = ell % mod
            seen = set()
            while x not in seen:
                seen.add(x)
                x = x * ell % mod
            out |= seen
    return frozenset(out)


def _reduce_modulus_reference(g):
    # scan every achievable residue mod g.mod for each smaller divisor
    if g.mod == 1:
        return g
    best = g
    for mprime in census.divisors(g.mod):
        if mprime >= best.mod:
            continue
        mapped = frozenset(r % mprime for r in g.residues)
        back = frozenset(
            r for r in sy.achievable_residues(g.mod) if r % mprime in mapped
        )
        if back == g.residues:
            mapped = sy._achievable_in(mprime, mapped)
            best = sy.Guard(mprime, mapped, g.char_eq, g.char_gt)
    return best


def test_achievable_residues_match_gcd_scan():
    for m in range(1, 3001):
        assert sy.achievable_residues(m) == _achievable_reference(m), m


def test_modulus_tables_match_census_and_scan():
    _clear_caches()
    for mod in range(1, 3001):
        info = sy._modulus(mod)
        ach = _achievable_reference(mod)
        assert info.mod == mod
        assert info.primes == census._prime_factors(mod), mod
        assert list(info.phi_of) == census.divisors(mod), mod
        assert list(info.phi_of.values()) == [census.phi(d) for d in info.phi_of], mod
        assert info.chain == {r for r in ach if gcd(r, mod) != 1}, mod
        assert sy.achievable_residues(mod) == ach, mod


def test_reduce_modulus_matches_scan_on_simplify_guards(monkeypatch):
    seen = set()
    reduce = sy._reduce_modulus

    def record(g):
        seen.add(g)
        return reduce(g)

    monkeypatch.setattr(sy, "_reduce_modulus", record)
    for g in range(2, 81):
        for raw_cp in sy._raw_forms(g):
            sy.simplify(raw_cp)
    assert len(seen) > 500
    reduced = 0
    for g in seen:
        got = reduce(g)
        assert got == _reduce_modulus_reference(g), g
        reduced += got != g
    assert reduced > 50


def _random_guards():
    # per modulus up to 800: a random achievable residue set, the full lift
    # of a residue mod a random divisor (which reduces), and every
    # achievable residue with or without a characteristic condition
    rng = random.Random(20)
    for mod in range(2, 801):
        ach = sorted(sy.achievable_residues(mod))
        divs = census.divisors(mod)
        yield sy.Guard(mod, frozenset(rng.sample(ach, rng.randrange(1, len(ach) + 1))))
        mprime = rng.choice(divs)
        sub = set(rng.sample(sorted(sy.achievable_residues(mprime)), 1))
        yield sy.Guard(mod, frozenset(r for r in ach if r % mprime in sub))
        yield sy.Guard(mod, frozenset(ach), char_eq=rng.choice((None, 3)))
    # a residue no odd prime power reaches keeps the guard as it is
    yield sy.Guard(6, frozenset({0, 1}))


def test_reduce_modulus_matches_scan_on_random_guards():
    reduced = 0
    for g in _random_guards():
        got = sy._reduce_modulus(g)
        assert got == _reduce_modulus_reference(g), g
        reduced += got != g
    assert reduced > 500
    g = sy.Guard(6, frozenset({0, 1}))
    assert sy._reduce_modulus(g) == _reduce_modulus_reference(g) == g


def test_reduce_modulus_is_idempotent():
    # simplify reduces each distinct guard once and takes the result as
    # its own fixed point
    for g in _random_guards():
        once = sy._reduce_modulus(g)
        assert sy._reduce_modulus(once) == once, g


def test_reduce_modulus_matches_scan_at_the_phi_bound():
    # _reduce_modulus skips a divisor m' unless phi(M) / phi(m') divides
    # the number u of units in the guard; probe u = 1, 2, all but one, and
    # a full lift of one unit mod m' (u = phi(M) / phi(m')) with and
    # without one of its residues
    rng = random.Random(15)
    reduced = 0
    for mod in range(2, 801):
        ach = sorted(sy.achievable_residues(mod))
        units = [r for r in ach if gcd(r, mod) == 1]
        chain = [r for r in ach if gcd(r, mod) != 1]
        mprime = rng.choice(census.divisors(mod))
        s = rng.choice([r for r in range(mprime) if gcd(r, mprime) == 1])
        lift = [r for r in units if r % mprime == s]
        picks = [
            rng.sample(units, 1),
            rng.sample(units, min(2, len(units))),
            units[1:] + chain,
            units[:-1],
            lift,
            lift[1:] + chain[:1],
        ]
        for residues in picks:
            if residues:
                g = sy.Guard(mod, frozenset(residues))
                got = sy._reduce_modulus(g)
                assert got == _reduce_modulus_reference(g), g
                reduced += got != g
    assert reduced > 500


def test_a_polys_match_division():
    for n in range(1, 201):
        s1 = -1 if ((n + 1) // 2) % 2 else 1
        s2 = -1 if (n // 2) % 2 else 1
        num = [0] * (n + 2)
        num[n + 1] += 1
        num[n] -= 1
        num[1] -= s1
        num[0] += s2
        assert sy.a0_poly(n) == ref.poly_divexact(sy.poly_norm(num), (1, 0, 1)), n
        num = [0] * (n + 1)
        num[n] = 1
        num[0] = 1 if n % 2 else -1
        assert sy.a2_poly(n) == ref.poly_divexact(sy.poly_norm(num), (1, 1)), n


def test_poly_divexact_raises_verification_error():
    with pytest.raises(census.VerificationError):
        ref.poly_divexact((1, 0, 0, 1), (1, 0, 1))
    with pytest.raises(ValueError):
        ref.poly_divexact((1, 1), (1, 2))


# ---------------------------------------------------------------------------
# transcribed reference tables


# the genus 9 row differs from the formula at exactly these q, one dropped
# bracket; see reference.known_delta_value
GENUS9_MISMATCH_Q = [
    5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61, 73, 81, 89, 97, 101, 109,
    113, 121, 125, 137, 149, 157, 169, 173, 181, 193, 197, 229, 233, 241,
    257, 269, 277, 281, 289, 293, 313, 317, 337, 349, 353, 361, 373, 389,
    397, 401, 409, 421, 433, 449, 457, 461,
]


def test_tables_match_formulas():
    for g in tables.TABLE_GENUS_RANGE:
        assert tables.compare_with_formula("sd", g) == []
        mism = tables.compare_with_formula("hyp", g)
        if g != 9:
            assert mism == [], g


def test_genus9_row_discrepancy():
    mism = tables.compare_with_formula("hyp", 9)
    assert [q for q, _, _ in mism] == GENUS9_MISMATCH_Q
    for q, row, formula in mism:
        assert q % 4 == 1
        assert row - formula == ref.known_delta_value(9, q)


def test_table_values_spot_checks():
    assert tables.table_value("hyp", 2, 3) == 69
    assert tables.table_value("hyp", 2, 5) == 285
    assert tables.table_value("sd", 2, 3) == 7
    assert tables.table_value("sd", 2, 5) == 27
    assert tables.table_value("sd", 3, 5) == 0  # odd genus, q = 1 mod 4
    assert tables.table_value("sd", 3, 3) == census.sd(3, 3)


def test_table_sd_vanishing_rule():
    for g in (3, 5, 7, 9):
        for q in (5, 9, 13, 17, 25, 29):
            assert tables.table_value("sd", g, q) == 0
