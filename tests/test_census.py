"""Closed-formula census unit tests.

The (g, q) anchor values were frozen from an independent brute-force
enumeration of the twisted group action (see tests/test_oracle.py for the
live equality checks).
"""

import functools
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from hypcensus import census
from hypcensus import field as ff
from hypcensus import moebius as mb


# (g, q) -> (hyp, sd, y); frozen from the brute-force oracle
ORACLE_ANCHORS = {
    (2, 3): (69, 7, 38),
    (2, 5): (285, 27, 156),
    (2, 7): (749, 49, 399),
    (2, 9): (1557, 79, 818),
    (3, 3): (526, 12, 269),
    (3, 5): (6508, 0, 3254),
    (4, 3): (4463, 73, 2268),
}


def test_building_blocks_small_values():
    assert census.a0(4, 3) == 16
    assert census.a2(4, 3) == 20
    assert census.a1(6, 3) == 162
    assert census.a_p1(6, 3) == 648
    # a0 at argument 1 is 1 for every q
    for q in (3, 5, 7, 9, 11, 25):
        assert census.a0(1, q) == 1
    assert census.a1(1, 9) == 1
    assert census.a_p1(1, 7) == 8
    assert census.a_p1(2, 7) == 49


def test_building_blocks_match_their_two_power_forms():
    # a0, a1 and a_p1 raise q to one power; these forms raise it to two
    for q in range(2, 100):
        for n in range(1, 81):
            s1 = -1 if ((n + 1) // 2) % 2 else 1
            s2 = -1 if (n // 2) % 2 else 1
            quot, rem = divmod(q ** (n + 1) - q**n - s1 * q + s2, q**2 + 1)
            assert rem == 0 and census.a0(n, q) == quot, (n, q)
            if n >= 2:
                assert census.a1(n, q) == q ** (n - 1) - q ** (n - 2), (n, q)
            if n >= 3:
                assert census.a_p1(n, q) == q**n - q ** (n - 2), (n, q)


def test_building_blocks_reject_bad_args():
    for fn in (census.a0, census.a1, census.a2, census.a_p1):
        assert fn(0, 5) == 0
        assert fn(-3, 5) == 0
        assert fn(2.5, 5) == 0


def test_building_blocks_are_integers():
    for q in (3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121):
        for n in range(1, 30):
            for fn in (census.a0, census.a1, census.a2, census.a_p1):
                assert isinstance(fn(n, q), int)


def test_anchor_values():
    for (g, q), (h, s, y) in ORACLE_ANCHORS.items():
        assert census.hyp(g, q) == h
        assert census.sd(g, q) == s
        assert census.y_nset_classes(g, q) == y


def test_component_breakdown_g2_q3():
    h_a, h_b, h_c, h_d = census.hyp_components(2, 3)
    assert (h_a, h_b, h_c, h_d) == (4, 4, 7, 54)
    assert h_a + h_b + h_c + h_d == 69


def test_components_sum_to_hyp():
    for g in range(2, 8):
        for q in (3, 5, 7, 9, 11, 13, 25, 27):
            parts = census.hyp_components(g, q)
            assert sum(parts) == census.hyp(g, q)
            assert parts[3] == 2 * q ** (2 * g - 1)


def test_sd_vanishes_for_odd_g_q_1_mod_4():
    for g in (3, 5, 7, 9):
        for q in (5, 9, 13, 17, 25, 29):
            assert census.sd(g, q) == 0


def test_sd_positive_for_even_g():
    for g in (2, 4, 6):
        for q in (3, 5, 7, 9):
            assert census.sd(g, q) > 0


def test_integrality_moderate_sweep():
    # the acceptance suite runs the full g <= 30, q <= 1000 sweep
    for g in range(2, 12):
        for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41):
            h = census.hyp(g, q)
            s = census.sd(g, q)
            assert isinstance(h, int) and isinstance(s, int)
            assert h > 0 and s >= 0
            assert (h + s) % 2 == 0
            assert h >= 2 * q ** (2 * g - 1)


def test_validation_errors():
    with pytest.raises(ValueError):
        census.hyp(1, 5)
    with pytest.raises(ValueError):
        census.hyp(2, 4)
    with pytest.raises(ValueError):
        census.hyp(2, 15)
    with pytest.raises(ValueError):
        census.factor_prime_power(1)
    assert census.factor_prime_power(27) == (3, 3)
    assert census.factor_prime_power(121) == (11, 2)
    assert census.factor_prime_power(13) == (13, 1)


def test_numpy_integers_count_exactly():
    # a numpy q would wrap at q^n and fail an exact division with a false
    # VerificationError; the closed forms compute in Python ints
    for g, q in ((30, 997), (8, 101)):
        report = census.census_report(g, q)
        assert census.hyp(g, np.int64(q)) == report.hyp, (g, q)
        assert census.sd(np.int64(g), np.int64(q)) == report.sd, (g, q)
        assert census.hyp_components(g, np.int64(q)) == report[7:], (g, q)
        assert census.census_report(np.int64(g), np.int64(q)) == report, (g, q)
        assert type(census.census_report(np.int64(g), q).g) is int


def test_float_arguments_raise_type_error():
    for fn in (census.hyp, census.sd, census.hyp_components, census.census_report):
        with pytest.raises(TypeError):
            fn(2, 9.0)
        with pytest.raises(TypeError):
            fn(2.0, 9)
    with pytest.raises(TypeError):
        census.factor_prime_power(9.0)


def test_fixed_counts_reject_impossible_orders():
    # C needs m > 1 dividing q - 1, A m > 1 dividing q + 1, B m == p
    for q, kind, m in ((3, "C", 3), (3, "C", 1), (7, "C", 4), (5, "A", 4),
                       (7, "A", 1), (9, "B", 9), (5, "B", 2), (5, "D", 2)):
        with pytest.raises(ValueError):
            census.plain_fixed_count(q, 4, kind, m)
        with pytest.raises(ValueError):
            census.twisted_fixed_count(q, 4, kind, m)
    assert census.plain_fixed_count(9, 4, "B", 3) >= 0
    assert census.twisted_fixed_count(7, 4, "A", 4) >= 0


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_subtype_class_sizes_match_enumeration(q):
    # every nonidentity element of PGL2(F_q), counted by (kind, order)
    pgl = mb.enumerate_pgl(ff.make_field(*census.factor_prime_power(q)))
    counts = Counter((el.kind, el.order) for el in pgl if el.kind != "identity")
    sizes = {(kind, m): census.class_size(q, kind, m) for kind, m in census.subtypes(q)}
    assert sizes == counts
    assert sum(sizes.values()) == q**3 - q - 1


# census_report(g, q).to_json_dict() for g = 2..60 and every odd prime
# power q <= 500, frozen from the hand-expanded divisor sums over 2g+2,
# 2g+1 and 2g that preceded the Burnside sum over subtypes
CENSUS_DIGEST = "dac300f73440effb6db70da2d2718cb5ec98832db21836b56041faee7d3b22e5"


def test_census_output_frozen():
    rows = [census.census_report(g, q).to_json_dict()
            for g in range(2, 61) for q, _ in census.odd_prime_powers(500)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == CENSUS_DIGEST


def test_sd_skips_kind_b_which_adds_nothing():
    # sd is twice the twist sign -1 parts of the Burnside pass, and kind B
    # has no -1 piece: its 2 plain - twisted is 0.  sd equals the full sum
    # of 2 plain - twisted over every subtype (sd itself is pinned by
    # CENSUS_DIGEST above)
    for g in range(2, 31):
        n = 2 * g + 2
        for q, p in census.odd_prime_powers(200):
            assert census._burnside(q, p, n, -1)["B"] == 0, (g, q)
            full = sum(census.class_size(q, kind, m) * (2 * census.plain_fixed_count(q, n, kind, m)
                                                        - census.twisted_fixed_count(q, n, kind, m))
                       for kind, m in census.subtypes(q))
            assert census.sd(g, q) == census._exact_div(full, q**3 - q), (g, q)
            # the one B subtype has order p
            assert 2 * census.plain_fixed_count(q, n, "B", p) == census.twisted_fixed_count(q, n, "B", p), (g, q)


def test_census_keeps_no_memo():
    # the census benchmark clears the symbolic *_CACHE dicts before each
    # query but never census.py, so a memo here would keep work out of its
    # figures: no functools cache, and no module-level container
    def cached(fn):
        return hasattr(fn, "cache_info") or isinstance(fn, functools.cached_property)

    for name, val in vars(census).items():
        if name.startswith("__"):
            continue
        assert not cached(val), name
        if isinstance(val, type) and val.__module__ == census.__name__:
            for attr, member in vars(val).items():
                assert not cached(member), f"{name}.{attr}"
        assert not isinstance(val, (dict, set, frozenset, list)), name


def test_census_report_roundtrip():
    rep = census.census_report(2, 3)
    assert rep.hyp == 69 and rep.sd == 7 and rep.y == 38
    d = rep.to_json_dict()
    assert d["hyp"] == "69"
    assert d["components"]["h_d"] == "54"
    # big counts stay exact through the decimal-string encoding
    rep30 = census.census_report(30, 997)
    d30 = rep30.to_json_dict()
    assert int(d30["hyp"]) == census.hyp(30, 997)


def test_divisors_and_phi_match_brute_force():
    from math import gcd

    for n in range(1, 3001):
        assert census.divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
        assert census.phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1), n


def test_factor_prime_power_matches_trial_division():
    for q in range(3, 3001, 2):
        p = next(d for d in range(3, q + 1, 2) if q % d == 0)
        e = 0
        m = q
        while m % p == 0:
            m //= p
            e += 1
        if m == 1:
            assert census.factor_prime_power(q) == (p, e), q
        else:
            with pytest.raises(ValueError):
                census.factor_prime_power(q)
