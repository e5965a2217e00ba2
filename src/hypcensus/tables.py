"""Reference census tables, transcribed verbatim, used as fixtures.

Each row gives hyp(g, -) or sd(g, -) for 2 <= g <= 10 as a conditional
polynomial.  The sd rows for odd g are stated for q = 3 (mod 4) only; the
count is 0 in the complementary class, and table_value applies that
convention.

The rows are kept verbatim, including one known misprint: the hyp row for
g = 9 is missing one copy of its [q = 1 (mod 4)] bracket, so it disagrees
with the regenerated formula by exactly that polynomial at every q = 1
(mod 4).  compare_with_formula("hyp", 9) surfaces the discrepancy instead
of hiding it; HYP_ROW_KNOWN_DELTA records the expected difference
(row minus formula).
"""

from __future__ import annotations

from .census import checked_characteristic, factor_prime_power, odd_prime_powers
from .symbolic import (
    ConditionalPolynomial,
    Guard,
    Poly,
    symbolic_hyp,
    symbolic_sd,
)


def _p(**kw) -> Poly:
    d = {int(k[1:]): v for k, v in kw.items()}
    n = max(d) if d else 0
    return tuple(d.get(i, 0) for i in range(n + 1))


def _c(c: int) -> Poly:
    return (c,)


def _div_minus(m: int) -> Guard:  # m | q - 1
    return Guard(mod=m, residues=frozenset({1}))


def _div_plus(m: int) -> Guard:  # m | q + 1
    return Guard(mod=m, residues=frozenset({m - 1}))


def _mod(m: int, *rs: int) -> Guard:
    return Guard(mod=m, residues=frozenset(rs))


def _char(ell: int) -> Guard:
    return Guard(char_eq=ell)


def _char_gt(ell: int) -> Guard:
    return Guard(char_gt=ell)


def _row(generic: Poly, terms) -> ConditionalPolynomial:
    return ConditionalPolynomial(generic, tuple(terms))


TABLE_HYP: dict[int, ConditionalPolynomial] = {
    2: _row(
        _p(q3=2, q2=1, q1=2, q0=-2),
        [
            (_div_minus(3), _c(2)),
            (_div_minus(5), _c(8)),
            (_char(5), _c(2)),
            (_mod(8, 1, 3), _c(2)),
        ],
    ),
    3: _row(
        _p(q5=2, q3=2, q0=-2),
        [
            (_div_plus(4), _p(q2=-2, q1=2)),
            (_char_gt(3), _p(q1=2, q0=-2)),
            (_div_minus(8), _c(4)),
            (_div_minus(7), _c(12)),
            (_char(7), _c(2)),
            (_mod(12, 1, 5), _c(2)),
        ],
    ),
    4: _row(
        _p(q7=2, q4=1),
        [
            (_div_minus(3), _p(q2=4, q1=-4, q0=4)),
            (_char(3), _p(q2=2, q1=-2)),
            (_div_plus(4), _p(q1=-2, q0=2)),
            (_mod(5, 1, 4), _p(q1=4, q0=-4)),
            (_char(5), _p(q1=2, q0=-2)),
            (_mod(8, 1, 7), _p(q1=2, q0=-2)),
            (_div_minus(5), _c(4)),
            (_div_minus(9), _c(12)),
            (_mod(16, 1, 7), _c(4)),
        ],
    ),
    5: _row(
        _p(q9=2, q5=2, q0=2),
        [
            (_div_plus(4), _p(q4=-2, q3=2, q2=-2, q1=2, q0=-4)),
            (_div_minus(3), _p(q1=4, q0=-4)),
            (_mod(5, 1, 4), _p(q1=4, q0=-4)),
            (_div_minus(12), _c(4)),
            (_div_minus(11), _c(20)),
            (_char(11), _c(2)),
            (_mod(20, 1, 9), _c(4)),
        ],
    ),
    6: _row(
        _p(q11=2, q6=1),
        [
            (_div_plus(4), _p(q3=-2, q2=2)),
            (_div_minus(3), _p(q3=2, q2=-2, q1=2, q0=-2)),
            (_div_plus(3), _p(q3=2, q2=-2, q1=-2, q0=2)),
            (_div_minus(8), _p(q2=2, q1=-2, q0=2)),
            (_mod(8, 3), _p(q2=2, q1=-2, q0=-2)),
            (_mod(12, 1, 11), _p(q1=2, q0=-2)),
            (_char(7), _p(q1=2, q0=-2)),
            (_mod(7, 1, 6), _p(q1=6, q0=-6)),
            (_div_minus(7), _c(6)),
            (_char(13), _c(2)),
            (_div_minus(13), _c(24)),
            (_mod(24, 1, 11), _c(4)),
        ],
    ),
    7: _row(
        _p(q13=2, q7=2, q5=-2, q3=4, q2=-2, q0=-2),
        [
            (_div_plus(4), _p(q6=-2, q5=2, q2=-2, q1=-2, q0=4)),
            (_char(3), _p(q4=2, q3=-2)),
            (_div_minus(3), _p(q4=4, q3=-4, q2=4, q1=-4, q0=4)),
            (_char(5), _p(q2=2, q1=-2)),
            (_div_minus(5), _p(q2=8, q1=-8, q0=8)),
            (_div_minus(16), _c(8)),
            (_mod(8, 1, 7), _p(q1=4, q0=-4)),
            (_mod(7, 1, 6), _p(q1=6, q0=-6)),
            (_div_minus(15), _c(16)),
            (_mod(28, 1, 13), _c(6)),
        ],
    ),
    8: _row(
        _p(q15=2, q8=1),
        [
            (_div_minus(4), _p(q5=2, q4=-2)),
            (_div_plus(4), _p(q1=-2, q0=2)),
            (_div_minus(3), _p(q3=2)),
            (_div_plus(3), _p(q3=-2, q2=2, q1=2, q0=-2)),
            (_div_minus(8), _p(q3=2, q2=-2, q1=2, q0=-2)),
            (_div_plus(8), _p(q3=2, q2=-2, q1=-2, q0=2)),
            (_mod(9, 1, 8), _p(q1=6, q0=-6)),
            (_mod(16, 1, 15), _p(q1=4, q0=-4)),
            (_div_minus(9), _c(6)),
            (_div_minus(17), _c(32)),
            (_char(17), _c(2)),
            (_mod(32, 1, 15), _c(8)),
        ],
    ),
    9: _row(
        _p(q17=2, q9=2, q8=-2, q5=2, q4=-2, q1=2, q0=-2),
        [
            (_char_gt(3), _p(q5=2, q4=-2, q1=2, q0=-2)),
            (_div_minus(4), _p(q8=1, q7=-1, q4=2, q3=-2, q2=1, q1=-1, q0=2)),
            (_div_minus(3), _p(q3=2, q2=-2)),
            (_div_plus(3), _p(q3=-2, q2=2)),
            (_char(5), _p(q3=2, q2=-2)),
            (_mod(5, 1, 4), _p(q3=4, q2=-4)),
            (_mod(12, 1, 5), _p(q2=2, q1=-2)),
            (_div_minus(5), _p(q1=8, q0=-8)),
            (_mod(9, 1, 8), _p(q1=6, q0=-6)),
            (_div_minus(20), _c(8)),
            (_div_minus(19), _c(36)),
            (_char(19), _c(2)),
            (_div_minus(12), _c(2)),
            (_mod(12, 5), _c(-2)),
            (_mod(36, 1, 17), _c(6)),
        ],
    ),
    10: _row(
        _p(q19=2, q10=1),
        [
            (_div_plus(4), _p(q7=-2, q6=2, q3=-2, q2=2)),
            (_div_minus(3), _p(q6=4, q5=-4, q4=4, q3=-4, q2=4, q1=-4, q0=4)),
            (_char(3), _p(q6=2, q5=-2)),
            (_div_minus(8), _p(q4=2, q3=-2, q2=2, q1=-2, q0=2)),
            (_mod(8, 3), _p(q4=2, q3=-2, q2=-2, q1=2, q0=2)),
            (_div_minus(5), _p(q3=4, q2=-4, q1=4, q0=-4)),
            (_div_plus(5), _p(q3=4, q2=-4, q1=-4, q0=4)),
            (_div_minus(7), _p(q2=12, q1=-12, q0=12)),
            (_char(7), _p(q2=2, q1=-2)),
            (_div_plus(11), _p(q1=10, q0=-10)),
            (_div_minus(11), _p(q1=10)),
            (_char(11), _p(q1=2, q0=-2)),
            (_mod(20, 1, 19), _p(q1=4, q0=-4)),
            (_div_minus(21), _c(24)),
            (_mod(40, 1, 19), _c(8)),
        ],
    ),
}

TABLE_SD: dict[int, ConditionalPolynomial] = {
    2: _row(
        _p(q2=1, q0=-2),
        [(_div_plus(3), _c(2)), (_mod(8, 5, 7), _c(2))],
    ),
    3: _row(
        _p(q2=2, q1=-2),
        [(_char_gt(3), _c(2)), (_div_plus(8), _c(4))],
    ),
    4: _row(
        _p(q4=1, q2=-2, q0=2),
        [
            (_div_plus(4), _p(q1=2, q0=-2)),
            (_mod(8, 3, 5), _p(q1=2, q0=-2)),
            (_div_plus(5), _c(4)),
            (_mod(16, 9, 15), _c(4)),
        ],
    ),
    5: _row(
        _p(q4=2, q3=-2, q2=2, q1=-2),
        [(_div_plus(3), _c(4)), (_mod(5, 1, 4), _c(4))],
    ),
    6: _row(
        _p(q6=1, q4=-2, q2=2, q0=-2),
        [
            (_div_plus(4), _p(q3=2, q2=-2)),
            (_mod(8, 5), _p(q2=2, q1=-2, q0=2)),
            (_div_plus(8), _p(q2=2, q1=-2, q0=-2)),
            (_mod(12, 5, 7), _p(q1=2, q0=-2)),
            (_div_plus(7), _c(6)),
            (_mod(24, 13, 23), _c(4)),
        ],
    ),
    7: _row(
        _p(q6=2, q5=-2, q2=2, q1=-2),
        [(_div_plus(16), _c(8)), (_mod(7, 1, 6), _c(6))],
    ),
    8: _row(
        _p(q8=1, q6=-2, q4=2, q2=-2, q0=2),
        [
            (_div_plus(4), _p(q5=2, q4=-2, q1=2, q0=-2)),
            (_mod(8, 5), _p(q3=2, q2=-2, q1=2, q0=-2)),
            (_mod(8, 3), _p(q3=2, q2=-2, q1=-2, q0=2)),
            (_div_plus(3), _p(q2=2, q1=-2, q0=-2)),
            (_mod(16, 7, 9), _p(q1=4, q0=-4)),
            (_div_plus(9), _c(6)),
            (_mod(32, 17, 31), _c(8)),
        ],
    ),
    9: _row(
        _p(q8=2, q7=-2, q4=4, q3=-4, q0=2),
        [
            (_char(3), _p(q2=-2, q1=2, q0=2)),
            (_div_minus(3), _c(4)),
            (_div_plus(5), _c(8)),
            (_mod(9, 1, 8), _c(6)),
        ],
    ),
    10: _row(
        _p(q10=1, q8=-2, q6=2, q4=-2, q2=2, q0=-2),
        [
            (_div_plus(4), _p(q7=2, q6=-2, q3=2, q2=-2)),
            (_mod(8, 5), _p(q4=2, q3=-2, q2=2, q1=-2, q0=2)),
            (_div_plus(8), _p(q4=2, q3=-2, q2=-2, q1=2, q0=2)),
            (_mod(20, 9, 11), _p(q1=4, q0=-4)),
            (_div_plus(11), _c(10)),
            (_mod(40, 21, 39), _c(8)),
        ],
    ),
}

TABLE_GENUS_RANGE = range(2, 11)

# row minus regenerated formula for the g = 9 hyp misprint, applying at
# q = 1 (mod 4): one missing copy of the _div_minus(4) bracket
HYP_ROW_KNOWN_DELTA: dict[int, tuple[Guard, Poly]] = {
    9: (
        _div_minus(4),
        tuple(-c for c in _p(q8=1, q7=-1, q4=2, q3=-2, q2=1, q1=-1, q0=2)),
    ),
}


def table_value(which: str, g: int, q: int, p: int | None = None) -> int:
    """The reference row of `which` ("hyp" or "sd") for genus g at q; a
    given characteristic p is checked by census.checked_characteristic."""
    p = factor_prime_power(q)[0] if p is None else checked_characteristic(q, p)
    if which == "sd" and g % 2 == 1 and q % 4 == 1:
        return 0
    return (TABLE_HYP if which == "hyp" else TABLE_SD)[g].evaluate(q, p)


def compare_with_formula(which: str, g: int, limit: int = 499) -> list[tuple[int, int, int]]:
    """(q, row value, formula value) wherever the reference row of `which`
    and the regenerated formula disagree, q <= limit."""
    cp = symbolic_hyp(g) if which == "hyp" else symbolic_sd(g)
    out = []
    for q, p in odd_prime_powers(limit):
        tv = table_value(which, g, q, p)
        fv = cp.evaluate(q, p)
        if tv != fv:
            out.append((q, tv, fv))
    return out
