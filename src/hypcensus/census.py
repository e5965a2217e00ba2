"""Exact counts of hyperelliptic curve classes over F_q, q odd.

A genus-g curve is a pair (square class of the quadratic twist, rational
(2g+2)-set of branch points on the projective line) up to the fractional
linear action, so the count is a Burnside sum: over the identity and the
nonidentity subtypes of PGL2(F_q) (`subtypes`), the class size times the
number of pairs one element fixes (`twisted_fixed_count`), divided by
|PGL2| = q^3 - q.  The same sum over the n-sets alone (`plain_fixed_count`)
counts the n-set orbits y, and sd = 2y - hyp.  Everything here is
closed-form integer arithmetic in g and q; no field elements are touched.

The one rule for fixed n-sets lives here (CONFIGURATIONS): an element of
order m fixes an n-set S when S holds j of its fixed points and the other
n - j points form (n - j)/m free m-cycles, counted by `free_count`;
`twist_sign` says whether both twists of S are fixed (+1) or neither (-1).
The fixed counts, the Burnside pass `_burnside` (one twist sign a pass,
whose free counts alone are computed: +1 for hyp, -1 for sd, both for
`census_report`), `multiplier.epsilon_closed_forms` and the counts/quot
suites read it.  The pass visits only subtypes that can fix an n-set,
with phi(m) from `_divisor_phis`, the one routine that lists divisors with
their phi (also behind `divisors` and `symbolic`'s modulus tables).
Nothing here is memoized across calls.  a0/a1/a2 count n-sets weighted by the sign
character for the element kinds of order dividing q+1, order p and order
dividing q-1; a_p1 counts rational n-sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def divisors(n: int) -> list[int]:
    """Divisors of n >= 1, ascending."""
    return list(_divisor_phis(n, _prime_factors(n)))


def phi(n: int) -> int:
    """Euler's totient of n >= 1."""
    return _divisor_phis(n, _prime_factors(n))[n]


def _divisor_phis(n: int, primes: list[int]) -> dict[int, int]:
    """Every divisor d of n, ascending, mapped to phi(d), built up one prime
    power of n at a time from its prime factors (phi is multiplicative)."""
    out = {1: 1}
    for ell in primes:
        below = list(out.items())
        power, phi_power = 1, 1
        while n % (power * ell) == 0:
            phi_power *= ell - 1 if power == 1 else ell
            power *= ell
            for d, f in below:
                out[d * power] = f * phi_power
    return dict(sorted(out.items()))


def factor_prime_power(q: int) -> tuple[int, int]:
    """q -> (p, e) with q = p^e, p an odd prime; rejects anything else."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"q must be an odd prime power >= 3, got {q}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"q must be a prime power, got {q}")
    p = primes[0]
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return p, e


def odd_prime_powers(limit: int) -> list[tuple[int, int]]:
    """All (q, p) with q = p^e an odd prime power, 3 <= q <= limit."""
    out = []
    for q in range(3, limit + 1, 2):
        try:
            p, _ = factor_prime_power(q)
        except ValueError:
            continue
        out.append((q, p))
    return out


class VerificationError(AssertionError):
    """A consistency check failed.  Raised explicitly rather than by
    `assert`, so that `python -O` cannot strip the check."""


def _exact_div(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise VerificationError(f"non-integer value {num}/{den}")
    return quot


def a0(n: int, q) -> int:
    """Signed n-set count for an element whose order divides q + 1.

    Zero unless n is a positive integer.  Note a0(1, q) = 1 for every q.
    """
    if n != int(n) or n < 1:
        return 0
    n = int(n)
    s1 = -1 if ((n + 1) // 2) % 2 else 1
    s2 = -1 if (n // 2) % 2 else 1
    return _exact_div(q ** (n + 1) - q**n - s1 * q + s2, q**2 + 1)


def a1(n: int, q) -> int:
    """Signed n-set count for an element of order p (the characteristic)."""
    if n != int(n) or n < 1:
        return 0
    n = int(n)
    if n == 1:
        return 1
    return q ** (n - 1) - q ** (n - 2)


def a2(n: int, q) -> int:
    """Signed n-set count for an element whose order divides q - 1."""
    if n != int(n) or n < 1:
        return 0
    n = int(n)
    s = 1 if n % 2 else -1
    return _exact_div(q**n + s, q + 1)


def a_p1(n: int, q) -> int:
    """Number of rational n-sets on the projective line.

    q^n - q^(n-2) for n >= 3; the small cases are q + 1 and q^2.
    """
    if n != int(n) or n < 1:
        return 0
    n = int(n)
    if n == 1:
        return q + 1
    if n == 2:
        return q**2
    return q**n - q ** (n - 2)


def _check_order(q: int, kind: str, m: int) -> None:
    """Raise ValueError unless (kind, m) is a nonidentity subtype of PGL2(F_q)."""
    if (kind, m) not in subtypes(q):
        raise ValueError(f"no kind {kind} element of order {m} over F_{q}")


# per kind, the (j, ways) of the n-sets its elements fix: a set holds j of
# the element's fixed points (C: 0 and infinity; B: infinity; A: a conjugate
# pair, both or neither) in `ways` ways, its other n - j points in free cycles
CONFIGURATIONS = (("C", ((0, 1), (1, 2), (2, 1))), ("B", ((0, 1), (1, 1))),
                  ("A", ((0, 1), (2, 1))))


def free_count(q: int, kind: str, k: int) -> int:
    """k-sets of free orbits of an element of the kind: rational k-sets of its
    quotient, the torus P^1 - {0, infinity} (C), the affine line (B) or the
    line minus a conjugate pair (A); at m = 1, n-sets off the fixed locus."""
    if kind == "C":
        return (q - 1) * a2(k, q)
    if kind == "B":
        return q * a1(k, q)
    return (q + 1) * a0(k, q)


def twist_sign(q: int, kind: str, m: int, j: int, k: int) -> int:
    """Twist sign of the n-sets an order-m element of the kind fixes with j
    fixed points and k free m-cycles: (-1)^((q-1)/m) for C with both, (-1)^k
    for A without its pair and (-1)^(k + (q+1)/m) with it, else +1."""
    if kind == "C":
        e = j // 2 * ((q - 1) // m)
    elif kind == "A":
        e = k + j // 2 * ((q + 1) // m)
    else:
        e = 0
    return -1 if e % 2 else 1


def _fixed_pieces(q: int, n: int, kind: str, m: int, rows,
                  signs=(1, -1)) -> list[tuple[int, int, int]]:
    """(j, count, twist sign) of the n-sets one element of the subtype fixes,
    per row (j, ways) of its kind with m | n - j whose sign is in signs; the
    count is computed only for those.  No argument checks."""
    out = []
    for j, ways in rows:
        if (n - j) % m == 0:
            k = (n - j) // m
            sign = twist_sign(q, kind, m, j, k)
            if sign in signs:
                out.append((j, ways * free_count(q, kind, k), sign))
    return out


def plain_fixed_count(q: int, n: int, kind: str, m: int) -> int:
    """Rational n-sets fixed by a nonidentity class of the given kind.

    kind "C" has order m dividing q - 1, kind "A" order m dividing q + 1,
    kind "B" order m = p.  Valid for n >= 3; at n = 1, 2 the signed counts
    miss degenerate configurations such as the fixed pair itself.
    """
    if n < 3:
        raise ValueError(f"fixed-count formulas need n >= 3, got {n}")
    _check_order(q, kind, m)
    return sum(count for _, count, _ in _fixed_pieces(q, n, kind, m, dict(CONFIGURATIONS)[kind]))


def twisted_fixed_count(q: int, n: int, kind: str, m: int) -> int:
    """Fixed (twist, n-set) pairs of a nonidentity class; even n >= 4 only."""
    if n < 4 or n % 2 != 0:
        raise ValueError(f"twisted fixed counts need even n >= 4, got {n}")
    _check_order(q, kind, m)
    pieces = _fixed_pieces(q, n, kind, m, dict(CONFIGURATIONS)[kind], (1,))
    return 2 * sum(count for _, count, _ in pieces)


def _validate(g: int, q: int) -> tuple[int, int]:
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    return factor_prime_power(q)


def subtypes(q: int) -> list[tuple[str, int]]:
    """The nonidentity subtypes (kind, order m) of PGL2(F_q): kind C for
    each m > 1 dividing q - 1, kind B of order p, kind A for each m > 1
    dividing q + 1."""
    p, _ = factor_prime_power(q)
    out = [("C", m) for m in divisors(q - 1) if m > 1]
    out.append(("B", p))
    out.extend(("A", m) for m in divisors(q + 1) if m > 1)
    return out


def _class_size(q: int, kind: str, phi_m: int) -> int:
    if kind == "B":
        return q * q - 1
    return q * (q + 1 if kind == "C" else q - 1) // 2 * phi_m


def class_size(q: int, kind: str, m: int) -> int:
    """Elements of the subtype (kind, m) in PGL2(F_q): phi(m) in each of the
    q(q+1)/2 split tori (kind C) or the q(q-1)/2 non-split ones (kind A),
    and the q^2 - 1 elements of order p (kind B)."""
    return _class_size(q, kind, phi(m))


def _burnside(q: int, p: int, n: int, sign: int) -> dict[str, int]:
    """Per kind, the sum over the nonidentity subtypes of PGL2(F_q), q a
    power of p, of class size times the n-sets one element fixes with the
    given twist sign (kind B has none of sign -1).  Only the orders m > 1
    dividing gcd(t, n - j) for a configuration j can fix an n-set,
    t = q - 1 (C), p (B) or q + 1 (A): those gcds (at most n) are
    factored, not q +- 1.
    """
    sums = {}
    for (kind, rows), t in zip(CONFIGURATIONS, (q - 1, p, q + 1)):
        orders = {}
        for j, _ in rows:
            d = gcd(t, n - j)
            orders.update(_divisor_phis(d, _prime_factors(d)))
        del orders[1]
        sums[kind] = sum(_class_size(q, kind, phi_m) * count
                         for m, phi_m in orders.items()
                         for _, count, _ in _fixed_pieces(q, n, kind, m, rows, (sign,)))
    return sums


def _hyp_parts(q: int, n: int, plus) -> tuple[int, int, int, int]:
    # both twists of a fixed n-set of sign +1 are fixed, neither of sign -1
    order = q**3 - q
    h_a, h_b, h_c = (_exact_div(2 * plus[kind], order) for kind in "ABC")
    return h_a, h_b, h_c, _exact_div(2 * a_p1(n, q), order)


def _sd(q: int, minus) -> int:
    return _exact_div(2 * sum(minus.values()), q**3 - q)


def hyp_components(g: int, q: int) -> tuple[int, int, int, int]:
    """The four conjugacy-kind contributions (h_a, h_b, h_c, h_d) to hyp.

    Each is its kind's share of the Burnside sum of twisted fixed counts
    over |PGL2|: h_d is the identity term 2q^(2g-1); h_a, h_b, h_c gather
    the elements of order dividing q+1, of order p, and of order dividing
    q-1.  All four are integers and sum to hyp(g, q).
    """
    p, _ = _validate(g, q)
    n = 2 * g + 2
    return _hyp_parts(q, n, _burnside(q, p, n, 1))


def hyp(g: int, q: int) -> int:
    """Number of F_q-isomorphism classes of genus-g hyperelliptic curves."""
    return sum(hyp_components(g, q))


def y_nset_classes(g: int, q: int) -> int:
    """Number of (2g+2)-set orbits on the projective line (untwisted count)."""
    return census_report(g, q).y


def sd(g: int, q: int) -> int:
    """Number of self-dual classes: curves isomorphic to their own twist.

    The Burnside sum of 2 plain - twisted fixed counts: twice the n-sets
    an element fixes with twist sign -1, of which the identity and kind B
    have none.
    """
    p, _ = _validate(g, q)
    return _sd(q, _burnside(q, p, 2 * g + 2, -1))


@dataclass(frozen=True)
class CensusReport:
    """One (g, q) census row with the component breakdown."""

    g: int
    q: int
    p: int
    e: int
    hyp: int
    sd: int
    y: int
    h_a: int
    h_b: int
    h_c: int
    h_d: int

    def to_json_dict(self) -> dict:
        # counts as decimal strings: they overflow doubles long before g=30
        return {
            "g": self.g,
            "q": self.q,
            "p": self.p,
            "e": self.e,
            "hyp": str(self.hyp),
            "sd": str(self.sd),
            "y": str(self.y),
            "components": {
                "h_a": str(self.h_a),
                "h_b": str(self.h_b),
                "h_c": str(self.h_c),
                "h_d": str(self.h_d),
            },
        }


def census_report(g: int, q: int) -> CensusReport:
    """hyp, its components, sd and y at (g, q) from one Burnside pass per
    twist sign."""
    p, e = _validate(g, q)
    n = 2 * g + 2
    parts = _hyp_parts(q, n, _burnside(q, p, n, 1))
    h, s = sum(parts), _sd(q, _burnside(q, p, n, -1))
    if (h + s) % 2 != 0:
        raise VerificationError(f"hyp + sd = {h + s} is odd at g={g}, q={q}")
    return CensusReport(g, q, p, e, h, s, (h + s) // 2, *parts)
