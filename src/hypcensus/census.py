"""Exact counts of hyperelliptic curve classes over F_q, q odd.

A genus-g curve is a pair (square class of the quadratic twist, rational
(2g+2)-set of branch points on the projective line) up to the fractional
linear action, so the count is a Burnside sum: over the identity and the
nonidentity subtypes of PGL2(F_q) (`subtypes`), the class size times the
number of pairs one element fixes (`twisted_fixed_count`), divided by
|PGL2| = q^3 - q.  The same sum over the n-sets alone (`plain_fixed_count`)
counts the n-set orbits y, and sd = 2y - hyp.  Everything here is
closed-form integer arithmetic in g and q; no field elements are touched.

hyp and sd each validate q once (`_validate`); the order check of the
public fixed counts factors it again only for kind B, and only when an
element of order p can fix an n-set.  Their Burnside sums skip the
subtypes that fix no n-set and read phi(m) of the others from
`_divisor_phis`, the one routine that lists a number's divisors with their
phi from its prime factors; `symbolic` builds its modulus tables with it.
Nothing here is memoized across calls.

Inside the fixed counts, a0/a1/a2 count n-sets weighted by the sign
character for the three nontrivial element kinds (order m dividing q+1,
order p, order m dividing q-1); a_p1 is the plain number of rational
n-sets.
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
    """Divisors of n >= 1, ascending, paired up to sqrt(n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def phi(n: int) -> int:
    """Euler's totient, as n times the product of (1 - 1/l) over primes l | n."""
    for ell in _prime_factors(n):
        n = n // ell * (ell - 1)
    return n


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


def _adiv(fn, n: int, m: int, q: int) -> int:
    # fn(n / m) with the convention that a non-integral argument counts 0
    return fn(n // m, q) if n % m == 0 else 0


def _check_order(q: int, kind: str, m: int) -> None:
    """Raise ValueError unless a nonidentity element of the given kind can
    have order m over F_q: m > 1 dividing q - 1 (C), q + 1 (A), or m = p (B)."""
    if kind == "C":
        ok = m > 1 and (q - 1) % m == 0
    elif kind == "A":
        ok = m > 1 and (q + 1) % m == 0
    elif kind == "B":
        ok = m == factor_prime_power(q)[0]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if not ok:
        raise ValueError(f"no kind {kind} element of order {m} over F_{q}")


def plain_fixed_count(q: int, n: int, kind: str, m: int) -> int:
    """Rational n-sets fixed by a nonidentity class of the given kind.

    kind "C" has order m dividing q - 1, kind "A" order m dividing q + 1,
    kind "B" order m = p.  Valid for n >= 3; at n = 1, 2 the signed counts
    miss degenerate configurations such as the fixed pair itself.
    """
    if n < 3:
        raise ValueError(f"fixed-count formulas need n >= 3, got {n}")
    _check_order(q, kind, m)
    if kind == "C":
        return (q - 1) * (
            _adiv(a2, n, m, q) + 2 * _adiv(a2, n - 1, m, q) + _adiv(a2, n - 2, m, q)
        )
    if kind == "B":
        return q * (_adiv(a1, n, m, q) + _adiv(a1, n - 1, m, q))
    return (q + 1) * (_adiv(a0, n, m, q) + _adiv(a0, n - 2, m, q))


def twisted_fixed_count(q: int, n: int, kind: str, m: int) -> int:
    """Fixed (twist, n-set) pairs of a nonidentity class; even n >= 4 only."""
    if n < 4 or n % 2 != 0:
        raise ValueError(f"twisted fixed counts need even n >= 4, got {n}")
    _check_order(q, kind, m)
    if kind == "C":
        extra = _adiv(a2, n - 2, m, q) if ((q - 1) // m) % 2 == 0 else 0
        return 2 * (q - 1) * (_adiv(a2, n, m, q) + 2 * _adiv(a2, n - 1, m, q) + extra)
    if kind == "B":
        return 2 * q * (_adiv(a1, n, m, q) + _adiv(a1, n - 1, m, q))
    t1 = a0(n // m, q) if n % m == 0 and (n // m) % 2 == 0 else 0
    t2 = 0
    if (n - 2) % m == 0 and ((n - 2) // m - (q + 1) // m) % 2 == 0:
        t2 = a0((n - 2) // m, q)
    return 2 * (q + 1) * (t1 + t2)


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


def _fixing_orders(t: int, n: int) -> dict[int, int]:
    """The orders m > 1 dividing t with n mod m <= 2, mapped to phi(m).

    They are the divisors of gcd(t, n - j), j = 0, 1, 2, so only those
    gcds (at most n) are factored, not t = q - 1 or q + 1.
    """
    out: dict[int, int] = {}
    for j in range(3):
        d = gcd(t, n - j)
        out.update(_divisor_phis(d, _prime_factors(d)))
    del out[1]
    return out


def _burnside(q: int, p: int, n: int, fixed) -> dict[str, int]:
    """Per kind, the sum over the subtypes of PGL2(F_q), q a power of p, of
    class size times fixed(kind, m).

    An element of order m moves every point but its at most two fixed
    points in m-cycles, so it fixes no n-set unless n mod m <= 2; the
    other subtypes are left out.
    """
    sums = {"A": 0, "B": 0, "C": 0}
    for kind, t in (("C", q - 1), ("A", q + 1)):
        for m, phi_m in _fixing_orders(t, n).items():
            sums[kind] += _class_size(q, kind, phi_m) * fixed(kind, m)
    if n % p <= 2:
        sums["B"] = _class_size(q, "B", p - 1) * fixed("B", p)
    return sums


def hyp_components(g: int, q: int) -> tuple[int, int, int, int]:
    """The four conjugacy-kind contributions (h_a, h_b, h_c, h_d) to hyp.

    Each is its kind's share of the Burnside sum of twisted fixed counts
    over |PGL2|: h_d is the identity term 2q^(2g-1); h_a, h_b, h_c gather
    the elements of order dividing q+1, of order p, and of order dividing
    q-1.  All four are integers and sum to hyp(g, q).
    """
    p, _ = _validate(g, q)
    n, order = 2 * g + 2, q**3 - q
    sums = _burnside(q, p, n, lambda kind, m: twisted_fixed_count(q, n, kind, m))
    h_a, h_b, h_c = (_exact_div(sums[kind], order) for kind in "ABC")
    return h_a, h_b, h_c, _exact_div(2 * a_p1(n, q), order)


def hyp(g: int, q: int) -> int:
    """Number of F_q-isomorphism classes of genus-g hyperelliptic curves."""
    h_a, h_b, h_c, h_d = hyp_components(g, q)
    return h_a + h_b + h_c + h_d


def y_nset_classes(g: int, q: int) -> int:
    """Number of (2g+2)-set orbits on the projective line (untwisted count)."""
    total = hyp(g, q) + sd(g, q)
    if total % 2 != 0:
        raise VerificationError(f"hyp + sd = {total} is odd at g={g}, q={q}")
    return total // 2


def sd(g: int, q: int) -> int:
    """Number of self-dual classes: curves isomorphic to their own twist.

    The Burnside sum of 2 plain - twisted fixed counts, twice the n-sets an
    element fixes with twist sign -1, of which the identity has none.  Kind
    B is skipped: its twisted count is twice its plain one (both twists of
    every fixed n-set are fixed), so it adds 0.
    """
    p, _ = _validate(g, q)
    n = 2 * g + 2
    sums = _burnside(q, p, n, lambda kind, m: 0 if kind == "B" else
                     2 * plain_fixed_count(q, n, kind, m) - twisted_fixed_count(q, n, kind, m))
    return _exact_div(sum(sums.values()), q**3 - q)


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
    p, e = _validate(g, q)
    h_a, h_b, h_c, h_d = hyp_components(g, q)
    h = h_a + h_b + h_c + h_d
    s = sd(g, q)
    if (h + s) % 2 != 0:
        raise VerificationError(f"hyp + sd = {h + s} is odd at g={g}, q={q}")
    return CensusReport(g, q, p, e, h, s, (h + s) // 2, h_a, h_b, h_c, h_d)
