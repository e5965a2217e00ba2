"""Census values as polynomials in q with congruence corrections.

hyp(g, q) and sd(g, q) are polynomial in q once the residue of q modulo
small integers (divisors of 2g+2, 2g+1, 2g and their doubles) and the
characteristic are fixed.  A ConditionalPolynomial captures that: a
generic polynomial valid for every odd prime power q plus correction
terms switched on by guards.

A Guard is a conjunction of an optional congruence condition (q mod M
lies in a residue set) and an optional characteristic condition (p equal
to a prime, or p greater than a bound; the latter only occurs in
transcribed reference rows).  Polynomials are integer coefficient tuples
in ascending degree.

simplify() normalizes raw term lists into the compact reference shape:
it prunes residues no odd prime power can hit, folds families of equal
polynomials whose guards partition all admissible q into the generic
part, reduces moduli, and unions residue sets at the same modulus.
Reducing a guard with u > 0 unit residues mod M only tries the divisors
m' with phi(M) / phi(m') dividing u: every unit mod m' has that many
lifts among the units mod M.  A lone unit thus reduces only to M / 2,
and only when M = 2 (mod 4).

The order of those steps fixes the normal form.  Each pass merges
identical guards, tries one fold, and only then reduces and unions, and
passes repeat while a fold or a reduction or union changes the terms.
Guards that meet only after a reduction must be merged and offered to
the fold again: a single sweep (merge, reduce, fold, union) leaves hyp at
g = 8 with two q = 1 (mod 3) terms.  The loop stops without a confirming
pass: a pass whose reduction and union change nothing leaves the very
terms its fold rejected, with no two guards alike, every guard reduced
(_reduce_modulus returns the smallest qualifying modulus, a fixed point,
and each distinct guard is reduced once) and no union key shared, so
another pass would change nothing.

Memos: every one is a module-level dict named *_CACHE: the raw hyp and
sd forms per genus, both from one expansion (_RAW_CACHE), the simplified
form per (target, genus) (_FORM_CACHE) and, per modulus, its number
theory (_MODULUS_CACHE: prime factors, divisors with phi of each;
_CHAIN_CACHE: the chain residues, computed when first read, since most
lcm moduli of the cover-merge screen never need them; _ACHIEVE_CACHE:
the achievable residues).  Nothing else here keeps computed data, and no
function is wrapped in a functools cache, so clearing the *_CACHE dicts
together gives a cold build; the census benchmark does that before every
query.
"""

from __future__ import annotations

from itertools import combinations, compress, zip_longest
from math import gcd
from operator import add, index
from typing import NamedTuple

from .census import (VerificationError, _divisor_phis, _prime_factors, checked_characteristic,
                     factor_prime_power)

Poly = tuple[int, ...]


def poly_norm(cs) -> Poly:
    if type(cs) is tuple and (not cs or cs[-1]):
        return cs
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(f: Poly, g: Poly) -> Poly:
    return poly_norm([a + b for a, b in zip_longest(f, g, fillvalue=0)])


def poly_scale(k: int, f: Poly) -> Poly:
    if k == 0:
        return ()
    if k == 1:
        return tuple(f)
    return tuple([k * c for c in f])


def poly_eval(f, q: int) -> int:
    """f(q) for a coefficient tuple or list f.  Past 8 coefficients, Horner
    runs in q^4: each step folds four coefficients c0 + c1 q + c2 q^2 +
    c3 q^3 as small ints, so the growing value takes a quarter of the big
    multiplications."""
    n = len(f)
    top = n if n <= 8 else n % 4
    acc = 0
    for c in reversed(f[n - top:]):
        acc = acc * q + c
    if top < n:
        q2 = q * q
        q3, q4 = q2 * q, q2 * q2
        for i in range(n - top - 4, -1, -4):
            acc = acc * q4 + (f[i] + f[i + 1] * q + f[i + 2] * q2 + f[i + 3] * q3)
    return acc


def poly_str(f: Poly, var: str = "q") -> str:
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" + (f"^{i}" if i > 1 else "")
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


class Guard(NamedTuple):
    """Conjunction of a congruence condition on q and a characteristic
    condition on p.  mod=1 means no congruence condition.  A named tuple,
    so hashing and equality run in C: simplify keys dicts on guards."""

    mod: int = 1
    residues: frozenset[int] = frozenset({0})
    char_eq: int | None = None
    char_gt: int | None = None

    def holds(self, q: int) -> bool:
        """Whether the guard holds at the odd prime power q.  q alone
        decides the characteristic: p = char_eq when char_eq divides q, and
        p > char_gt when no prime up to char_gt does."""
        if q % self.mod not in self.residues:
            return False
        if self.char_eq is not None and q % self.char_eq:
            return False
        if self.char_gt is not None and not all(q % d for d in range(2, self.char_gt + 1)):
            return False
        return True

    def is_always_true(self) -> bool:
        return self.mod == 1 and self.char_eq is None and self.char_gt is None


def guard_str(g: Guard) -> str:
    parts = []
    if g.mod > 1:
        rs = ",".join(str(r) for r in sorted(g.residues))
        parts.append(f"q = {rs} (mod {g.mod})")
    if g.char_eq is not None:
        parts.append(f"p = {g.char_eq}")
    if g.char_gt is not None:
        parts.append(f"p > {g.char_gt}")
    return "; ".join(parts) if parts else "always"


class ConditionalPolynomial(NamedTuple):
    """A generic polynomial plus guarded correction terms; a named tuple."""

    generic: Poly = ()
    terms: tuple[tuple[Guard, Poly], ...] = ()

    def evaluate(self, q: int, p: int | None = None) -> int:
        """The value at q, checked to be an odd prime power, or a power of
        p when p is given.  q and p must be integers (numpy ones too): a
        float raises TypeError, and a p that is not odd or of which q is not
        a power ValueError.  The active terms are added into the generic
        coefficients, and the sum is evaluated once."""
        q = index(q)
        if p is None:
            factor_prime_power(q)
        else:
            checked_characteristic(q, p)
        acc = list(self.generic)
        for g, f in self.terms:
            if g.holds(q):
                _add_into(acc, f)
        return poly_eval(acc, q)


# ---------------------------------------------------------------------------
# per-modulus number theory: which residues mod M odd prime powers hit


class _Modulus(NamedTuple):
    """One modulus M as simplify reads it: its prime factors, its divisors
    (ascending) with phi of each, and the chain residues (powers of its
    odd prime factors: the achievable residues that are not units)."""

    mod: int
    primes: list[int]
    phi_of: dict[int, int]

    @property
    def chain(self) -> frozenset[int]:
        """The chain residues, computed when first read (_CHAIN_CACHE)."""
        hit = _CHAIN_CACHE.get(self.mod)
        if hit is None:
            hit = _CHAIN_CACHE[self.mod] = frozenset().union(
                *(_powers(ell, self.mod) for ell in self.primes if ell != 2))
        return hit


_MODULUS_CACHE: dict[int, _Modulus] = {}
# the chain residues and the achievable residues, both built on demand: the
# lcm moduli of _try_cover_merge run to 10^5, and its unit screen reads
# only phi of most of them
_CHAIN_CACHE: dict[int, frozenset[int]] = {}
_ACHIEVE_CACHE: dict[int, frozenset[int]] = {}


def _powers(ell: int, mod: int) -> set[int]:
    """The residues ell^k mod `mod`, k >= 1 (they end in a cycle)."""
    x = ell % mod
    seen = set()
    while x not in seen:
        seen.add(x)
        x = x * ell % mod
    return seen


def _modulus(mod: int) -> _Modulus:
    """The _Modulus of mod, computed once and kept in _MODULUS_CACHE."""
    hit = _MODULUS_CACHE.get(mod)
    if hit is None:
        primes = _prime_factors(mod)
        hit = _MODULUS_CACHE[mod] = _Modulus(mod, primes, _divisor_phis(mod, primes))
    return hit


def achievable_residues(mod: int) -> frozenset[int]:
    """Residues mod `mod` attained by some odd prime power q >= 3.

    Coprime residues are attained by primes in the arithmetic progression;
    a residue sharing a factor with mod is attained only along powers of a
    single odd prime dividing mod.
    """
    hit = _ACHIEVE_CACHE.get(mod)
    if hit is None:
        info = _modulus(mod)
        unit = bytearray([1]) * mod
        for ell in info.primes:
            unit[::ell] = bytes(len(range(0, mod, ell)))
        hit = _ACHIEVE_CACHE[mod] = frozenset(compress(range(mod), unit)) | info.chain
    return hit


def _achievable_in(mod: int, residues: frozenset[int]) -> frozenset[int]:
    return residues & achievable_residues(mod)


def _unit_lifts(info: _Modulus, mprime: int, residues) -> int:
    """How many units mod M = info.mod reduce mod mprime (a divisor of M)
    into `residues`.

    Reduction maps the units mod M onto the units mod mprime, each with
    phi(M) / phi(mprime) preimages.
    """
    per_unit = info.phi_of[info.mod] // info.phi_of[mprime]
    return per_unit * sum(1 for s in residues if gcd(s, mprime) == 1)


def _chain_lifts(info: _Modulus, mprime: int, residues) -> int:
    """How many chain residues mod M reduce mod mprime into `residues`."""
    return sum(1 for c in info.chain if c % mprime in residues)


def _lift_size(info: _Modulus, mprime: int, residues) -> int:
    """How many achievable residues mod M reduce mod mprime into `residues`."""
    return _unit_lifts(info, mprime, residues) + _chain_lifts(info, mprime, residues)


# ---------------------------------------------------------------------------
# raw building blocks as polynomials in q


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def a0_poly(n: int) -> Poly:
    """(q^(n+1) - q^n - s1 q + s2) / (q^2 + 1)."""
    return _a0_scaled(n, 1)


def _a0_scaled(n: int, c: int) -> Poly:
    """c * a0_poly(n), c != 0.  Divided top down, the quotient coefficient
    of q^k is c * num[k + 2] minus that of q^(k + 2), so from q^(n-1) down
    it runs c, -c, -c, c over and over, and the division is exact when the
    two lowest coefficients of c * num match it."""
    _check_degree(n)
    s1 = -1 if ((n + 1) // 2) % 2 else 1
    s2 = -1 if (n // 2) % 2 else 1
    num = [0] * (n + 2)
    num[n + 1] += 1
    num[n] -= 1
    num[1] -= s1
    num[0] += s2
    quot = ((c, -c, -c, c) * (n // 4 + 1))[n - 1::-1]
    if (*quot[:2], 0)[:2] != (c * num[0], c * num[1]):
        raise VerificationError(f"a0_poly({n}): q^2 + 1 does not divide {poly_norm(num)}")
    return quot


def a1_poly(n: int) -> Poly:
    _check_degree(n)
    if n == 1:
        return (1,)
    out = [0] * n
    out[n - 1] = 1
    out[n - 2] = -1
    return tuple(out)


def a2_poly(n: int) -> Poly:
    """(q^n + s) / (q + 1) = q^(n-1) - q^(n-2) + ... + (-1)^(n-1)."""
    return _a2_scaled(n, 1)


def _a2_scaled(n: int, c: int) -> Poly:
    """c * a2_poly(n): c, -c, c, ... from q^(n-1) down."""
    _check_degree(n)
    return ((-c, c) * n)[n % 2 : n % 2 + n]


# ---------------------------------------------------------------------------
# raw census rows


_RAW_CACHE: dict[int, tuple[ConditionalPolynomial, ConditionalPolynomial]] = {}


def _raw_forms(g: int) -> tuple[ConditionalPolynomial, ConditionalPolynomial]:
    """The raw (unsimplified) forms of hyp and of sd, from one pass over
    the kinds and orders m > 1 dividing n = 2g+2, 2g+1 or 2g, k = n / m.

    Each term goes to the target whose parity t it meets, t = 0 for hyp
    and 1 for sd, and each target keeps its terms in pass order.  For 2g+2
    the A term has t = k mod 2, and the C and B terms are hyp's; for 2g+1
    every term is hyp's; for 2g the A term needs (q+1)/m = k + t and the C
    term (q-1)/m = t mod 2, with the same two polynomials for either t.
    """
    hit = _RAW_CACHE.get(g)
    if hit is not None:
        return hit
    hyp: list[tuple[Guard, Poly]] = []
    sd: list[tuple[Guard, Poly]] = []
    for n in (2 * g + 2, 2 * g + 1, 2 * g):
        info = _modulus(n)
        for m, c in list(info.phi_of.items())[1:]:
            k = n // m
            if n == 2 * g:
                a0, a2 = _a0_scaled(k, c), _a2_scaled(k, c)
                for t, terms in enumerate((hyp, sd)):
                    # q = (k + t) m - 1 and q = t m + 1 mod 2m, where odd
                    for r, poly in ((((k + t) * m - 1) % (2 * m), a0),
                                    ((t * m + 1) % (2 * m), a2)):
                        if r % 2:
                            terms.append((Guard(2 * m, frozenset((r,))), poly))
                continue
            if n % 2 == 0:
                (sd if k % 2 else hyp).append((Guard(m, frozenset((m - 1,))), _a0_scaled(k, c)))
            scale = c if n % 2 == 0 else 2 * c
            hyp.append((Guard(m, frozenset((1,))), _a2_scaled(k, scale)))
            if m % 2 and m in info.primes:
                hyp.append((Guard(char_eq=m), poly_scale(2, a1_poly(k))))
    hit = _RAW_CACHE[g] = (ConditionalPolynomial((0,) * (2 * g - 1) + (2,), tuple(hyp)),
                           ConditionalPolynomial((), tuple(sd)))
    return hit


# ---------------------------------------------------------------------------
# simplification


def _normalize_guard(g: Guard) -> Guard | None:
    """Prune unreachable residues; None for a guard no odd prime power
    meets; detach congruences that hold for every admissible q."""
    if g.mod > 1:
        res = _achievable_in(g.mod, g.residues)
        if not res:
            return None
        if res == achievable_residues(g.mod):
            return Guard(1, frozenset({0}), g.char_eq, g.char_gt)
        return Guard(g.mod, res, g.char_eq, g.char_gt)
    return g


def _char_coverage(mod: int, ell: int) -> frozenset[int] | None:
    """Residues mod `mod` reachable by powers of ell, provided q = r (mod
    mod) with r in that set forces p = ell; None when that inference fails."""
    if mod % ell != 0:
        return None
    seen = _powers(ell, mod)
    for r in seen:
        d = gcd(r, mod)
        if d == 1:
            return None  # a coprime residue cannot pin the characteristic
        m = d
        while m % ell == 0:
            m //= ell
        if m != 1:
            return None
    return frozenset(seen)


def _try_cover_merge(terms):
    """Find a subset of same-polynomial terms whose guards partition all
    admissible q; fold it into the generic part.  Returns (new_terms,
    merged_poly) or None.

    A partition of the achievable residues mod the lcm covers each unit
    once and has coverage sizes summing to their number, so subsets are
    first screened by counting (_unit_lifts, then _lift_size, no residue
    scan); those passing get the exact test."""
    by_poly: dict[Poly, list[int]] = {}
    for i, (g, f) in enumerate(terms):
        if g.char_gt is None:
            by_poly.setdefault(f, []).append(i)
    for f, idxs in by_poly.items():
        if len(idxs) < 2:
            continue
        for size in range(len(idxs), 1, -1):
            for subset in combinations(idxs, size):
                mods = [terms[i][0].mod for i in subset]
                lcm = 1
                for m in mods:
                    lcm = lcm * m // gcd(lcm, m)
                for i in subset:
                    ell = terms[i][0].char_eq
                    if ell is not None:
                        lcm = lcm * ell // gcd(lcm, ell)
                info = _modulus(lcm)
                # the congruence guards must cover each unit mod lcm once
                # (a characteristic guard covers none)
                units = sum(_unit_lifts(info, terms[i][0].mod, terms[i][0].residues)
                            for i in subset if terms[i][0].char_eq is None)
                if units != info.phi_of[lcm]:
                    continue
                cover = []
                total = 0
                for i in subset:
                    gd = terms[i][0]
                    if gd.char_eq is not None:
                        if gd.mod != 1:
                            break
                        cov = _char_coverage(lcm, gd.char_eq)
                        if cov is None:
                            break
                        total += len(cov)
                    else:
                        cov = None
                        total += _lift_size(info, gd.mod, gd.residues)
                    cover.append((gd, cov))
                else:
                    # every achievable residue reduces to 0 mod 1
                    if total == _lift_size(info, 1, {0}) and _partitions(cover, lcm):
                        rest = [t for i, t in enumerate(terms) if i not in subset]
                        return rest, f
    return None


def _partitions(cover, lcm: int) -> bool:
    """Whether the guards' coverages mod lcm are disjoint and together hit
    every achievable residue; cover holds (guard, characteristic coverage
    or None for a congruence guard)."""
    union: set[int] = set()
    for gd, cov in cover:
        if cov is None:
            cov = frozenset(
                r for r in achievable_residues(lcm) if r % gd.mod in gd.residues
            )
        if union & cov:
            return False
        union |= cov
    return union == set(achievable_residues(lcm))


def _reduce_modulus(g: Guard) -> Guard:
    """Smallest modulus presenting the same set of admissible q.

    R mod m' lifts back to every achievable residue mod M that reduces into
    it.  That lift contains the residues R of an achievable guard, so it
    equals R exactly when it has as many units and as many chain residues
    as R (counted by _unit_lifts and _chain_lifts).

    Each unit mod m' has phi(M) / phi(m') unit lifts, so when R holds
    u > 0 units, only an m' where that ratio divides u can qualify; the
    others are skipped before their residues are mapped.  For a single
    unit r that leaves only m' = M/2 with M = 2 (mod 4), and there r mod
    m' lifts to no chain residue (a power of a prime dividing m'), so the
    guard reduces without looking at M's divisors.
    """
    if g.mod == 1:
        return g
    if len(g.residues) == 1:
        (r,) = g.residues
        if r < g.mod and gcd(r, g.mod) == 1:
            if g.mod % 4 != 2:
                return g
            half = g.mod // 2
            return Guard(half, frozenset({r % half}), g.char_eq, g.char_gt)
    info = _modulus(g.mod)
    chain = len(g.residues & info.chain)
    units = sum(1 for r in g.residues if r < g.mod and gcd(r, g.mod) == 1)
    if chain + units < len(g.residues):
        return g  # a residue no odd prime power reaches
    phi_mod = info.phi_of[g.mod]
    for mprime, phi_mprime in info.phi_of.items():
        if mprime == g.mod:
            break
        if units % (phi_mod // phi_mprime):
            continue
        mapped = frozenset(r % mprime for r in g.residues)
        if (
            _unit_lifts(info, mprime, mapped) == units
            and _chain_lifts(info, mprime, mapped) == chain
        ):
            return Guard(mprime, mapped, g.char_eq, g.char_gt)
    return g


def _add_into(acc: list[int], f: Poly) -> None:
    """acc += f in place, acc a coefficient list: a long generic part is
    not copied for every short term folded into it."""
    if len(f) > len(acc):
        acc.extend([0] * (len(f) - len(acc)))
    acc[: len(f)] = map(add, acc, f)


def simplify(cp: ConditionalPolynomial) -> ConditionalPolynomial:
    generic = list(cp.generic)
    terms: list[tuple[Guard, Poly]] = []
    for g, f in cp.terms:
        f = poly_norm(f)
        if not f:
            continue
        if g.mod > 2 and len(g.residues) == 1:
            # a lone unit mod M > 2 is achievable, and is not all of the
            # achievable set, which holds phi(M) > 1 units
            (r,) = g.residues
            if r < g.mod and gcd(r, g.mod) == 1:
                terms.append((g, f))
                continue
        g = _normalize_guard(g)
        if g is None:
            continue
        if g.is_always_true():
            _add_into(generic, f)
        else:
            terms.append((g, f))

    # each distinct guard reduced once: _reduce_modulus returns the smallest
    # qualifying divisor, so its result is its own fixed point
    reduced_of: dict[Guard, Guard] = {}
    while True:
        # identical guards merge by adding polynomials
        merged: dict[Guard, Poly] = {}
        for g, f in terms:
            prev = merged.get(g)
            merged[g] = f if prev is None else poly_add(prev, f)
        if len(merged) < len(terms):
            terms = [(g, f) for g, f in merged.items() if f]
        # guard partitions folding into the generic part
        hit = _try_cover_merge(terms)
        if hit is not None:
            terms, f = hit
            _add_into(generic, f)
            continue
        # modulus reduction
        changed = False
        reduced = []
        for g, f in terms:
            g2 = reduced_of.get(g)
            if g2 is None:
                g2 = reduced_of[g] = _reduce_modulus(g)
                reduced_of[g2] = g2
            if g2 != g:
                changed = True
                if g2.is_always_true():
                    _add_into(generic, f)
                    continue
            reduced.append((g2, f))
        # same modulus, same characteristic condition, same polynomial:
        # union disjoint residue sets; overlapping ones stay apart
        bykey: dict = {}
        apart = []
        for g, f in reduced:
            k = (g.mod, g.char_eq, g.char_gt, f)
            prev = bykey.get(k)
            if prev is None:
                bykey[k] = g
            elif prev.residues.isdisjoint(g.residues):
                bykey[k] = Guard(g.mod, prev.residues | g.residues, g.char_eq, g.char_gt)
                changed = True
            else:
                apart.append((g, f))
        if not changed:
            # the terms are the ones the cover-merge just rejected, free of
            # duplicate guards, reduced and with nothing left to union:
            # another pass would change nothing
            break
        terms = [(g, k[3]) for k, g in bykey.items()]
        terms += apart

    terms.sort(key=lambda t: (t[0].mod, sorted(t[0].residues), t[0].char_eq or 0,
                              t[0].char_gt or 0, t[1]))
    return ConditionalPolynomial(poly_norm(generic), tuple(terms))


_FORM_CACHE: dict[tuple[int, int], ConditionalPolynomial] = {}


def _form(t: int, g: int) -> ConditionalPolynomial:
    """The simplified form of hyp (t = 0) or sd (t = 1) at genus g."""
    g = index(g)
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    hit = _FORM_CACHE.get((t, g))
    if hit is None:
        hit = _FORM_CACHE[t, g] = simplify(_raw_forms(g)[t])
    return hit


def symbolic_hyp(g: int) -> ConditionalPolynomial:
    """hyp(g, -) as a simplified conditional polynomial in q."""
    return _form(0, g)


def symbolic_sd(g: int) -> ConditionalPolynomial:
    """sd(g, -) as a simplified conditional polynomial in q."""
    return _form(1, g)


# ---------------------------------------------------------------------------
# class restriction


def restrict_to_class(
    cp: ConditionalPolynomial, r: int, mod: int, assume_large_char: bool = False
) -> Poly:
    """Plain polynomial giving the value for q = r (mod mod).

    mod must be a multiple of every congruence modulus in cp so the class
    decides each congruence guard.  Characteristic guards are only decided
    under assume_large_char, which reads them for q in the class with p
    larger than every referenced bound: char_eq terms drop, char_gt terms
    apply.
    """
    out = cp.generic
    for g, f in cp.terms:
        if mod % g.mod != 0:
            raise ValueError(
                f"class modulus {mod} does not decide a guard with modulus {g.mod}"
            )
        if r % g.mod not in g.residues:
            continue
        if g.char_eq is not None:
            if not assume_large_char:
                raise ValueError("characteristic guard needs assume_large_char")
            continue
        if g.char_gt is not None and not assume_large_char:
            raise ValueError("characteristic guard needs assume_large_char")
        out = poly_add(out, f)
    return out


# ---------------------------------------------------------------------------
# rendering and JSON


def render(cp: ConditionalPolynomial) -> str:
    pieces = [poly_str(cp.generic)]
    for g, f in cp.terms:
        pieces.append(f"[{poly_str(f)}]_{{{guard_str(g)}}}")
    return "  +  ".join(pieces)


def cp_to_json_dict(cp: ConditionalPolynomial) -> dict:
    return {
        "generic": list(cp.generic),
        "terms": [
            {
                "mod": g.mod,
                "residues": sorted(g.residues),
                "char_eq": g.char_eq,
                "char_gt": g.char_gt,
                "poly": list(f),
            }
            for g, f in cp.terms
        ],
    }


def cp_from_json_dict(d: dict) -> ConditionalPolynomial:
    terms = []
    for t in d.get("terms", []):
        terms.append(
            (
                Guard(
                    t.get("mod", 1),
                    frozenset(t.get("residues", [0])),
                    t.get("char_eq"),
                    t.get("char_gt"),
                ),
                poly_norm(t.get("poly", [])),
            )
        )
    return ConditionalPolynomial(poly_norm(d.get("generic", [])), tuple(terms))
