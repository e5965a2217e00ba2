"""Reference helpers that only the tests use.

Plain, slow and obviously right versions of what the package does in bulk,
or small tools the checks need: the rational n-sets in the engine's row
order, n-sets from their points and back, exact integer polynomial
arithmetic, the per-set check that the sign is a homomorphism on a
stabilizer, the randrange draws of the cocycle suite's random triples, the
orbit census over every n-set row, the moduli and degrees of a conditional
polynomial, and the recorded misprint of the bundled genus-9 table row.
"""

from math import gcd

import numpy as np

from hypcensus import field as ff
from hypcensus.census import VerificationError, factor_prime_power
from hypcensus.moebius import IDENTITY, INF, GlMatrix, enumerate_pgl, fin, mat_det, pgl_table
from hypcensus.nset import RationalNSet
from hypcensus.symbolic import poly_add, poly_eval, poly_norm
from hypcensus.tables import HYP_ROW_KNOWN_DELTA

# ---------------------------------------------------------------------------
# rational n-sets


def enumerate_nsets(ctx, n: int):
    """All rational n-sets, deterministic order.

    First the sets avoiding infinity (monic squarefree f of degree n),
    then the sets containing it (degree n - 1), each block ordered by the
    integer whose base-q digits are the non-leading coefficients (constant
    coefficient least significant).  Total count is a_p1(n, q).  It is
    the reference the engine's row order (oracle.ActionState) is held
    against.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q = ctx.q
    for has_inf in (False, True):
        deg = n - (1 if has_inf else 0)
        if deg == 0:
            yield RationalNSet((1,), True)
            continue
        for code in range(q**deg):
            coeffs = []
            c = code
            for _ in range(deg):
                c, r = divmod(c, q)
                coeffs.append(r)
            f = tuple(coeffs) + (1,)
            if ff.is_squarefree_poly(ctx, f):
                yield RationalNSet(f, has_inf)


def points_to_nset(ctx, pts) -> RationalNSet:
    """n-set through the given rational points (distinct, base field)."""
    f = (1,)
    has_inf = False
    seen = set()
    for t in pts:
        if t in seen:
            raise ValueError(f"repeated point {t}")
        seen.add(t)
        if t.finite:
            f = ff.pmul(ctx, f, (ff.neg(ctx, t.x), 1))
        else:
            has_inf = True
    return RationalNSet(f, has_inf)


def rational_points(s: RationalNSet, ctx) -> list:
    pts = [fin(x) for x in range(ctx.q) if ff.peval(ctx, s.f, x) == 0]
    if s.has_inf:
        pts.append(INF)
    return pts


def nset_str(s: RationalNSet) -> str:
    """Canonical textual form: comma-joined coefficient codes, low degree
    first and the monic 1 included, with ';inf' appended when present."""
    body = ",".join(str(c) for c in s.f)
    return body + (";inf" if s.has_inf else "")


def sign_homomorphism(ctx, members, signs, *where) -> int:
    """sign(g h) == sign(g) sign(h) for every ordered pair of members of one
    stabilizer, pair by pair: members are enumerate_pgl positions with their
    signs alongside, the identity reads +1 unless it is a member, and every
    other non-member 0.  The per-set check the oracle's batched
    _sign_homomorphisms is held against: it raises VerificationError with
    the oracle's message, naming the first failing pair, and returns the
    number of pairs."""
    table, pgl = pgl_table(ctx), enumerate_pgl(ctx)
    members = [int(m) for m in members]
    sign = {table.index[IDENTITY]: 1, **dict(zip(members, signs))}
    for g, sg in zip(members, signs):
        for h, sh in zip(members, signs):
            if sign.get(int(table.prod[g, h]), 0) != sg * sh:
                pair = (pgl[g].mat, pgl[h].mat)
                raise VerificationError(f"cocycle: homomorphism: {(*where, pair)}")
    return len(members) ** 2


def random_gl(rng, ctx) -> GlMatrix:
    """A matrix of nonzero determinant, four rng.randrange(q) entries a
    draw: the draws the oracle's cocycle triples are held against."""
    while True:
        m = GlMatrix(*(rng.randrange(ctx.q) for _ in range(4)))
        if mat_det(ctx, m) != 0:
            return m


def random_nset(rng, ctx, n: int) -> RationalNSet:
    """An n-set through infinity when rng.random() < 0.5, its lower
    coefficients rng.randrange(q) draws, drawn again until squarefree."""
    while True:
        has_inf = rng.random() < 0.5
        f = tuple(rng.randrange(ctx.q) for _ in range(n - has_inf)) + (1,)
        if ff.is_squarefree_poly(ctx, f):
            return RationalNSet(f, has_inf)


def full_row_labels(ctx, n: int):
    """The parity labelling of every n-set row under the three generators:
    the rows avoiding infinity first, at most n0, then those through it.
    Returns n0 and _parity_labels' (L, key0, key1)."""
    from hypcensus import oracle as oc

    st = oc.ActionState(ctx, n)
    return st.n0, oc._parity_labels([st.dest_flip(mat) for mat in oc._generators(ctx)])


def orbit_census_full(g: int, q: int):
    """The orbit census over every row at once, as it was before it split
    the rows into the pointless sets and the sets through infinity: the
    n-set classes are the self-labelled rows, sd the merged ones and hyp the
    distinct twisted orbit keys."""
    from hypcensus import oracle as oc

    _, (lab, key0, key1) = full_row_labels(ff.make_field(*factor_prime_power(q)), 2 * g + 2)
    count = len(lab)
    roots = np.flatnonzero(lab == np.arange(count))
    sd = int(np.count_nonzero(key0[roots] == key1[roots]))
    seen = np.zeros(2 * count, bool)
    seen[key0] = seen[key1] = True
    return oc.OracleResult(g=g, q=q, n_sets=count, nset_classes=len(roots),
                           hyp=int(np.count_nonzero(seen)), sd=sd)


# ---------------------------------------------------------------------------
# integer polynomials (ascending coefficient tuples) and conditional forms


def poly_degree(f) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(f) - 1


def poly_neg(f):
    return tuple(-c for c in f)


def poly_sub(f, g):
    return poly_add(f, poly_neg(g))


def poly_mul(f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_norm(out)


def poly_divexact(num, den):
    """Exact polynomial division over the integers by a monic (or -monic)
    divisor; raises VerificationError on a nonzero remainder."""
    num_l = list(num)
    den = poly_norm(den)
    if not den or den[-1] not in (1, -1):
        raise ValueError(f"divisor {den} must have leading coefficient +-1")
    out = [0] * max(0, len(num_l) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num_l[i + len(den) - 1] // den[-1]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num_l[i + j] -= c * d
    if any(num_l):
        raise VerificationError(
            f"division of {num} by {den} leaves remainder {poly_norm(num_l)}"
        )
    return poly_norm(out)


def congruence_lcm(cp, base: int = 1) -> int:
    """lcm of base and every congruence modulus appearing in cp."""
    out = base
    for g, _ in cp.terms:
        out = out * g.mod // gcd(out, g.mod)
    return out


def max_char_term_degree(cp) -> int:
    """Largest degree among terms guarded by a characteristic condition."""
    degs = [poly_degree(f) for g, f in cp.terms if g.char_eq is not None]
    return max(degs, default=-1)


def known_delta_value(g: int, q: int) -> int:
    """Expected row-minus-formula difference at q for the recorded misprints
    (tables.HYP_ROW_KNOWN_DELTA)."""
    hit = HYP_ROW_KNOWN_DELTA.get(g)
    if hit is None:
        return 0
    guard, poly = hit
    p, _ = factor_prime_power(q)
    return poly_eval(poly, q) if guard.holds(q, p) else 0
