"""Factorization over Z and exact Galois groups for degree <= 5.

factor_over_Z is classical Zassenhaus: factor mod a good prime, Hensel-lift
past the Mignotte bound, recombine subsets.  Group identification uses the
square-discriminant test (cubics), the cubic resolvent of the depressed
quartic, and for quintics the degree-6 resolvent of the F_20-invariant
theta = sum x_i^2 (x_{i+1} x_{i-1} + x_{i+2} x_{i-2}) (indices mod 5),
whose rational-root test decides solvability.  The resolvent sextic is
assembled from high-precision roots and verified to round to integers,
which doubles as a self-check of the invariant data.

C_5 is separated from D_5 by counting degree-5 factors of the Trager norm
Res_x(f(x), f(y - sx)): the norm splits into five quintics exactly when f
splits into linear factors over its own root field.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DegreeOutOfRange,
    InternalError,
    RamifiedOnly,
    Reducible,
    UsageError,
)
from . import permgroup as pg
from .polyarith import (
    MonicIntPoly,
    PolyModP,
    _deriv,
    _squarefree_decomposition_Q,
    _trim,
    disc,
    factor_mod_p,
    interpolate,
    is_prime,
    pderiv,
    pdivmod,
    pgcd,
    pmul,
    ptrim,
    resultant,
    splitting_type,
)

GROUPS = {
    # name: (order, transitivity class label)
    "C2": (2, "2T1"),
    "C3": (3, "3T1"),
    "S3": (6, "3T2"),
    "C4": (4, "4T1"),
    "V4": (4, "4T2"),
    "D4": (8, "4T3"),
    "A4": (12, "4T4"),
    "S4": (24, "4T5"),
    "C5": (5, "5T1"),
    "D5": (10, "5T2"),
    "F20": (20, "5T3"),
    "A5": (60, "5T4"),
    "S5": (120, "5T5"),
}


@dataclass(frozen=True)
class GaloisVerdict:
    status: str  # reducible | exactGroup | certifiedSn | certifiedSubsetAn | unresolved
    group: str | None = None
    factor_degrees: tuple[int, ...] = ()
    evidence: tuple[tuple[int, tuple[int, ...]], ...] = ()

    @property
    def order(self) -> int | None:
        return GROUPS[self.group][0] if self.group else None

    @property
    def transitivity_class(self) -> str | None:
        return GROUPS[self.group][1] if self.group else None

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.group:
            out["group"] = self.group
            out["order"] = self.order
            out["transitivityClass"] = self.transitivity_class
        if self.factor_degrees:
            out["factorDegrees"] = list(self.factor_degrees)
        if self.evidence:
            out["evidence"] = [[p, list(t)] for p, t in self.evidence]
        return out


def transitive_group(name: str) -> pg.PermGroup:
    """The named transitive group of degree <= 5 as an explicit PermGroup."""
    P = pg.Permutation.from_cycles
    builders = {
        "C2": lambda: pg.PermGroup(2, [P(2, [(1, 2)])], name="C2"),
        "C3": lambda: pg.PermGroup(3, [P(3, [(1, 2, 3)])], name="C3"),
        "S3": lambda: pg.PermGroup(3, [P(3, [(1, 2, 3)]), P(3, [(1, 2)])], name="S3"),
        "C4": lambda: pg.PermGroup(4, [P(4, [(1, 2, 3, 4)])], name="C4"),
        "V4": lambda: pg.PermGroup(
            4, [P(4, [(1, 2), (3, 4)]), P(4, [(1, 3), (2, 4)])], name="V4"
        ),
        "D4": lambda: pg.PermGroup(
            4, [P(4, [(1, 2, 3, 4)]), P(4, [(1, 3)])], name="D4"
        ),
        "A4": lambda: pg.PermGroup(
            4, [P(4, [(1, 2, 3)]), P(4, [(1, 2), (3, 4)])], name="A4"
        ),
        "S4": lambda: pg.PermGroup(4, [P(4, [(1, 2, 3, 4)]), P(4, [(1, 2)])], name="S4"),
        "C5": lambda: pg.PermGroup(5, [P(5, [(1, 2, 3, 4, 5)])], name="C5"),
        "D5": lambda: pg.PermGroup(
            5, [P(5, [(1, 2, 3, 4, 5)]), P(5, [(2, 5), (3, 4)])], name="D5"
        ),
        "F20": lambda: pg.PermGroup(
            5, [P(5, [(1, 2, 3, 4, 5)]), P(5, [(2, 3, 5, 4)])], name="F20"
        ),
        "A5": lambda: pg.PermGroup(
            5, [P(5, [(1, 2, 3)]), P(5, [(1, 2, 3, 4, 5)])], name="A5"
        ),
        "S5": lambda: pg.PermGroup(5, [P(5, [(1, 2, 3, 4, 5)]), P(5, [(1, 2)])], name="S5"),
    }
    if name not in builders:
        raise UsageError(f"unknown group {name}")
    return builders[name]()


# ---------------------------------------------------------------------------
# Hensel lifting and Zassenhaus factorization


def _pxgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s*a + t*b = 1 mod p, for coprime a, b."""
    r0, r1 = ptrim(a[:]), ptrim(b[:])
    s0, s1 = [1], [0]
    t0, t1 = [0], [1]
    while r1 != [0]:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, ptrim([(x - y) % p for x, y in itertools.zip_longest(s0, pmul(q, s1, p), fillvalue=0)])
        t0, t1 = t1, ptrim([(x - y) % p for x, y in itertools.zip_longest(t0, pmul(q, t1, p), fillvalue=0)])
    if len(r0) != 1:
        raise InternalError("xgcd of non-coprime polynomials")
    inv = pow(r0[0], p - 2, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from f=gh, sg+th=1 (mod m) to the same mod m^2."""
    m2 = m * m
    e = ptrim([(x - y) % m2 for x, y in itertools.zip_longest(f, pmul(g, h, m2), fillvalue=0)])
    q, r = pdivmod(pmul(s, e, m2), h, m2)
    g1 = ptrim(
        [
            (x + y + z) % m2
            for x, y, z in itertools.zip_longest(g, pmul(t, e, m2), pmul(q, g, m2), fillvalue=0)
        ]
    )
    h1 = ptrim([(x + y) % m2 for x, y in itertools.zip_longest(h, r, fillvalue=0)])
    b = ptrim(
        [
            (x + y - (1 if i == 0 else 0)) % m2
            for i, (x, y) in enumerate(
                itertools.zip_longest(pmul(s, g1, m2), pmul(t, h1, m2), fillvalue=0)
            )
        ]
    )
    c, d = pdivmod(pmul(s, b, m2), h1, m2)
    s1 = ptrim([(x - y) % m2 for x, y in itertools.zip_longest(s, d, fillvalue=0)])
    t1 = ptrim(
        [
            (x - y - z) % m2
            for x, y, z in itertools.zip_longest(t, pmul(t, b, m2), pmul(c, g1, m2), fillvalue=0)
        ]
    )
    return g1, h1, s1, t1


def _hensel_lift_list(f: list[int], factors: list[list[int]], p: int, target: int) -> list[list[int]]:
    """Lift monic f = prod(factors) from mod p to mod target = p^a."""
    if len(factors) == 1:
        return [[c % target for c in f]]
    half = len(factors) // 2
    g = [1]
    for fac in factors[:half]:
        g = pmul(g, fac, p)
    h = [1]
    for fac in factors[half:]:
        h = pmul(h, fac, p)
    s, t = _pxgcd(g, h, p)
    m = p
    while m < target:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m = m * m
    g = [c % target for c in g]
    h = [c % target for c in h]
    return _hensel_lift_list(g, factors[:half], p, target) + _hensel_lift_list(
        h, factors[half:], p, target
    )


def _divides(f_desc: list[int], g_desc: list[int]) -> list[int] | None:
    """Exact quotient f/g over Z if it divides (both monic, descending), else None."""
    f = f_desc[:]
    dg, df = len(g_desc) - 1, len(f_desc) - 1
    if dg > df:
        return None
    q = [0] * (df - dg + 1)
    for i in range(df - dg + 1):
        c = f[i]
        q[i] = c
        if c:
            for j in range(dg + 1):
                f[i + j] -= c * g_desc[j]
    if any(f[df - dg + 1 :]):
        return None
    return q


def _zassenhaus(f: MonicIntPoly) -> list[MonicIntPoly]:
    """Factor a squarefree monic integer polynomial into monic irreducibles."""
    n = f.degree
    if n == 1:
        return [f]
    fasc = list(reversed(f.full()))
    # pick a prime keeping f squarefree mod p
    p = 2
    while True:
        while not is_prime(p):
            p += 1
        fp = ptrim([c % p for c in fasc])
        if len(fp) - 1 == n:
            dp = pderiv(fp, p)
            if dp != [0] and len(pgcd(fp, dp, p)) == 1:
                break
        p += 1
    modular = [list(g.coeffs) for g, _ in factor_mod_p(PolyModP.of(p, fasc))]
    if len(modular) == 1:
        return [f]
    # Mignotte-style bound on factor coefficients, lift past twice that
    norm = math.isqrt(sum(c * c for c in fasc)) + 1
    bound = 2**n * norm
    target = p
    while target <= 2 * bound:
        target *= p
    lifted = _hensel_lift_list(fasc, modular, p, target)

    def sym_desc(poly_asc: list[int]) -> list[int]:
        out = []
        for c in reversed(poly_asc):
            c %= target
            out.append(c - target if c > target // 2 else c)
        return out

    remaining = list(range(len(lifted)))
    rem_poly = f.full()
    found: list[MonicIntPoly] = []
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for combo in itertools.combinations(remaining, size):
            prod = [1]
            for i in combo:
                prod = pmul(prod, lifted[i], target)
            cand = sym_desc(prod)
            q = _divides(rem_poly, cand)
            if q is not None:
                found.append(MonicIntPoly.from_full(cand))
                rem_poly = q
                remaining = [i for i in remaining if i not in combo]
                hit = True
                break
        if not hit:
            size += 1
    if len(rem_poly) > 1:
        found.append(MonicIntPoly.from_full(rem_poly))
    found.sort(key=lambda g: (g.degree, g.coeffs))
    return found


def factor_over_Z(f: MonicIntPoly) -> list[tuple[MonicIntPoly, int]]:
    """Complete factorization into monic integer irreducibles."""
    out = [
        (irr, mult)
        for part, mult in _squarefree_decomposition_Q(f)
        if part.degree  # a constant f is its own part and has no factors
        for irr in _zassenhaus(part)
    ]
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs, t[1]))
    return out


def is_irreducible(f: MonicIntPoly) -> bool:
    fac = factor_over_Z(f)
    return len(fac) == 1 and fac[0][1] == 1


# ---------------------------------------------------------------------------
# Exact groups, degree <= 5


def _is_square(x: int) -> bool:
    return x >= 0 and math.isqrt(x) ** 2 == x


def _is_square_fraction(num: int, den: int) -> bool:
    """Is the rational num/den a square in Q?"""
    if den < 0:
        num, den = -num, -den
    if num == 0:
        return True
    if num < 0:
        return False
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return _is_square(num) and _is_square(den)


def depressed_quartic(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """(P,Q,R) with t^4+Pt^2+Qt+R = 256*f((t-a)/4); disc scales by 4^12."""
    P = 16 * b - 6 * a * a
    Q = 8 * a**3 - 32 * a * b + 64 * c
    R = -3 * a**4 + 16 * a * a * b - 64 * a * c + 256 * d
    return P, Q, R


def quartic_disc_depressed(P: int, Q: int, R: int) -> int:
    return (
        16 * P**4 * R
        - 4 * P**3 * Q * Q
        - 128 * P * P * R * R
        + 144 * P * Q * Q * R
        - 27 * Q**4
        + 256 * R**3
    )


def _integer_cubic_roots(b2: int, b1: int, b0: int) -> list[int]:
    """Integer roots of y^3 + b2 y^2 + b1 y + b0, exactly.

    The cubic is monotone outside its critical points, so each of the (at
    most three) monotone pieces holds at most one root, found by integer
    bisection on a sign change.  All arithmetic is exact.
    """

    def val(y: int) -> int:
        return ((y + b2) * y + b1) * y + b0

    M = 1 + max(abs(b2), abs(b1), abs(b0))  # Cauchy bound
    # critical points: roots of 3y^2 + 2 b2 y + b1
    cd = 4 * b2 * b2 - 12 * b1
    cuts = [-M]
    if cd > 0:
        r = math.isqrt(cd)
        c1 = (-2 * b2 - r) // 6  # floor of the smaller critical point
        c2 = -((2 * b2 - r) // 6)  # ceil of the larger one
        for c in (c1, c1 + 1, c2 - 1, c2):
            if -M < c < M:
                cuts.append(c)
    cuts.append(M)
    cuts = sorted(set(cuts))
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        vlo, vhi = val(lo), val(hi)
        if vlo == 0:
            out.append(lo)
        if vlo * vhi >= 0:
            continue
        sgn = 1 if vhi > vlo else -1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if val(mid) * sgn >= 0:
                hi = mid
            else:
                lo = mid
        if val(hi) == 0:
            out.append(hi)
    if val(M) == 0:
        out.append(M)
    return sorted(set(out))


def quartic_group_irreducible(a: int, b: int, c: int, d: int) -> str:
    """Galois group name of the irreducible quartic x^4+ax^3+bx^2+cx+d."""
    P, Q, R = depressed_quartic(a, b, c, d)
    delta_dep = quartic_disc_depressed(P, Q, R)
    # resolvent cubic of the depressed quartic; roots are the pair-sum products
    roots = _integer_cubic_roots(-2 * P, P * P - 4 * R, Q * Q)
    if not roots:
        return "A4" if _is_square_fraction(delta_dep, 4**12) else "S4"
    if len(roots) >= 3:
        return "V4"
    beta = roots[0]
    if beta == 0:
        # biquadratic with R nonsquare (else three rational resolvent roots)
        return "C4" if _is_square_fraction(R * (P * P - 4 * R), 4**8 * 4**4) else "D4"
    j = -beta * (-3 * beta * beta + 4 * P * beta + 16 * R)
    return "C4" if _is_square(j) else "D4"


# --- quintic resolvent sextic -------------------------------------------------


@lru_cache(maxsize=1)
def _theta_orbit() -> list[tuple[tuple[tuple[int, ...], int], ...]]:
    """The 6 conjugates of the F_20-invariant theta, as monomial multisets."""
    base = [
        (1, 2, 5),
        (1, 3, 4),
        (2, 1, 3),
        (2, 4, 5),
        (3, 1, 5),
        (3, 2, 4),
        (4, 1, 2),
        (4, 3, 5),
        (5, 1, 4),
        (5, 2, 3),
    ]

    def monomial(i, j, k):
        e = [0] * 5
        e[i - 1] += 2
        e[j - 1] += 1
        e[k - 1] += 1
        return tuple(e)

    def canon(mons):
        counts: dict[tuple[int, ...], int] = {}
        for m in mons:
            counts[m] = counts.get(m, 0) + 1
        return tuple(sorted(counts.items()))

    orbit = set()
    for perm in itertools.permutations(range(5)):
        mons = []
        for i, j, k in base:
            e = monomial(i, j, k)
            pe = tuple(e[perm[t]] for t in range(5))
            mons.append(pe)
        orbit.add(canon(mons))
    if len(orbit) != 6:
        raise InternalError(f"theta orbit has size {len(orbit)}, expected 6")
    return sorted(orbit)


def quintic_resolvent_sextic(f: MonicIntPoly) -> list[int]:
    """Integer coefficients (descending) of the degree-6 resolvent of f.

    Evaluated from high-precision roots; coefficients must round to
    integers, which is asserted (self-check of the invariant data).
    """
    import mpmath

    if f.degree != 5:
        raise UsageError("resolvent defined for quintics")
    prec = 120
    for _ in range(6):
        with mpmath.workprec(prec):
            roots = mpmath.polyroots([1, *f.coeffs], maxsteps=200, extraprec=prec)
            thetas = []
            for mons in _theta_orbit():
                acc = mpmath.mpc(0)
                for expvec, cnt in mons:
                    term = mpmath.mpc(1)
                    for t in range(5):
                        if expvec[t]:
                            term *= roots[t] ** expvec[t]
                    acc += cnt * term
                thetas.append(acc)
            poly = [mpmath.mpc(1)]
            for th in thetas:
                nxt = [mpmath.mpc(0)] * (len(poly) + 1)
                for i, c in enumerate(poly):
                    nxt[i] += c
                    nxt[i + 1] -= c * th
                poly = nxt
            ints = []
            ok = True
            for c in poly:
                ri = mpmath.nint(c.real)
                if abs(c.real - ri) > 0.25 or abs(c.imag) > 0.25:
                    ok = False
                    break
                ints.append(int(ri))
            if ok:
                return ints
        prec *= 2
    raise InternalError("resolvent sextic failed to stabilize")


def _sextic_rational_root(coeffs_desc: list[int], f: MonicIntPoly) -> int | None:
    """An integer root of the monic sextic, localized from the theta values."""
    import mpmath

    with mpmath.workprec(200):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in coeffs_desc], maxsteps=200, extraprec=200)
        cands = set()
        for r in roots:
            if abs(r.imag) < 1e-6 * (1 + abs(r.real)):
                base = int(mpmath.nint(r.real))
                cands.update(range(base - 2, base + 3))
    for y in sorted(cands):
        v = 0
        for c in coeffs_desc:
            v = v * y + c
        if v == 0:
            return y
    return None


def _count_quintic_norm_factors(f: MonicIntPoly) -> int:
    """Number of monic quintic factors of N(y) = Res_x(f(x), f(y - sx)).

    For an irreducible quintic with square discriminant and solvable group
    this is 5 for C_5 (f splits over its root field) and 1 for D_5.
    """
    for s in range(1, 8):
        # interpolate N(y): degree 25, leading coefficient s^25 ... compute at 26 points
        ys = list(range(26))
        vals = []
        for y0 in ys:
            # f(y0 - s x) as a polynomial in x, descending
            # expand sum a_i (y0 - s x)^(5-i)
            comp = [0] * 6
            full = f.full()
            for i, ai in enumerate(full):
                d = 5 - i
                # (y0 - s x)^d contributes to x^j the coeff C(d,j)(-s)^j y0^(d-j)
                for jj in range(d + 1):
                    comp[5 - jj] += ai * math.comb(d, jj) * (-s) ** jj * y0 ** (d - jj)
            vals.append(resultant(f.full(), comp))
        N = interpolate(ys, vals)
        if len(N) - 1 != 25:
            continue
        # need squarefree N for clean factor degrees
        if resultant(N, _deriv(N)) == 0:
            continue
        # factor N over Z (degree 25): count degree-5 irreducible factors
        quintics = 0
        for g, mult in _factor_primitive(N):
            if len(g) - 1 == 5:
                quintics += mult
        return quintics
    raise InternalError("no squarefree Trager norm found")


def _factor_primitive(poly_desc: list[int]) -> list[tuple[list[int], int]]:
    """Factor a primitive non-monic integer polynomial via a monic transform.

    For g with leading coefficient L, L^(d-1) g(y/L) is monic in y; its
    factorization pulls back.  Returns (descending primitive factor, mult).
    """
    g = _trim(poly_desc)
    cont = 0
    for c in g:
        cont = math.gcd(cont, c)
    g = [c // cont for c in g]
    if g[0] < 0:
        g = [-c for c in g]
    L = g[0]
    d = len(g) - 1
    if L == 1:
        mon = MonicIntPoly(tuple(g[1:]))
    else:
        mon = MonicIntPoly(tuple(g[i] * L ** (i - 1) for i in range(1, d + 1)))
    out = []
    for fac, mult in factor_over_Z(mon):
        if L == 1:
            out.append((fac.full(), mult))
        else:
            # pull back y -> L y and strip content
            fd = fac.degree
            back = [fac.full()[i] * L ** (fd - i) for i in range(fd + 1)]
            c0 = 0
            for c in back:
                c0 = math.gcd(c0, c)
            out.append(([c // c0 for c in back], mult))
    return out


def quintic_group_irreducible(f: MonicIntPoly) -> str:
    delta = disc(f)
    square = _is_square(delta)
    # Frobenius shortcut.  The group is transitive of prime degree, hence
    # primitive; a Frobenius of type 3+1+1 is a 3-cycle, which by Jordan's
    # theorem forces the group to contain A5, and a type 2+1+1+1 or 3+2
    # yields a transposition (possibly after cubing), forcing S5.  This
    # settles the generic cases without the resolvent sextic.
    sampled = 0
    for p in _ascending_primes():
        if sampled >= 12:
            break
        if delta % p == 0:
            continue
        sampled += 1
        degs = sorted((d for d, _ in splitting_type(f, p).parts), reverse=True)
        if degs in ([2, 1, 1, 1], [3, 2]):
            return "S5"
        if degs == [3, 1, 1]:
            return "A5" if square else "S5"
    sext = quintic_resolvent_sextic(f)
    solvable = _sextic_rational_root(sext, f) is not None
    if not solvable:
        return "A5" if square else "S5"
    if not square:
        return "F20"
    return "C5" if _count_quintic_norm_factors(f) >= 2 else "D5"


def galois_group_exact(f: MonicIntPoly) -> GaloisVerdict:
    n = f.degree
    if not 2 <= n <= 5:
        raise DegreeOutOfRange("exact groups only for 2 <= n <= 5")
    name = _exact_group_name(f)
    if name is None:
        fac = factor_over_Z(f)
        degs = tuple(sorted(g.degree for g, e in fac for _ in range(e)))
        raise Reducible(f"factor degrees {degs}")
    return GaloisVerdict("exactGroup", group=name)


def _exact_group_name(f: MonicIntPoly) -> str | None:
    """Group name for irreducible f of degree 2..5, None if reducible."""
    n = f.degree
    if n == 2:
        return None if _is_square(disc(f)) else "C2"
    if n == 3:
        if _has_integer_root(f):
            return None
        return "C3" if _is_square(disc(f)) else "S3"
    if n == 4:
        if _has_integer_root(f) or _has_quadratic_factor(f):
            return None
        return quartic_group_irreducible(*f.coeffs)
    if n == 5:
        # a reducible quintic has a factor of degree 1 or 2
        if _has_integer_root(f) or _has_quintic_quadratic_factor(f):
            return None
        return quintic_group_irreducible(f)
    raise DegreeOutOfRange(str(n))


def classify(f: MonicIntPoly) -> GaloisVerdict:
    """Full verdict: exact group for irreducible degree 2..5, else factor shape."""
    n = f.degree
    if not 2 <= n <= 5:
        raise DegreeOutOfRange("classification implemented for 2 <= n <= 5")
    if disc(f) == 0:
        fac = factor_over_Z(f)
        degs = tuple(sorted(g.degree for g, e in fac for _ in range(e)))
        return GaloisVerdict("reducible", factor_degrees=degs)
    name = _exact_group_name(f)
    if name is not None:
        return GaloisVerdict("exactGroup", group=name)
    fac = factor_over_Z(f)
    degs = tuple(sorted(g.degree for g, e in fac for _ in range(e)))
    return GaloisVerdict("reducible", factor_degrees=degs)


def _ascending_primes():
    p = 2
    while True:
        if is_prime(p):
            yield p
        p += 1


def sn_certificate(f: MonicIntPoly, prime_budget: int = 100) -> GaloisVerdict:
    """Try to certify Gal(f) = S_n from unramified splitting types.

    Witnesses collected: an n-cycle (an irreducible type), a cycle of prime
    length ell with n/2 < ell < n (a suitable power of that Frobenius is an
    ell-cycle, forcing a primitive group containing one, hence A_n or S_n),
    and a type whose only even part is a single 2 (an odd power is a
    transposition).  All three together force S_n.  A square discriminant
    instead certifies containment in A_n.
    """
    n = f.degree
    delta = disc(f)
    if delta == 0:
        raise UsageError("discriminant is zero; certificate needs squarefree input")
    if _is_square(delta):
        return GaloisVerdict("certifiedSubsetAn")
    evidence = []
    have_ncycle = have_ell = have_transposition = False
    sampled = 0
    for p in _ascending_primes():
        if sampled >= prime_budget:
            break
        if delta % p == 0:
            continue
        parts = splitting_type(f, p).parts
        sampled += 1
        evidence.append((p, tuple(sorted((d for d, e in parts), reverse=True))))
        degs = [d for d, e in parts]
        if degs == [n]:
            have_ncycle = True
        for d in degs:
            if n / 2 < d < n and is_prime(d):
                have_ell = True
        evens = [d for d in degs if d % 2 == 0]
        if evens == [2]:
            have_transposition = True
        if have_ncycle and have_ell and have_transposition:
            return GaloisVerdict("certifiedSn", evidence=tuple(evidence))
    if sampled == 0:
        raise RamifiedOnly(f"no unramified prime among the first {prime_budget} candidates")
    return GaloisVerdict("unresolved", evidence=tuple(evidence))


def _int_divisors(m: int) -> list[int]:
    m = abs(m)
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out += [d, -d, m // d, -(m // d)]
        d += 1
    return sorted(set(out))


def _has_integer_root(f: MonicIntPoly) -> bool:
    an = f.coeffs[-1]
    if an == 0:
        return True
    return any(f(r) == 0 for r in _int_divisors(an))


def _has_quintic_quadratic_factor(f: MonicIntPoly) -> bool:
    """Does the monic quintic f have a monic integer quadratic factor?

    The constant term of the factor divides a5, and its linear coefficient
    is minus a sum of two roots of f, so it is bounded by twice the Cauchy
    root bound 1 + height(f).
    """
    a5 = f.coeffs[-1]
    if a5 == 0:
        return True
    bmax = 2 * (1 + f.height())
    full = f.full()
    for c in _int_divisors(a5):
        for b in range(-bmax, bmax + 1):
            # exact division of f by x^2 + bx + c
            rem = full[:]
            for i in range(4):
                q = rem[i]
                rem[i + 1] -= q * b
                rem[i + 2] -= q * c
            if rem[4] == 0 and rem[5] == 0:
                return True
    return False


def _has_quadratic_factor(f: MonicIntPoly) -> bool:
    """Does the monic quartic f factor into two monic integer quadratics?

    Writes f = (x^2+bx+c)(x^2+dx+e): then ce = a4, b+d = a1, bd = a2-c-e,
    be+cd = a3.  For each divisor pair (c, e) the pair (b, d) is determined
    up to the quadratic with sum a1 and product a2-c-e.
    """
    a1, a2, a3, a4 = f.coeffs
    if a4 == 0:
        return True  # x divides f; the root test also catches this
    for c in _int_divisors(a4):
        e = a4 // c
        prod = a2 - c - e
        dsc = a1 * a1 - 4 * prod
        if dsc < 0 or not _is_square(dsc):
            continue
        r = math.isqrt(dsc)
        if (a1 + r) % 2 != 0:
            continue
        for b in {(a1 + r) // 2, (a1 - r) // 2}:
            d = a1 - b
            if b * e + d * c == a3:
                return True
    return False
