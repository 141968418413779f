"""Factorization over Z, exact Galois groups for degree <= 5 and S_n
certificates beyond.

factor_over_Z is classical Zassenhaus: Yun splits off repeated factors only
when disc(f) = 0; each squarefree part is factored deterministically by
Berlekamp (`polyarith.factor_mod_p`) mod the least prime not dividing its
discriminant, a small one, all modular factors are lifted together past the
Mignotte bound by one linear Hensel lift (`_hensel_lift_list`, which also
lifts the quintic split-prime roots), and subsets are recombined.
`classify` factors every input with it first and hands an irreducible one
to `irreducible_groups`, with the discriminant that factoring computed, so
no group test sees a reducible polynomial (disc(f) = 0 makes f reducible).
Cubics are decided by the square-discriminant test.  An irreducible quartic
x^4 + ax^3 + bx^2 + cx + d is decided by its discriminant and the integer
roots of the ordinary resolvent cubic y^3 - by^2 + (ac - 4d)y -
(a^2 d - 4bd + c^2), whose roots x1x2 + x3x4, x1x3 + x2x4, x1x4 + x2x3 are
distinct when the discriminant is nonzero, so 0, 1 or 3 of them are
integers.  None gives A4 or S4, by whether the discriminant is a square;
three give V4; with exactly one, beta, Kappe and Warren (1989) give C4 iff
beta^2 - 4d and a^2 - 4(b - beta) are both squares in Q(sqrt(disc)), and
D4 otherwise.  `counting` runs the same test over whole slices.

Quintics and the S_n certificates of `sn_certificates` share one batched
Frobenius walk (`_frobenius_walk`): the primes are taken in ascending
order, each polynomial skips the primes dividing its own discriminant, all
live polynomials get their cycle types at p from one
`polyarith.frobenius_cycle_types` call (the roots mod p, the sign of the
discriminants the walk already holds by Stickelberger, and for n = 6, 7
one Berlekamp nullity), and a polynomial leaves the walk once it is
decided.  `quintic_group_irreducible` and `sn_certificate` run
the same walk on a batch of one.  A quintic is decided with integer
arithmetic only:

- A Frobenius of type 2+1+1+1 or 3+2 gives a transposition (after cubing)
  and one of type 3+1+1 a 3-cycle.  The group G is transitive of prime
  degree, hence primitive, so by Jordan's theorem it is S5, or A5 when the
  discriminant is a square.
- Otherwise its walk stops at the first p where f has five distinct roots
  mod p; Chebotarev guarantees such primes (density 1/|G|).

At that prime the roots r_0..r_4 of f in Z_p are Hensel-lifted mod
q = p^k > 2(1 + 10R^4)^6, where R = 1 + H(f) exceeds every complex |r_i|.
G acts on these roots.  theta = sum x_i^2 (x_(i-1) x_(i+1) + x_(i-2) x_(i+2))
(indices mod 5) has stabilizer F20 = AGL(1, 5) and six conjugates theta_o,
one per root ordering o up to F20; each is ten monomials of degree 4, so
|theta_o| <= 10R^4.  The resolvent sextic S(y) = prod_o (y - theta_o) has
coefficients below (1 + 10R^4)^6 < q/2 in size, so the symmetric residues
mod q are the exact integers.

G is solvable iff it lies in some Stab(theta_o), which makes theta_o an
integer root of S; conversely a simple integer root t = theta_o puts G in
Stab(theta_o).  An integer root t satisfies |t| <= 10R^4 < q/2, so it is
the symmetric residue of some theta_o, and only those six values are tried.
A repeated integer root raises InternalError (the test would need a
Tschirnhaus transform).  For a simple root, theta_o = t exactly: another
theta_o' = t mod q would make q divide S'(t) = prod_(o' != o) (t - theta_o'),
a nonzero integer of size at most (20R^4)^5 < q.  So G <= Stab(theta_o), the
F20 whose translations are the powers of the 5-cycle c along o.

A nonsquare discriminant leaves G = F20.  A square one leaves G inside
F20 cap A5 = D5; being transitive, G contains c, so G is C5 = <c> or D5.
psi_s = sum_j r_(c^j) r_(c^(j+1))^s is fixed by c, and the reflections of
D5 swap it with psi'_s, the same sum with each pair reversed.  Hence
u = psi_s + psi'_s and v = psi_s psi'_s are integers, with |u| <= 10R^6 and
|v| <= 25R^12 < q/2, and u^2 - 4v = (psi_s - psi'_s)^2.  When that is
nonzero, psi_s is rational, i.e. G = C5, iff u^2 - 4v is a perfect square.
The first s in 2..5 with u^2 - 4v != 0 is used.  One exists:
psi_s - psi'_s = sum_m r_m^s (r_(m-1) - r_(m+1)) (indices along c) vanishes
for s = 0 and 1, so vanishing for s = 2, 3, 4 as well would make the
Vandermonde system in the distinct r_m force r_(m-1) = r_(m+1).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeOutOfRange,
    InternalError,
    RamifiedOnly,
    UsageError,
)
from . import permgroup as pg
from .polyarith import (
    MonicIntPoly,
    PolyModP,
    _deriv,
    _squarefree_decomposition_Q,
    disc,
    factor_mod_p,
    frobenius_cycle_types,
    is_prime,
    pdivmod,
    pmul,
    ptrim,
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
    if name not in GROUPS:
        raise UsageError(f"unknown group {name}")
    order, label = GROUPS[name]
    n = int(label.split("T")[0])
    if name == "V4":
        P = pg.Permutation.from_cycles
        gens = [P(4, [(1, 2), (3, 4)]), P(4, [(1, 3), (2, 4)])]
    else:  # F20 is AGL(1, 5)
        family = {"C": pg._cyclic, "D": pg._dihedral, "A": pg._alternating, "S": pg._symmetric, "F": pg._agl1}
        gens = family[name[0]](n).generators
    return pg.PermGroup(n, gens, name=name, expected_order=order)


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


def _hensel_lift_list(f: list[int], factors: list[list[int]], p: int, target: int) -> list[list[int]]:
    """Lift monic f = prod(factors) from mod p to mod target = p^a, linearly.

    The monic factors, with coefficients in [0, p), must be pairwise coprime
    mod p.  With F_i = f/f_i and s_i = F_i^(-1) mod (f_i, p), each step from
    m to mp adds m (s_i e mod f_i) to f_i, where e = (f - prod f_i)/m mod p:
    then sum_i (s_i e mod f_i) F_i = e mod p, so the product is f mod mp.
    The lifts keep coefficients in [0, mp), and monic lifts are unique.
    """
    fp = [c % p for c in f]
    inverses = [_pxgcd(pdivmod(fp, fi, p)[0], fi, p)[0] for fi in factors]
    lifted = [fi[:] for fi in factors]
    m = p
    while m < target:
        mp = m * p
        prod = [1]
        for g in lifted:
            prod = pmul(prod, g, mp)
        e = ptrim([(x - y) % mp // m for x, y in zip(f, prod)])
        for g, fi, s in zip(lifted, factors, inverses):
            for k, c in enumerate(pdivmod(pmul(s, e, p), fi, p)[1]):
                g[k] += m * c
        m = mp
    return lifted


def _sym(c: int, q: int) -> int:
    """The representative of c mod q in (-q/2, q/2]."""
    c %= q
    return c - q if c > q // 2 else c


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


def _zassenhaus(f: MonicIntPoly, delta: int) -> list[MonicIntPoly]:
    """Factor a squarefree monic integer polynomial with discriminant delta
    into monic irreducibles."""
    n = f.degree
    if n == 1:
        return [f]
    fasc = list(reversed(f.full()))
    # a monic f is squarefree mod p exactly when p does not divide disc(f)
    p = next(p for p in _ascending_primes() if delta % p)
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
            cand = [_sym(c, target) for c in reversed(prod)]
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


def _factor_and_disc(f: MonicIntPoly) -> tuple[list[tuple[MonicIntPoly, int]], int]:
    """`factor_over_Z` of a non-constant f, and disc(f).  A squarefree f
    goes to Zassenhaus with its own discriminant; otherwise disc(f) = 0 and
    each of Yun's parts goes with its own (1 for a linear part)."""
    delta = disc(f)
    out = [
        (irr, mult)
        for part, mult in _squarefree_decomposition_Q(f, delta)
        for irr in _zassenhaus(part, delta or (disc(part) if part.degree > 1 else 1))
    ]
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs, t[1]))
    return out, delta


def factor_over_Z(f: MonicIntPoly) -> list[tuple[MonicIntPoly, int]]:
    """Complete factorization into monic integer irreducibles (none for a
    constant f)."""
    return _factor_and_disc(f)[0] if f.degree else []


def is_irreducible(f: MonicIntPoly) -> bool:
    fac = factor_over_Z(f)
    return len(fac) == 1 and fac[0][1] == 1


# ---------------------------------------------------------------------------
# Exact groups, degree <= 5


def _is_square(x: int) -> bool:
    return x >= 0 and math.isqrt(x) ** 2 == x


def _square_mask(d: np.ndarray) -> np.ndarray:
    """Elementwise perfect-square test of an integer array; negatives are not squares.

    In int64, with |d| < 2^62, t = rint(sqrt(fl(d))) is the one candidate and
    t * t == d is exact: for d = k^2 the two roundings move sqrt(d) by less
    than k 2^-52 < 1/2 (k < 2^31), and t <= 2^31 keeps t * t in int64.  On
    dtype=object each entry gets `_is_square` (math.isqrt), at any size.
    """
    if d.dtype == object:
        return np.array([_is_square(x) for x in d.ravel().tolist()], dtype=bool).reshape(d.shape)
    t = np.rint(np.sqrt(np.maximum(d, 0).astype(np.float64))).astype(np.int64)
    return t * t == d


def quartic_disc(a, b, c, d):
    """Discriminant of x^4 + a x^3 + b x^2 + c x + d, for ints or integer arrays.

    Its 16 terms, summed by Horner in d, keep every intermediate at most
    1069 H^6 in size when |a|, |b|, |c|, |d| <= H.
    """
    e2 = 144 * a * a * b - 27 * a**4 - 128 * b * b - 192 * a * c
    e1 = 16 * b**4 - 4 * a * a * b**3 + (18 * a**3 * b - 80 * a * b * b) * c + (144 * b - 6 * a * a) * c * c
    e0 = (a * a * b * b - 4 * b**3) * c * c + (18 * a * b - 4 * a**3) * c**3 - 27 * c**4
    return ((256 * d + e2) * d + e1) * d + e0


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


def _kappe_warren_mask(a, b, d, beta, delta):
    """C4 mask of irreducible quartics x^4 + ax^3 + bx^2 + cx + d with the only
    integer resolvent root beta, on integer arrays in which q * delta fits.

    Kappe-Warren: C4 iff beta^2 - 4d and a^2 - 4(b - beta) are both squares
    in Q(sqrt(delta)), i.e. each is a square or a square times delta.
    """
    q1, q2 = beta * beta - 4 * d, a * a - 4 * (b - beta)
    return (_square_mask(q1) | _square_mask(q1 * delta)) & (_square_mask(q2) | _square_mask(q2 * delta))


def quartic_group_irreducible(a: int, b: int, c: int, d: int) -> str:
    """Galois group name of the irreducible quartic x^4+ax^3+bx^2+cx+d."""
    delta = quartic_disc(a, b, c, d)
    # y^3 - b y^2 + (ac - 4d) y - (a^2 d - 4bd + c^2), roots x1x2 + x3x4 etc.
    roots = _integer_cubic_roots(-b, a * c - 4 * d, 4 * b * d - a * a * d - c * c)
    if not roots:
        return "A4" if _is_square(delta) else "S4"
    if len(roots) == 3:
        return "V4"
    batch = np.array([[a, b, d, roots[0], delta]], dtype=object).T  # a batch of one, in Python ints
    return "C4" if _kappe_warren_mask(*batch)[0] else "D4"


# --- quintics, decided at one split prime ------------------------------------

# One root ordering (o_0, ..., o_4) per coset of F20 = AGL(1, 5) in S5: the
# orderings that start at root 0, up to o_i -> o_(a*i mod 5) for a = 1..4.
_F20_COSETS = sorted(
    {
        min(tuple(o[a * i % 5] for i in range(5)) for a in range(1, 5))
        for o in ((0, *t) for t in itertools.permutations(range(1, 5)))
    }
)


def _theta(roots: list[int], o: tuple[int, ...]) -> int:
    """theta at the ordering o: sum x_i^2 (x_(i-1) x_(i+1) + x_(i-2) x_(i+2))."""
    x = [roots[i] for i in o]
    return sum(x[i] ** 2 * (x[i - 1] * x[(i + 1) % 5] + x[i - 2] * x[(i + 2) % 5]) for i in range(5))


def _split_roots(f: MonicIntPoly, p: int) -> tuple[list[int], int]:
    """(roots, q): the five roots of f in Z/q, q = p^k > 2(1 + 10R^4)^6.

    f must have five distinct roots mod p; R = 1 + H(f) bounds every
    complex root.
    """
    R = 1 + f.height()
    q = p
    while q <= 2 * (1 + 10 * R**4) ** 6:
        q *= p
    linear = [[-r % p, 1] for r in range(p) if f(r) % p == 0]
    if len(linear) != 5:
        raise UsageError(f"f does not split into distinct linear factors mod {p}")
    lifted = _hensel_lift_list(list(reversed(f.full())), linear, p, q)
    return [-g[0] % q for g in lifted], q


def quintic_resolvent_sextic(roots: list[int], q: int) -> list[int]:
    """Integer coefficients (descending) of prod_o (y - theta_o).

    `roots, q` come from `_split_roots`; the coefficients are below q/2 in
    size, so their symmetric residues are exact.
    """
    sextic = [1]
    for o in _F20_COSETS:
        sextic = pmul(sextic, [-_theta(roots, o), 1], q)
    return [_sym(c, q) for c in reversed(sextic)]


def _frobenius_walk(polys: list[MonicIntPoly], deltas: list[int], live: list[int], step) -> None:
    """Walk the primes in ascending order with the polynomials polys[i],
    i in `live`, of discriminants deltas[i].  At each prime p, every live
    polynomial with p not dividing its discriminant gets its cycle type
    from one batched `frobenius_cycle_types` call, and leaves the walk as
    soon as step(i, p, cycle_type) returns True."""
    for p in _ascending_primes():
        if not live:
            return
        at = [i for i in live if deltas[i] % p]
        if at:
            types = frobenius_cycle_types([polys[i].coeffs for i in at], [deltas[i] for i in at], p)
            done = {i for i, t in zip(at, types) if step(i, p, t)}
            live = [i for i in live if i not in done]


def quintic_groups(polys: list[MonicIntPoly], deltas: list[int]) -> list[str]:
    """Galois group names of irreducible quintics with nonzero discriminants
    `deltas`, decided together as the module docstring says."""
    names: list[str | None] = [None] * len(polys)

    def step(i, p, t):
        square = _is_square(deltas[i])
        if t in ((2, 1, 1, 1), (3, 2)):
            names[i] = "S5"
        elif t == (3, 1, 1):
            names[i] = "A5" if square else "S5"
        elif t == (1, 1, 1, 1, 1):
            names[i] = _split_prime_group(polys[i], p, square)
        return names[i] is not None

    _frobenius_walk(polys, deltas, list(range(len(polys))), step)
    return names


def quintic_group_irreducible(f: MonicIntPoly) -> str:
    """Galois group name of the irreducible quintic f."""
    return quintic_groups([f], [disc(f)])[0]


def _split_prime_group(f: MonicIntPoly, p: int, square: bool) -> str:
    """The group of the irreducible quintic f, at a prime p where it has
    five distinct roots, from the resolvent sextic and the C5/D5 invariant."""
    roots, q = _split_roots(f, p)
    sextic = quintic_resolvent_sextic(roots, q)
    resolvent = MonicIntPoly.from_full(sextic)
    for o in _F20_COSETS:
        t = _sym(_theta(roots, o), q)
        if resolvent(t) == 0:
            break
    else:
        return "A5" if square else "S5"
    if sum(c * t ** (5 - i) for i, c in enumerate(_deriv(sextic))) == 0:
        raise InternalError(f"resolvent sextic {sextic} has the repeated integer root {t}")
    if not square:
        return "F20"
    x = [roots[i] for i in o]
    for s in range(2, 6):
        psi = sum(x[j] * pow(x[(j + 1) % 5], s, q) for j in range(5))
        psi_rev = sum(x[(j + 1) % 5] * pow(x[j], s, q) for j in range(5))
        u, v = _sym(psi + psi_rev, q), _sym(psi * psi_rev, q)
        if u * u != 4 * v:
            return "C5" if _is_square(u * u - 4 * v) else "D5"
    raise InternalError(f"psi_s = psi'_s for s = 2..5 although the roots of {f.coeffs} are distinct")


def irreducible_groups(polys: list[MonicIntPoly], deltas: list[int]) -> list[str]:
    """Galois group names of irreducible polynomials of one degree 2..5, with
    discriminants `deltas`: a quadratic is C2, a cubic C3 or S3 by whether
    its discriminant is a square, quartics go to `quartic_group_irreducible`
    and quintics to `quintic_groups`."""
    n = polys[0].degree
    if n == 2:
        return ["C2"] * len(polys)
    if n == 3:
        return ["C3" if _is_square(d) else "S3" for d in deltas]
    if n == 4:
        return [quartic_group_irreducible(*f.coeffs) for f in polys]
    if n == 5:
        return quintic_groups(polys, deltas)
    raise DegreeOutOfRange(str(n))


def classify(f: MonicIntPoly) -> GaloisVerdict:
    """Full verdict from `factor_over_Z`: the exact group of an irreducible f
    of degree 2..5, else the degrees of its factors."""
    n = f.degree
    if not 2 <= n <= 5:
        raise DegreeOutOfRange("classification implemented for 2 <= n <= 5")
    fac, delta = _factor_and_disc(f)
    if len(fac) == 1 and fac[0][1] == 1:
        return GaloisVerdict("exactGroup", group=irreducible_groups([f], [delta])[0])
    degs = tuple(sorted(g.degree for g, e in fac for _ in range(e)))
    return GaloisVerdict("reducible", factor_degrees=degs)


def _ascending_primes():
    p = 2
    while True:
        if is_prime(p):
            yield p
        p += 1


@functools.lru_cache(maxsize=None)
def _sn_witnesses(t: tuple[int, ...]) -> int:
    """Bit mask of the S_n witnesses in the cycle type t: 1 an n-cycle, 2 a
    cycle of prime length ell with n/2 < ell < n, 4 a type whose only even
    part is a single 2."""
    n = sum(t)
    return (
        (t == (n,))
        | 2 * any(n / 2 < d < n and is_prime(d) for d in t)
        | 4 * ([d for d in t if d % 2 == 0] == [2])
    )


def sn_certificates(polys: list[MonicIntPoly], deltas: list[int], prime_budget: int = 100) -> list[GaloisVerdict]:
    """Try to certify Gal(f) = S_n for each f of `polys`, with discriminants
    `deltas`, from its cycle types at its first `prime_budget` unramified
    primes.

    Three witnesses together force S_n.  An n-cycle (an irreducible type)
    makes G transitive.  A cycle of prime length ell with n/2 < ell < n (a
    suitable power of that Frobenius is an ell-cycle) then makes G
    primitive: with blocks of size b and m = n/b blocks, 1 < b, m < ell,
    the ell-cycle cannot move the m blocks, so it would have to stay inside
    one block of b < ell points.  A type whose only even part is a single 2
    has an odd power that is a transposition, and a primitive group with a
    transposition is S_n (Jordan).  The ell-cycle alone does not suffice:
    for n = 6, ell = 5, PGL(2, 5) is primitive and contains 5-cycles.  A
    square discriminant instead certifies containment in A_n.

    The input may be reducible (squarefree, as the nonzero discriminant
    says): a reducible f has no n-cycle at any unramified prime, so it never
    gets "certifiedSn", and "certifiedSn" implies f irreducible.  Each
    verdict depends only on f's own cycle types and discriminant.
    """
    verdicts: list[GaloisVerdict | None] = [None] * len(polys)
    live = []
    for i, delta in enumerate(deltas):
        if delta == 0:
            raise UsageError("discriminant is zero; certificate needs squarefree input")
        if _is_square(delta):
            verdicts[i] = GaloisVerdict("certifiedSubsetAn")
        else:
            live.append(i)
    if live and prime_budget < 1:
        raise RamifiedOnly(f"no unramified prime among the first {prime_budget} candidates")
    evidence: list[list] = [[] for _ in polys]
    seen = [0] * len(polys)

    def step(i, p, t):
        evidence[i].append((p, t))
        seen[i] |= _sn_witnesses(t)
        if seen[i] == 7:
            verdicts[i] = GaloisVerdict("certifiedSn", evidence=tuple(evidence[i]))
        elif len(evidence[i]) == prime_budget:
            verdicts[i] = GaloisVerdict("unresolved", evidence=tuple(evidence[i]))
        return verdicts[i] is not None

    _frobenius_walk(polys, deltas, live, step)
    return verdicts


def sn_certificate(f: MonicIntPoly, prime_budget: int = 100) -> GaloisVerdict:
    """`sn_certificates` for the one polynomial f."""
    return sn_certificates([f], [disc(f)], prime_budget)[0]
