"""Integer factorization and exact Galois groups for degrees 2 through 5."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from galcount import counting as ct
from galcount import galois as ga
from galcount import polyarith as pa
from galcount.errors import DegreeOutOfRange, RamifiedOnly, UsageError
from galcount.polyarith import MonicIntPoly, PolyModP, disc, factor_mod_p, pmul

x = sympy.Symbol("x")

small_coeff = st.integers(min_value=-15, max_value=15)


def poly(*coeffs):
    return MonicIntPoly(tuple(coeffs))


# ---------------------------------------------------------------------------
# factorization over Z


def test_factor_examples():
    # x^4 - 1 = (x-1)(x+1)(x^2+1)
    fac = ga.factor_over_Z(poly(0, 0, 0, -1))
    degs = sorted(g.degree for g, e in fac for _ in range(e))
    assert degs == [1, 1, 2]
    # x^4 + 4 = (x^2-2x+2)(x^2+2x+2), irreducible-looking but not
    fac = ga.factor_over_Z(poly(0, 0, 0, 4))
    assert sorted(tuple(g.coeffs) for g, e in fac) == [(-2, 2), (2, 2)]
    assert ga.is_irreducible(poly(0, 0, 0, 0, -1, -1))  # x^5 - x - 1


def test_factor_repeated():
    # (x-2)^2 (x+1)
    f = poly(-3, 0, 4)
    fac = dict((tuple(g.coeffs), e) for g, e in ga.factor_over_Z(f))
    assert fac == {(-2,): 2, (1,): 1}


def test_pure_power_factored_once(monkeypatch):
    """The chain of g^3 holds three equal parts g; Zassenhaus runs once
    and the factors keep multiplicity 3."""
    calls = []
    zassenhaus = ga._zassenhaus

    def counted(f, delta):
        calls.append(f)
        return zassenhaus(f, delta)

    monkeypatch.setattr(ga, "_zassenhaus", counted)
    g = poly(0, -2, 1)  # x^3 - 2x + 1 = (x - 1)(x^2 + x - 1)
    f = MonicIntPoly.from_full(pmul(pmul(g.full(), g.full()), g.full()))
    assert pa._squarefree_chain(f) == [g] * 3
    assert ga.factor_over_Z(f) == [(poly(-1), 3), (poly(1, -1), 3)]
    assert calls == [g]


def test_factor_matches_sympy_on_repeated_products():
    """factor_over_Z equals sympy's factor_list, in its own order, on
    seeded products g^k h of degree up to 12, most of them with disc 0."""
    rng = random.Random(5)
    zero = 0
    for _ in range(400):
        g = [1, *(rng.randrange(-4, 5) for _ in range(rng.randrange(1, 4)))]
        full = [1, *(rng.randrange(-4, 5) for _ in range(rng.randrange(0, 4)))]
        for _ in range(rng.randrange(1, 4)):
            full = pmul(full, g)
        f = MonicIntPoly.from_full(full)
        zero += disc(f) == 0
        _, found = sympy.factor_list(sympy.Poly(full, x))
        want = sorted((tuple(int(c) for c in h.all_coeffs()[1:]), e) for h, e in found)
        got = [(h.coeffs, e) for h, e in ga.factor_over_Z(f)]
        assert sorted(got, key=lambda t: (len(t[0]), t[0])) == got
        assert sorted(got) == want, full
    assert zero >= 200


@given(st.lists(small_coeff, min_size=1, max_size=7))
@settings(max_examples=100, deadline=None)
def test_factor_roundtrip_and_irreducibility(coeffs):
    f = MonicIntPoly(tuple(coeffs))
    fac = ga.factor_over_Z(f)
    prod = sympy.Integer(1)
    for g, e in fac:
        assert sympy.Poly([1, *g.coeffs], x).is_irreducible
        prod *= sympy.Poly([1, *g.coeffs], x).as_expr() ** e
    assert sympy.Poly(prod, x).all_coeffs() == [1, *f.coeffs]


# ---------------------------------------------------------------------------
# exact groups, known values


def galois_name_sympy(full):
    grp, _ = sympy.polys.numberfields.galoisgroups.galois_group(sympy.Poly(full, x))
    order = grp.order()
    n = len(full) - 1
    if n == 2:
        return "C2"
    if n == 3:
        return {3: "C3", 6: "S3"}[order]
    if n == 4:
        if order == 4:
            return "C4" if grp.is_cyclic else "V4"
        return {8: "D4", 12: "A4", 24: "S4"}[order]
    if n == 5:
        return {5: "C5", 10: "D5", 20: "F20", 60: "A5", 120: "S5"}[order]
    raise ValueError(n)


def test_quartic_known_groups():
    cases = {
        (0, 0, 0, 1): "V4",  # x^4 + 1
        (1, 1, 1, 1): "C4",  # 5th cyclotomic
        (0, 0, 0, -2): "D4",  # x^4 - 2
        (0, 0, 8, 12): "A4",
        (0, 0, -1, -1): "S4",  # x^4 - x - 1
    }
    for coeffs, name in cases.items():
        assert ga.classify(poly(*coeffs)).group == name
        assert galois_name_sympy([1, *coeffs]) == name


def _is_square_fraction(num, den):
    """Is the rational num/den a square in Q?"""
    if den < 0:
        num, den = -num, -den
    if num <= 0:
        return num == 0
    g = math.gcd(num, den)
    return ga._is_square(num // g) and ga._is_square(den // g)


def depressed_quartic_group(a, b, c, d):
    """Reference: the group from t^4 + Pt^2 + Qt + R = 256 f((t - a)/4).

    Its resolvent t^3 - 2P t^2 + (P^2 - 4R) t + Q^2 has a root 0 for a
    biquadratic; otherwise, with a single root beta, C4 iff
    -beta(-3 beta^2 + 4P beta + 16R) is a square.
    """
    P = 16 * b - 6 * a * a
    Q = 8 * a**3 - 32 * a * b + 64 * c
    R = -3 * a**4 + 16 * a * a * b - 64 * a * c + 256 * d
    delta = 16 * P**4 * R - 4 * P**3 * Q * Q - 128 * P * P * R * R + 144 * P * Q * Q * R - 27 * Q**4 + 256 * R**3
    roots = ga._integer_cubic_roots(-2 * P, P * P - 4 * R, Q * Q)
    if not roots:
        return "A4" if _is_square_fraction(delta, 4**12) else "S4"
    if len(roots) >= 3:
        return "V4"
    beta = roots[0]
    if beta == 0:
        return "C4" if _is_square_fraction(R * (P * P - 4 * R), 4**8 * 4**4) else "D4"
    return "C4" if ga._is_square(-beta * (-3 * beta * beta + 4 * P * beta + 16 * R)) else "D4"


def test_quartic_group_matches_depressed_quartic_reference():
    seen = Counter()
    for a1 in range(-4, 5):
        reducible = ct._factor_mask(4, 4, a1).ravel().tolist()
        for rest, masked in zip(itertools.product(range(-4, 5), repeat=3), reducible):
            coeffs = (a1, *rest)
            delta = ga.quartic_disc(*coeffs)
            assert delta == disc(poly(*coeffs))
            if delta == 0 or masked:
                continue
            name = ga.quartic_group_irreducible(*coeffs)
            assert name == depressed_quartic_group(*coeffs), coeffs
            seen[name] += 1
    assert set(seen) == {"C4", "V4", "D4", "A4", "S4"}, seen


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_kappe_warren_mask_matches_the_resolvent_oracle(dtype):
    """Every irreducible quartic of height <= 5 whose resolvent has exactly
    one integer root, decided as one batch, against the depressed quartic."""
    rows = []
    for a1 in range(-5, 6):
        reducible = ct._factor_mask(4, 5, a1).ravel().tolist()
        for (b, c, d), masked in zip(itertools.product(range(-5, 6), repeat=3), reducible):
            delta = ga.quartic_disc(a1, b, c, d)
            roots = ga._integer_cubic_roots(-b, a1 * c - 4 * d, 4 * b * d - a1 * a1 * d - c * c)
            if delta and not masked and len(roots) == 1:
                rows.append((a1, b, c, d, roots[0], delta))
    a, b, _, d, beta, delta = np.array(rows, dtype=dtype).T
    want = [depressed_quartic_group(*row[:4]) == "C4" for row in rows]
    assert ga._kappe_warren_mask(a, b, d, beta, delta).tolist() == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize(
    "ks, dtype",
    [((0, 1, 2**26 - 1, 2**26 + 1, 2**31 - 1), np.int64), ((2**70 - 1, 2**70, 2**100, 2**100 + 1), object)],
)
def test_square_mask_is_exact_next_to_squares(ks, dtype):
    """k^2 is a square and k^2 +- 1 is not (but for 0 and 1), in int64 up to
    k = 2^31 - 1 and in Python ints far beyond float precision."""
    near = [(k, e) for k in ks for e in (-1, 0, 1)]
    got = ga._square_mask(np.array([k * k + e for k, e in near], dtype=dtype).reshape(-1, 3))
    assert got.ravel().tolist() == [e == 0 or k * k + e in (0, 1) for k, e in near]


def lehmer_quintic(n):
    """Lehmer's cyclic quintic x^5 + n^2 x^4 - ... + 1, whose group is C5 for every n."""
    return (
        n * n,
        -(2 * n**3 + 6 * n * n + 10 * n + 10),
        n**4 + 5 * n**3 + 11 * n * n + 15 * n + 5,
        n**3 + 4 * n * n + 10 * n + 10,
        1,
    )


# one representative of each transitive quintic group, oracle-confirmed,
# with its resolvent sextic prod (y - theta_o), descending
KNOWN_QUINTICS = {
    (1, -4, -3, 3, 1): ("C5", [1, 30, 133, -2340, -12284, 29519, -3856]),
    (0, 0, 0, -5, 12): ("D5", [1, -40, 1000, -20000, 250000, -66400000, 976000000]),  # x^5 - 5x + 12
    (0, 0, 0, 0, -2): ("F20", [1, 0, 0, 0, 0, -50000, 0]),  # x^5 - 2
    (0, 0, 0, 20, 16): ("A5", [1, 160, 16000, 1280000, 64000000, 1433600000, 4096000000]),  # x^5 + 20x + 16
    (0, 0, 0, -1, -1): ("S5", [1, -8, 40, -160, 400, -3637, 9631]),  # x^5 - x - 1
}


def test_quintic_known_groups():
    cases = {coeffs: name for coeffs, (name, _) in KNOWN_QUINTICS.items()}
    cases.update({lehmer_quintic(n): "C5" for n in range(-3, 4)})
    for coeffs, name in cases.items():
        assert ga.classify(poly(*coeffs)).group == name, coeffs
        assert galois_name_sympy([1, *coeffs]) == name, coeffs


def split_primes(f, count):
    """The first `count` primes at which f has deg f distinct roots."""
    out = []
    p = 2
    while len(out) < count:
        if sympy.isprime(p) and disc(f) % p and sum(f(r) % p == 0 for r in range(p)) == f.degree:
            out.append(p)
        p += 1
    return out


def test_quintic_resolvent_sextic_pinned_and_prime_independent():
    for coeffs, (_, sextic) in KNOWN_QUINTICS.items():
        f = poly(*coeffs)
        p1, p2 = split_primes(f, 2)
        assert ga.quintic_resolvent_sextic(*ga._split_roots(f, p1)) == sextic, (coeffs, p1)
        assert ga.quintic_resolvent_sextic(*ga._split_roots(f, p2)) == sextic, (coeffs, p2)


def _lift_cases():
    """(f, factors mod p, p), ascending: five linear factors at split primes
    5..223, and Zassenhaus-shaped factorizations at p = 2, 3, 5."""
    rng = random.Random(3)
    cases = []
    for p in (5, 7, 11, 13, 31, 101, 223):
        roots = rng.sample(range(p), 5)
        f = [1]
        for r in roots:
            f = pmul(f, [-r, 1])
        f = [c + p * rng.randrange(-3, 4) for c in f[:-1]] + [1]
        cases.append((f, [[-r % p, 1] for r in roots], p))
    for p in (2, 3, 5):
        found = 0
        while found < 4:
            f = [rng.randrange(-9, 10) for _ in range(rng.randrange(3, 8))] + [1]
            factors = factor_mod_p(PolyModP.of(p, f))
            if len(factors) >= 2 and all(e == 1 for _, e in factors):
                cases.append((f, [list(g.coeffs) for g, _ in factors], p))
                found += 1
    return cases


def test_hensel_lift_is_monic_and_multiplies_to_f():
    for f, factors, p in _lift_cases():
        target = p**12
        lifted = ga._hensel_lift_list(f, [g[:] for g in factors], p, target)
        assert len(lifted) == len(factors)
        for g, h in zip(lifted, factors):
            assert len(g) == len(h) and g[-1] == 1, (f, p)
            assert [c % p for c in g] == h, (f, p)
        prod = [1]
        for g in lifted:
            prod = pmul(prod, g, target)
        assert prod == [c % target for c in f], (f, p)


@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_exact_group_matches_sympy_low_degree(coeffs):
    f = MonicIntPoly(tuple(coeffs))
    if disc(f) == 0:
        return
    name = ga.classify(f).group
    full = [1, *coeffs]
    if not sympy.Poly(full, x).is_irreducible:
        assert name is None
        return
    assert name == galois_name_sympy(full)


def test_exact_group_matches_sympy_quintics():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        coeffs = tuple(rng.randrange(-6, 7) for _ in range(5))
        f = MonicIntPoly(coeffs)
        if disc(f) == 0:
            continue
        checked += 1
        name = ga.classify(f).group
        full = [1, *coeffs]
        if not sympy.Poly(full, x).is_irreducible:
            assert name is None
        else:
            assert name == galois_name_sympy(full)


def test_classify_verdicts():
    v = ga.classify(poly(0, -1, 0, 0))  # x^4 - x^2 = x^2(x-1)(x+1), disc 0
    assert v.status == "reducible" and sorted(v.factor_degrees) == [1, 1, 1, 1]
    v = ga.classify(poly(0, 0, 0, -1, -1))
    assert v.status == "exactGroup" and v.group == "S5"
    assert v.order == 120 and v.transitivity_class == "5T5"
    with pytest.raises(DegreeOutOfRange):
        ga.classify(poly(0, 0, 0, 0, 0, -1))


def test_classify_reducible_with_nonzero_disc():
    v = ga.classify(poly(0, -1))  # x^2 - 1 = (x-1)(x+1), disc 4
    assert v.status == "reducible" and v.factor_degrees == (1, 1)


# ---------------------------------------------------------------------------
# the S_n certificate for degrees beyond 5


def test_classify_computes_each_discriminant_once(monkeypatch):
    """`classify` reuses the discriminant that factoring computed: one `disc`
    for each of the 81 quartics with coefficients in {-1, 0, 1}, then one
    for each distinct part of degree >= 2 of `_squarefree_chain` (computing it three
    times for a squarefree f made 193 calls)."""
    quartics = [poly(*c) for c in itertools.product((-1, 0, 1), repeat=4)]
    want = []
    for f in quartics:
        want.append(f)
        if disc(f) == 0:
            want += [g for g, _ in itertools.groupby(pa._squarefree_chain(f)) if g.degree >= 2]
    assert len(want) == 93
    calls = []

    def counting_disc(f):
        calls.append(f)
        return disc(f)

    for mod in (ga, pa):
        monkeypatch.setattr(mod, "disc", counting_disc)
    verdicts = Counter(v.group or v.factor_degrees for v in map(ga.classify, quartics))
    assert calls == want
    assert verdicts == {(1, 3): 24, "S4": 20, (1, 1, 2): 14, "D4": 10, (1, 1, 1, 1): 6, (2, 2): 3, "C4": 2, "V4": 2}


def test_sn_certificate_quintic():
    v = ga.sn_certificate(poly(0, 0, 0, -1, -1), prime_budget=50)
    assert v.status == "certifiedSn"
    assert v.evidence  # carries the witnessing (p, splitting degrees) pairs


def test_sn_certificate_square_disc():
    f = poly(0, -3, -1)  # cubic with disc 81
    assert ga.sn_certificate(f).status == "certifiedSubsetAn"


def test_sn_certificate_never_certifies_small_group():
    # x^5 - 2 has group F20; no amount of sampling may produce an S5 certificate
    v = ga.sn_certificate(poly(0, 0, 0, 0, -2), prime_budget=60)
    assert v.status == "unresolved"


def test_sn_certificate_degree_7():
    v = ga.sn_certificate(poly(0, 0, 0, 0, 0, -1, -1), prime_budget=80)
    assert v.status in ("certifiedSn", "unresolved")
    # x^7 - x - 1 is a standard S7 polynomial; the witnesses should be found
    assert v.status == "certifiedSn"


@pytest.mark.parametrize("c", [2**70 + 1, -(2**63 + 1)], ids=["2^70+1", "-(2^63+1)"])
def test_frobenius_walk_takes_coefficients_beyond_int64(c):
    """x^5 - x - c and x^6 - x - c, with a coefficient past int64, go
    through the walk's coefficient array as dtype=object.  A row holding
    2^63 + 1 beside -1 is one numpy would infer as float64."""
    assert ga.quintic_group_irreducible(poly(0, 0, 0, -1, -c)) == "S5"
    assert ga.sn_certificate(poly(0, 0, 0, 0, -1, -c), 25).status == "certifiedSn"


def test_sn_certificate_rejects_zero_disc():
    with pytest.raises(UsageError):
        ga.sn_certificate(poly(-2, 1))


def _scalar_sn_certificate(f, prime_budget):
    """The per-polynomial certificate rule, prime by prime with a complete
    factorization mod p."""
    n = f.degree
    delta = disc(f)
    if ga._is_square(delta):
        return ga.GaloisVerdict("certifiedSubsetAn")
    evidence = []
    have_ncycle = have_ell = have_transposition = False
    for p in ga._ascending_primes():
        if len(evidence) >= prime_budget:
            break
        if delta % p == 0:
            continue
        fac = factor_mod_p(PolyModP.of(p, list(reversed(f.full()))))
        degs = sorted((g.degree for g, _ in fac), reverse=True)
        evidence.append((p, tuple(degs)))
        have_ncycle |= degs == [n]
        have_ell |= any(n / 2 < d < n and ga.is_prime(d) for d in degs)
        have_transposition |= [d for d in degs if d % 2 == 0] == [2]
        if have_ncycle and have_ell and have_transposition:
            return ga.GaloisVerdict("certifiedSn", evidence=tuple(evidence))
    return ga.GaloisVerdict("unresolved", evidence=tuple(evidence))


def test_sn_certificates_match_the_scalar_rule_on_every_sextic_of_height_1():
    polys = [MonicIntPoly(c) for c in itertools.product((-1, 0, 1), repeat=6)]
    polys = [f for f in polys if disc(f) != 0 and ga.is_irreducible(f)]
    want = [_scalar_sn_certificate(f, 25) for f in polys]
    assert Counter(v.status for v in want) == {"certifiedSn": 236, "unresolved": 36, "certifiedSubsetAn": 20}
    assert ga.sn_certificates(polys, [disc(f) for f in polys], prime_budget=25) == want
    assert [ga.sn_certificate(f, prime_budget=25) for f in polys[::7]] == want[::7]


def test_sn_certificates_batch_errors():
    with pytest.raises(UsageError):
        ga.sn_certificates([poly(0, -1, 0)], [0])
    with pytest.raises(RamifiedOnly):
        ga.sn_certificates([poly(0, 0, -1, -1)], [disc(poly(0, 0, -1, -1))], prime_budget=0)
    assert ga.sn_certificates([], [], prime_budget=0) == []


def test_quintic_groups_batch_matches_one_at_a_time():
    polys, deltas = map(list, zip(*ct._unmasked(ct.CountLedger(n=5, H=2), 2, 0)))
    names = ga.quintic_groups(polys, deltas)
    assert names == [ga.quintic_group_irreducible(f) for f in polys]
    assert {"S5", "A5", "D5", "F20"} <= set(names)


def test_certificate_cycle_types_realized_by_exact_group():
    # sampled Frobenius splitting degrees must be cycle types of the true group
    from galcount import permgroup as pg

    rng = random.Random(23)
    checked = 0
    while checked < 10:
        coeffs = tuple(rng.randrange(-5, 6) for _ in range(4))
        f = MonicIntPoly(coeffs)
        name = ga.classify(f).group
        if name is None:
            continue
        checked += 1
        G = ga.transitive_group(name)
        types = {
            tuple(sorted((len(c) for c in pg.Permutation(e).cycles()), reverse=True))
            for e in G.elements()
        }
        v = ga.sn_certificate(f, prime_budget=15)
        for _, degs in v.evidence:
            assert tuple(sorted(degs, reverse=True)) in types


# ---------------------------------------------------------------------------
# catalogue consistency


# (primitive, ind, min_moved) of each named group
GROUP_INVARIANTS = {
    "C2": (True, 1, 2),
    "C3": (True, 2, 3),
    "S3": (True, 1, 2),
    "C4": (False, 2, 4),
    "V4": (False, 2, 4),
    "D4": (False, 1, 2),
    "A4": (True, 2, 3),
    "S4": (True, 1, 2),
    "C5": (True, 4, 5),
    "D5": (True, 2, 4),
    "F20": (True, 2, 4),
    "A5": (True, 2, 3),
    "S5": (True, 1, 2),
}


def test_transitive_group_orders_match_table():
    from galcount import permgroup as pg

    assert set(GROUP_INVARIANTS) == set(ga.GROUPS)
    for name, (order, label) in ga.GROUPS.items():
        G = ga.transitive_group(name)
        entry = pg.catalogue_entry(G)
        assert entry["name"] == name and entry["order"] == order and entry["transitive"], name
        assert G.degree == int(label.split("T")[0])
        assert (entry["primitive"], entry["ind"], entry["min_moved"]) == GROUP_INVARIANTS[name], name
    with pytest.raises(UsageError):
        ga.transitive_group("C7")
