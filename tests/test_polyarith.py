"""Exact integer/F_p polynomial arithmetic: discriminants, factoring, indices."""

import collections
import functools
import itertools
import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from galcount import fourier, galois
from galcount import polyarith as pa
from galcount.errors import (
    CharacteristicTooSmall,
    DegreeTooSmall,
    InternalError,
    NotPrime,
    NotSquarefreeModP,
    SubsetSumZero,
    ToleranceUnreachable,
    UsageError,
)

x = sympy.Symbol("x")


def to_sympy(full_desc):
    return sympy.Poly(full_desc, x)


small_coeff = st.integers(min_value=-20, max_value=20)


# ---------------------------------------------------------------------------
# resultants and discriminants
#
# The Sylvester resultant is the oracle for the Hankel `disc` and for
# `double_disc`: Res(f, g) is (-1)^(deg f deg g) times the determinant of the
# Sylvester matrix with the f-rows first, so that Res(x-a, x-b) = b-a, and
# disc_general(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f).


def sylvester_matrix(f: list[int], g: list[int]) -> list[list[int]]:
    f, g = pa._trim(list(f)), pa._trim(list(g))
    m, n = len(f) - 1, len(g) - 1
    return [[0] * i + f + [0] * (n - 1 - i) for i in range(n)] + [[0] * i + g + [0] * (m - 1 - i) for i in range(m)]


def resultant(f: list[int], g: list[int]) -> int:
    f, g = pa._trim(list(f)), pa._trim(list(g))
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    det = pa._det_bareiss(sylvester_matrix(f, g))
    return -det if (m * n) % 2 else det


def disc_general(f: list[int]) -> int:
    f = pa._trim(list(f))
    d = len(f) - 1
    if d == 1:
        return 1
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    q, r = divmod(sign * resultant(f, pa._deriv(f)), f[0])
    assert r == 0
    return q


def test_resultant_examples():
    assert resultant([1, -2], [1, -5]) == 3
    assert resultant([1, 0, 1], [1, 0, -1]) == 4
    f = [1, 0, -3, -1]
    fp = [3, 0, -3]
    assert abs(resultant(f, fp)) == 81


def test_disc_examples():
    assert pa.disc(pa.MonicIntPoly((3, 2))) == 1
    assert pa.disc(pa.MonicIntPoly((0, -3, -1))) == 81


def test_disc_trinomial_identity():
    # disc(x^n + b x + c) = +-(n^n c^(n-1) - (n-1)^(n-1) (-b)^n); the sign
    # is the (-1)^(n(n-1)/2) convention factor, checked as an exact match
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(2, 9)
        b = rng.randrange(-50, 51)
        c = rng.randrange(-50, 51)
        f = pa.MonicIntPoly((*([0] * (n - 2)), b, c))
        formula = n**n * c ** (n - 1) - (n - 1) ** (n - 1) * (-b) ** n
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        assert pa.disc(f) == sign * formula


@given(
    st.lists(small_coeff, min_size=2, max_size=6),
    st.lists(small_coeff, min_size=2, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_resultant_matches_sylvester_determinant(fc, gc):
    # oracle: Sylvester matrix built independently, exact sympy determinant.
    # (sympy.resultant itself is PRS-based and drops the sign in some
    # degenerate cases, e.g. Res(x^3+1, x^5).)
    f = [1, *fc]
    g = [1, *gc]
    m, n = len(f) - 1, len(g) - 1
    rows = []
    for i in range(n):
        rows.append([0] * i + f + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + g + [0] * (m - 1 - i))
    det = int(sympy.Matrix(rows).det())
    sign = -1 if (m * n) % 2 else 1
    assert resultant(f, g) == sign * det


def _res_mod_p(f: list[int], g: list[int], p: int) -> int:
    """Resultant mod p by the Euclidean product formula."""
    a = [c % p for c in pa._trim(f)]
    b = [c % p for c in pa._trim(g)]
    a, b = pa._trim(a), pa._trim(b)
    res = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db < 0:
            return 0
        if db == 0:
            return res * pow(b[0], da, p) % p
        # remainder of a by b
        lcb = b[0]
        inv = pow(lcb, p - 2, p)
        r = a[:]
        for i in range(da - db + 1):
            q = r[i] * inv % p
            if q:
                for j in range(db + 1):
                    r[i + j] = (r[i + j] - q * b[j]) % p
        r = pa._trim(r)
        dr = len(r) - 1 if r != [0] else -1
        if dr < 0:
            return 0
        res = res * pow(lcb, da - dr, p) % p
        if (da * db) % 2 == 1:
            res = (-res) % p
        a, b = b, r


@functools.lru_cache(maxsize=1)
def _crt_primes() -> list[int]:
    out = []
    q = 1 << 30
    while len(out) < 64:
        q += 1
        if pa.is_prime(q):
            out.append(q)
    return out


def resultant_crt(f: list[int], g: list[int]) -> int:
    """Independent code path: CRT over primes past the Hadamard bound."""
    f, g = pa._trim(list(f)), pa._trim(list(g))
    if f == [0] or g == [0]:
        raise UsageError("resultant of the zero polynomial")
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    bound = 1
    for row in sylvester_matrix(f, g):
        bound *= math.isqrt(sum(c * c for c in row)) + 1
    primes, modulus, res = [], 1, 0
    pool = iter(_crt_primes())
    while modulus <= 2 * bound:
        try:
            p = next(pool)
        except StopIteration:  # extend the pool
            q = _crt_primes()[-1] + 1
            while not pa.is_prime(q) or q in primes:
                q += 1
            p = q
        if f[0] % p == 0 or g[0] % p == 0:
            continue
        rp = _res_mod_p(f, g, p)
        # CRT combine
        inv = pow(modulus % p, p - 2, p) if modulus > 1 else 1
        res = res + modulus * ((rp - res) * inv % p)
        modulus *= p
        primes.append(p)
    res %= modulus
    if res > modulus // 2:
        res -= modulus
    return -res if (m * n) % 2 else res


def disc_crt(f: pa.MonicIntPoly) -> int:
    """disc through resultant_crt, with the sign convention of pa.disc."""
    d = f.degree
    if d == 1:
        return 1
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant_crt(f.full(), pa._deriv(f.full()))


@given(st.lists(small_coeff, min_size=1, max_size=7))
@settings(max_examples=80, deadline=None)
def test_bareiss_and_crt_resultant_agree(coeffs):
    f = pa.MonicIntPoly(tuple(coeffs))
    assert pa.disc(f) == disc_crt(f)


@given(
    st.lists(small_coeff, min_size=1, max_size=5),
    st.lists(small_coeff, min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_disc_product_formula(fc, gc):
    f = [1, *fc]
    g = [1, *gc]
    prod = [int(c) for c in (to_sympy(f) * to_sympy(g)).all_coeffs()]
    lhs = disc_general(prod)
    rhs = disc_general(f) * disc_general(g) * resultant(f, g) ** 2
    assert lhs == rhs


def test_disc_zero_iff_repeated_root():
    assert pa.disc(pa.MonicIntPoly((-2, 1))) == 0  # (x-1)^2
    assert pa.disc(pa.MonicIntPoly((0, -1))) != 0


def test_hankel_disc_matches_sylvester_disc():
    """`disc` (power-sum Hankel determinant) equals `disc_general` (Sylvester)
    on random rows and on g^2 h rows, whose discriminant is 0, for n = 1..7."""
    rng = random.Random(8)
    for n in range(1, 8):
        for H in (1, 3, 50, 10**6):
            for _ in range(60):
                f = pa.MonicIntPoly(tuple(rng.randint(-H, H) for _ in range(n)))
                assert pa.disc(f) == disc_general(f.full())
        for _ in range(60):
            k = rng.randint(1, n // 2) if n >= 2 else 0
            g = [1, *(rng.randint(-4, 4) for _ in range(k))]
            h = [1, *(rng.randint(-4, 4) for _ in range(n - 2 * k))]
            f = pa.MonicIntPoly.from_full(pa.pmul(pa.pmul(g, g), h))
            assert pa.disc(f) == disc_general(f.full())
            assert k == 0 or pa.disc(f) == 0


def test_disc_of_a_constant_is_a_usage_error():
    with pytest.raises(UsageError):
        pa.disc(pa.MonicIntPoly(()))


# ---------------------------------------------------------------------------
# factor_mod_p


def poly_mod(p, full_desc):
    return pa.PolyModP.of(p, [c % p for c in reversed(full_desc)])


def test_factor_mod_p_examples():
    fac = pa.factor_mod_p(poly_mod(3, [1, 0, 0, 1]))
    assert [(list(g.coeffs), e) for g, e in fac] == [([1, 1], 3)]
    fac = pa.factor_mod_p(poly_mod(5, [1, 0, 1]))
    assert sorted((tuple(g.coeffs), e) for g, e in fac) == [((2, 1), 1), ((3, 1), 1)]
    fac = pa.factor_mod_p(poly_mod(2, [1, 0, 0, 0, 1]))
    assert [(list(g.coeffs), e) for g, e in fac] == [([1, 1], 4)]


def test_factor_mod_p_requires_prime():
    with pytest.raises(NotPrime):
        pa.factor_mod_p(poly_mod(9, [1, 0, 1]))


def assert_factor_mod_p_matches_sympy(p, full):
    fac = pa.factor_mod_p(poly_mod(p, full))
    # product reproduces f
    prod = [1]
    for g, e in fac:
        for _ in range(e):
            prod = pa.pmul(prod, list(g.coeffs), p)
    assert prod == [c % p for c in reversed(full)]
    ours = sorted((tuple(reversed(g.coeffs)), e) for g, e in fac)
    _, ref = sympy.factor_list(sympy.Poly(full, x, modulus=p).set_domain(sympy.GF(p, symmetric=False)))
    theirs = sorted((tuple(int(c) % p for c in g.all_coeffs()), e) for g, e in ref)
    assert ours == theirs
    return fac


@given(
    st.integers(min_value=0, max_value=4).map(lambda i: [2, 3, 5, 7, 11][i]),
    st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=7),
)
@settings(max_examples=120, deadline=None)
def test_factor_mod_p_matches_sympy(p, tail):
    assert_factor_mod_p_matches_sympy(p, [1, *[c % p for c in tail]])


@pytest.mark.parametrize(
    "p, full, factors",
    [
        (2, [1, *[0] * 14, 1, 0], 6),  # x^16 - x: every irreducible of degree 1, 2 or 4
        (3, [1, *[0] * 7, -1, 0], 6),  # x^9 - x: degree 1 or 2
        (13, [1, *[0] * 11, -1], 12),  # x^12 - 1: the twelve units
        (7, [1, *[0] * 5, -1, 0], 7),  # x^7 - x: all of F_7
    ],
    ids=["x16-x_F2", "x9-x_F3", "x12-1_F13", "x7-x_F7"],
)
def test_factor_mod_p_splits_by_several_kernel_vectors(p, full, factors):
    """Berlekamp kernels of dimension 6 to 12.  One basis vector takes at
    most p values on the factors, so over F_2 and F_3 it cannot separate
    six of them, and the splits must go on to further vectors."""
    assert len(assert_factor_mod_p_matches_sympy(p, full)) == factors


# ---------------------------------------------------------------------------
# splitting types and indices


def test_splitting_type_examples():
    t = pa.splitting_type(pa.MonicIntPoly((0, 0, 1)), 3)
    assert t.parts == ((1, 3),) and t.ind == 2
    t = pa.splitting_type(pa.MonicIntPoly((0, -1, 0)), 5)
    assert t.parts == ((1, 1), (1, 1), (1, 1)) and t.ind == 0
    t = pa.splitting_type(pa.MonicIntPoly((-1, 0, 0)), 7)
    assert sorted(t.parts) == [(1, 1), (1, 2)] and t.ind == 1


def test_splitting_type_identities():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(1, 7)
        p = rng.choice([2, 3, 5, 7, 11])
        f = pa.MonicIntPoly(tuple(rng.randrange(-9, 10) for _ in range(n)))
        t = pa.splitting_type(f, p)
        assert t.deg == n
        assert t.deg == t.ind + sum(f for f, _ in t.parts)
        assert t.aut_count >= 1
        if len({part for part in t.parts}) == len(t.parts):
            expect = 1
            for d, e in t.parts:
                expect *= d
            assert t.aut_count == expect


def test_splitting_type_matches_full_factorization():
    """The squarefree and distinct-degree stages alone give the type of the
    complete factorization, ramified primes included."""
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 8)
        p = rng.choice([2, 3, 5, 7, 13, 97])
        f = pa.MonicIntPoly(tuple(rng.randrange(-4, 5) for _ in range(n)))
        fac = pa.factor_mod_p(pa.PolyModP.of(p, list(reversed(f.full()))))
        assert pa.splitting_type(f, p) == pa.SplittingType.of((g.degree, e) for g, e in fac)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 97])
@pytest.mark.parametrize("n", range(2, 8))
def test_frobenius_cycle_types_match_splitting_type(n, p):
    """The degrees of the squarefree rows' factors, from Berlekamp's
    `factor_mod_p` (`splitting_type` reads `frobenius_cycle_types` itself)."""
    rng = random.Random(100 * n + p)
    rows, want = [], []
    while len(rows) < 60:
        coeffs = tuple(rng.randrange(-6, 7) for _ in range(n))
        fac = pa.factor_mod_p(pa.PolyModP.of(p, [*reversed(coeffs), 1]))
        if all(e == 1 for _, e in fac):
            rows.append(coeffs)
            want.append(tuple(sorted((g.degree for g, _ in fac), reverse=True)))
    deltas = [pa.disc(pa.MonicIntPoly(r)) for r in rows]
    assert pa.frobenius_cycle_types(rows, deltas, p) == want
    assert pa.frobenius_cycle_types(rows[:1], deltas[:1], p) == want[:1]


def test_frobenius_cycle_types_object_path():
    # n p^2 >= 2^62 switches to Python ints
    p = 2**31 - 1
    f = pa.MonicIntPoly((0, 0, 0, -1, -1))
    _, ref = sympy.factor_list(to_sympy(f.full()).as_expr(), modulus=p)
    want = tuple(sorted((sympy.degree(g, x) for g, e in ref for _ in range(e)), reverse=True))
    assert want == (2, 1, 1, 1)
    assert pa.frobenius_cycle_types([f.coeffs], [pa.disc(f)], p) == [want]


def _types_by_chunks(rows, deltas, p):
    return [
        t
        for at in pa.chunks(range(len(rows)))
        for t in pa.frobenius_cycle_types([rows[i] for i in at], [deltas[i] for i in at], p)
    ]


@pytest.mark.parametrize("n, p", [(n, p) for p in (2, 3, 5) for n in range(1, 7)] + [(5, 7)])
def test_frobenius_cycle_types_match_the_type_map_on_every_row(n, p):
    """Every monic row of F_p^n whose discriminant p does not divide gets
    the degrees of its type in `fourier._type_map`, which builds the types
    from products of irreducibles, not from Frobenius."""
    types, labels, _ = fourier._type_map(fourier.WeightSpace("monic", p, n))
    rows, deltas, want = [], [], []
    for row in itertools.product(range(p), repeat=n):
        if (delta := pa.disc(pa.MonicIntPoly(row))) % p:
            tau = types[labels[row]]
            assert all(e == 1 for _, e in tau.parts)
            rows.append(row)
            deltas.append(delta)
            want.append(tuple(sorted((f for f, _ in tau.parts), reverse=True)))
    assert _types_by_chunks(rows, deltas, p) == want


@pytest.mark.parametrize("n", range(1, 8))
def test_frobenius_cycle_types_at_2_do_not_depend_on_the_lift(n):
    """Shifting the coefficients by even integers keeps f mod 2 and moves
    the discriminant between lifts; the mod-8 sign must not notice."""
    rng = random.Random(f"lift-{n}")
    rows, shifted = [], []
    for row in itertools.product(range(2), repeat=n):
        if pa.disc(pa.MonicIntPoly(row)) % 2:
            rows.append(row)
            shifted += [tuple(a + 2 * rng.randrange(-20, 21) for a in row) for _ in range(5)]
    want = [t for t in _types_by_chunks(rows, [pa.disc(pa.MonicIntPoly(r)) for r in rows], 2) for _ in range(5)]
    assert {pa.disc(pa.MonicIntPoly(r)) % 8 for r in shifted} <= {1, 5}
    assert _types_by_chunks(shifted, [pa.disc(pa.MonicIntPoly(r)) for r in shifted], 2) == want


@pytest.mark.parametrize("n, p", [(n, p) for p in (97, 1009) for n in range(2, 8)] + [(2, 2), (7, 7)])
def test_frobenius_cycle_types_agree_across_the_root_count_bound(n, p, monkeypatch):
    """A batch of N rows counts the roots by evaluation while N p <=
    DECIDE_CHUNK n^2, and as the nullity of C^p - C above; the same rows
    get the same types either way.  At p = 2 and 7 the largest scanned
    batch meets the bound exactly."""
    scans = []
    root_counts = pa._root_counts
    monkeypatch.setattr(pa, "_root_counts", lambda rows, p: scans.append(len(rows)) or root_counts(rows, p))
    rng = random.Random(f"bound-{n}-{p}")
    below = pa.DECIDE_CHUNK * n * n // p
    rows, deltas = [], []
    while len(rows) < below + 1:
        row = tuple(rng.randrange(-50, 51) for _ in range(n))
        if (delta := pa.disc(pa.MonicIntPoly(row))) % p:
            rows.append(row)
            deltas.append(delta)
    above = pa.frobenius_cycle_types(rows, deltas, p)
    assert scans == []
    assert pa.frobenius_cycle_types(rows[:below], deltas[:below], p) == above[:below]
    assert pa.frobenius_cycle_types(rows[1:], deltas[1:], p) == above[1:]
    assert scans == [below, below]


@pytest.mark.parametrize("p, cubic, unit", [(2, (0, 1, 1), 5), (7, (0, 0, -2), 3), (2**31 - 1, (0, 0, -5), 3)])
def test_frobenius_cycle_types_reject_a_wrong_discriminant_sign(p, cubic, unit):
    """x (x - 1) g, for a cubic g irreducible mod p, has type (3, 1, 1): two
    fixed points and an even sign.  Its discriminant times a non-residue
    (times 5 at p = 2, which swaps 1 and 5 mod 8) claims an odd sign, and
    no partition of 5 has two fixed points and an odd sign."""
    row = tuple(pa.pmul([1, -1, 0], [1, *cubic])[1:])
    delta = pa.disc(pa.MonicIntPoly(row))
    assert pa.frobenius_cycle_types([row], [delta], p) == [(3, 1, 1)]
    with pytest.raises(InternalError, match=re.escape(f"row {list(row)} with discriminant {delta * unit} has")):
        pa.frobenius_cycle_types([row], [delta * unit], p)


def _nonsquarefree_rows(n, rng, count):
    """Rows (a_1..a_n) of g^e h with g, h monic and e >= 2: not squarefree
    at any prime."""
    rows = []
    for _ in range(count):
        d = rng.randrange(1, n // 2 + 1)
        e = rng.randrange(2, n // d + 1)
        g = [1, *(rng.randrange(-4, 5) for _ in range(d))]
        f = [1, *(rng.randrange(-4, 5) for _ in range(n - d * e))]
        for _ in range(e):
            f = pa.pmul(f, g)
        rows.append(tuple(f[1:]))
    return rows


def test_frobenius_cycle_types_rejects_a_ramified_row():
    # x^2 - 4 = (x - 2)(x + 2) has the double root 0 mod 2, and x^3 - x^2
    # the double root 0 at every p
    with pytest.raises(NotSquarefreeModP, match="not squarefree mod 2"):
        pa.frobenius_cycle_types([(1, 1), (0, -4)], [-3, 16], 2)
    for p in (2, 3, 97):
        with pytest.raises(NotSquarefreeModP):
            pa.frobenius_cycle_types([(0, -1, 1), (-1, 0, 0)], [-23, 0], p)
    with pytest.raises(NotPrime):
        pa.frobenius_cycle_types([(0, 1)], [-4], 9)
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 13):
        for n in range(2, 8):
            squarefree, deltas = [], []
            while len(squarefree) < 10:
                row = tuple(rng.randrange(-6, 7) for _ in range(n))
                if (delta := pa.disc(pa.MonicIntPoly(row))) % p:
                    squarefree.append(row)
                    deltas.append(delta)
            for row in _nonsquarefree_rows(n, rng, 10):
                delta = pa.disc(pa.MonicIntPoly(row))
                with pytest.raises(NotSquarefreeModP, match=f"not squarefree mod {p}"):
                    pa.frobenius_cycle_types([row], [delta], p)
                at = rng.randrange(len(squarefree) + 1)
                with pytest.raises(NotSquarefreeModP, match=re.escape(f"row {list(row)} is")):
                    pa.frobenius_cycle_types(
                        squarefree[:at] + [row] + squarefree[at:], deltas[:at] + [delta] + deltas[at:], p
                    )


def _rank_mod_p(rows, p):
    """Rank over F_p by Gauss-Jordan elimination with inverses, one matrix."""
    rows = [[a % p for a in row] for row in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        rows[rank] = [a * inv % p for a in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                c = rows[i][j]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [2, 3, 97, 2**31 - 1])
@pytest.mark.parametrize("n", [1, 2, 5, 7])
def test_ranks_mod_p_match_a_scalar_elimination(n, p):
    """Zero, full-rank (a permuted unit triangle) and rank-deficient (a
    product through k < n) matrices in one stack; p = 2^31 - 1 takes the
    dtype=object path, as in `_frobenius_matrix`."""
    rng = random.Random(f"ranks-{n}-{p}")
    big = n * p * p >= 2**62
    mats, want = [], []
    for i in range(60):
        kind = i % 3
        if kind == 0:
            m = [[0] * n for _ in range(n)]
        elif kind == 1:
            tri = [[(1 if a == b else rng.randrange(p)) if b >= a else 0 for b in range(n)] for a in range(n)]
            m = rng.sample(tri, n)
        else:
            k = rng.randrange(n)
            u = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
            v = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
            m = [[sum(u[a][t] * v[t][b] for t in range(k)) % p for b in range(n)] for a in range(n)]
        mats.append(m)
        want.append(_rank_mod_p(m, p))
        if kind < 2:
            assert want[-1] == (0 if kind == 0 else n)
    A = np.array(mats, dtype=object if big else np.int64).reshape(len(mats), n, n)
    assert pa._ranks_mod_p(A, p).tolist() == want


def ppow_mod(base, e, mod, p):
    """base^e mod (mod, p), ascending, by square-and-multiply on lists."""
    result = [1]
    base = pa.pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = pa.pdivmod(pa.pmul(result, base, p), mod, p)[1]
        base = pa.pdivmod(pa.pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 97, 223, 2**31 - 1])
@pytest.mark.parametrize("n", range(1, 8))
def test_frobenius_matrix_rows_are_powers_of_x(n, p):
    """Row i of Q is x^(ip) mod f; p = 2^31 - 1 takes the dtype=object path."""
    rng = random.Random(10 * n + p)
    rows = [tuple(rng.randrange(-6, 7) for _ in range(n)) for _ in range(4 if p > 2**30 else 20)]
    Q = pa._frobenius_matrix(np.array(rows), p)
    assert Q.dtype == (object if n * p * p >= 2**62 else np.int64)
    for row, q in zip(rows, Q):
        mod = [c % p for c in (*reversed(row), 1)]
        for i in range(n):
            r = ppow_mod([0, 1], i * p, mod, p)
            assert q[i].tolist() == [c % p for c in r] + [0] * (n - len(r))
    assert pa._frobenius_matrix(np.array(rows[:1]), p).tolist() == Q[:1].tolist()


@pytest.mark.parametrize("n, want", [(1, ()), (2, ()), (3, ()), (4, ()), (5, ()), (6, (2,)), (7, (4,))])
def test_nullity_table_is_a_smallest_separating_set(n, want):
    """The fixed points, the sign parity n - r mod 2 and the nullities
    sum_i gcd(d, d_i) for d in ds tell the partitions of n apart, and no
    fewer exponents do, even above n: a nullity depends on d only through
    gcd(d, m) for m <= n, so d = 1..lcm(1..n) covers all."""
    parts = list(pa._partitions(n))
    ds, table = pa._nullity_table(n)
    assert ds == want
    for lam in parts:
        key = (lam.count(1), (n - len(lam)) % 2, *(sum(math.gcd(d, m) for m in lam) for d in ds))
        assert table[key] == lam
    assert len(table) == len(parts)
    base = [(lam.count(1), (n - len(lam)) % 2) for lam in parts]
    columns = {tuple(sum(math.gcd(d, m) for m in lam) for lam in parts) for d in range(1, math.lcm(*range(1, n + 1)) + 1)}
    for r in range(len(ds)):
        for cols in itertools.combinations(columns, r):
            assert len({(*base[j], *(col[j] for col in cols)) for j in range(len(parts))}) < len(parts)


@pytest.mark.parametrize("n, p", [(n, p) for p in (2, 3, 5, 7, 13) for n in range(1, 8) if p**n <= 13**6])
def test_frobenius_index_matches_splitting_type(n, p):
    """ind(f mod p), the index of Frobenius at p, read off `index_table` at
    random rows and at rows with repeated factors mod p, against
    `splitting_type`; p^n stops at 13^6, the largest table a test builds."""
    rng = random.Random(1000 * n + p)
    rows = [tuple(rng.randrange(-6, 7) for _ in range(n)) for _ in range(40)]
    if n >= 2:
        rows += [(0,) * n] + _nonsquarefree_rows(n, rng, 20)
    tab = pa.index_table(p, n)
    got = [int(tab[np.ravel_multi_index([a % p for a in row], (p,) * n)]) for row in rows]
    assert got == [pa.splitting_type(pa.MonicIntPoly(row), p).ind for row in rows]


def test_splitting_type_index_examples():
    assert pa.splitting_type(pa.MonicIntPoly((0, 0, 1)), 3).ind == 2
    assert pa.splitting_type(pa.MonicIntPoly((1, -2, 3)), 5).ind == 0  # squarefree mod 5
    sq = sympy.Poly((x**2 + x + 1) ** 2, x).all_coeffs()
    assert pa.splitting_type(pa.MonicIntPoly(tuple(int(c) for c in sq[1:])), 5).ind == 2


def test_splitting_type_parse_roundtrip():
    t = pa.SplittingType.parse("1^2 1")
    assert t.parts == ((1, 1), (1, 2))
    assert pa.SplittingType.parse(str(t)) == t
    with pytest.raises(UsageError):
        pa.SplittingType.parse("0^2")


# ---------------------------------------------------------------------------
# double discriminant and the forced-index test


def test_disc_poly_in_last_matches_direct_disc():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(3, 6)
        prefix = tuple(rng.randrange(-6, 7) for _ in range(n - 1))
        poly = pa.disc_poly_in_last(n, prefix)
        for an in (-3, 0, 2, 11):
            val = sum(c * an ** (len(poly) - 1 - i) for i, c in enumerate(poly))
            assert val == pa.disc(pa.MonicIntPoly((*prefix, an)))


def test_double_disc_matches_sylvester_disc():
    """The monic rescaling in `double_disc` gives the Sylvester discriminant
    of the disc polynomial in a_n, whose leading coefficient -27 (n = 3),
    256 or 3125 is never 1."""
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(3, 6)
        prefix = tuple(rng.randrange(-9, 10) for _ in range(n - 1))
        assert pa.double_disc(pa.DoubleDiscInput(n, prefix)) == disc_general(pa.disc_poly_in_last(n, prefix))


def test_double_disc_examples():
    assert pa.double_disc(pa.DoubleDiscInput(3, (0, -3))) == 11664
    assert pa.double_disc(pa.DoubleDiscInput(3, (0, 0))) == 0
    with pytest.raises(DegreeTooSmall):
        pa.DoubleDiscInput(2, (1,))


def test_mod_p2_forced_test_examples():
    # triple root pattern mod 5: (x-1)^3 = x^3 - 3x^2 + 3x - 1
    assert pa.mod_p2_forced_test(5, 3, (-3, 3, -1))
    assert not pa.mod_p2_forced_test(5, 3, (0, 1, 1))  # squarefree mod 5
    with pytest.raises(NotPrime):
        pa.mod_p2_forced_test(4, 3, (0, 0, 0))


# ---------------------------------------------------------------------------
# Dedekind criterion and field discriminants


def test_dedekind_examples():
    assert not pa.dedekind_p_maximal(pa.MonicIntPoly((0, -5)), 2)
    assert pa.dedekind_p_maximal(pa.MonicIntPoly((0, 1)), 2)
    assert pa.dedekind_p_maximal(pa.MonicIntPoly((1, 1, 1)), 7)  # squarefree mod 7


def _dedekind_by_factor_mod_p(f, p):
    """The criterion with g* and h* built from the full factorization mod p."""
    gstar, hstar = [1], [1]
    for g, e in pa.factor_mod_p(pa.PolyModP.of(p, list(reversed(f.full())))):
        gstar = pa.pmul(gstar, list(g.coeffs), p)
        for _ in range(e - 1):
            hstar = pa.pmul(hstar, list(g.coeffs), p)
    glift = [c if c <= p // 2 else c - p for c in gstar]
    hlift = [c if c <= p // 2 else c - p for c in hstar]
    fasc = list(reversed(f.full()))
    diff = [a - b for a, b in itertools.zip_longest(pa.pmul(glift, hlift), fasc, fillvalue=0)]
    tbar = pa.ptrim([(d // p) % p for d in diff])
    return len(pa.pgcd(pa.pgcd(tbar, gstar, p), hstar, p)) == 1


def test_dedekind_matches_factor_mod_p_construction():
    verdicts = set()
    for p in (2, 3, 5):
        for n in (2, 3):
            for coeffs in itertools.product(range(-p, p + 1), repeat=n):
                f = pa.MonicIntPoly(coeffs)
                want = _dedekind_by_factor_mod_p(f, p)
                assert pa.dedekind_p_maximal(f, p) == want, (coeffs, p)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_field_disc_valuation_examples():
    f = pa.MonicIntPoly((0, 1))  # x^2 + 1, disc -4
    assert pa.field_disc_valuation(f, 5) == 0
    assert pa.field_disc_valuation(f, 2) == 2
    assert pa.field_disc_valuation(pa.MonicIntPoly((0, -5)), 2) is None


# ---------------------------------------------------------------------------
# completion counting


def test_count_index_completions_examples():
    assert pa.count_index_completions(5, 3, 2, (0,)) == 1
    assert pa.count_index_completions(7, 3, 2, (1,)) == 1
    with pytest.raises(UsageError):
        pa.count_index_completions(5, 3, 0, (0, 1))
    with pytest.raises(CharacteristicTooSmall):
        pa.count_index_completions(3, 3, 1, (0, 1))
    prefix = (1, 3)
    scan = sum(
        pa.splitting_type(pa.MonicIntPoly((*prefix, a, b)), 7).ind == 2 for a in range(7) for b in range(7)
    )
    assert pa.count_index_completions(7, 4, 2, prefix) == scan


@pytest.mark.parametrize("p,n", [(5, 3), (7, 4), (2, 4), (3, 3), (5, 5)])
def test_index_table_matches_pointwise(p, n):
    """Row-major over (a_1, ..., a_n), at p > n and at p <= n, where the
    index takes every value up to n - 1."""
    tab = pa.index_table(p, n)
    assert tab.shape == (p**n,)
    want = [pa.splitting_type(pa.MonicIntPoly(tup), p).ind for tup in itertools.product(range(p), repeat=n)]
    assert tab.tolist() == want
    assert max(want) == n - 1


def test_splitting_types_are_every_multiset_once_sorted():
    """Each degree's types, against a brute force over multisets of parts
    (f, e), and `fourier.sigmas_up_to` as their union, sorted by parts."""
    for d in range(8):
        parts = [(f, e) for f in range(1, d + 1) for e in range(1, d // f + 1)]
        brute = {
            combo
            for r in range(d + 1)
            for combo in itertools.combinations_with_replacement(parts, r)
            if sum(f * e for f, e in combo) == d
        }
        assert [t.parts for t in pa.splitting_types(d)] == sorted(brute)
    union = [t for d in range(1, 8) for t in pa.splitting_types(d)]
    assert fourier.sigmas_up_to(7) == sorted(union, key=lambda t: t.parts)


def test_join_tables_add_one_part():
    for d in range(1, 8):
        types = pa.splitting_types(d)
        for (k, e), table in pa.join_tables(d).items():
            below = pa.splitting_types(d - k * e)
            assert len(table) == len(below)
            for t, at in zip(below, table.tolist()):
                assert types[at] == pa.SplittingType.of((*t.parts, (k, e)))


def test_partition_bound_examples():
    assert pa.partition_bound(2, 1) == 1
    assert pa.partition_bound(3, 2) == 4
    for r in (1, 2, 3, 4):
        assert pa.partition_bound(0, r) == math.factorial(r)
    # q(k, r) counts the partitions of k with at most r parts
    for k in range(16):
        for r in range(1, 9):
            brute = sum(1 for lam in pa._partitions(k) if len(lam) <= r)
            assert pa.partition_bound(k, r) == brute * math.factorial(r), (k, r)


def test_power_sum_solution_count():
    assert pa.power_sum_solution_count(7, (1,), (3,)) == 1
    assert pa.power_sum_solution_count(7, (1, 1), (0, 0)) <= 2
    with pytest.raises(SubsetSumZero):
        pa.power_sum_solution_count(7, (1, 6), (0, 0))


def _power_sum_scan(p, weights):
    """{targets: solutions} for every target at once, by a scan of F_p^r."""
    r = len(weights)
    terms = [[[w * x**j for j in range(1, r + 1)] for x in range(p)] for w in weights]
    table = collections.Counter()
    for parts in itertools.product(*terms):
        table[tuple(sum(col) % p for col in zip(*parts))] += 1
    return table


def _zero_subset_sum(p, weights):
    return any(
        sum(c) % p == 0 for size in range(1, len(weights) + 1) for c in itertools.combinations(weights, size)
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_power_sum_solution_count_matches_a_scan(p):
    """Every (weights, targets) with r <= 3 over F_p."""
    for r in range(4):
        for weights in itertools.product(range(p), repeat=r):
            table = None if _zero_subset_sum(p, weights) else _power_sum_scan(p, weights)
            for targets in itertools.product(range(p), repeat=r):
                if table is None:
                    with pytest.raises(SubsetSumZero):
                        pa.power_sum_solution_count(p, weights, targets)
                else:
                    assert pa.power_sum_solution_count(p, weights, targets) == table[targets], (weights, targets)


@pytest.mark.parametrize("p,r", [(2, 0), (13, 0), (5, 4), (7, 4), (11, 4), (13, 4), (7, 5)])
def test_power_sum_solution_count_matches_a_scan_seeded(p, r):
    """Seeded weights and targets, unreduced and negative, with r = 0, 4, 5;
    half of the targets come from a point, so that most counts are nonzero."""
    rng = random.Random(f"power-sums-{p}-{r}")
    for _ in range(3):
        weights = tuple(rng.randrange(-3 * p, 3 * p) for _ in range(r))
        while _zero_subset_sum(p, weights):
            weights = tuple(rng.randrange(-3 * p, 3 * p) for _ in range(r))
        table = _power_sum_scan(p, weights)
        for k in range(30):
            if k % 2:
                targets = tuple(rng.randrange(-3 * p, 3 * p) for _ in range(r))
            else:
                xs = [rng.randrange(p) for _ in range(r)]
                targets = tuple(sum(w * x**j for w, x in zip(weights, xs)) + p * rng.randrange(-2, 3) for j in range(1, r + 1))
            want = table[tuple(t % p for t in targets)]
            assert pa.power_sum_solution_count(p, weights, targets) == want, (weights, targets)


def test_power_sum_solution_count_limits():
    # at r = 5, p = 31 with equal weights the power sums fix the multiset of
    # the x_i (Newton's identities, p > r), so the count is the number of
    # its orderings
    for xs, orderings in [((0, 1, 2, 3, 4), 120), ((1, 1, 2, 3, 30), 60), ((5, 5, 5, 7, 7), 10)]:
        targets = tuple(sum(x**j for x in xs) for j in range(1, 6))
        assert pa.power_sum_solution_count(31, (1,) * 5, targets) == orderings
    assert pa.power_sum_solution_count(31, (2,) * 5, (0,) * 5) == 1  # only x = 0
    # unreduced targets where no variable is left for the second half
    assert [pa.power_sum_solution_count(7, (1,), (t,)) for t in (10, -4, 3)] == [1, 1, 1]
    assert pa.power_sum_solution_count(7, (2, 3), (-2, 15)) == pa.power_sum_solution_count(7, (2, 3), (5, 1))
    big = (10**30, -(10**40))
    assert pa.power_sum_solution_count(7, (1, 2), big) == pa.power_sum_solution_count(7, (1, 2), tuple(c % 7 for c in big))
    with pytest.raises(SubsetSumZero):
        pa.power_sum_solution_count(31, (1, 2, 3, 4, 21), (0,) * 5)
    with pytest.raises(SubsetSumZero):
        pa.power_sum_solution_count(5, (1, 1, 1, 1, 1), (0,) * 5)  # five ones sum to 5
    for args in [(37, (1,), (0,)), (7, (1,) * 6, (0,) * 6), (7, (1, 2), (0,))]:
        with pytest.raises(UsageError):
            pa.power_sum_solution_count(*args)
    with pytest.raises(NotPrime):
        pa.power_sum_solution_count(9, (1,), (0,))


# ---------------------------------------------------------------------------
# heights and Mahler measure


def test_height_examples():
    assert pa.MonicIntPoly((0, -3, -1)).height() == 3
    assert pa.MonicIntPoly((0, 0, 0, 0)).height() == 0
    assert pa.MonicIntPoly((100, -7)).height() == 100


def test_mahler_examples():
    assert pa.mahler_measure(pa.MonicIntPoly((-3,))) == pytest.approx(3, abs=1e-9)
    assert pa.mahler_measure(pa.MonicIntPoly((0, -2))) == pytest.approx(2, abs=1e-9)
    assert pa.mahler_measure(pa.MonicIntPoly((1, 1))) == pytest.approx(1, abs=1e-9)


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_mahler_height_bracket(coeffs):
    f = pa.MonicIntPoly(tuple(coeffs))
    if f.height() == 0:
        return
    n = f.degree
    m = pa.mahler_measure(f, tol=1e-7)
    tol = 1e-6
    assert f.height() / math.comb(n, n // 2) <= m + tol
    assert m - tol <= math.sqrt(n + 1) * f.height()


# ---------------------------------------------------------------------------
# squarefree decomposition over Q, against sympy's sqf_list


def _sqf_cases():
    """Seeded monic polynomials of degree 2..7, descending: random ones, and
    built products g^2 h, g^3 and g^3 h^2, so multiplicities above 1 occur."""
    rng = random.Random(11)

    def monic(d):
        return [1, *(rng.randrange(-5, 6) for _ in range(d))]

    def times(*factors):
        out = [1]
        for g in factors:
            out = pa.pmul(out, g)
        return out

    cases = [monic(rng.randrange(2, 8)) for _ in range(30)]
    for _ in range(25):
        g = monic(rng.randrange(1, 4))
        cases.append(times(g, g, monic(rng.randrange(0, 8 - 2 * (len(g) - 1)))))
    for _ in range(15):
        g = monic(rng.randrange(1, 3))
        cases.append(times(g, g, g))
    for _ in range(10):
        g, h = monic(1), monic(rng.randrange(1, 3))
        cases.append(times(g, g, g, h, h))
    return cases


def _sympy_sqf(full):
    _, parts = sympy.sqf_list(to_sympy(full))
    return sorted((tuple(int(c) for c in g.all_coeffs()), k) for g, k in parts)


def test_squarefree_gate_falls_back_to_yun():
    # x (x - m) is squarefree although it has a double root mod 2^31 - 1 and
    # mod 2^61 - 1; only disc(f) = 0 sends f to Yun
    m = (2**31 - 1) * (2**61 - 1)
    f = pa.MonicIntPoly((-m, 0))
    assert pa._squarefree_decomposition_Q(f) == [(f, 1)]
    g = pa.MonicIntPoly((-2 * m, m * m))  # (x - m)^2
    assert pa._squarefree_decomposition_Q(g) == [(pa.MonicIntPoly((-m,)), 2)]
    one = pa.MonicIntPoly(())
    assert pa._squarefree_decomposition_Q(one) == [(one, 1)]


def test_squarefree_decomposition_matches_sympy():
    repeated = 0
    for full in _sqf_cases():
        f = pa.MonicIntPoly.from_full(full)
        want = _sympy_sqf(full)
        repeated += any(k > 1 for _, k in want)
        got = sorted((tuple(g.full()), k) for g, k in pa._squarefree_decomposition_Q(f))
        assert got == want, full
        # factor_over_Z: the irreducibles of each multiplicity multiply out
        # to the squarefree part of that multiplicity
        by_mult: dict[int, list[int]] = {}
        for g, k in galois.factor_over_Z(f):
            by_mult[k] = pa.pmul(by_mult.get(k, [1]), g.full())
        assert sorted((tuple(g), k) for k, g in by_mult.items()) == want, full
    assert repeated >= 40


def test_mahler_measure_of_repeated_roots():
    for full in _sqf_cases():
        parts = _sympy_sqf(full)
        if all(k == 1 for _, k in parts):
            continue
        expect = 1.0
        for g, k in parts:
            expect *= pa.mahler_measure(pa.MonicIntPoly.from_full(list(g)), tol=1e-9) ** k
        got = pa.mahler_measure(pa.MonicIntPoly.from_full(full), tol=1e-8)
        assert got == pytest.approx(expect, rel=1e-7, abs=1e-7), full


def test_mahler_measure_computes_disc_only_for_repeated_roots(monkeypatch):
    """A quartic whose Smith discs separate is proven squarefree by them
    and makes no `disc` call; each of the 13 quartics with coefficients in
    {-1, 0, 1} that has a repeated root makes one, then Yun's parts."""
    real_disc = pa.disc
    quartics = [pa.MonicIntPoly(c) for c in itertools.product((-1, 0, 1), repeat=4)]
    repeated = [q for q in quartics if real_disc(q) == 0]
    calls = []

    def counting_disc(f):
        calls.append(f)
        return real_disc(f)

    monkeypatch.setattr(pa, "disc", counting_disc)
    measures = dict(zip(quartics, map(pa.mahler_measure, quartics)))
    assert len(repeated) == 13
    assert calls == repeated
    # x^4 + x^2 = x^2 (x^2 + 1) and x^4 are measured through their parts
    assert measures[pa.MonicIntPoly((0, 1, 0, 0))] == pytest.approx(1.0, abs=1e-9)
    assert measures[pa.MonicIntPoly((0, 0, 0, 0))] == 1.0


def _exact_value(coeffs, w):
    """f(w) for the monic f with coefficients coeffs, at the binary complex
    number w, in exact rationals: (real part, imaginary part)."""
    re, im = Fraction(w.real), Fraction(w.imag)
    y_re, y_im = Fraction(1), Fraction(0)
    for a in coeffs:
        y_re, y_im = y_re * re - y_im * im + a, y_re * im + y_im * re
    return y_re, y_im


def _companion_roots(coeffs):
    companion = np.eye(len(coeffs), k=-1)
    companion[0] = [-a for a in coeffs]
    return np.linalg.eigvals(companion).tolist()


def _sweep(seed, count):
    """Seeded monic polynomials shaped like acceptance criterion 10:
    degree 1..8, |a_i| <= 100, not all zero."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coeffs = tuple(rng.randrange(-100, 101) for _ in range(rng.randrange(1, 9)))
        if any(coeffs):
            out.append(pa.MonicIntPoly(coeffs))
    return out


def test_horner_running_error_bound_dominates_the_exact_error():
    """|f(w) - y| <= e for `_horner`'s float value y and bound e, with f(w)
    exact at the binary w: at the computed roots, where cancellation is
    worst, and at seeded points of modulus up to 4, real and complex."""
    rng = random.Random(7)
    checked = 0
    for f in _sweep(7, 300):
        coeffs = [float(a) for a in f.coeffs]
        points = _companion_roots(f.coeffs)
        points += [rng.uniform(-4, 4), complex(rng.uniform(-4, 4), rng.uniform(-4, 4))]
        for w in points:
            y, e = pa._horner(coeffs, w, pa._U)
            re, im = _exact_value(f.coeffs, complex(w))
            y = complex(y)
            assert (re - Fraction(y.real)) ** 2 + (im - Fraction(y.imag)) ** 2 <= Fraction(e) ** 2, (f, w)
            checked += 1
    assert checked > 1500


def _reference_measure(f, dps=60):
    """M(f) from `mpmath.polyroots` at dps digits, for squarefree f."""
    with mpmath.workdps(dps):
        roots = mpmath.polyroots([1, *f.coeffs], maxsteps=400, extraprec=4 * dps)
        return mpmath.fprod(max(1, abs(r)) for r in roots)


def test_smith_enclosure_contains_a_60_digit_measure():
    """The float discs separate for every polynomial of the sweep, and
    their enclosure of M(f) holds the 60-digit value."""
    for f in _sweep(2024, 150):
        box = pa._float_factors(f)
        assert box is not None, f
        lo, hi = pa._enclosure([(f, 1)], [box])
        want = _reference_measure(f)
        assert lo <= want <= hi, f
        assert (hi - lo) / 2 <= 1e-11 * hi, f
        assert abs(pa.mahler_measure(f, tol=1e-9) - want) <= 1e-9, f


def test_smith_factors_contain_the_bounds_of_the_theorem():
    """At approximations moved off the roots by about 1e-7, f(z_i) is far
    above rounding; the float factor bounds still contain the theorem's
    max(1, |z_i| -/+ r_i), r_i = n |f(z_i)| / prod_(j != i) |z_i - z_j|,
    evaluated at 50 digits on the same binary z_i."""
    rng = random.Random(5)
    checked = 0
    for f in _sweep(5, 100):
        n = f.degree
        z = [w * complex(1 + rng.uniform(-1e-7, 1e-7), rng.uniform(-1e-7, 1e-7)) for w in _companion_roots(f.coeffs)]
        box = pa._smith_factors([float(a) for a in f.coeffs], z, pa._U)
        if box is None:
            continue
        with mpmath.workdps(50):
            zs = [mpmath.mpc(w) for w in z]
            for i, (lo, hi) in enumerate(box):
                prod = mpmath.fprod(abs(zs[i] - zs[j]) for j in range(n) if j != i)
                r = n * abs(mpmath.polyval([1, *f.coeffs], zs[i])) / prod
                assert lo <= max(1, abs(zs[i]) - r) and max(1, abs(zs[i]) + r) <= hi, (f, i)
        checked += 1
    assert checked >= 80


def _mignotte(n, a):
    """x^n - 2 (a x - 1)^2, with two roots within about a^(-(n+2)/2) of 1/a."""
    coeffs = [0] * n
    coeffs[-3] -= 2 * a * a
    coeffs[-2] += 4 * a
    coeffs[-1] -= 2
    return pa.MonicIntPoly(tuple(coeffs))


def test_mahler_fallback_branches(monkeypatch):
    """Clustered roots send f to mpmath with disc(f) != 0; repeated roots
    send it to Yun's parts, whose float discs separate or, for a clustered
    part, go to mpmath in turn.  Every value stays within tol of a
    60-digit reference."""
    counts = collections.Counter()

    def counted(name):
        real = getattr(pa, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(pa, name, call)

    counted("_squarefree_decomposition_Q")
    counted("_mp_factors")
    mignotte = _mignotte(8, 100)
    square = pa.MonicIntPoly.from_full([1, 0, -3])
    squared = pa.pmul(square.full(), square.full())
    # (f, its squarefree parts, Yun runs, mpmath runs)
    cases = [
        (mignotte, [(mignotte, 1)], False, True),
        (pa.MonicIntPoly.from_full(pa.pmul(squared, [1, 1])), [(square, 2), (pa.MonicIntPoly((1,)), 1)], True, False),
        (pa.MonicIntPoly.from_full(pa.pmul(mignotte.full(), mignotte.full())), [(mignotte, 2)], True, True),
    ]
    for f, parts, yun, mp in cases:
        assert pa._float_factors(f) is None, f
        counts.clear()
        got = pa.mahler_measure(f, tol=1e-6)
        assert (counts["_squarefree_decomposition_Q"], counts["_mp_factors"] > 0) == (yun, mp), f
        want = mpmath.fprod(_reference_measure(g) ** e for g, e in parts)
        assert abs(got - want) <= 1e-6, f


def test_mahler_measure_refuses_unprovable_tolerances():
    f = _mignotte(4, 1000)  # M(f) is about 2 * 10^6
    assert pa.mahler_measure(f, tol=1e-6) == pytest.approx(2e6, rel=1e-6)
    with pytest.raises(ToleranceUnreachable):
        pa.mahler_measure(f, tol=1e-9)  # about 4.5 * 2^-53 M(f): no float result is proven that close
    with pytest.raises(UsageError):
        pa.mahler_measure(f, tol=1e-13)


def test_serialization_roundtrip():
    f = pa.MonicIntPoly((10**30, -7, 3))
    arr = f.to_json()
    assert all(isinstance(c, str) for c in arr)
    assert pa.MonicIntPoly(tuple(int(a) for a in arr)) == f
