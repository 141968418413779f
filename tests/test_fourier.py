"""Finite-field Fourier tables for the splitting-type weights."""

import functools
import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from galcount import fourier as fr
from galcount.errors import TooLarge
from galcount.polyarith import PolyModP, SplittingType, factor_int, factor_mod_p

S = SplittingType.parse


def direct_transform(space: fr.WeightSpace, w: np.ndarray) -> np.ndarray:
    """Sparse double-sum transform, the cross-check path (p <= 5 intended)."""
    p = space.p
    dim = space.dim
    root = np.exp(2j * np.pi / p)
    powers = root ** np.arange(p)
    out = np.zeros((p,) * dim, dtype=np.complex128)
    nz = np.argwhere(w != 0)
    vals = w[w != 0]
    for g in itertools.product(range(p), repeat=dim):
        acc = 0j
        garr = np.array(g)
        phases = (nz @ garr) % p
        acc = np.sum(vals * powers[phases])
        out[g] = acc / p**dim
    return out


def irreducible_count_necklace(p: int, d: int) -> int:
    """(1/d) sum_{e|d} mu(e) p^(d/e), the number of monic irreducibles of
    degree d over F_p by the necklace formula."""

    def mu(m: int) -> int:
        fac = factor_int(m)
        return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)

    return sum(mu(e) * p ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


@functools.lru_cache(maxsize=None)
def irreducibles(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Monic irreducibles of degree d over F_p by factor_mod_p, ascending
    coefficients, in product order of their bodies."""
    out = []
    for body in itertools.product(range(p), repeat=d):
        fac = factor_mod_p(PolyModP(p, (*body, 1)))
        if [(g.degree, e) for g, e in fac] == [(d, 1)]:
            out.append((*body, 1))
    return tuple(out)


def selections(space: fr.WeightSpace, sigma: SplittingType) -> list:
    """Every set of distinct irreducibles of the full pool (every degree up
    to deg sigma, and y in the binary space) matching sigma, as lists of
    (member, e).  Members are distinct across the whole selection, and equal
    parts (f, e) are an unordered combination, so every sigma-orbit appears
    once."""
    classes = sorted(Counter(sigma.parts).items())

    def pool(d):
        return (["y"] if space.kind == "binary" and d == 1 else []) + list(irreducibles(space.p, d))

    def rec(i: int, used: frozenset):
        if i == len(classes):
            yield []
            return
        (f, e), cnt = classes[i]
        for combo in itertools.combinations([m for m in pool(f) if m not in used], cnt):
            for rest in rec(i + 1, used | frozenset(combo)):
                yield [(m, e) for m in combo] + rest

    return list(rec(0, frozenset()))


def multiplicities(space: fr.WeightSpace, point: tuple[int, ...]) -> dict | None:
    """The irreducible factors of the point mod p with their multiplicities,
    y counted in the binary space; None for the zero form, which every
    product divides."""
    p, n = space.p, space.n
    if space.kind == "monic":
        fac = factor_mod_p(PolyModP.of(p, [point[i] % p for i in range(n - 1, -1, -1)] + [1]))
        return {g.coeffs: e for g, e in fac}
    c = [x % p for x in point]
    if not any(c):
        return None
    v = next(i for i, x in enumerate(c) if x)
    uni_desc = c[v:]
    mults = {"y": v} if v else {}
    if len(uni_desc) > 1:
        lead_inv = pow(uni_desc[0], p - 2, p)
        monic = [x * lead_inv % p for x in reversed(uni_desc)]
        for g, e in factor_mod_p(PolyModP.of(p, monic)):
            mults[g.coeffs] = e
    return mults  # a degree-0 remainder contributes nothing


def weight(space: fr.WeightSpace, point: tuple[int, ...], sigma: SplittingType, sels=None) -> int:
    """Pointwise w_{p,sigma}: the selections whose product, each member to
    its multiplicity, divides the point.  The reference for the type-map
    path `fr._weight_array`."""
    if sigma.deg > space.n:
        return 0
    mults = multiplicities(space, point)
    sels = selections(space, sigma) if sels is None else sels
    return sum(mults is None or all(mults.get(m, 0) >= e for m, e in sel) for sel in sels)


# ---------------------------------------------------------------------------
# irreducible enumeration


def test_enumerate_irreducibles_small():
    # ascending coefficient tuples: x and x+1 over F_2
    assert set(fr.enumerate_irreducibles(2, 1)) == {(0, 1), (1, 1)}
    assert fr.enumerate_irreducibles(2, 2) == ((1, 1, 1),)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_enumerate_irreducibles_in_product_order(p, d):
    assert fr.enumerate_irreducibles(p, d) == irreducibles(p, d)


def test_irreducible_counts_match_necklace_formula():
    for p in (2, 3, 5, 7):
        for d in (1, 2, 3):
            listed = len(fr.enumerate_irreducibles(p, d))
            assert listed == irreducible_count_necklace(p, d)


def test_enumerate_irreducibles_too_large():
    with pytest.raises(TooLarge):
        fr.enumerate_irreducibles(101, 4)


# ---------------------------------------------------------------------------
# weights


def test_weight_examples():
    space = fr.WeightSpace("monic", 5, 3)
    # f = x^3: only P = x has P^2 | f
    assert weight(space, (0, 0, 0), S("1^2")) == 1
    # f = x(x-1)(x-2): unordered pairs of distinct linear divisors
    assert weight(space, (2, 2, 0), S("1 1")) == 3
    # squarefree f has no square divisor
    assert weight(space, (0, 4, 0), S("1^2")) == 0  # x^3 - x mod 5


def test_weight_zero_beyond_degree():
    space = fr.WeightSpace("monic", 3, 2)
    sigma = S("1^2 1")  # degree 3 > n = 2
    arr = fr._weight_array(fr._type_map(space), sigma)
    assert not arr.any()


WEIGHT_CASES = [(kind, p, n) for kind in ("monic", "binary") for p in (2, 3, 5) for n in (1, 2, 3)]
# degree 4: types with two factors of one degree, such as 1 1^2 1 and 2 2
WEIGHT_CASES += [("monic", 3, 4), ("binary", 2, 4)]


@pytest.mark.parametrize("kind, p, n", WEIGHT_CASES)
def test_weight_array_matches_pointwise_weight(kind, p, n):
    # every sigma up to degree n + 1, so deg sigma > n is covered too
    space = fr.WeightSpace(kind, p, n)
    tmap = fr._type_map(space)
    points = list(itertools.product(range(p), repeat=space.dim))
    for sigma in fr.sigmas_up_to(n + 1):
        arr = fr._weight_array(tmap, sigma)
        assert arr.shape == (p,) * space.dim and arr.dtype == np.int64
        sels = selections(space, sigma)
        for point in points:
            assert arr[point] == weight(space, point, sigma, sels), (point, str(sigma))


def test_type_map_never_enumerates_the_degree_n_pool(monkeypatch):
    """The degree-n irreducibles are the points no product reaches, so the
    pool of degree n is never listed."""
    real = fr.enumerate_irreducibles
    degrees = []

    def spy(p, d):
        degrees.append(d)
        return real(p, d)

    monkeypatch.setattr(fr, "enumerate_irreducibles", spy)
    for kind, p, n in [("monic", 5, 3), ("binary", 3, 4), ("monic", 2, 6), ("binary", 7, 1)]:
        degrees.clear()
        fr.fourier_table(fr.WeightSpace(kind, p, n), S("1"))
        assert all(d < n for d in degrees), (kind, p, n, degrees)


def test_fourier_tables_equal_one_table_per_sigma():
    for kind, p, n in [("monic", 5, 3), ("binary", 3, 3), ("binary", 2, 4)]:
        space = fr.WeightSpace(kind, p, n)
        sigmas = fr.sigmas_up_to(n + 1)
        batch = list(fr.fourier_tables(space, sigmas))
        assert len(batch) == len(sigmas)
        for table, sigma in zip(batch, sigmas):
            one = fr.fourier_table(space, sigma)
            assert table.sigma == one.sigma == sigma and table.space == one.space
            assert np.array_equal(table.weights, one.weights) and table.weights.dtype == one.weights.dtype
            assert np.array_equal(table.values, one.values)


# sha256 of the int64 little-endian bytes of every weight array that
# verify_decay(ns=(3, 4), ps=(3, 5, 7)) transforms, in the report's order
# (monic then binary, n, sigma, p); pinned before the type map replaced the
# per-sigma selection walk
DECAY_WEIGHTS_SHA256 = "3a16943003a2e7207c2e76564ef53d71a9a1b985bd99e7cbf9d1c57564c5a9a1"


def test_decay_weights_pinned():
    h = hashlib.sha256()
    for kind in ("monic", "binary"):
        for n in (3, 4):
            sigmas = fr.sigmas_up_to(n)
            by_prime = [list(fr.fourier_tables(fr.WeightSpace(kind, p, n), sigmas)) for p in (3, 5, 7)]
            for tables in zip(*by_prime):
                for table in tables:
                    h.update(table.weights.astype("<i8").tobytes())
    assert h.hexdigest() == DECAY_WEIGHTS_SHA256


# ---------------------------------------------------------------------------
# Fourier tables


def test_main_term_oracles():
    for p in (3, 5, 7):
        space = fr.WeightSpace("monic", p, 3)
        assert fr.fourier_table(space, S("1")).values.reshape(-1)[0] == pytest.approx(1.0, abs=1e-9)
    space = fr.WeightSpace("monic", 5, 3)
    assert fr.fourier_table(space, S("1^2")).values.reshape(-1)[0] == pytest.approx(0.2, abs=1e-9)
    assert fr.fourier_table(space, S("1^3")).values.reshape(-1)[0] == pytest.approx(0.04, abs=1e-9)


def test_parseval_all_small_tables():
    for kind in ("monic", "binary"):
        for p in (3, 5):
            for sig in ("1", "1^2", "2", "1 1", "1^3"):
                space = fr.WeightSpace(kind, p, 3)
                table = fr.fourier_table(space, S(sig))
                assert fr.parseval_gap(table) <= 1e-9


def test_axis_dft_matches_direct_double_sum():
    for kind in ("monic", "binary"):
        for p in (3, 5):
            space = fr.WeightSpace(kind, p, 3)
            table = fr.fourier_table(space, S("1^2"))
            fast = table.values
            slow = direct_transform(space, table.weights)
            assert np.max(np.abs(fast - slow)) < 1e-9


def test_verify_decay_report_shape():
    space = fr.WeightSpace("monic", 7, 3)
    rep = fr.verify_decay(fr.fourier_table(space, S("1")))
    assert rep["p"] == 7 and rep["k"] == 0 and rep["d"] == 1
    assert rep["regime"] == "p^(k+1)"
    assert rep["mainTermError"] >= 0 and rep["maxNonzeroScaled"] >= 0


def test_verify_decay_weil_regime():
    # full-degree monic sigma: scaled by p^(k+1/2), Weil-size maxima
    for p in (3, 5, 7):
        space = fr.WeightSpace("monic", p, 3)
        rep = fr.verify_decay(fr.fourier_table(space, S("1^3")))
        assert rep["regime"] == "p^(k+1/2)"
        assert rep["maxNonzeroScaled"] <= 3 - 1 + 0.5
