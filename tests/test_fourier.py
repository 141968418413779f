"""Finite-field Fourier tables for the splitting-type weights."""

import itertools

import numpy as np
import pytest

from galcount import fourier as fr
from galcount.errors import TooLarge
from galcount.polyarith import PolyModP, SplittingType, factor_int, factor_mod_p
from galcount.verification import _sigmas_up_to

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


def weight(space: fr.WeightSpace, point: tuple[int, ...], sigma: SplittingType) -> int:
    """Pointwise w_{p,sigma} from the factorization of the point mod p:
    the reference for the table-building path `fr._weight_array`."""
    p, n = space.p, space.n
    if sigma.deg > n:
        return 0
    if space.kind == "monic":
        fac = factor_mod_p(PolyModP.of(p, [point[i] % p for i in range(n - 1, -1, -1)] + [1]))
        mults = {("x", g.coeffs): e for g, e in fac}
    else:
        c = [x % p for x in point]
        if all(x == 0 for x in c):
            mults = None  # the zero form: everything divides it
        else:
            v = next(i for i, x in enumerate(c) if x)
            uni_desc = c[v:]
            mults = {fr._Y: v} if v else {}
            if len(uni_desc) > 1:
                lead_inv = pow(uni_desc[0], p - 2, p)
                monic = [x * lead_inv % p for x in reversed(uni_desc)]
                for g, e in factor_mod_p(PolyModP.of(p, monic)):
                    mults[("x", g.coeffs)] = e
            # degree-0 remainder contributes nothing
    count = 0
    for sel in fr._selections(space, sigma):
        if mults is None or all(mults.get(m, 0) >= e for m, e in sel):
            count += 1
    return count


# ---------------------------------------------------------------------------
# irreducible enumeration


def test_enumerate_irreducibles_small():
    # ascending coefficient tuples: x and x+1 over F_2
    assert set(fr.enumerate_irreducibles(2, 1)) == {(0, 1), (1, 1)}
    assert fr.enumerate_irreducibles(2, 2) == ((1, 1, 1),)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_enumerate_irreducibles_in_product_order(p, d):
    want = []
    for body in itertools.product(range(p), repeat=d):
        fac = factor_mod_p(PolyModP(p, (*body, 1)))
        if [(g.degree, e) for g, e in fac] == [(d, 1)]:
            want.append((*body, 1))
    assert fr.enumerate_irreducibles(p, d) == tuple(want)


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
    arr = fr._weight_array(space, sigma)
    assert not arr.any()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("kind", ["monic", "binary"])
def test_weight_array_matches_pointwise_weight(kind, p, n):
    # every sigma up to degree n + 1, so deg sigma > n is covered too
    space = fr.WeightSpace(kind, p, n)
    for sigma in _sigmas_up_to(n + 1):
        arr = fr._weight_array(space, sigma)
        assert arr.shape == (p,) * space.dim
        for point in itertools.product(range(p), repeat=space.dim):
            assert arr[point] == weight(space, point, sigma), (point, str(sigma))


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
            w = fr._weight_array(space, S("1^2"))
            fast = fr.fourier_table(space, S("1^2")).values
            slow = direct_transform(space, w)
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
