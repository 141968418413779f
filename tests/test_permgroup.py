"""Permutation group machinery: indices, primitivity, product actions."""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from galcount import permgroup as pg
from galcount.errors import (
    IdentityElement,
    NotTransitive,
    TrivialGroup,
    UsageError,
)

P = pg.Permutation.from_cycles


def orbit_count(g: pg.Permutation) -> int:
    """Independent orbit computation by following images, no cycle code."""
    seen = set()
    orbits = 0
    for start in range(g.degree):
        if start in seen:
            continue
        orbits += 1
        x = start
        while x not in seen:
            seen.add(x)
            x = g.images[x]
    return orbits


def ind(g: pg.Permutation) -> int:
    """ind(g) = degree - #cycles, with the cycles counted by `cycle_counts`
    on the one-row image array of g."""
    return g.degree - int(pg.cycle_counts(np.array([g.images]))[0])


# ---------------------------------------------------------------------------
# elements and ind


def test_ind_of_element_examples():
    assert ind(P(6, [])) == 0
    assert ind(P(5, [(1, 2)])) == 1
    assert ind(P(11, [tuple(range(1, 12))])) == 10


@given(st.permutations(list(range(9))))
def test_ind_is_degree_minus_orbits(images):
    g = pg.Permutation(tuple(images))
    assert ind(g) == g.degree - orbit_count(g)
    assert ind(g) == sum(len(c) - 1 for c in g.cycles())


@given(st.permutations(list(range(10))))
def test_moved_point_bracket(images):
    g = pg.Permutation(tuple(images))
    m = sum(i != j for i, j in enumerate(g.images))
    if m == 0:
        assert ind(g) == 0
    else:
        assert math.ceil(m / 2) <= ind(g) <= m - 1


# ---------------------------------------------------------------------------
# group-level invariants


def test_ind_of_group_cyclic():
    for p in (3, 5, 7, 11):
        G = pg.PermGroup(p, [P(p, [tuple(range(1, p + 1))])], name=f"C{p}")
        assert pg.ind_of_group(G) == p - 1


def test_ind_of_group_trivial_rejected():
    G = pg.PermGroup(3, [P(3, [])], name="triv")
    with pytest.raises(TrivialGroup):
        pg.ind_of_group(G)


def test_m11():
    G = pg.m11()
    assert G.order() == 7920
    assert pg.ind_of_group(G) == 4
    assert pg.is_transitive(G)
    assert pg.is_primitive(G)


def test_min_moved_examples():
    assert pg.min_moved_points(pg._symmetric(5)) == 2
    assert pg.min_moved_points(pg._cyclic(5)) == 5
    assert pg.min_moved_points(pg._alternating(4)) == 3


def test_transitivity():
    assert pg.is_transitive(pg._cyclic(5))
    assert not pg.is_transitive(pg.PermGroup(3, [P(3, [(1, 2)])]))
    two_orbit = pg.PermGroup(5, [P(5, [(1, 2, 3)]), P(5, [(1, 2)]), P(5, [(4, 5)])])
    assert not pg.is_transitive(two_orbit)


def test_primitivity():
    assert not pg.is_primitive(pg.PermGroup(4, [P(4, [(1, 2, 3, 4)])]))
    assert pg.is_primitive(pg._cyclic(5))
    assert not pg.is_primitive(pg.imprimitive_wreath_action(3, 2))
    with pytest.raises(NotTransitive):
        pg.is_primitive(pg.PermGroup(3, [P(3, [(1, 2)])]))


# ---------------------------------------------------------------------------
# catalogue-wide structure theorems


def test_jordan_transposition_forces_symmetric():
    # a primitive group containing a transposition is the full symmetric group
    for G in pg.catalogue():
        if not pg.is_transitive(G) or not pg.is_primitive(G):
            continue
        elems = G.elements()
        has_transposition = any(
            sorted(len(c) for c in pg.Permutation(e).cycles()) == [1] * (G.degree - 2) + [2] for e in elems
        )
        if has_transposition:
            assert G.order() == math.factorial(G.degree), G.name


def test_jordan_small_support_forces_alternating():
    # degree >= 9 primitive with a 3-cycle or double transposition contains A_n
    for G in pg.catalogue():
        if G.degree < 9 or not pg.is_primitive(G):
            continue
        witness = False
        for e in G.elements():
            ct = sorted((len(c) for c in pg.Permutation(e).cycles()), reverse=True)
            nontrivial = [c for c in ct if c > 1]
            if nontrivial == [3] or nontrivial == [2, 2]:
                witness = True
                break
        if witness:
            assert G.order() >= math.factorial(G.degree) // 2, G.name


def test_primitive_non_symmetric_index_lower_bound():
    for G in pg.catalogue():
        if not pg.is_primitive(G):
            continue
        n = G.degree
        order = G.order()
        if order in (math.factorial(n), math.factorial(n) // 2):
            continue
        assert pg.ind_of_group(G) >= math.isqrt(n), G.name


def test_min_moved_vs_ind_bracket_catalogue():
    for G in pg.catalogue():
        if G.order() > 10**4:
            continue
        mm = pg.min_moved_points(G)
        ig = pg.ind_of_group(G)
        assert mm <= 2 * ig


# ---------------------------------------------------------------------------
# product actions


def test_wreath_orders_and_primitivity():
    G = pg.wreath_product_action(pg.ProductActionSpec(3, 1, 2))
    assert G.degree == 9
    assert G.order() == 72

    G = pg.wreath_product_action(pg.ProductActionSpec(5, 2, 1))
    assert G.degree == 10
    assert pg.is_transitive(G)
    assert pg.is_primitive(G)

    G = pg.wreath_product_action(pg.ProductActionSpec(5, 1, 2))
    assert G.degree == 25
    assert pg.is_primitive(G)
    assert pg.ind_of_group(G) == 5


def test_imprimitive_wreath_action_preserves_its_blocks():
    G = pg.imprimitive_wreath_action(3, 3)
    assert (G.degree, G.order()) == (9, 6**3 * 6)
    assert pg.is_transitive(G) and not pg.is_primitive(G)
    for e in G.elements():
        assert all(len({e[i] // 3 for i in range(3 * b, 3 * b + 3)}) == 1 for b in range(3))
    assert pg.ind_of_group(G) == 1


def test_blow_down_examples():
    spec = pg.ProductActionSpec(5, 2, 1)
    big, small = pg.blow_down_index_ratio(spec, [P(5, [(1, 2)])], P(1, []))
    assert (big, small) == (3, 1)

    spec = pg.ProductActionSpec(3, 1, 2)
    gs = [P(3, []), P(3, [])]
    big, small = pg.blow_down_index_ratio(spec, gs, P(2, [(1, 2)]))
    assert (big, small) == (3, 3)


def test_blow_down_identity_rejected():
    spec = pg.ProductActionSpec(3, 1, 2)
    gs = [P(3, []), P(3, [])]
    with pytest.raises(IdentityElement):
        pg.blow_down_index_ratio(spec, gs, P(2, []))


def _wreath_reference(m, k, r, gs, h):
    """Both actions of (g_1..g_r; h) letter by letter from the definitions:
    each g_i maps sorted tuples of letters, and list.index ranks them."""
    subsets = list(itertools.combinations(range(m), k))
    letters = list(itertools.product(range(len(subsets)), repeat=r))
    hinv = [h.index(i) for i in range(r)]
    big = [
        letters.index(tuple(subsets.index(tuple(sorted(gs[i][x] for x in subsets[t[hinv[i]]]))) for i in range(r)))
        for t in letters
    ]
    small = [h[b] * m + gs[h[b]][j] for b in range(r) for j in range(m)]
    return big, small


def _wreath_elements(m, r, sample):
    """Every element (gs, h) of S_m wr S_r, or a seeded sample of them."""
    sym_m = list(itertools.permutations(range(m)))
    sym_r = list(itertools.permutations(range(r)))
    if sample is None:
        return [(gs, h) for h in sym_r for gs in itertools.product(sym_m, repeat=r)]
    rng = random.Random(f"wreath-{m}-{r}")
    return [(tuple(rng.choice(sym_m) for _ in range(r)), rng.choice(sym_r)) for _ in range(sample)]


@pytest.mark.parametrize(
    "m,k,r,sample",
    [(3, 1, 1, None), (4, 1, 1, None), (5, 1, 1, None), (5, 2, 1, None),
     (3, 1, 2, None), (4, 1, 2, None), (5, 1, 2, 2000), (5, 2, 2, 2000)],
)
def test_wreath_images_match_the_definition(m, k, r, sample):
    by_h = defaultdict(list)
    for gs, h in _wreath_elements(m, r, sample):
        by_h[h].append(gs)
    for h, elems in by_h.items():
        big, small = pg.wreath_images(m, k, r, np.array(elems), h)
        assert big.dtype == small.dtype == np.int16
        small = small.reshape(len(elems), r * m)
        big_cycles, small_cycles = pg.cycle_counts(big), pg.cycle_counts(small)
        for row, gs in enumerate(elems):
            ref_big, ref_small = _wreath_reference(m, k, r, gs, h)
            assert big[row].tolist() == ref_big and small[row].tolist() == ref_small, (gs, h)
            assert big_cycles[row] == len(pg.Permutation(tuple(ref_big)).cycles()), (gs, h)
            assert small_cycles[row] == len(pg.Permutation(tuple(ref_small)).cycles()), (gs, h)


def test_wreath_images_dtype_follows_the_degree():
    # the identity of S_6 wr S_4 acts on 15^4 = 50,625 letters, beyond int16
    ident = np.tile(np.arange(6), (1, 4, 1))
    big, small = pg.wreath_images(6, 2, 4, ident, (0, 1, 2, 3))
    assert big.dtype == small.dtype == np.int32
    assert (big[0] == np.arange(15**4)).all() and (small.ravel() == np.arange(24)).all()


_THM25_COMBOS = [(3, 1, 1), (3, 1, 2), (4, 1, 1), (4, 1, 2), (5, 1, 1), (5, 1, 2), (5, 2, 1), (5, 2, 2)]


@pytest.mark.parametrize("m,k,r", _THM25_COMBOS)
def test_wreath_cycle_counts_match_the_image_arrays(m, k, r):
    """The closed forms against cycle_counts(wreath_images(...)) on every
    element of S_m wr S_r, for each block permutation h, in both actions."""
    perms = np.array(list(itertools.permutations(range(m))))
    elems = perms[np.array(list(itertools.product(range(len(perms)), repeat=r)))]
    for h in itertools.permutations(range(r)):
        big, small = pg.wreath_images(m, k, r, elems, h)
        want = pg.cycle_counts(big), pg.cycle_counts(small.reshape(len(elems), r * m))
        got = pg.wreath_cycle_counts(m, k, r, h)
        assert [g.tolist() for g in got] == [w.tolist() for w in want], h


def test_wreath_cycle_counts_refuses_other_shapes():
    for r, h in [(3, (0, 1, 2)), (2, (0, 0)), (1, (1,)), (0, ())]:
        with pytest.raises(UsageError):
            pg.wreath_cycle_counts(4, 1, r, h)


def test_cycle_counts_match_the_cycle_decomposition():
    """Seeded permutations, identities and single d-cycles, against
    Permutation.cycles(); the last stack has N d >= 2^15 letters."""
    rng = np.random.default_rng(17)
    for N, d, dtype in [(0, 5, np.int16), (4, 0, np.int16), (6, 1, np.int16), (50, 7, np.int32), (300, 120, np.int16)]:
        P = np.array([rng.permutation(d) for _ in range(N)], dtype=dtype).reshape(N, d)
        P[::5] = np.arange(d)
        P[1::5] = np.roll(np.arange(d), 1)
        want = [len(pg.Permutation(tuple(row)).cycles()) for row in P.tolist()]
        assert pg.cycle_counts(P).tolist() == want, (N, d)


def test_count_moved_ksubsets_examples():
    assert pg.count_moved_ksubsets(P(4, [(1, 2)]), 1) == 2
    assert pg.count_moved_ksubsets(P(4, [(1, 2)]), 2) == 4  # 2(m-y-1)y, y=1
    sigma = P(6, [(1, 2), (3, 4), (5, 6)])
    assert pg.count_moved_ksubsets(sigma, 2) == math.comb(6, 2) - math.comb(3, 1)


def test_count_moved_ksubsets_brute_force():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randrange(5, 9)
        k = rng.randrange(1, (m - 1) // 2 + 1)
        images = list(range(m))
        rng.shuffle(images)
        sigma = pg.Permutation(tuple(images))
        moved = sum(
            1
            for S in itertools.combinations(range(1, m + 1), k)
            if tuple(sorted(sigma.images[x - 1] + 1 for x in S)) != S
        )
        assert pg.count_moved_ksubsets(sigma, k) == moved


def test_catalogue_entries():
    by_name = {G.name: G for G in pg.catalogue()}
    assert "M11" in by_name and "C7" in by_name and "A4" in by_name
    c7 = pg.catalogue_entry(by_name["C7"])
    assert c7["order"] == 7 and c7["transitive"] and c7["primitive"]
    a4 = pg.catalogue_entry(by_name["A4"])
    assert a4["order"] == 12 and a4["ind"] == 2
    m11 = pg.catalogue_entry(by_name["M11"])
    assert m11["order"] == 7920 and m11["ind"] == 4


def test_product_action_ratio_spot():
    # one cell of the index-ratio theorem, checked as exact rationals
    spec = pg.ProductActionSpec(4, 1, 2)
    n = spec.n
    g1 = P(4, [(1, 2, 3)])
    g2 = P(4, [])
    h = P(2, [(1, 2)])
    big, small = pg.blow_down_index_ratio(spec, [g1, g2], h)
    assert Fraction(big, small) > Fraction(n, 3 * 2 * 4)
