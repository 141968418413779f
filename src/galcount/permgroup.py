"""Permutation groups: indices, primitivity, and wreath-product actions.

Letters are 1-based in every external interface (constructors that take
cycles); internally permutations map {0,...,n-1} to itself.

ind(g) = n - #orbits of <g> = sum over cycles of (length - 1), and
ind(G) = min of ind(g) over non-identity g.  These are the quantities the
bound calculator in `counting` consumes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import (
    DegreeTooLarge,
    GroupTooLarge,
    IdentityElement,
    InternalError,
    NotTransitive,
    TrivialGroup,
    UsageError,
)
from .polyarith import factor_int

CLOSURE_CAP = 10**7
DEGREE_CAP = 10**5


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0,...,n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise UsageError(f"not a permutation: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build from disjoint cycles of 1-based letters, e.g. [(1,2),(3,4,5)]."""
        images = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if images[a - 1] != a - 1:
                    raise UsageError("cycles are not disjoint")
                images[a - 1] = b - 1
        return cls(tuple(images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition on 0-based letters, fixed points included."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out


def cycle_counts(P: np.ndarray) -> np.ndarray:
    """The number of cycles of each row of an (N, d) image array, by pointer
    doubling (Wyllie): after t rounds letter x carries the least of x, P(x),
    ..., P^(2^t - 1)(x), so once 2^t > d the letters that carry themselves
    are the least letters of the cycles.  The successors run as one
    permutation of the N d flat letters, row i's letter x being i d + x, in
    int32 (int64 from 2^31 letters), and the labels stay in P's dtype: each
    round is one gather of the labels and one of the successors."""
    N, d = P.shape
    dt = np.int32 if N * d < 2**31 else np.int64
    nxt = P.astype(dt)
    nxt += (np.arange(N, dtype=dt) * d)[:, None]
    nxt = nxt.ravel()
    label = np.tile(np.arange(d, dtype=P.dtype), N)
    rounds = d.bit_length()
    for t in range(rounds):
        np.minimum(label, label[nxt], out=label)
        if t + 1 < rounds:
            nxt = nxt[nxt]
    return np.count_nonzero(label.reshape(N, d) == np.arange(d, dtype=P.dtype), axis=1)


@dataclass
class PermGroup:
    """A permutation group given by generators; closure computed on demand."""

    degree: int
    generators: list[Permutation]
    name: str = ""
    expected_order: int | None = None
    _elements: list[tuple[int, ...]] | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.generators:
            raise UsageError("at least one generator required")
        for g in self.generators:
            if g.degree != self.degree:
                raise UsageError("generator degree mismatch")

    def elements(self) -> list[tuple[int, ...]]:
        """Full closure as raw image tuples (breadth-first multiplication),
        refused once it would store more than CLOSURE_CAP entries (elements x degree)."""
        if self._elements is None:
            if self.expected_order is not None and self.expected_order * self.degree > CLOSURE_CAP:
                raise GroupTooLarge(f"closure of {self.expected_order} x {self.degree} entries exceeds cap {CLOSURE_CAP}")
            gens = [g.images for g in self.generators]
            ident = tuple(range(self.degree))
            seen = {ident}
            frontier = [ident]
            while frontier:
                nxt = []
                for e in frontier:
                    for g in gens:
                        prod = tuple(g[e[i]] for i in range(self.degree))
                        if prod not in seen:
                            seen.add(prod)
                            nxt.append(prod)
                if len(seen) * self.degree > CLOSURE_CAP:
                    raise GroupTooLarge(f"closure exceeds cap {CLOSURE_CAP} entries")
                frontier = nxt
            self._elements = sorted(seen)
            if self.expected_order is not None and len(seen) != self.expected_order:
                raise InternalError(
                    f"{self.name or 'group'}: closure has {len(seen)} elements, "
                    f"expected {self.expected_order}"
                )
        return self._elements

    def order(self) -> int:
        return len(self.elements())


def _nonidentity_elements(G: PermGroup, what: str) -> np.ndarray:
    """The closure minus the identity as an (order - 1, degree) image array."""
    E = np.array(G.elements(), dtype=_index_dtype(G.degree)).reshape(-1, G.degree)
    E = E[(E != np.arange(G.degree)).any(axis=1)]
    if not len(E):
        raise TrivialGroup(f"{what} undefined for the trivial group")
    return E


def ind_of_group(G: PermGroup) -> int:
    E = _nonidentity_elements(G, "ind")
    return G.degree - int(cycle_counts(E).max())


def min_moved_points(G: PermGroup) -> int:
    E = _nonidentity_elements(G, "minimal degree")
    return int((E != np.arange(G.degree)).sum(axis=1).min())


def is_transitive(G: PermGroup) -> bool:
    gens = [g.images for g in G.generators]
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == G.degree


def _minimal_block_trivial(gens: list[tuple[int, ...]], n: int, a: int) -> bool:
    """True iff the minimal G-congruence identifying 0 and a is the full set.

    Union-find closure: merge {0,a}, then propagate merges through every
    generator until stable (Atkinson's minimal block algorithm).
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    classes = n
    parent[find(a)] = find(0)
    classes -= 1
    queue = [(a, 0)]
    while queue:
        x, y = queue.pop()
        for g in gens:
            rx, ry = find(g[x]), find(g[y])
            if rx != ry:
                parent[rx] = ry
                classes -= 1
                queue.append((rx, ry))
    return classes == 1


def is_primitive(G: PermGroup) -> bool:
    if not is_transitive(G):
        raise NotTransitive("primitivity is defined for transitive groups")
    if G.degree == 1:
        return True
    gens = [g.images for g in G.generators]
    return all(_minimal_block_trivial(gens, G.degree, a) for a in range(1, G.degree))


# ---------------------------------------------------------------------------
# Product actions of S_m wr S_r on r-tuples of k-subsets


@dataclass(frozen=True)
class ProductActionSpec:
    m: int
    k: int
    r: int

    def __post_init__(self):
        if self.m < 3 or self.r < 1 or not 1 <= self.k < self.m / 2:
            raise UsageError("need m >= 3, r >= 1, 1 <= k < m/2")
        if self.n > DEGREE_CAP:
            raise DegreeTooLarge(f"degree {self.n} exceeds cap {DEGREE_CAP}")

    @property
    def n(self) -> int:
        return comb(self.m, self.k) ** self.r


def _index_dtype(n: int):
    """The narrowest integer dtype holding the letters 0..n."""
    return next(t for t in (np.int16, np.int32, np.int64) if n <= np.iinfo(t).max)


def wreath_images(m: int, k: int, r: int, G, h) -> tuple[np.ndarray, np.ndarray]:
    """The elements (g_1..g_r; h), for g_i = G[:, i] of an (N, r, m) array of
    images and one block permutation h, in both actions of S_m wr S_r.

    Product action, (N, C(m,k)^r): the tuple (S_1..S_r) of k-subsets maps to
    (g_1 S_{h^-1(1)}, ..., g_r S_{h^-1(r)}), letters indexed row-major over
    the lexicographic subset ranks.  Imprimitive action, (N, r, m): letter
    b*m + j goes to h(b)*m + g_{h(b)}(j).  Both in the narrowest dtype that
    holds their degree.
    """
    nsub = comb(m, k)
    dtype = _index_dtype(max(nsub**r, r * m))
    G = np.asarray(G, dtype=dtype)
    h = np.asarray(h)
    subsets = np.array(list(itertools.combinations(range(m), k)), dtype=dtype)
    # combinatorial number system: x_0 < .. < x_{k-1} has lexicographic rank
    # C(m,k) - 1 - sum_j C(m-1-x_j, k-j)
    tail = np.array([[comb(m - 1 - x, k - j) for j in range(k)] for x in range(m)], dtype=dtype)
    moved = np.sort(G[:, :, subsets], axis=-1)
    ranks = nsub - 1 - tail[moved, np.arange(k)].sum(axis=-1, dtype=dtype)
    # slot i of the image of the letter with tuple t is g_i S_{t[h^-1(i)]}
    t = np.indices((nsub,) * r, dtype=dtype).reshape(r, -1)
    big = sum(ranks[:, i, t[j]] * nsub ** (r - 1 - i) for i, j in enumerate(np.argsort(h)))
    small = G[:, h] + (h * m).astype(dtype)[:, None]
    return big, small


def wreath_cycle_counts(m: int, k: int, r: int, h) -> tuple[np.ndarray, np.ndarray]:
    """The number of cycles of every (g_1..g_r; h) of S_m wr S_r, r <= 2, in
    the product action on r-tuples of k-subsets and in the imprimitive
    action, as two (m!)^r arrays in the order of itertools.product over
    itertools.permutations(range(m)), without the images of the elements.

    Both come from two m!-row tables: c_g, the number c_g[l] of l-cycles of
    g on the C(m,k) k-subsets (from `wreath_images` with r = 1), and cyc(g),
    its number of cycles on m letters.  With Gamma[a, b] = gcd(a, b):
    r = 1 gives sum_l c_g[l] and cyc(g); h = id gives c_g1^T Gamma c_g2 and
    cyc(g_1) + cyc(g_2); h = (1 2) gives, for pi = g_1 g_2 (g_2 applied
    first), sum_l c_pi[l] ceil(l/2) + (c_pi^T Gamma c_pi - C(m,k))/2 and
    cyc(pi).  The proofs are in `verification.verify_thm25`.
    """
    h = tuple(int(b) for b in h)
    if not 1 <= r <= 2 or sorted(h) != list(range(r)):
        raise UsageError("need r in {1, 2} and a block permutation h of S_r")
    perms = np.array(list(itertools.permutations(range(m))), dtype=_index_dtype(m))
    nsub = comb(m, k)
    sub = wreath_images(m, k, 1, perms[:, None], (0,))[0]
    # step every k-subset at once; a subset first comes back after l steps
    length = np.zeros(sub.shape, dtype=np.int64)
    cur = sub
    for t in range(1, nsub + 1):
        length[(length == 0) & (cur == np.arange(nsub))] = t
        cur = np.take_along_axis(sub, cur, axis=1)
    ls = np.arange(1, nsub + 1)
    c = (length[:, :, None] == ls).sum(axis=1) // ls
    cyc = cycle_counts(perms)
    gamma = np.gcd.outer(ls, ls)
    if r == 1:
        return c.sum(axis=1), cyc
    if h == (0, 1):
        return (c @ gamma @ c.T).ravel(), (cyc[:, None] + cyc).ravel()
    # perms is in lexicographic order, so its base-m codes ascend
    codes = perms.astype(np.int64) @ m ** np.arange(m - 1, -1, -1)
    pi = np.searchsorted(codes, np.take(perms, perms, axis=1) @ m ** np.arange(m - 1, -1, -1))
    swapped = c @ ((ls + 1) // 2) + (((c @ gamma) * c).sum(axis=1) - nsub) // 2
    return swapped[pi].ravel(), cyc[pi].ravel()


def _wreath_generators(m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Generators (g_1..g_r; h) of S_m wr S_r as image arrays (ngens, r, m)
    and (ngens, r): the m-cycle and (1 2) on the first block, then the block
    r-cycle, and the block swap (1 2) when r > 2."""
    ident_m, ident_r = tuple(range(m)), tuple(range(r))
    gens = [((g.images,) + (ident_m,) * (r - 1), ident_r) for g in _symmetric(m).generators]
    # S_2 needs only its 2-cycle and S_1 no generator
    gens += [((ident_m,) * r, h.images) for h in _symmetric(r).generators[: min(r - 1, 2)]]
    return np.array([gs for gs, _ in gens]), np.array([h for _, h in gens])


def _wreath_generator_perms(m: int, k: int, r: int, action: int) -> list[Permutation]:
    """The generators in the product (action 0) or imprimitive (action 1) action."""
    return [
        Permutation(tuple(wreath_images(m, k, r, gs[None], h)[action].ravel().tolist()))
        for gs, h in zip(*_wreath_generators(m, r))
    ]


def wreath_product_action(spec: ProductActionSpec) -> PermGroup:
    """Generators of S_m wr S_r on r-tuples of k-subsets."""
    m, r = spec.m, spec.r
    gens = _wreath_generator_perms(m, spec.k, r, 0)
    name = f"S{m}wrS{r}_product_k{spec.k}"
    order = (factorial(m) ** r) * factorial(r)
    return PermGroup(spec.n, gens, name=name, expected_order=order)


def imprimitive_wreath_action(m: int, r: int) -> PermGroup:
    """S_m wr S_r on r*m letters (r blocks of size m)."""
    gens = _wreath_generator_perms(m, 0, r, 1)  # the action on 0-subsets is trivial
    order = (factorial(m) ** r) * factorial(r)
    return PermGroup(r * m, gens, name=f"S{m}wrS{r}_imprimitive", expected_order=order)


def blow_down_index_ratio(spec: ProductActionSpec, gs, h) -> tuple[int, int]:
    """(ind in the product action, ind in the imprimitive action on rm letters)."""
    big, small = wreath_images(spec.m, spec.k, spec.r, [[g.images for g in gs]], h.images)
    big_ind, small_ind = (P.shape[1] - int(cycle_counts(P)[0]) for P in (big, small.reshape(1, -1)))
    # the imprimitive action is faithful, so only the identity has index 0
    if small_ind == 0:
        raise IdentityElement("the identity has no index ratio")
    return big_ind, small_ind


def count_moved_ksubsets(sigma: Permutation, k: int) -> int:
    """Number of k-subsets S of {1..m} with sigma(S) != S."""
    m = sigma.degree
    if not 1 <= k <= m / 2:
        # the count is symmetric in k <-> m-k, so the small-k half suffices
        raise UsageError("need 1 <= k <= m/2")
    big, _ = wreath_images(m, k, 1, [[sigma.images]], [0])
    return int((big[0] != np.arange(comb(m, k))).sum())


# ---------------------------------------------------------------------------
# Catalogue of constructed groups (no external databases)

_PRIMES_SMALL = (3, 5, 7, 11, 13)

# 11-cycle plus an order-4 element; the closure self-check (order 7920,
# transitivity, a 4-transitivity spot check) is the oracle for this data.
_M11_GENS = (
    ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),),
    ((3, 7, 11, 8), (4, 10, 5, 6)),
)


def _cyclic(p: int) -> PermGroup:
    g = Permutation.from_cycles(p, [tuple(range(1, p + 1))])
    return PermGroup(p, [g], name=f"C{p}", expected_order=p)


def _symmetric(n: int) -> PermGroup:
    gens = [Permutation.from_cycles(n, [tuple(range(1, n + 1))])]
    if n >= 2:
        gens.append(Permutation.from_cycles(n, [(1, 2)]))
    return PermGroup(n, gens, name=f"S{n}", expected_order=factorial(n))


def _alternating(n: int) -> PermGroup:
    if n < 3:
        raise UsageError("A_n needs n >= 3")
    gens = [Permutation.from_cycles(n, [(1, 2, 3)])]
    if n > 3:
        if n % 2 == 1:
            gens.append(Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
        else:
            gens.append(Permutation.from_cycles(n, [tuple(range(2, n + 1))]))
    return PermGroup(n, gens, name=f"A{n}", expected_order=factorial(n) // 2)


def _dihedral(p: int) -> PermGroup:
    rot = Permutation.from_cycles(p, [tuple(range(1, p + 1))])
    refl = Permutation(tuple((p - i) % p for i in range(p)))
    return PermGroup(p, [rot, refl], name=f"D{p}", expected_order=2 * p)


def _agl1(p: int) -> PermGroup:
    """AGL(1,p): x -> x+1 and x -> gx for a primitive root g, on F_p."""
    add = Permutation(tuple((i + 1) % p for i in range(p)))
    g = next(
        g
        for g in range(2, p)
        if all(pow(g, (p - 1) // q, p) != 1 for q in factor_int(p - 1))
    )
    mul = Permutation(tuple((i * g) % p for i in range(p)))
    return PermGroup(p, [add, mul], name=f"AGL1_{p}", expected_order=p * (p - 1))


def m11() -> PermGroup:
    gens = [Permutation.from_cycles(11, cycs) for cycs in _M11_GENS]
    G = PermGroup(11, gens, name="M11", expected_order=7920)
    # hard self-checks on the embedded generator data
    G.elements()
    if not is_transitive(G):
        raise InternalError("M11 self-check failed: not transitive")
    tuples = {(e[0], e[1], e[2], e[3]) for e in G.elements()}
    if len(tuples) != 11 * 10 * 9 * 8:
        raise InternalError("M11 self-check failed: not 4-transitive")
    return G


@lru_cache(maxsize=1)
def catalogue() -> list[PermGroup]:
    """Constructed test families with degree <= 30.

    A_9 is the designated degree >= 9 member with 3-cycles (for the Jordan
    property checks); its closure is the largest one enumerated here.
    """
    groups: list[PermGroup] = []
    groups += [_symmetric(n) for n in range(2, 9)]
    groups += [_alternating(n) for n in range(3, 10)]
    groups += [_cyclic(p) for p in _PRIMES_SMALL]
    groups += [_dihedral(p) for p in (5, 7, 11, 13)]
    groups += [_agl1(p) for p in (5, 7, 11, 13)]
    groups += [
        wreath_product_action(ProductActionSpec(3, 1, 2)),
        wreath_product_action(ProductActionSpec(4, 1, 2)),
        wreath_product_action(ProductActionSpec(5, 1, 2)),
        wreath_product_action(ProductActionSpec(5, 2, 1)),
        imprimitive_wreath_action(3, 2),
        imprimitive_wreath_action(5, 2),
    ]
    groups.append(m11())
    return groups


def catalogue_entry(G: PermGroup) -> dict:
    transitive = is_transitive(G)
    return {
        "name": G.name,
        "degree": G.degree,
        "order": G.order(),
        "transitive": transitive,
        "primitive": is_primitive(G) if transitive else False,
        "ind": ind_of_group(G),
        "min_moved": min_moved_points(G),
    }
