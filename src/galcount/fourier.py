"""Finite-field Fourier analysis of the splitting-type weights.

w_{p,sigma}(f) counts sigma-patterned tuples of distinct irreducibles whose
product-with-multiplicity divides f, up to sigma-preserving permutations;
its transform over the coefficient space mod p is

    what(g) = p^-N * sum_f w(f) e(2 pi i [f,g] / p),

with [f,g] the coordinatewise dot product of coefficient vectors and N the
dimension of the space (n for monic, n+1 for binary forms).

w_sigma(f) depends only on the splitting type tau of f, the multiset of
(degree, multiplicity) of its irreducible factors: it is the number of
sigma-selections among tau's own factors.  So one type map per space labels
every point with its tau, and each sigma's weight array is its count per
type looked up at every point.  The map scatters, for each tau but the
irreducible (n), the products of tau's selections of irreducibles of degree
below n; the points no product reaches are the degree-n irreducibles (and
the zero form of the binary space).  The same map of the monic degree-d
space lists the irreducibles of degree d, as its unreached points.  An
axis-by-axis DFT of the weight array is the table.

The binary-form space is the full space of degree-n forms c_0 x^n + ... +
c_n y^n, and its irreducibles are y together with the monic-in-x forms, so
every nonzero form is a unit times a product of pool members.  Everything
here holds at every prime, p <= n included.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TooLarge, UsageError
from .polyarith import (
    SplittingType,
    chunks,
    is_prime,
)

SPACE_CAP = 2 * 10**7
IRRED_CAP = 10**7


@dataclass(frozen=True)
class WeightSpace:
    kind: str  # "monic" or "binary"
    p: int
    n: int

    def __post_init__(self):
        if self.kind not in ("monic", "binary"):
            raise UsageError("kind must be monic or binary")
        if not is_prime(self.p):
            raise UsageError(f"{self.p} is not prime")
        if self.n < 1:
            raise UsageError("n >= 1 required")

    @property
    def dim(self) -> int:
        return self.n if self.kind == "monic" else self.n + 1

    @property
    def points(self) -> int:
        return self.p**self.dim


@lru_cache(maxsize=None)
def enumerate_irreducibles(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducibles of degree d over F_p, ascending coefficients,
    in product order of their bodies (c_0, ..., c_(d-1)): the points of the
    monic degree-d space that no product of irreducibles of lower degree
    reaches, read off its type map.
    """
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    if p**d > IRRED_CAP:
        raise TooLarge(f"p^d = {p**d} exceeds cap")
    types, labels, _ = _type_map(WeightSpace("monic", p, d))
    # the axes run over (c_(d-1), ..., c_0); reversed, argwhere lists bodies in product order
    bodies = np.argwhere(labels.transpose() == types.index(SplittingType(((d, 1),))))
    return tuple((*b, 1) for b in bodies.tolist())


def sigmas_up_to(n: int):
    """All splitting types of total degree between 1 and n: the multisets of
    (degree, multiplicity) parts (f, e) with sum f*e <= n, each sorted."""
    parts = [(f, e) for f in range(1, n + 1) for e in range(1, n // f + 1)]

    def grow(start: int, room: int):
        yield ()
        for i in range(start, len(parts)):
            f, e = parts[i]
            if f * e <= room:
                for rest in grow(i, room - f * e):
                    yield (parts[i], *rest)

    return [SplittingType.of(s) for s in sorted(grow(0, n)) if s]


def _classes(sigma: SplittingType) -> list:
    """The distinct parts (f, e) of sigma with their counts, in order."""
    return [(part, len(list(same))) for part, same in itertools.groupby(sigma.parts)]


def _choose(classes, candidates, used=frozenset()):
    """Every selection for `classes`, as one flat tuple: for each ((f, e),
    cnt) in turn, cnt distinct members of candidates(f, e) not picked for an
    earlier class, as an unordered combination, so that each selection
    appears once whatever the order of its equal parts."""
    (part, cnt), rest = classes[0], classes[1:]
    combos = itertools.combinations([m for m in candidates(*part) if m not in used], cnt)
    if not rest:
        yield from combos
        return
    for combo in combos:
        for tail in _choose(rest, candidates, used.union(combo)):
            yield combo + tail


def _convolve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Row-wise products mod p of two stacks of coefficient rows."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=np.int64)
    for k in range(b.shape[1]):
        out[:, k : k + a.shape[1]] += a * b[:, k : k + 1]
    return out % p


def _type_map(space: WeightSpace) -> tuple[list, np.ndarray, dict]:
    """(types, labels, sizes): the splitting types tau of degree n, the
    label of every point of the space (its index in types, len(types) for
    the zero form), and the pool sizes N_f of the degrees f = 1..n.

    A point of type tau != (n) is, up to a unit, the product of exactly one
    tau-selection of irreducibles, all of degree below n.  So the products
    of each tau's selections, built in `chunks` by batched convolutions of
    the members' descending rows and scattered at their base-p indices (in
    the binary space times every unit c = 1..p-1), label every point but
    the degree-n irreducibles and the zero form, which keep the label of
    (n).  N_n is the number of those unreached points, less the zero form,
    divided by the number of units.

    Memory: the labels take one or two bytes per point, the pool rows n
    entries of the smallest dtype that holds p - 1 per irreducible of
    degree below n (fewer than 1.5 space.points in all), and a chunk of
    selections a few DECIDE_CHUNK (n+1) int64 entries, besides the pools
    `enumerate_irreducibles` caches.  So the map
    and the weight array built from it keep within the bound of w plus
    space.points + DECIDE_CHUNK (n+1)^2 int64 entries.
    """
    p, n = space.p, space.n
    units = range(1, p) if space.kind == "binary" else range(1, 2)
    rows, ids = [], {}
    for f in range(1, n):
        pool = [c[::-1] for c in enumerate_irreducibles(p, f)]
        if space.kind == "binary" and f == 1:
            pool = [(0, 1)] + pool  # y, as the form 0 x + 1 y
        ids[f] = range(len(rows), len(rows) + len(pool))
        rows += [(*c, *(0,) * (n - 1 - f)) for c in pool]
    rows = np.array(rows, dtype=np.min_scalar_type(p - 1)).reshape(-1, n)
    types = [t for t in sigmas_up_to(n) if t.deg == n]
    irreducible = types.index(SplittingType(((n, 1),)))
    labels = np.full(space.points, irreducible, dtype=np.min_scalar_type(len(types)))
    place = p ** np.arange(n, -1, -1)
    place[: n + 1 - space.dim] = 0  # the monic leading 1 is not a coordinate
    reached = 0
    for label, tau in enumerate(types):
        if label == irreducible:
            continue
        classes = _classes(tau)
        slots = [part for part, cnt in classes for _ in range(cnt)]
        for batch in chunks(_choose(classes, lambda f, e: ids[f])):
            sel = np.array(batch)
            q = np.ones((len(batch), 1), dtype=np.int64)
            for j, (f, e) in enumerate(slots):
                member = rows[sel[:, j], : f + 1]
                for _ in range(e):
                    q = _convolve(q, member, p)
            for c in units:
                labels[(q * c % p) @ place] = label
            reached += len(batch) * len(units)
    zero = int(space.kind == "binary")
    if zero:
        labels[0] = len(types)
    sizes = {f: len(ids[f]) for f in range(1, n)}
    sizes[n] = (space.points - zero - reached) // len(units)
    return types, labels.reshape((p,) * space.dim), sizes


@lru_cache(maxsize=4096)  # one entry per (sigma, tau): shared by every prime and both spaces
def _count(sigma: SplittingType, tau: SplittingType) -> int:
    """The sigma-selections among the factors of a point of type tau: its
    weight.  Each part (g, m) of tau is a distinct irreducible of degree g
    to the power m, which can fill a part (f, e) of sigma when g = f and
    m >= e."""
    factors = list(enumerate(tau.parts))
    return sum(1 for _ in _choose(_classes(sigma), lambda f, e: [j for j, (g, m) in factors if g == f and m >= e]))


def _count_all(sigma: SplittingType, sizes: dict) -> int:
    """Every sigma-selection of the full pool, the weight of the zero form:
    per degree f, the multinomial of N_f into the counts of sigma's parts of
    degree f and the members left over."""
    out, left = 1, dict(sizes)
    for (f, _), cnt in _classes(sigma):
        out *= math.comb(left[f], cnt)
        if not out:
            return 0
        left[f] -= cnt
    return out


@dataclass
class FourierTable:
    space: WeightSpace
    sigma: SplittingType
    values: np.ndarray  # complex, shape (p,)*dim
    weights: np.ndarray  # the underlying integer weight array


def _weight_array(tmap: tuple, sigma: SplittingType) -> np.ndarray:
    """w_{p,sigma} at every point of the type map's space, int64 of shape
    (p,)*dim: the count of each type, looked up at every point's label.

    A point of type tau has weight `_count`(sigma, tau), the sigma-selections
    among tau's own factors; the zero form of the binary space has every
    sigma-selection of the full pool (`_count_all`); deg sigma > n gives
    zeros.  Besides w, only the len(types) + 1 counts are allocated, so the
    map and w together stay within w plus space.points + DECIDE_CHUNK
    (n+1)^2 int64 entries.
    """
    types, labels, sizes = tmap
    if sigma.deg > max(sizes):  # the largest pool degree is n
        return np.zeros(labels.shape, dtype=np.int64)
    counts = [_count(sigma, tau) for tau in types] + [_count_all(sigma, sizes)]
    return np.array(counts, dtype=np.int64)[labels]


def fourier_tables(space: WeightSpace, sigmas):
    """The table of each sigma in turn, all from one type map of the space.
    A generator: a caller that keeps only a report of each table holds one
    table at a time."""
    if space.points > SPACE_CAP:
        raise TooLarge(f"{space.points} points exceed cap {SPACE_CAP}")
    tmap = _type_map(space)
    for sigma in sigmas:
        w = _weight_array(tmap, sigma)
        # ifftn is exactly p^-N sum w(f) e(+2 pi i [f,g]/p), the definition
        yield FourierTable(space, sigma, np.fft.ifftn(w.astype(np.complex128)), w)


def fourier_table(space: WeightSpace, sigma: SplittingType) -> FourierTable:
    return next(fourier_tables(space, [sigma]))


def parseval_gap(table: FourierTable) -> float:
    """Relative gap in sum_g |what(g)|^2 = p^-N sum_f w(f)^2."""
    lhs = float(np.sum(np.abs(table.values) ** 2))
    rhs = float(np.sum(table.weights.astype(np.float64) ** 2)) / table.space.points
    if rhs == 0:
        return abs(lhs)
    return abs(lhs - rhs) / rhs


def accelerating(xs, tol: float = 1e-9) -> bool:
    """Does the series grow by more than tol at every step, with increments
    that never shrink (up to a relative slack of 1e-6)?

    That is the signature of a wrong power of p in the scaling; bounded
    series, convergent from below, have shrinking increments.  With fewer
    than three points there are no two increments to compare: never accelerating.
    """
    inc = [b - a for a, b in zip(xs, xs[1:])]
    return len(inc) >= 2 and all(i > tol for i in inc) and all(
        b >= a * (1 - 1e-6) for a, b in zip(inc, inc[1:])
    )


def verify_decay(table: FourierTable) -> dict:
    """Main-term and scaled-maximum report for the decay propositions."""
    p = table.space.p
    k, d = table.sigma.ind, table.sigma.deg
    vals = table.values
    main = vals.reshape(-1)[0]
    main_term = 0.0 if d > table.space.n else p ** (-k) / table.sigma.aut_count
    main_err = abs(main - main_term) * p ** (k + 1)
    monic_full_degree = table.space.kind == "monic" and d == table.space.n
    exponent = k + 0.5 if monic_full_degree else k + 1
    flat = np.abs(vals.reshape(-1)).copy()
    flat[0] = 0.0
    max_scaled = float(flat.max() * p**exponent) if flat.size > 1 else 0.0
    return {
        "p": p,
        "n": table.space.n,
        "space": table.space.kind,
        "sigma": str(table.sigma),
        "k": k,
        "d": d,
        "mainTermError": float(main_err),
        "maxNonzeroScaled": max_scaled,
        "regime": "p^(k+1/2)" if monic_full_degree else "p^(k+1)",
    }
