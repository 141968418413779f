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
type looked up at every point.  The monic map is the top stage of
`polyarith.splitting_sieve`, which writes every reducible point once, from
its smallest irreducible factor, that factor's multiplicity and a cofactor
of lower degree whose factors all come after it; the points no product
reaches are the irreducibles.  The binary map scatters the monic stage of
each degree n - j times y^j and every unit.  An axis-by-axis DFT of the
weight array is the table.

The binary-form space is the full space of degree-n forms c_0 x^n + ... +
c_n y^n, and its irreducibles are y together with the monic-in-x forms, so
every nonzero form is a unit times a product of pool members.  Everything
here holds at every prime, p <= n included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TooLarge, UsageError
from .polyarith import (
    SplittingType,
    is_prime,
    join_tables,
    splitting_sieve,
    splitting_types,
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
    monic degree-d space that `splitting_sieve` leaves unreached.
    """
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    if p**d > IRRED_CAP:
        raise TooLarge(f"p^d = {p**d} exceeds cap")
    labels = splitting_sieve(p, d)[d].reshape((p,) * d)
    # the axes run over (c_(d-1), ..., c_0); reversed, argwhere lists bodies in product order
    return tuple((*b, 1) for b in np.argwhere(labels.transpose() == len(splitting_types(d)) - 1).tolist())


def sigmas_up_to(n: int):
    """All splitting types of total degree between 1 and n, sorted by parts."""
    return sorted((t for d in range(1, n + 1) for t in splitting_types(d)), key=lambda t: t.parts)


def _type_map(space: WeightSpace) -> tuple[list, np.ndarray, dict]:
    """(types, labels, sizes): the splitting types tau of degree n, the
    label of every point of the space (its index in types, len(types) for
    the zero form), and the pool sizes N_f of the degrees f = 1..n.

    The monic map is stage n of `splitting_sieve`, and N_f counts the
    unreached points of stage f.  A nonzero binary form is c y^j F for one
    unit c, the power j of y dividing it and one monic F of degree n - j,
    homogenized, at coordinates (0, ..., 0, c, c a_1, ..., c a_(n-j)); its
    type is F's with one more part (1, j) for j > 0.  So the binary map is
    stage n - j relabelled by `join_tables` and scattered with every axis
    scaled by c, for each j and c; y adds one to N_1.

    Memory: the map and the weight array built from it keep within w plus
    space.points + DECIDE_CHUNK (n+1)^2 int64 entries, plus the sieve's
    labels and int32 minf per point below degree n and the types of degree
    up to n.
    """
    p, n = space.p, space.n
    stages = splitting_sieve(p, n)
    types = list(splitting_types(n))
    sizes = {f: int(np.count_nonzero(stages[f] == len(splitting_types(f)) - 1)) for f in range(1, n + 1)}
    if space.kind == "monic":
        return types, stages[n].reshape((p,) * n), sizes
    sizes[1] += 1  # y
    labels = np.empty(space.points, dtype=np.min_scalar_type(len(types)))
    labels[0] = len(types)  # the zero form
    for j in range(n + 1):
        stage = (join_tables(n)[1, j][stages[n - j]] if j else stages[n]).reshape((p,) * (n - j))
        for c in range(1, p):
            axis = np.arange(p) * pow(c, -1, p) % p  # the point a of F for each coordinate c a
            labels[c * p ** (n - j) : (c + 1) * p ** (n - j)] = stage[np.ix_(*[axis] * (n - j))].reshape(-1)
    return types, labels.reshape((p,) * space.dim), sizes


def _selections(sigma: SplittingType, available) -> int:
    """The sigma-selections of distinct irreducibles, available(f, e) of
    which can fill a part (f, e).  A member that fills (f, e) fills every
    (f, e') with e' < e, so with each degree's parts taken by descending e,
    the cnt parts (f, e) choose among available(f, e) less those taken."""
    out, taken = 1, dict.fromkeys(range(1, sigma.deg + 1), 0)
    for f, e in sorted(set(sigma.parts), key=lambda part: (part[0], -part[1])):
        cnt = sigma.parts.count((f, e))
        out *= math.comb(max(available(f, e) - taken[f], 0), cnt)
        taken[f] += cnt
    return out


@lru_cache(maxsize=4096)  # one entry per (sigma, tau): shared by every prime and both spaces
def _count(sigma: SplittingType, tau: SplittingType) -> int:
    return _selections(sigma, lambda f, e: sum(g == f and m >= e for g, m in tau.parts))


@dataclass
class FourierTable:
    space: WeightSpace
    sigma: SplittingType
    values: np.ndarray  # complex, shape (p,)*dim
    weights: np.ndarray  # the underlying integer weight array


def _weight_array(tmap: tuple, sigma: SplittingType) -> np.ndarray:
    """w_{p,sigma} at every point of the type map's space, int64 of shape
    (p,)*dim: the count of each type, looked up at every point's label.

    A point of type tau has weight `_count`, the sigma-selections among its
    factors, where a part (g, m) of tau can fill a part (f, e) of sigma when
    g = f and m >= e; the zero form of the binary space has every
    sigma-selection of the N_f members of each degree; deg sigma > n gives
    zeros.  Besides w, only the len(types) + 1 counts are allocated.
    """
    types, labels, sizes = tmap
    if sigma.deg > max(sizes):  # the largest pool degree is n
        return np.zeros(labels.shape, dtype=np.int64)
    counts = [_count(sigma, tau) for tau in types] + [_selections(sigma, lambda f, e: sizes[f])]
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
        c = w.astype(np.complex128)
        # ifftn is exactly p^-N sum w(f) e(+2 pi i [f,g]/p), the definition; in place, one complex array
        yield FourierTable(space, sigma, np.fft.ifftn(c, out=c), w)


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
