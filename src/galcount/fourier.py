"""Finite-field Fourier analysis of the splitting-type weights.

w_{p,sigma}(f) counts sigma-patterned tuples of distinct irreducibles whose
product-with-multiplicity divides f, up to sigma-preserving permutations;
its transform over the coefficient space mod p is

    what(g) = p^-N * sum_f w(f) e(2 pi i [f,g] / p),

with [f,g] the coordinatewise dot product of coefficient vectors and N the
dimension of the space (n for monic, n+1 for binary forms).  The weights
are scattered from one integer matrix product per block of sigma-selections:
the rows of the cofactor matrix C times the shifted copies T of each
selection's product q give every multiple q*g mod p, and one bincount of
their base-p indices adds them into the weight array.  An axis-by-axis DFT
of that array is the table.

The binary-form space is the full space of degree-n forms c_0 x^n + ... +
c_n y^n, and its irreducibles are y together with the monic-in-x forms, so
every nonzero form is a unit times a product of pool members.

Irreducible pools come from the batched Frobenius layer of `polyarith`, at
every prime, p <= n included.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TooLarge, UsageError
from .polyarith import (
    SplittingType,
    chunks,
    frobenius_cycle_types,
    frobenius_index,
    is_prime,
    pmul,
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
    in product order of their bodies (c_0, ..., c_(d-1)).

    f is irreducible mod p iff it has index 0 and Frobenius cycle type (d,),
    both read from the batched Frobenius layer.
    """
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    if p**d > IRRED_CAP:
        raise TooLarge(f"p^d = {p**d} exceeds cap")
    out = []
    for block in chunks(itertools.product(range(p), repeat=d)):
        rows = np.array(block)[:, ::-1]  # (a_1, ..., a_d) = (c_(d-1), ..., c_0)
        squarefree = np.nonzero(frobenius_index(rows, p) == 0)[0].tolist()
        types = frobenius_cycle_types(rows[squarefree], p)
        out += [(*block[i], 1) for i, t in zip(squarefree, types) if t == (d,)]
    return tuple(out)


_Y = ("y",)  # marker for the binary-space irreducible y


def _pools(space: WeightSpace, d: int) -> list:
    """Irreducibles of degree d available in the space."""
    pool = [("x", c) for c in enumerate_irreducibles(space.p, d)]
    if space.kind == "binary" and d == 1:
        pool = [_Y] + pool
    return pool


def _member_form(member) -> list[int]:
    """Descending coefficients of a pool member as a binary form."""
    if member == _Y:
        return [0, 1]
    return list(reversed(member[1]))  # homogenize the monic univariate


def _form_product(sel, p: int) -> list[int]:
    """Descending coefficients mod p of the product of a selection's
    members, each to its multiplicity."""
    q = [1]
    for m, e in sel:
        for _ in range(e):
            q = pmul(q, _member_form(m), p)
    return q


def _selections(space: WeightSpace, sigma: SplittingType):
    """Yield all sets of distinct irreducibles matching sigma.

    Each selection is a list of (member, e); members of equal degree are
    distinct across the whole selection, and equal (f,e) parts are chosen
    as unordered combinations so every sigma-orbit appears exactly once.
    """
    classes: dict[tuple[int, int], int] = {}
    for part in sigma.parts:
        classes[part] = classes.get(part, 0) + 1
    items = sorted(classes.items())

    def rec(i: int, used: frozenset, acc: list):
        if i == len(items):
            yield acc
            return
        (fdeg, e), cnt = items[i]
        pool = [m for m in _pools(space, fdeg) if m not in used]
        for combo in itertools.combinations(pool, cnt):
            yield from rec(i + 1, used | frozenset(combo), acc + [(m, e) for m in combo])

    yield from rec(0, frozenset(), [])


@dataclass
class FourierTable:
    space: WeightSpace
    sigma: SplittingType
    values: np.ndarray  # complex, shape (p,)*dim
    weights: np.ndarray  # the underlying integer weight array


def _weight_array(space: WeightSpace, sigma: SplittingType) -> np.ndarray:
    """w_{p,sigma} at every point of the space, int64 of shape (p,)*dim.

    Every selection's product q has degree d = deg sigma, so its multiples
    q*g are the rows of C @ T % p: the rows of C are the cofactors g, the
    descending coefficients of every degree n - d form (led by 1 in the
    monic space, free in the binary one), and row i of T is q shifted right
    by i.  The base-p index of each product, without the leading 1 in the
    monic space, adds 1 to w.

    Selections come in `chunks`, and C in row blocks of at most
    space.points // (n+1) products, each block counted into w by one
    bincount.  Besides w, no temporary holds more than space.points +
    DECIDE_CHUNK (n+1)^2 int64 entries.
    """
    p, n, d = space.p, space.n, sigma.deg
    w = np.zeros((p,) * space.dim, dtype=np.int64)
    if d > n:
        return w
    flat = w.reshape(-1)
    width = n - d + 1  # coefficients of a cofactor
    free = space.dim - d  # of them not fixed to the monic leading 1
    digits = p ** np.arange(free - 1, -1, -1)
    place = p ** np.arange(n, -1, -1)
    place[: n + 1 - space.dim] = 0
    budget = max(1, space.points // (n + 1))
    for batch in chunks(_selections(space, sigma)):
        q = np.array([_form_product(sel, p) for sel in batch])
        T = np.zeros((width, len(batch), n + 1), dtype=np.int64)
        for i in range(width):
            T[i, :, i : i + d + 1] = q
        T = T.reshape(width, -1)
        rows = max(1, budget // len(batch))
        for start in range(0, p**free, rows):
            C = np.ones((min(rows, p**free - start), width), dtype=np.int64)
            C[:, width - free :] = np.arange(start, start + len(C))[:, None] // digits % p
            prods = C @ T
            prods %= p
            idx = prods.reshape(len(C), len(batch), n + 1) @ place
            flat += np.bincount(idx.reshape(-1), minlength=space.points)
    return w


def fourier_table(space: WeightSpace, sigma: SplittingType) -> FourierTable:
    if space.points > SPACE_CAP:
        raise TooLarge(f"{space.points} points exceed cap {SPACE_CAP}")
    w = _weight_array(space, sigma)
    # ifftn is exactly p^-N sum w(f) e(+2 pi i [f,g]/p), the definition
    values = np.fft.ifftn(w.astype(np.complex128))
    return FourierTable(space, sigma, values, w)


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
