"""Exact polynomial arithmetic over Z, Q and F_p: galcount's one polynomial kernel.

Two coefficient conventions, each fixed:

- integer and rational polynomials are lists in descending order
  [lead, ..., const].  MonicIntPoly stores only (a_1, ..., a_n) for
  x^n + a_1 x^(n-1) + ... + a_n, and `full()` gives the descending list;
- polynomials over F_p and Z/m are lists in ascending order (index = power).

One helper per operation, shared by every module:

- trim: `_trim` drops leading zeros (descending), `ptrim` drops trailing
  zeros (ascending);
- multiply: `pmul`, a convolution valid in either order, over Z or mod m,
  that keeps the full untrimmed length;
- derivative: `_deriv` (descending, over Z or Q), `pderiv` (ascending, mod p);
- division and gcd over F_p: `pdivmod` (also over Z/m by a monic divisor),
  `pgcd`, `pmonic`;
- squarefree decomposition: `_squarefree_decomposition_Q` (Yun, over Q,
  run only when disc(f) = 0) and `_squarefree_decomposition` (over F_p);
- the Frobenius layer, on arrays of many polynomials at once: Berlekamp
  matrices from `_frobenius_matrix` (batched companion-matrix powers, all
  by `_matpow`, every array reduced mod p by `_reduce`, ranked by
  `_ranks_mod_p`), read as cycle types from the nullities at the few
  exponents of `_nullity_table` by `frobenius_cycle_types` and as indices
  at any prime by `frobenius_index`, fed `chunks` of DECIDE_CHUNK rows by
  every caller over a space or slice;
- factorization over F_p, on the same matrices: `factor_mod_p` is the
  squarefree decomposition, then Berlekamp (`_berlekamp`) on each part's
  `_frobenius_matrix`, for small p; `splitting_type` takes the
  multiplicities from the squarefree decomposition and the degrees from
  `frobenius_cycle_types` of each part, at any prime;
- interpolation: `interpolate`, exact Newton interpolation from integer
  points to descending integer coefficients;
- integer factorization: `factor_int`, by trial division;
- discriminant: `disc` for monic f, the n x n Hankel determinant
  det[s_(i+j)], 0 <= i, j < n, of the Newton power sums, by `_det_bareiss`;
  it equals prod_(i<j) (alpha_i - alpha_j)^2.  The one non-monic
  discriminant, in `double_disc`, is the same determinant of a monic
  rescaling, divided exactly.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CharacteristicTooSmall,
    DegreeTooSmall,
    NotPrime,
    NotSquarefreeModP,
    SubsetSumZero,
    ToleranceUnreachable,
    UsageError,
)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


@dataclass(frozen=True)
class MonicIntPoly:
    """x^n + a_1 x^(n-1) + ... + a_n with exact integer coefficients."""

    coeffs: tuple[int, ...]  # (a_1, ..., a_n)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def full(self) -> list[int]:
        """Descending coefficient list [1, a_1, ..., a_n]."""
        return [1, *self.coeffs]

    def __call__(self, x):
        v = 1
        for a in self.coeffs:
            v = v * x + a
        return v

    def height(self) -> int:
        return max((abs(a) for a in self.coeffs), default=0)

    def shift_const(self, delta: int) -> "MonicIntPoly":
        return MonicIntPoly((*self.coeffs[:-1], self.coeffs[-1] + delta))

    def to_json(self) -> list[str]:
        return [str(a) for a in self.coeffs]

    @classmethod
    def from_full(cls, full) -> "MonicIntPoly":
        if not full or full[0] != 1:
            raise UsageError("not monic")
        return cls(tuple(full[1:]))


# ---------------------------------------------------------------------------
# Descending-list helpers (trim, derivative, interpolation) and integer
# factorization


def _trim(c: list[int]) -> list[int]:
    i = 0
    while i < len(c) - 1 and c[i] == 0:
        i += 1
    return c[i:]


def _deriv(c: list) -> list:
    """Descending coefficients of the derivative, over Z or Q; untrimmed."""
    d = len(c) - 1
    return [x * (d - i) for i, x in enumerate(c[:-1])]


def factor_int(m: int) -> dict[int, int]:
    """{prime: exponent} of |m| by trial division; {} when |m| <= 1."""
    m = abs(m)
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def interpolate(xs: list[int], ys: list[int]) -> list[int]:
    """Descending integer coefficients of the polynomial of degree < len(xs)
    through the points (xs[i], ys[i]).

    Newton divided differences over exact rationals, expanded to the power
    basis by Horner's rule; the coefficients must be integers, asserted.
    """
    m = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [coef[-1]]
    for j in range(m - 2, -1, -1):  # poly <- poly * (t - xs[j]) + coef[j]
        poly = [a - xs[j] * b for a, b in zip(poly + [0], [0] + poly)]
        poly[-1] += coef[j]
    assert all(c.denominator == 1 for c in poly)
    return _trim([int(c) for c in poly])


# ---------------------------------------------------------------------------
# Discriminants: Bareiss on the Hankel matrix of power sums


def _det_bareiss(mat: list[list[int]]) -> int:
    """Fraction-free exact integer determinant."""
    a = [row[:] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def disc(f: MonicIntPoly) -> int:
    """disc of the monic f, as the Hankel determinant det[s_(i+j)], 0 <= i, j < n.

    The Newton power sums s_k = sum_i alpha_i^k come from the coefficients,
    and [s_(i+j)] = V V^T for the Vandermonde matrix V of the roots, so the
    determinant is prod_(i<j) (alpha_i - alpha_j)^2, from an n x n instead
    of the (2n-1) x (2n-1) Sylvester matrix of Res(f, f').
    """
    a = f.coeffs
    n = len(a)
    if n == 0:
        raise UsageError("disc needs degree >= 1")
    s = [n]
    for k in range(1, 2 * n - 1):
        t = k * a[k - 1] if k <= n else 0
        for i in range(1, min(k, n + 1)):
            t += a[i - 1] * s[k - i]
        s.append(-t)
    return _det_bareiss([s[i : i + n] for i in range(n)])


# ---------------------------------------------------------------------------
# The discriminant as a polynomial in a_n, and the double discriminant


def disc_poly_in_last(n: int, prefix: tuple[int, ...]) -> list[int]:
    """Descending integer coefficients of a_n |-> Disc(x^n + a_1 x^(n-1) + ... + a_n).

    Degree in a_n is exactly n-1 (the leading coefficient is +-n^n), so n
    interpolation points determine it.
    """
    if len(prefix) != n - 1:
        raise UsageError("prefix must have length n-1")
    xs = list(range(n))
    return interpolate(xs, [disc(MonicIntPoly((*prefix, t))) for t in xs])


@dataclass(frozen=True)
class DoubleDiscInput:
    degree: int
    prefix: tuple[int, ...]

    def __post_init__(self):
        if self.degree <= 2:
            raise DegreeTooSmall("double disc needs degree >= 3")
        if len(self.prefix) != self.degree - 1:
            raise UsageError("prefix must have length n-1")


def double_disc(inp: DoubleDiscInput) -> int:
    """DD(a_1..a_{n-1}) = Disc_{a_n}(Disc_x f), with Disc(g) = c^(2d-2)
    prod_(i<j) (alpha_i - alpha_j)^2 for g of degree d and leading
    coefficient c.

    g = disc_poly_in_last has degree d = n - 1 >= 2 and c = +-n^n, and
    h(x) = c^(d-1) g(x/c), with coefficients g_i c^(i-1), is monic with the
    roots c alpha_i.  So Disc(h) = c^(d(d-1)) prod (alpha_i - alpha_j)^2
    = c^((d-1)(d-2)) Disc(g), and the division is exact.
    """
    g = disc_poly_in_last(inp.degree, inp.prefix)
    c, d = g[0], len(g) - 1
    h = MonicIntPoly(tuple(g[i] * c ** (i - 1) for i in range(1, d + 1)))
    return disc(h) // c ** ((d - 1) * (d - 2))


def mod_p2_forced_test(p: int, n: int, residues: tuple[int, ...]) -> bool:
    """True iff Disc(f + p*t) = 0 mod p^2 for every shift t in [0,p) of a_n.

    This is the exactly-checkable hypothesis of the section-5 proposition:
    the discriminant vanishing to order 2 at p "for mod p reasons",
    uniformly in the a_n direction.
    """
    _require_prime(p)
    if len(residues) != n:
        raise UsageError("need n residues")
    f = MonicIntPoly(tuple(r % (p * p) for r in residues))
    p2 = p * p
    return all(disc(f.shift_const(p * t)) % p2 == 0 for t in range(p))


# ---------------------------------------------------------------------------
# Arithmetic over F_p (ascending coefficient lists)


def ptrim(c: list[int]) -> list[int]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def pmul(a: list[int], b: list[int], m: int = 0) -> list[int]:
    """Product of two coefficient lists in the same order (either one),
    reduced mod m when m > 0.  The result has the full length
    len(a) + len(b) - 1 and is not trimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % m for c in out] if m else out


def pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) over F_p; also over Z/m for a monic divisor b."""
    a = a[:]
    db, da = len(b) - 1, len(a) - 1
    if b == [0]:
        raise ZeroDivisionError
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(da - db + 1, 1)
    for i in range(da - db, -1, -1):
        c = a[i + db] * inv % p
        if c:
            q[i] = c
            for j in range(db + 1):
                a[i + j] = (a[i + j] - c * b[j]) % p
    return ptrim(q), ptrim(a[: max(db, 1)])


def pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = ptrim(a[:]), ptrim(b[:])
    while b != [0]:
        _, r = pdivmod(a, b, p)
        a, b = b, r
    if a != [0]:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def pmonic(a: list[int], p: int) -> list[int]:
    a = ptrim(a[:])
    if a == [0]:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def pderiv(a: list[int], p: int) -> list[int]:
    return ptrim([(i * a[i]) % p for i in range(1, len(a))] or [0])


@dataclass(frozen=True)
class PolyModP:
    """Polynomial over F_p, ascending residue coefficients."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _require_prime(self.p)
        c = list(self.coeffs)
        if len(c) > 1 and c[-1] == 0:
            raise UsageError("leading coefficient must be nonzero")
        if any(not 0 <= x < self.p for x in c):
            raise UsageError("coefficients must be reduced mod p")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def of(cls, p: int, coeffs: list[int]) -> "PolyModP":
        return cls(p, tuple(ptrim([c % p for c in coeffs])))


def _pth_root(a: list[int], p: int) -> list[int]:
    # over F_p the coefficient-wise p-th root is the identity; f(x) = g(x^p)
    return [a[i] for i in range(0, len(a), p)]


def _squarefree_decomposition(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """[(g, multiplicity)] with product g^mult = f (f monic), g squarefree."""
    out: list[tuple[list[int], int]] = []

    def rec(f: list[int], mult: int):
        if len(f) == 1:
            return
        d = pderiv(f, p)
        if d == [0]:
            rec(_pth_root(f, p), mult * p)
            return
        c = pgcd(f, d, p)
        w = pdivmod(f, c, p)[0]  # product of squarefree part
        i = 1
        while len(w) > 1:
            y = pgcd(w, c, p)
            z = pdivmod(w, y, p)[0]
            if len(z) > 1:
                out.append((z, mult * i))
            c = pdivmod(c, y, p)[0]
            w = y
            i += 1
        # what is left of c is the product of the factors whose multiplicity
        # is divisible by p, each still at full multiplicity
        if len(c) > 1:
            rec(c, mult)

    rec(pmonic(f, p), 1)
    return out


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """The monic irreducible factors of the squarefree monic f over F_p, by
    Berlekamp (von zur Gathen & Gerhard, Modern Computer Algebra, 14.8).
    {a : aQ = a} for the Berlekamp matrix Q is the subalgebra F_p^r of
    F_p[x]/(f), one coordinate per factor; its basis, from one Gauss-Jordan
    elimination on (Q - I)^T, starts with the constants.  Every further
    basis vector v has v^p = v, so each factor g so far is the product of
    gcd(g, v - s) over s in F_p, and the splits end at r factors after
    O(p r) gcds: callers pass small p."""
    n = len(f) - 1
    Q = _frobenius_matrix(np.array([f[-2::-1]]), p)[0].tolist()
    A = [[(Q[j][i] - (i == j)) % p for j in range(n)] for i in range(n)]  # (Q - I)^T
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if A[i][col]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][col], p - 2, p)
        A[r] = [a * inv % p for a in A[r]]
        for i in range(n):
            if i != r and (c := A[i][col]):
                A[i] = [(a - c * b) % p for a, b in zip(A[i], A[r])]
        pivots.append(col)
    basis = []  # one vector per free column, column 0 (the constants) first
    for j in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[j] = 1
        for r, col in enumerate(pivots):
            v[col] = -A[r][j] % p
        basis.append(v)
    factors = [f]
    for v in basis[1:]:
        if len(factors) < len(basis):
            factors = [h for g in factors for s in range(p) if len(h := pgcd(g, [(v[0] - s) % p, *v[1:]], p)) > 1]
    return factors


def factor_mod_p(f: PolyModP) -> list[tuple[PolyModP, int]]:
    """Complete monic factorization of f over F_p, sorted: Yun's squarefree
    decomposition, then Berlekamp on each part.  Deterministic; the
    Berlekamp splits cost O(p r) gcds, so callers pass small p."""
    p = f.p
    c = list(f.coeffs)
    if c == [0]:
        raise UsageError("cannot factor the zero polynomial")
    out = [
        (PolyModP(p, tuple(irr)), mult)
        for g, mult in _squarefree_decomposition(c, p)
        for irr in _berlekamp(g, p)
    ]
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs, t[1]))
    return out


# ---------------------------------------------------------------------------
# Splitting types


@dataclass(frozen=True)
class SplittingType:
    """Pattern (f_1^{e_1} ... f_r^{e_r}): multiset of (degree, multiplicity)."""

    parts: tuple[tuple[int, int], ...]  # sorted ((f_i, e_i), ...)

    def __post_init__(self):
        if any(f < 1 or e < 1 for f, e in self.parts):
            raise UsageError("parts must be positive")
        if list(self.parts) != sorted(self.parts):
            raise UsageError("parts must be sorted")

    @classmethod
    def of(cls, parts) -> "SplittingType":
        return cls(tuple(sorted((int(f), int(e)) for f, e in parts)))

    @property
    def deg(self) -> int:
        return sum(f * e for f, e in self.parts)

    @property
    def ind(self) -> int:
        return sum(f * (e - 1) for f, e in self.parts)

    @property
    def aut_count(self) -> int:
        prod = 1
        for f, _ in self.parts:
            prod *= f
        counts: dict[tuple[int, int], int] = {}
        for part in self.parts:
            counts[part] = counts.get(part, 0) + 1
        for c in counts.values():
            prod *= math.factorial(c)
        return prod

    @classmethod
    def parse(cls, text: str) -> "SplittingType":
        """Grammar: parts `f^e` joined by spaces, `^e` omitted when e = 1."""
        parts = []
        for token in text.split():
            if "^" in token:
                f, e = token.split("^", 1)
            else:
                f, e = token, "1"
            if not (f.isdigit() and e.isdigit() and int(f) >= 1 and int(e) >= 1):
                raise UsageError(f"bad sigma token {token!r}")
            parts.append((int(f), int(e)))
        if not parts:
            raise UsageError("empty sigma")
        return cls.of(parts)

    def __str__(self) -> str:
        return " ".join(f"{f}^{e}" if e > 1 else str(f) for f, e in self.parts)


def splitting_type(f: MonicIntPoly, p: int) -> SplittingType:
    """The splitting type of f mod p, at any prime: the multiplicities from
    the squarefree decomposition, the degrees from the Frobenius cycle type
    of each squarefree part."""
    c = PolyModP.of(p, list(reversed(f.full()))).coeffs
    return SplittingType.of(
        (d, e)
        for g, e in _squarefree_decomposition(list(c), p)
        for d in frobenius_cycle_types([g[-2::-1]], p)[0]
    )


# ---------------------------------------------------------------------------
# The batched Frobenius layer: Berlekamp nullities over whole arrays


def _partitions(n: int, top: int | None = None):
    """The partitions of n (into parts at most `top`) as descending tuples,
    in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, top or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


@functools.lru_cache(maxsize=None)
def _nullity_table(n: int) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """(ds, table): a smallest set ds of exponents, first in lexicographic
    order, whose nullities sum_i gcd(d, d_i), d in ds, tell the partitions
    (d_1, ..., d_r) of n apart, and the table from the nullities, packed in
    base n + 1, to the partition.  The search runs over d = 1..n, which
    separate together; for n <= 7 no exponent above n gives a smaller set."""
    parts = list(_partitions(n))
    for r in range(n + 1):
        for ds in itertools.combinations(range(1, n + 1), r):
            table = {
                sum(sum(math.gcd(d, m) for m in lam) * (n + 1) ** i for i, d in enumerate(ds)): lam
                for lam in parts
            }
            if len(table) == len(parts):
                return ds, table


DECIDE_CHUNK = 1024  # rows per batched Frobenius call over a whole space or slice


def chunks(items):
    """The items as lists of DECIDE_CHUNK, the last one possibly shorter, so
    that a batched call over many rows keeps its arrays O(DECIDE_CHUNK n^2)."""
    it = iter(items)
    while chunk := list(itertools.islice(it, DECIDE_CHUNK)):
        yield chunk


def _reduce(A: np.ndarray, p: int) -> np.ndarray:
    """Reduce A mod p in place, to the residues 0..p-1, and return it.
    numpy's int64 floor division by a scalar is several times cheaper than
    its %, and the same expression serves dtype=object."""
    q = A // p
    q *= p
    A -= q
    return A


def _matpow(A: np.ndarray, e: int, p: int) -> np.ndarray:
    """A^e mod p, e >= 1, for a stack of square matrices with reduced
    entries, by square-and-multiply: every entry of each product is a sum of
    n products below p^2, which the caller's dtype holds."""
    R = A
    for bit in bin(e)[3:]:
        R = _reduce(R @ R, p)
        if bit == "1":
            R = _reduce(R @ A, p)
    return R


def _ranks_mod_p(A: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a stack of square matrices with reduced entries, by
    one fraction-free Gaussian elimination run on all of them at once.
    Scaling a row by its pivot (a unit) keeps the rank and every entry
    below p^2 before reduction.  The elimination runs on the transposes,
    which have the same ranks, so that step j reads row j of each A and
    rewrites only the rows below it, one contiguous block per matrix.  A is
    overwritten."""
    M, n, _ = A.shape
    free = np.ones((M, n), dtype=bool)  # columns of A not yet used as a pivot
    at = np.arange(M)
    for j in range(n):
        row = A[:, j, :]
        cand = free & (row != 0)
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        free[at[has], piv[has]] = False
        if j + 1 == n:
            break
        pivcol = A[at, j + 1:, piv]  # a copy, read before the scaling
        rest = A[:, j + 1:]  # a view: the column operations run in place
        rest *= np.where(has, row[at, piv], 1)[:, None, None]
        rest -= pivcol[:, :, None] * np.where(free & has[:, None], row, 0)[:, None, :]
        _reduce(rest, p)
    return n - free.sum(axis=1)


def _frobenius_matrix(rows: np.ndarray, p: int) -> np.ndarray:
    """The (N, n, n) Berlekamp matrices Q of the monic x^n + a_1 x^(n-1) +
    ... + a_n given by the rows (a_1, ..., a_n): the Frobenius g -> g^p of
    A = F_p[x]/(f) is F_p-linear, and row i of Q holds x^(ip) mod f.  With C
    the companion matrix (row j holds x^(j+1) mod f, so that g C = x g on
    ascending coefficient rows), C^p multiplies by x^p and row i of Q is
    e_0 (C^p)^i.  The arithmetic is int64 while n p^2 < 2^62, which bounds
    every sum of products, and dtype=object above."""
    N, n = rows.shape
    dt = np.int64 if n * p * p < 2**62 else object
    C = np.zeros((N, n, n), dtype=dt)
    C[:, range(n - 1), range(1, n)] = 1
    C[:, n - 1] = (-rows[:, ::-1] % p).astype(dt)  # x^n = -(a_n + a_(n-1) x + ...)
    Cp = _matpow(C, p, p)
    Q = np.zeros((N, n, n), dtype=dt)
    Q[:, 0, 0] = 1
    for i in range(1, n):
        Q[:, i] = _reduce((Q[:, i - 1, None] @ Cp)[:, 0], p)
    return Q


def frobenius_cycle_types(rows, p: int) -> list[tuple[int, ...]]:
    """The Frobenius cycle types at p, as descending tuples, of the monic
    polynomials given by the rows (a_1, ..., a_n) of an (N, n) integer
    array, all at once.

    If f is squarefree mod p with irreducible factors of degrees d_1..d_r,
    then A = F_p[x]/(f) is the product of the fields F_(p^d_i), so
    dim ker(Q^d - I) = sum_i gcd(d, d_i), and the nullities for the few d
    in `_nullity_table`'s set tell the partitions of n apart: d = 1, 3 for
    n = 5, d = 2, 3 for n = 6 and d = 1, 2, 6 for n = 7.  f is squarefree
    mod p iff Q is invertible: a nonreduced A has some m != 0 with m^2 = 0,
    which the Frobenius kills.  Every rank comes from one batched
    elimination.  A row that is not squarefree mod p raises
    NotSquarefreeModP.
    """
    _require_prime(p)
    if len(rows) == 0:
        return []
    rows = np.asarray(rows)
    N, n = rows.shape
    Q = _frobenius_matrix(rows, p)
    ds, table = _nullity_table(n)
    mats = np.empty((N, len(ds) + 1, n, n), dtype=Q.dtype)  # Q, then Q^d - I for d in ds
    mats[:, 0] = Q
    for i, d in enumerate(ds, start=1):
        mats[:, i] = _matpow(Q, d, p)
        mats[:, i, range(n), range(n)] = _reduce(mats[:, i, range(n), range(n)] - 1, p)
    ranks = _ranks_mod_p(mats.reshape(-1, n, n), p).reshape(N, len(ds) + 1)
    bad = np.nonzero(ranks[:, 0] < n)[0]
    if bad.size:
        raise NotSquarefreeModP(f"row {rows[bad[0]].tolist()} is not squarefree mod {p}")
    keys = (n - ranks[:, 1:]) @ np.array([(n + 1) ** i for i in range(len(ds))], dtype=np.int64)
    return [table[key] for key in keys.tolist()]


def frobenius_index(rows, p: int) -> np.ndarray:
    """ind(f mod p) = sum_i deg g_i (e_i - 1), for f = prod g_i^e_i mod p,
    of the monic polynomials given by the rows (a_1, ..., a_n), all at once
    and at every prime p; no row need be squarefree mod p.

    ker Q^j = {a : a^(p^j) = 0} lies in the nilradical of A = F_p[x]/(f),
    of dimension ind(f mod p), and is all of it once p^j >= n >= every e_i:
    a nilpotent a lies in every (g_i).  So ind = n - rank Q^j.
    """
    _require_prime(p)
    rows = np.asarray(rows)
    n = rows.shape[1]
    j = next(j for j in itertools.count(1) if p**j >= n)
    return n - _ranks_mod_p(_matpow(_frobenius_matrix(rows, p), j, p), p)


def index_table(p: int, n: int) -> list[int]:
    """ind(f mod p) for every coefficient tuple (a_1..a_n), row-major, at any
    prime p."""
    tuples = itertools.product(range(p), repeat=n)
    return [i for block in chunks(tuples) for i in frobenius_index(block, p).tolist()]


# ---------------------------------------------------------------------------
# Dedekind's criterion


def dedekind_p_maximal(f: MonicIntPoly, p: int) -> bool:
    """Dedekind criterion: is Z[x]/(f) maximal at p? (f assumed irreducible/Q).

    With f = prod s_j^j mod p squarefree-decomposed, g* = prod s_j is the
    product of the distinct irreducible factors and h* = prod s_j^(j-1) = f/g*.
    """
    _require_prime(p)
    fasc = list(reversed(f.full()))
    gstar = [1]
    hstar = [1]
    for s, j in _squarefree_decomposition([c % p for c in fasc], p):
        gstar = pmul(gstar, s, p)
        for _ in range(j - 1):
            hstar = pmul(hstar, s, p)
    # integer lifts, monic, ascending
    glift = [c if c <= p // 2 else c - p for c in gstar]
    hlift = [c if c <= p // 2 else c - p for c in hstar]
    prod = pmul(glift, hlift)
    # g*h* == f mod p, so the difference is divisible by p coefficient-wise
    diff = [a - b for a, b in itertools.zip_longest(prod, fasc, fillvalue=0)]
    assert all(d % p == 0 for d in diff)
    tbar = ptrim([(d // p) % p for d in diff])
    g1 = pgcd(tbar, gstar, p)
    g2 = pgcd(g1, hstar, p)
    return len(g2) == 1


def field_disc_valuation(f: MonicIntPoly, p: int) -> int | None:
    """v_p of the field discriminant when Dedekind certifies maximality, else None."""
    if not dedekind_p_maximal(f, p):
        return None
    d = disc(f)
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Completion-counting verifiers (section 3)


def count_index_completions(p: int, n: int, k: int, prefix: tuple[int, ...]) -> int:
    """Exact number of suffixes giving index exactly k over F_p (p > n, as in Prop. 3.3)."""
    _require_prime(p)
    if p <= n:
        raise CharacteristicTooSmall("need p > n so that char is prime to n!")
    if not 1 <= k <= n - 1:
        raise UsageError("need 1 <= k <= n-1")
    if len(prefix) != n - k:
        raise UsageError("prefix must have length n-k")
    rows = ((*prefix, *suffix) for suffix in itertools.product(range(p), repeat=k))
    return sum(int((frobenius_index(block, p) == k).sum()) for block in chunks(rows))


def partition_count(k: int, r: int) -> int:
    """q(k,r): partitions of k into at most r parts."""
    if k < 0 or r < 1:
        raise UsageError("need k >= 0, r >= 1")
    # by conjugation, as many as the partitions of k into parts at most r
    return sum(1 for _ in _partitions(k, r))


def partition_bound(k: int, r: int) -> int:
    """q(k,r) * r!, the completion-count bound."""
    return partition_count(k, r) * math.factorial(r)


def zero_subset_sum(weights, p: int) -> tuple[int, ...] | None:
    """The first nonempty subset of `weights` (by size, then position) whose sum is 0 mod p, or None."""
    subsets = (c for k in range(1, len(weights) + 1) for c in itertools.combinations(weights, k))
    return next((c for c in subsets if sum(c) % p == 0), None)


def power_sum_solution_count(p: int, weights: tuple[int, ...], targets: tuple[int, ...]) -> int:
    """Solutions of sum m_i x_i^j = c_j (j = 1..r) in F_p^r, counted exactly
    by meet in the middle (Horowitz-Sahni): the vectors (sum_(i<h) m_i
    x_i^j)_j of the first h = ceil(r/2) variables, packed in base p, are
    sorted once (at most 31^3 keys), and every tuple of the other r - h
    variables adds the number of them equal to (c_j - its own sums)_j, read
    off by two binary searches (at most 31^2 of them)."""
    _require_prime(p)
    r = len(weights)
    if len(targets) != r:
        raise UsageError("need as many targets as weights")
    if r > 5 or p > 31:
        raise UsageError("scan limited to r <= 5, p <= 31")
    ws = [w % p for w in weights]
    zero = zero_subset_sum(ws, p)
    if zero is not None:
        raise SubsetSumZero(f"subset {zero} sums to 0 mod {p}")
    powers = np.arange(p, dtype=np.int64)[:, None] ** np.arange(1, r + 1) % p  # x^j, j = 1..r
    place = p ** np.arange(r, dtype=np.int64)

    def sums(start: np.ndarray, ms: list[int], sign: int) -> np.ndarray:
        # the keys of start + sign * sum_i m_i x_i^j over every tuple of x_i
        vec = start[None, :]
        for m in ms:
            vec = (vec[:, None, :] + sign * m * powers[None, :, :]).reshape(-1, r) % p
        return vec @ place

    h = (r + 1) // 2
    left = np.sort(sums(np.zeros(r, dtype=np.int64), ws[:h], 1))
    right = sums(np.array([c % p for c in targets], dtype=np.int64), ws[h:], -1)
    return int((np.searchsorted(left, right, "right") - np.searchsorted(left, right, "left")).sum())


# ---------------------------------------------------------------------------
# Mahler measure


def _squarefree_decomposition_Q(f: MonicIntPoly, delta: int | None = None) -> list[tuple[MonicIntPoly, int]]:
    """Yun's algorithm in characteristic 0: monic squarefree parts with
    their multiplicities, in increasing multiplicity; a constant f is its
    own single part.  Gauss's lemma keeps every part integer-coefficient.
    Yun runs only when disc(f) = 0, i.e. when f has a repeated root; a
    caller that has computed disc(f) passes it as delta."""
    if not f.degree or (disc(f) if delta is None else delta):
        return [(f, 1)]

    def fdivmod(a, b):
        a = list(a)
        q = [Fraction(0)] * (len(a) - len(b) + 1)
        for i in range(len(q)):
            c = a[i] / b[0]
            q[i] = c
            for j, bc in enumerate(b):
                a[i + j] -= c * bc
        return q, a[len(q):]

    def fgcd(a, b):
        while b and (len(b) > 1 or b[0] != 0):
            a, b = b, _trim(fdivmod(a, b)[1])
        return [c / a[0] for c in a]

    def to_poly(a):
        assert all(c.denominator == 1 for c in a)
        return MonicIntPoly(tuple(int(c) for c in a[1:]))

    def fsub(a, b):
        pad = len(a) - len(b)
        if pad < 0:
            a = [Fraction(0)] * (-pad) + list(a)
        elif pad > 0:
            b = [Fraction(0)] * pad + list(b)
        return _trim([x - y for x, y in zip(a, b)])

    fq = [Fraction(c) for c in f.full()]
    a = fgcd(fq, _deriv(fq))
    b, _ = fdivmod(fq, a)
    c, _ = fdivmod(_deriv(fq), a)
    d = fsub(c, _deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        p = fgcd(b, d)
        if len(p) > 1:
            out.append((to_poly(p), i))
        b, _ = fdivmod(b, p)
        c, _ = fdivmod(d, p)
        d = fsub(c, _deriv(b))
        i += 1
    return out


def mahler_measure(f: MonicIntPoly, tol: float = 1e-9) -> float:
    """M(f) = prod max(1, |root|), as the midpoint of a proven enclosure of
    half-width at most tol.

    Theorem (Smith 1970, from Gerschgorin's theorem).  Let f be monic of
    degree n and z_1, ..., z_n distinct complex numbers, and set
    r_i = n |f(z_i)| / prod_(j != i) |z_i - z_j|.  Every root of f lies in
    the union of the discs |z - z_i| <= r_i, and a connected component of
    k discs holds exactly k roots, with multiplicity.  So if the discs are
    pairwise disjoint, each holds one simple root a_i: f is squarefree, and
    max(1, |z_i| - r_i) <= max(1, |a_i|) <= max(1, |z_i| + r_i).  The
    products of these bounds enclose M(f).

    The z_i are the eigenvalues of f's companion matrix; they are exact
    binary numbers, so the theorem applies to them as they are, and only
    the bounds are rounded.  `_smith_factors` computes them in an
    arithmetic whose +, -, *, / err by at most u relative and abs() of a
    complex number by at most 4u (two ulps): Python floats with u = 2^-53,
    or mpmath at p bits with u = 2^(1-p).  A complex product then errs by
    at most sqrt(2) gamma_2 < 2.9u (Higham, Accuracy and Stability, Lemma
    3.5), and the outward factors below cover every rounding:

    - f(z) is evaluated by Horner, y_k = y_(k-1) z + a_k, with the running
      sum m_k = m_(k-1) |z| + |y_k|, m_0 = 1 (Higham, section 5.1).  Then
      |f(z) - y_n| <= 3.9u m_n for any n < 10^12; `_horner` returns
      e = 16u m_n + 2^-1000, which also covers the rounding of |y_n| + e
      and, through 2^-1000, gradual underflow.
    - Each |z_i - z_j| is shrunk by 1 - 8u, which covers its subtraction,
      its abs and one rounding of the product over j, so the computed
      product is at most the true one.  Every partial product must stay
      between 2^-1000 and 2^1000, where no float product underflows or
      overflows.
    - r_i = n (|y_n| + e) / prod * (1 + 8u) covers its three roundings
      with a factor 1 + 2u to spare, so the computed r_i + r_j is at least
      the true sum and the test gap_ij > r_i + r_j proves disjointness.
    - The factor bounds max(1, |z_i| (1 - 8u) - r_i) and
      max(1, (|z_i| + r_i)(1 + 8u)) cover the abs, the subtraction or
      addition and one rounding of the product over all roots, so the
      computed products lo and hi bound M(f) in any order of
      multiplication.  An mpmath enclosure is multiplied out at p bits and
      rounded to floats outward by 1 -/+ 8 * 2^-53, which covers float()
      and one product rounding.
    - The returned midpoint fl((lo + hi) / 2) is within (hi - lo)/2 +
      2^-53 hi of M(f); the test hi - lo + 8 * 2^-53 hi <= 2 tol bounds
      that by tol, its own roundings included.  So a float result is
      proven only to about 12 * 2^-53 M(f) at best, and a smaller tol
      raises ToleranceUnreachable, as does a cluster that 1696 bits do not
      separate.

    The fast path is one eigenvalue solve in floats.  Only when its discs
    overlap or its enclosure is wider than tol does f take the fallback:
    if disc(f) = 0, Yun's squarefree parts g^e are measured in one pass
    and combined as prod [lo_g^e, hi_g^e].  While the product is still
    wider than tol, every part is measured again from `mpmath.polyroots`
    at 106, 212, ... bits by the same Smith test."""
    if tol < 1e-12:
        raise UsageError("tol too small to certify in double precision")
    parts = [(f, 1)]
    boxes = [_float_factors(f)]
    lo, hi = _enclosure(parts, boxes)
    if hi - lo + 8 * _U * hi > 2 * tol and disc(f) == 0:
        parts = _squarefree_decomposition_Q(f, 0)
        boxes = [_float_factors(g) for g, _ in parts]
        lo, hi = _enclosure(parts, boxes)
    precisions = iter((106, 212, 424, 848, 1696))
    while hi - lo + 8 * _U * hi > 2 * tol:
        prec = next(precisions, None)
        if prec is None:
            raise ToleranceUnreachable(f"could not certify M(f) to {tol}")
        boxes = [_mp_factors(g, prec) or box for (g, _), box in zip(parts, boxes)]
        lo, hi = _enclosure(parts, boxes)
    return (lo + hi) / 2


_U = 2.0**-53  # unit roundoff of a Python float
_UNDERFLOW = 2.0**-1000  # exceeds every error gradual underflow adds to f(z)


def _enclosure(parts: list[tuple[MonicIntPoly, int]], boxes: list) -> tuple[float, float]:
    """[lo, hi] containing prod M(g)^e over the parts (g, e), from each
    part's per-root factor bounds (`_smith_factors`); [1, inf] while some
    part has none."""
    if any(box is None for box in boxes):
        return 1.0, math.inf
    factors = [bound for (_, e), box in zip(parts, boxes) for bound in box * e]
    return math.prod(lo for lo, _ in factors), math.prod(hi for _, hi in factors)


def _float_factors(f: MonicIntPoly) -> list[tuple[float, float]] | None:
    """`_smith_factors` of f at the eigenvalues of its companion matrix, in
    floats; None if a coefficient is too large to be an exact float or the
    discs do not separate."""
    if f.height() >= 2**53:
        return None
    coeffs = [float(a) for a in f.coeffs]
    companion = np.eye(f.degree, k=-1)
    companion[0] = [-a for a in coeffs]
    try:
        return _smith_factors(coeffs, np.linalg.eigvals(companion).tolist(), _U)
    except (np.linalg.LinAlgError, OverflowError, ZeroDivisionError):
        return None


def _mp_factors(f: MonicIntPoly, prec: int) -> list[tuple[float, float]] | None:
    """The product of `_smith_factors` of f at `mpmath.polyroots`
    approximations, computed and tested at prec bits, as one factor bound
    rounded outward to floats; None if polyroots does not converge or the
    discs do not separate."""
    import mpmath

    with mpmath.workprec(prec):
        try:
            roots = mpmath.polyroots([1, *f.coeffs], maxsteps=200, extraprec=prec)
            box = _smith_factors(f.coeffs, roots, mpmath.mpf(2) ** (1 - prec))
        except (mpmath.libmp.NoConvergence, ZeroDivisionError):
            return None
        if box is None:
            return None
        lo, hi = math.prod(lo for lo, _ in box), math.prod(hi for _, hi in box)
    return [(max(1.0, float(lo) * (1 - 8 * _U)), float(hi) * (1 + 8 * _U))]


def _horner(coeffs, w, u):
    """(y, e): y is f(w) by Horner for the monic f with coefficients
    coeffs = (a_1, ..., a_n), and |f(w) - y| <= e (see `mahler_measure`)."""
    aw = abs(w)
    y = m = 1
    for a in coeffs:
        y = y * w + a
        m = m * aw + abs(y)
    return y, 16 * u * m + _UNDERFLOW


def _smith_factors(coeffs, z, u):
    """Per-root bounds [max(1, |z_i| - r_i), max(1, |z_i| + r_i)], rounded
    outward, if the Smith discs of the approximations z to the roots of the
    monic f with coefficients coeffs are pairwise disjoint; else None.  The
    arithmetic is that of z (floats or mpmath) with unit roundoff at most
    u; the proof is in `mahler_measure`."""
    n = len(z)
    shrink, grow = 1 - 8 * u, 1 + 8 * u
    prods = [1] * n
    gaps = []
    for i in range(1, n):
        for j in range(i):
            gap = abs(z[i] - z[j]) * shrink
            gaps.append(gap)
            prods[i] *= gap
            prods[j] *= gap
    if gaps and not (min(gaps) ** (n - 1) > 2**-1000 and max(gaps) ** (n - 1) < 2**1000):
        return None
    radii = []
    for w, prod in zip(z, prods):
        y, e = _horner(coeffs, w, u)
        radii.append(n * (abs(y) + e) / prod * grow)
    if not all(r < math.inf for r in radii):
        return None
    k = 0
    for i in range(1, n):
        for j in range(i):
            if not gaps[k] > radii[i] + radii[j]:
                return None
            k += 1
    return [(max(1, abs(w) * shrink - r), max(1, (abs(w) + r) * grow)) for w, r in zip(z, radii)]
