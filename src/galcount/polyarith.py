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
- exact division and symmetric lift over Z: `_divides` (by a monic
  polynomial, descending), `_sym` (the residue in (-q/2, q/2]);
- squarefree decomposition: `_squarefree_chain` (over Z, the parts
  f_k / f_(k+1) of f_(k+1) = gcd(f_k, f_k'), run only when disc(f) = 0)
  and `_squarefree_decomposition` (over F_p);
- the Frobenius layer, on arrays of many polynomials at once: companion
  matrices C (`_companion`), C^p and the Berlekamp matrices Q
  (`_frobenius_matrix`) by `_matpow`, reduced mod p by `_reduce`.
  `frobenius_cycle_types` reads cycle types from the roots mod p and the
  sign of the discriminant by Stickelberger, and only
  where those two leave two partitions of n = 6, 7, from the order of
  Frobenius on x, x^(p^k) = x mod f, by powers of Q (`_x_orders`);
  callers over a slice feed it `chunks` of DECIDE_CHUNK rows.  Whole
  spaces need no matrices: `splitting_sieve` types every monic point of
  degree up to n over F_p from its smallest irreducible factor, for
  `index_table` and the Fourier type maps;
- factorization over F_p, on the same matrices: `factor_mod_p` is the
  squarefree decomposition, then Berlekamp (`_berlekamp`) on each part's
  `_frobenius_matrix`, for small p; `splitting_type` takes the
  multiplicities from the squarefree decomposition and the degrees from
  `frobenius_cycle_types` of each part, given the discriminant of its
  monic integer lift, at any prime;
- interpolation: `interpolate`, exact Newton interpolation from integer
  points to descending integer coefficients;
- integer factorization: `factor_int`, by trial division;
- discriminant: `disc` for monic f, the n x n Hankel determinant
  det[s_(i+j)], 0 <= i, j < n, of the Newton power sums; it equals
  prod_(i<j) (alpha_i - alpha_j)^2.  For n <= 7 it runs as straight-line
  Bareiss code generated once per degree, on the reversed Hankel matrix
  where a leading minor vanishes, and on f / x where that meets a zero
  pivot too and x divides f.  The pivoting `_det_bareiss` is the fallback
  where all of these fail and for larger n.  The one non-monic
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
    InternalError,
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


def _sym(c: int, q: int) -> int:
    """The representative of c mod q in (-q/2, q/2]."""
    c %= q
    return c - q if c > q // 2 else c


def _divides(f: list[int], g: list[int]) -> list[int] | None:
    """The quotient f/g over Z if g divides f (both monic, descending), else None."""
    f, q = f[:], []
    for i in range(len(f) - len(g) + 1):
        q.append(f[i])
        for j, c in enumerate(g):
            f[i + j] -= q[i] * c
    return q if q and not any(f[len(q) :]) else None


def _squarefree_chain(f: MonicIntPoly) -> list[MonicIntPoly]:
    """The parts f_k / f_(k+1) of f_0 = f, f_(k+1) = gcd(f_k, f_k') over Q,
    down to f_K = 1: part k is the product of f's distinct irreducible
    factors of multiplicity greater than k, and the parts multiply to f.
    Gauss's lemma makes every monic f_k integral, so only the gcd runs on
    Fractions and each part is `_divides`' exact quotient over Z."""
    parts = []
    fk = f.full()
    while len(fk) > 1:
        a, b = [Fraction(c) for c in fk], [Fraction(c) for c in _deriv(fk)]
        while any(b):  # Euclid: a, b <- b, a mod b
            for i in range(len(a) - len(b) + 1):
                c = a[i] / b[0]
                for j, bc in enumerate(b):
                    a[i + j] -= c * bc
            a, b = b, _trim(a[len(a) - len(b) + 1 :])
        if any(c % a[0] for c in a):
            raise InternalError(f"gcd(f, f') of {f.coeffs} is not integral")
        gk = [int(c / a[0]) for c in a]
        parts.append(MonicIntPoly.from_full(_divides(fk, gk)))
        fk = gk
    return parts


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


STRAIGHT_MAX = 7  # degrees whose discriminant runs as generated straight-line code


def _bareiss_lines(n: int, m: dict, first: int, zero: str) -> list[str]:
    """Straight-line fraction-free Bareiss without pivoting on the symmetric
    n x n matrix whose upper-triangle entries are the expressions m[i, j],
    i <= j: the updates of m{i}_{j}, a test of every pivot from step
    `first` on that returns the expression `zero` where one vanishes, and
    the return of the determinant."""
    body = []
    for k in range(n - 1):
        piv = m[k, k]
        if k >= first:
            body.append(f"if not {piv}: return {zero}")
        for i in range(k + 1, n):
            for j in range(i, n):
                t = f"{m[i, j]} * {piv} - {m[k, i]} * {m[k, j]}"
                body.append(f"m{i}_{j} = ({t}) // {m[k - 1, k - 1]}" if k else f"m{i}_{j} = {t}")
                m[i, j] = f"m{i}_{j}"
    body.append(f"return {m[n - 1, n - 1]}")
    return body


def _straight_source(n: int) -> str:
    """Source of the straight-line discriminant of degree n, disc{n}: the
    power sums s1 .. s(2n-2), then Bareiss on H = [s_(i+j)], whose first
    pivot is s_0 = n.  At a zero pivot it returns rev{n} of the power sums:
    Bareiss on J H J = [s_(2n-2-i-j)], J the reversal, testing every pivot
    and returning None at a zero one."""
    a = [f"a{i}" for i in range(1, n + 1)]
    sums = [f"s{k}" for k in range(1, 2 * n - 1)]
    body = []
    for k in range(1, 2 * n - 1):
        terms = [f"{k} * a{k}" if k > 1 else "a1"] if k <= n else []
        terms += [f"a{i} * s{k - i}" for i in range(1, min(k, n + 1))]
        body.append(f"s{k} = -({' + '.join(terms)})")
    hankel = {(i, j): f"s{i + j}" if i + j else str(n) for i in range(n) for j in range(i, n)}
    body += _bareiss_lines(n, hankel, 1, f"rev{n}({', '.join(sums)})")
    flipped = {(i, j): f"s{2 * n - 2 - i - j}" if i + j < 2 * n - 2 else str(n) for i in range(n) for j in range(i, n)}
    rev = _bareiss_lines(n, flipped, 0, "None")
    return "".join(
        f"def {name}({', '.join(args)}):\n" + "".join(f"    {line}\n" for line in lines)
        for name, args, lines in [(f"disc{n}", a, body), (f"rev{n}", sums, rev)]
    )


@functools.cache
def _straight_disc(n: int):
    """The compiled straight-line discriminant of degree n, built on first use."""
    ns: dict = {}
    exec(compile(_straight_source(n), f"<straight-line disc, n = {n}>", "exec"), ns)
    return ns[f"disc{n}"]


def disc(f: MonicIntPoly) -> int:
    """disc of the monic f, as the Hankel determinant det[s_(i+j)], 0 <= i, j < n.

    The Newton power sums s_k = sum_i alpha_i^k come from the coefficients,
    and [s_(i+j)] = V V^T for the Vandermonde matrix V of the roots, so the
    determinant is prod_(i<j) (alpha_i - alpha_j)^2, from an n x n instead
    of the (2n-1) x (2n-1) Sylvester matrix of Res(f, f').

    For n <= STRAIGHT_MAX the determinant is fraction-free Bareiss without
    pivoting, run as straight-line code over locals (`_straight_source`,
    compiled once per degree on first use).  After step k, entry (i, j)
    is the minor of rows 0..k, i and columns 0..k, j, so by Sylvester's
    identity each division by the previous pivot (the leading k x k minor)
    is exact, and the last entry is the determinant (Bareiss, Math. Comp.
    22, 1968).  The matrix is symmetric and so is every step, so only the
    upper triangle is updated.  At a zero pivot (a vanishing leading minor,
    as for x^5 + c, whose s_1 .. s_4 vanish) the same code runs on J H J =
    [s_(2n-2-i-j)], J the reversal of rows and columns: det J^2 = 1, so it
    has the same determinant, and its leading minors are the trailing
    principal minors of H.  Every one of its pivots is tested, the first
    s_(2n-2) too, and a zero one there makes it return None.  Most such f
    have a_n = 0, so f = x g with g(0) = a_(n-1), and the roots of f are 0
    and those of g: disc(f) = disc(g) g(0)^2, from g's straight-line code,
    and 0 when a_(n-1) = 0 too.  Where that also fails, the determinant
    comes from the pivoting `_det_bareiss`, which also serves every n above
    STRAIGHT_MAX.  All of them give the same exact integer.
    """
    a = f.coeffs
    n = len(a)
    if n == 0:
        raise UsageError("disc needs degree >= 1")
    if n <= STRAIGHT_MAX:
        d = _straight_disc(n)(*a)
        if d is None and n > 1 and a[-1] == 0:  # f = x g with g(0) = a_(n-1)
            g = _straight_disc(n - 1)(*a[:-1]) if a[-2] else 0
            d = None if g is None else g * a[-2] ** 2
        if d is not None:
            return d
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
        """prod f over the parts, times c! for each part repeated c times."""
        return math.prod(f for f, _ in self.parts) * math.prod(math.factorial(self.parts.count(x)) for x in set(self.parts))

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
    the squarefree decomposition, the degrees from `frobenius_cycle_types`
    of each squarefree part g, given the discriminant of g's monic lift
    with coefficients in [0, p), which p does not divide."""
    c = PolyModP.of(p, list(reversed(f.full()))).coeffs
    parts = []
    for g, e in _squarefree_decomposition(list(c), p):
        row = tuple(g[-2::-1])
        parts += [(d, e) for d in frobenius_cycle_types([row], [disc(MonicIntPoly(row))], p)[0]]
    return SplittingType.of(parts)


# ---------------------------------------------------------------------------
# The batched Frobenius layer: cycle types from root counts, Stickelberger's
# sign and, where those two are shared, the order of Frobenius on x


def _partitions(n: int, top: int | None = None):
    """The partitions of n (into parts at most `top`) as descending tuples,
    in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, top or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


@functools.cache
def _cycle_keys(n: int) -> dict:
    """The partitions of n by key.  The key (r_1, s) of a partition is its
    number of parts 1 and its sign parity n - r mod 2.  Where (r_1, s)
    names one partition it maps to it; where it is shared, it maps to None
    and each sharing partition is keyed by (r_1, s, the lcm of its parts).
    For n <= 5 no key is shared; for n = 6, 7 the shared ones are those of
    {(6), (2,2,2)}, {(4,2), (3,3)} and {(7), (3,2,2)}, {(6,1), (2,2,2,1)},
    {(5,2), (4,3)}, {(4,2,1), (3,3,1)}, and the lcm tells each pair apart."""
    by_key: dict = {}
    for lam in _partitions(n):
        by_key.setdefault((lam.count(1), (n - len(lam)) % 2), []).append(lam)
    table = {key: lams[0] if len(lams) == 1 else None for key, lams in by_key.items()}
    return table | {(*key, math.lcm(*lam)): lam for key, lams in by_key.items() if len(lams) > 1 for lam in lams}


DECIDE_CHUNK = 1024  # rows per batched Frobenius call over a slice, pairs per block of the sieve


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


def _companion(rows: np.ndarray, p: int) -> np.ndarray:
    """The (N, n, n) companion matrices C mod p of the monic x^n + a_1
    x^(n-1) + ... + a_n given by the rows (a_1, ..., a_n): row j holds
    x^(j+1) mod f, so that g C = x g on ascending coefficient rows of
    A = F_p[x]/(f).  The dtype is int64 while n p^2 < 2^62, which bounds
    every sum of products of two matrices, and object above."""
    N, n = rows.shape
    dt = np.int64 if n * p * p < 2**62 else object
    C = np.zeros((N, n, n), dtype=dt)
    C[:, range(n - 1), range(1, n)] = 1
    C[:, n - 1] = (-rows[:, ::-1] % p).astype(dt)  # x^n = -(a_n + a_(n-1) x + ...)
    return C


def _berlekamp_matrix(Cp: np.ndarray, p: int) -> np.ndarray:
    """The Berlekamp matrices Q from the powers C^p, which multiply by x^p:
    the Frobenius g -> g^p of A is F_p-linear, and row i of Q holds
    x^(ip) mod f = e_0 (C^p)^i."""
    N, n, _ = Cp.shape
    Q = np.zeros_like(Cp)
    Q[:, 0, 0] = 1
    for i in range(1, n):
        Q[:, i] = _reduce((Q[:, i - 1, None] @ Cp)[:, 0], p)
    return Q


def _frobenius_matrix(rows: np.ndarray, p: int) -> np.ndarray:
    """The (N, n, n) Berlekamp matrices Q of the monic polynomials given by
    the rows (a_1, ..., a_n): row i holds x^(ip) mod f."""
    return _berlekamp_matrix(_matpow(_companion(rows, p), p, p), p)


def _root_counts(rows: np.ndarray, p: int) -> np.ndarray:
    """The number of roots in F_p of each row's polynomial, from its values
    at all p residues at once: the (N, n + 1) residue coefficients times
    the (n + 1, p) table of the powers x^k mod p.  Every value is a sum of
    n + 1 products below p^2, exact in int64 while (n + 1) p^2 < 2^63,
    far above the p <= DECIDE_CHUNK n^2 that `frobenius_cycle_types` feeds
    it, in blocks of N <= DECIDE_CHUNK n^2 / p rows."""
    N, n = rows.shape
    xs = np.arange(p, dtype=np.int64)
    powers = np.ones((n + 1, p), dtype=np.int64)  # row k holds x^(n-k)
    for k in range(n - 1, -1, -1):
        powers[k] = powers[k + 1] * xs % p
    coeffs = np.ones((N, n + 1), dtype=np.int64)
    coeffs[:, 1:] = rows % p
    return (_reduce(coeffs @ powers, p) == 0).sum(axis=1)


def _int_rows(rows) -> np.ndarray:
    """`rows` as an integer array: int64 where every entry fits, else
    dtype=object.  (numpy infers float64 for a row holding 2^63 beside a
    negative entry.)  An array is returned as it is."""
    if isinstance(rows, np.ndarray):
        return rows
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _x_orders(Q: np.ndarray, p: int, top: int) -> list[int]:
    """For each Berlekamp matrix Q of a stack, the order of Frobenius on x:
    the least k <= top with x^(p^k) = x mod f, else 0.  Row 1 of Q is
    v_1 = x^p mod f, and v_(k+1) = v_k Q is the image x^(p^(k+1)) of
    x^(p^k) under the F_p-linear Frobenius g -> g^p, whose matrix is Q."""
    vs = [Q[:, 1:2]]
    for _ in range(top - 1):
        vs.append(_reduce(vs[-1] @ Q, p))
    x = np.zeros(Q.shape[1], dtype=np.int64)
    x[1] = 1
    fixed = (np.concatenate(vs, axis=1) == x).all(axis=2)  # (M, top): x^(p^k) = x
    return np.where(fixed.any(axis=1), fixed.argmax(axis=1) + 1, 0).tolist()


def frobenius_cycle_types(rows, deltas, p: int) -> list[tuple[int, ...]]:
    """The Frobenius cycle types at p, as descending tuples, of the monic
    polynomials given by the rows (a_1, ..., a_n) of an (N, n) integer
    array, with integer discriminants deltas, all at once.

    f is squarefree mod p iff p does not divide disc(f), since disc(f mod
    p) = disc(f) mod p for a monic f; a row with p | delta raises
    NotSquarefreeModP.  For the others, let f = g_1 ... g_r mod p with
    irreducible g_i of degrees d_i.  The key of `_cycle_keys` reads:

    - the fixed points r_1, the number of roots of f in F_p.  For p <=
      DECIDE_CHUNK n^2 they are counted by evaluating every row at every
      residue (`_root_counts`), in blocks of DECIDE_CHUNK n^2 // p rows, so
      that a block holds no more entries than a chunk's matrix stack may.
      Above that bound r_1 is deg gcd(f, x^p - x) (`pgcd`), one row at a
      time, with x^p mod f read from row 0 of the companion power C^p.
    - the sign parity n - r mod 2, from Stickelberger's theorem (R. G.
      Swan, "Factorization of polynomials over finite fields", Pacific J.
      Math. 12, 1962): (delta | p) = (-1)^(n - r).  At p = 2 this reads
      delta = 1 or 5 mod 8 as n - r is even or odd, since every
      discriminant is 0 or 1 mod 4.  Any monic integer lift of f mod p
      with p not dividing its discriminant serves.
    - only where (r_1, n - r mod 2) is shared by two partitions, which
      happens for n = 6 and 7 alone, the order of Frobenius phi on x, the
      least k >= 1 with x^(p^k) = x mod f (`_x_orders`, up to the largest
      lcm of a shared key, 6 for n = 6 and 12 for n = 7).  It is
      lcm(d_1, ..., d_r): A is the product of the fields F_(p^d_i), so
      phi^k = id exactly when every d_i divides k, and as phi^k is an
      algebra map and x generates A, phi^k = id exactly when phi^k fixes x.

    No matrix is ranked.  A key that names no partition, which only a
    wrong delta can give, raises InternalError.
    """
    _require_prime(p)
    if len(rows) == 0:
        return []
    rows = _int_rows(rows)
    N, n = rows.shape
    if p == 2:  # the Kronecker symbol (delta | 2): +1 for delta = +-1 mod 8
        parity = [(None, 0, None, 1, None, 1, None, 0)[d % 8] for d in deltas]
    else:  # Euler's criterion
        sign = {1: 0, p - 1: 1}
        parity = [sign.get(pow(d, (p - 1) // 2, p)) for d in deltas]
    if None in parity:
        raise NotSquarefreeModP(f"row {rows[parity.index(None)].tolist()} is not squarefree mod {p}")
    Cp = None
    if p <= DECIDE_CHUNK * n * n:
        block = DECIDE_CHUNK * n * n // p
        r1 = [r for at in range(0, N, block) for r in _root_counts(rows[at : at + block], p).tolist()]
    else:
        Cp = _matpow(_companion(rows, p), p, p)
        r1 = []
        for row, xp in zip(rows.tolist(), Cp[:, 0].tolist()):  # row 0 of C^p is x^p mod f
            xp.append(0)
            xp[1] = (xp[1] - 1) % p
            r1.append(len(pgcd([c % p for c in row[::-1]] + [1], xp, p)) - 1)
    keys = list(zip(r1, parity))
    table = _cycle_keys(n)
    types = [table.get(key) for key in keys]
    shared = [i for i, (t, key) in enumerate(zip(types, keys)) if t is None and key in table]
    if shared:
        Cp = _matpow(_companion(rows[shared], p), p, p) if Cp is None else Cp[shared]
        top = max(key[2] for key in table if len(key) == 3)
        for i, k in zip(shared, _x_orders(_berlekamp_matrix(Cp, p), p, top)):
            types[i] = table.get((*keys[i], k))
    if None in types:
        i = types.index(None)
        raise InternalError(f"row {rows[i].tolist()} with discriminant {deltas[i]} has no cycle type mod {p}")
    return types


# ---------------------------------------------------------------------------
# The splitting-type sieve: every monic point over F_p labelled with its type


@functools.lru_cache(maxsize=None)
def splitting_types(d: int) -> tuple[SplittingType, ...]:
    """Every splitting type of degree d, sorted by parts, so (d) comes last; () for d = 0."""
    if d == 0:
        return (SplittingType(()),)
    parts = [(f, e) for f in range(1, d + 1) for e in range(1, d // f + 1)]
    # each type once, with (f, e) as its largest part
    types = (SplittingType((*t.parts, fe)) for fe in parts for t in splitting_types(d - fe[0] * fe[1]) if t.parts[-1:] <= (fe,))
    return tuple(sorted(types, key=lambda t: t.parts))


@functools.lru_cache(maxsize=None)
def join_tables(d: int) -> dict[tuple[int, int], np.ndarray]:
    """For each part (k, e) with k e <= d, the position in `splitting_types`(d)
    of each type of degree d - k e with that part added."""
    at = {t.parts: i for i, t in enumerate(splitting_types(d))}
    parts = [(k, e) for k in range(1, d + 1) for e in range(1, d // k + 1)]
    joined = {(k, e): [at[tuple(sorted((*t.parts, (k, e))))] for t in splitting_types(d - k * e)] for k, e in parts}
    tables = {part: np.array(table, dtype=np.min_scalar_type(len(at))) for part, table in joined.items()}
    for table in tables.values():
        table.setflags(write=False)  # cached, so shared by every caller
    return tables


def _convolve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Row-wise products mod p of two stacks of coefficient rows, in int64."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=np.int64)
    for k in range(b.shape[1]):
        out[:, k : k + a.shape[1]] += a * b[:, k : k + 1].astype(np.int64)
    return _reduce(out, p)


def _monic_rows(points: np.ndarray, d: int, p: int) -> np.ndarray:
    """The rows (1, a_1, ..., a_d) of points of the degree-d space, from their base-p digits."""
    rows = np.ones((len(points), d + 1), dtype=np.int64)
    rows[:, 1:] = points[:, None] // p ** np.arange(d - 1, -1, -1) % p
    return rows


def splitting_sieve(p: int, n: int) -> list[np.ndarray]:
    """The label of every point (a_1, ..., a_d), row-major, of the monic
    spaces of degree d = 0..n over F_p: the position of its type in
    `splitting_types`(d).

    Rank the irreducibles by degree, then by point index.  A reducible f is
    g^e h for exactly one pair: g its first factor, e its multiplicity and
    h = f / g^e of lower degree with every factor after g (minf[h] > rank
    g; h = 1 has none), by unique factorization; and each such pair gives a
    point of type tau(h) plus the part (deg g, e).  So stage d writes, for
    each pool degree k < d and e <= d / k, the pairs of one `np.flatnonzero`
    in blocks of DECIDE_CHUNK, their h rows from base-p digits.  The points
    left unreached are the irreducibles of degree d, the next pool.

    Memory: the labels (one or two bytes per point), an int32 minf per point
    below degree n, the pool rows in the smallest dtype that holds p - 1,
    and per (k, e) a boolean matrix and its int64 pairs, each at most p^d
    entries, fed in blocks of a few DECIDE_CHUNK (d + 1) int64 entries.
    """
    _require_prime(p)
    stages = [np.zeros(1, dtype=np.uint8)]
    minf = [np.full(1, np.iinfo(np.int32).max, dtype=np.int32)]
    pools = []  # (rank of the first member, monic rows) of degree 1, 2, ...
    for d in range(1, n + 1):
        irreducible = len(splitting_types(d)) - 1  # (d) sorts last
        labels = np.full(p**d, irreducible, dtype=np.min_scalar_type(irreducible + 1))
        low = np.empty(p**d, dtype=np.int32) if d < n else None
        for k, (first, pool) in enumerate(pools, 1):
            power = pool[:, :1]  # the rows' leading ones: g^0
            for e in range(1, d // k + 1):
                power = _convolve(power, pool, p).astype(pool.dtype)
                m = d - k * e
                pairs = np.flatnonzero(minf[m] - first > np.arange(len(pool))[:, None])
                for at in range(0, len(pairs), DECIDE_CHUNK):
                    g, h = np.divmod(pairs[at : at + DECIDE_CHUNK], p**m)
                    f = _convolve(_monic_rows(h, m, p), power[g], p)[:, 1:] @ p ** np.arange(d - 1, -1, -1)
                    labels[f] = join_tables(d)[k, e][stages[m][h]]
                    if low is not None:
                        low[f] = first + g
        stages.append(labels)
        if low is not None:
            pool = np.flatnonzero(labels == irreducible)
            first = pools[-1][0] + len(pools[-1][1]) if pools else 0
            low[pool] = first + np.arange(len(pool))
            minf.append(low)
            pools.append((first, _monic_rows(pool, d, p).astype(np.min_scalar_type(p - 1))))
    return stages


def index_table(p: int, n: int) -> np.ndarray:
    """ind(f mod p) for every coefficient tuple (a_1..a_n), row-major, at any
    prime p: the index of each point's type in the sieve."""
    inds = np.array([t.ind for t in splitting_types(n)], dtype=np.min_scalar_type(n))
    return inds[splitting_sieve(p, n)[n]]


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
    prod = pmul([_sym(c, p) for c in gstar], [_sym(c, p) for c in hstar])
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
    row = sum(a % p * p**i for i, a in enumerate(reversed(prefix)))
    return int(np.count_nonzero(index_table(p, n).reshape(-1, p**k)[row] == k))


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
    if disc(f) = 0, the squarefree parts of `_squarefree_chain`, whose
    product is f, are measured in one pass, each run of equal neighbours
    once, and their enclosures multiplied.  While the product is still
    wider than tol, every distinct part is measured again from
    `mpmath.polyroots` at 106, 212, ... bits by the same Smith test."""
    if tol < 1e-12:
        raise UsageError("tol too small to certify in double precision")
    parts, mults = [f], [1]
    boxes = [_float_factors(f)]
    lo, hi = _enclosure(boxes, mults)
    if hi - lo + 8 * _U * hi > 2 * tol and disc(f) == 0:
        parts, mults = zip(*[(g, len(list(run))) for g, run in itertools.groupby(_squarefree_chain(f))])
        boxes = [_float_factors(g) for g in parts]
        lo, hi = _enclosure(boxes, mults)
    precisions = iter((106, 212, 424, 848, 1696))
    while hi - lo + 8 * _U * hi > 2 * tol:
        prec = next(precisions, None)
        if prec is None:
            raise ToleranceUnreachable(f"could not certify M(f) to {tol}")
        boxes = [_mp_factors(g, prec) or box for g, box in zip(parts, boxes)]
        lo, hi = _enclosure(boxes, mults)
    return (lo + hi) / 2


_U = 2.0**-53  # unit roundoff of a Python float
_UNDERFLOW = 2.0**-1000  # exceeds every error gradual underflow adds to f(z)


def _enclosure(boxes: list, mults) -> tuple[float, float]:
    """[lo, hi] containing the product of the parts' measures, each to the
    power of its multiplicity, from each part's per-root factor bounds
    (`_smith_factors`); [1, inf] while some part has none.  A part's bounds
    are repeated, not raised to a power, so the rounding is that of the
    product over every copy."""
    if any(box is None for box in boxes):
        return 1.0, math.inf
    factors = [bound for box, k in zip(boxes, mults) for _ in range(k) for bound in box]
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
