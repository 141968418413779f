"""Exhaustive coefficient-box enumeration and the derived experiments.

The box {max |a_i| <= H} is cut into slices along a_1, each with its own
ledger.  The box is symmetric under f(x) -> (-1)^n f(-x), that is a_i ->
(-1)^i a_i, which keeps the height, the discriminant, reducibility, the
Galois group and every Frobenius cycle type (the roots are only negated),
so slice -a1 has exactly the ledger of slice a1.  The unit of work is a
run of the slices still to be counted, closed once it counts at least
BLOCK_ENTRIES polynomials at degrees 2-4, whose array counters take one
slice at a time, and DECIDE_CHUNK at degrees 5-7, whose runs feed the
Frobenius walks; a shorter last run joins the one before it (`_runs`),
and a run never splits a pair of twin slices a1, -a1.  A box of one run
is counted in-process; the runs of larger boxes go to a Pool that every
box of a ladder shares (`compute_ladder`, `_Workers`).
`slice_ledger` alone uses the symmetry: degrees 2-4 count one slice of
each pair in a run and copy its ledger to the other; degrees 5-7 give
every slice its own discriminant and factor-mask pass but walk one of
each pair of twin polynomials whose slices are both in the run, slice 0
being its own mirror (`_walked`).  Every slice ledger depends only on its
own slice, and the ledgers are merged in a fixed order, so the result is
independent of the runs and of the worker schedule.  The checksum of a
merged ledger is the XOR of the per-slice checksums, hence also
schedule-independent.  With a checkpoint directory each slice is stored
as a file when its run is counted, and a stored slice is reused only if
it re-seals (see `_load_slice`).

The quartic counter decides a whole slice with integer arrays, a block of
a2 rows at a time.  Fujiwara's bound puts the resolvent roots at |y| <= Y
= O(H), so a slice tries O(Y S^2) candidates for S = 2H+1, and a block
temporary holds at most max(S^3, 2^16) entries, or one a2 row where that is
more.  The discriminant terms are at most 1069 H^6 in size and the resolvent
values at most Y^3 + H Y^2 + H^2 Y + H^2, so it runs in int64, and
`enumerate_box` refuses a quartic box where these reach 2^62 (H >= 404, far
beyond the default budget); the Kappe-Warren entries move to dtype=object
from H = 76 on.

Degrees 2-4 are decided entirely with integer arrays.  From degree 3 up,
`_factor_mask` marks the polynomials of a slice with a monic integer factor
of degree m <= n/2 by one array scatter per factor degree.  A reducible
polynomial has such a factor, so at every degree the mask is exactly
reducibility, and the box counters never factor over Z.  For degrees 5-7
each polynomial still gets its own discriminant (`polyarith.disc`, a
Hankel determinant of power sums).  The unmasked polynomials are
irreducible; those of a whole run that are walked are tagged with the
slices their verdict goes to and decided together (`_run_counts`): the
quintics by `galois.quintic_groups`, the sextics and septics by
`galois.sn_certificates`, and those left uncertified are booked as
unresolved.  Both batched Frobenius deciders are fed in
`polyarith.chunks`, one walk per chunk, so their arrays stay
O(DECIDE_CHUNK n^2) at any H.
`case_partition` screens cubics, quartics and quintics with the same
`_unmasked` slices and names the groups with `galois.irreducible_groups`.

E_n(H) counts monic degree-n integer polynomials in the box whose Galois
group is not the full symmetric group; polynomials with vanishing
discriminant are counted by the group of their squarefree kernel, which
acts on fewer than n roots and therefore always contributes to E_n.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import zlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from multiprocessing import Pool

import numpy as np

from .errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    DivisionByZero,
    InsufficientData,
    InternalError,
    UsageError,
    ZeroCount,
)
from . import galois
from .polyarith import DECIDE_CHUNK, MonicIntPoly, chunks, disc, factor_int, field_disc_valuation, pmul

DEFAULT_BUDGET = 10**9
FORMAT_VERSION = 1
BLOCK_ENTRIES = 2**16  # polynomials per degree 2-4 run; a quartic block temporary may hold this many entries

SN_NAME = {2: "C2", 3: "S3", 4: "S4", 5: "S5", 6: "S6", 7: "S7"}


def _group_tally(n: int) -> dict:
    """A zero count for every transitive group of degree n in `galois.GROUPS`."""
    return {name: 0 for name, (_, label) in galois.GROUPS.items() if label.startswith(f"{n}T")}


@dataclass
class CountLedger:
    n: int
    H: int
    total: int = 0
    disc_zero: int = 0
    reducible: int = 0
    per_group: dict = field(default_factory=dict)
    square_disc: int = 0
    unresolved: int = 0
    checksum: int = 0

    def merge(self, other: "CountLedger") -> "CountLedger":
        if (self.n, self.H) != (other.n, other.H):
            raise UsageError("ledgers from different boxes")
        per_group = dict(self.per_group)
        for k, v in other.per_group.items():
            per_group[k] = per_group.get(k, 0) + v
        return CountLedger(
            n=self.n,
            H=self.H,
            total=self.total + other.total,
            disc_zero=self.disc_zero + other.disc_zero,
            reducible=self.reducible + other.reducible,
            per_group=per_group,
            square_disc=self.square_disc + other.square_disc,
            unresolved=self.unresolved + other.unresolved,
            checksum=self.checksum ^ other.checksum,
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "H": self.H,
            "total": self.total,
            "discZero": self.disc_zero,
            "reducible": self.reducible,
            "perGroup": {k: self.per_group[k] for k in sorted(self.per_group)},
            "squareDisc": self.square_disc,
            "unresolved": self.unresolved,
            "caseHistogram": {},  # always empty; format 1 records carry the key
            "checksum": self.checksum,
        }

    @classmethod
    def from_json(cls, obj) -> "CountLedger":
        return cls(
            n=obj["n"],
            H=obj["H"],
            total=obj["total"],
            disc_zero=obj["discZero"],
            reducible=obj["reducible"],
            per_group=dict(obj["perGroup"]),
            square_disc=obj["squareDisc"],
            unresolved=obj["unresolved"],
            checksum=obj["checksum"],
        )

    def canonical(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def _slice_crc(a1: int, led: CountLedger) -> int:
    """Slice checksum: crc32 over a1 and the counts of the canonical record."""
    body = {"a1": a1, **led.to_json()}
    del body["caseHistogram"], body["checksum"]
    return zlib.crc32(json.dumps(body, sort_keys=True, separators=(",", ":")).encode())


# ---------------------------------------------------------------------------
# Slice counters


def _slice_counts_n2(H, a1):
    a2 = np.arange(-H, H + 1, dtype=np.int64)
    d = np.int64(a1) * a1 - 4 * a2
    zero = d == 0
    sq = galois._square_mask(d) & (d > 0)
    led = CountLedger(n=2, H=H, total=2 * H + 1, disc_zero=int(zero.sum()), reducible=int(sq.sum()))
    c2 = int((~zero & ~sq).sum())
    if c2:
        led.per_group["C2"] = c2
    return led


def _factor_tail(a1, head, q):
    """The last m coefficients of f = (x^m + q_1 x^(m-1) + ... + q_m) g for
    the monic g of degree n - m that makes f start x^n + a1 x^(n-1) + head,
    head = (a_2, ..., a_(n-m)); for ints or broadcasting integer arrays.

    The cofactor g = x^(n-m) + d_1 x^(n-m-1) + ... + d_(n-m) follows from
    d_0 = 1 and d_k = a_k - sum_j q_j d_(k-j), and a_k for k > n - m is the
    sum of q_j d_(k-j) over the j with k - j <= n - m.
    """
    m = len(q)
    d = [1]
    for k, a in enumerate((a1, *head), start=1):
        for j in range(1, min(m, k) + 1):
            a = a - q[j - 1] * d[k - j]
        d.append(a)
    top = len(d) - 1  # n - m
    tail = []
    for k in range(top + 1, top + m + 1):
        t = q[m - 1] * d[k - m]
        for j in range(k - top, m):
            t = t + q[j - 1] * d[k - j]
        tail.append(t)
    return tail


def _factor_mask(n, H, a1):
    """Mask over (a_2, ..., a_n) of the reducible polynomials of the slice a1,
    found by their monic integer factors of degree m <= n/2.

    Every root has |r| < R = H + 1, so a factor x^m + q_1 x^(m-1) + ... + q_m
    has |q_j| <= C(m, j) R^j; q_m divides a_n, so |q_m| <= H, and q_m = 0 (the
    root 0) is needed only for m = 1; for n = 2m one of the two factors has
    q_m^2 <= H.  Such a factor and the head (a_2, ..., a_(n-m)) fix the last
    m coefficients (`_factor_tail`), which are scattered into the mask where
    they lie in the box.  Factors are taken in blocks of (2H + 3)^m, so the
    temporaries hold about as many entries as the mask.  As |d_k| <= H +
    3R|d_(k-1)| + 3R^2|d_(k-2)| + H|d_(k-3)| < (4R)^k by induction, every
    intermediate is below 2 R^n for m = 1 and (4R)^(n-1) above, and the mask
    runs in int64, where `_int64_bound` keeps both below 2^62.
    """
    S = 2 * H + 1
    R = H + 1
    coef = np.arange(-H, H + 1, dtype=np.int64)
    mask = np.zeros((S,) * (n - 1), dtype=bool)
    for m in range(1, n // 2 + 1):
        last = coef if m == 1 else coef[(coef != 0) & (coef * coef <= (H if 2 * m == n else H * H))]
        factors = last[None]
        for j in range(m - 1, 0, -1):  # prepend every q_j to every column (q_(j+1), ..., q_m)
            qj = np.arange(-math.comb(m, j) * R**j, math.comb(m, j) * R**j + 1)
            factors = np.vstack([np.repeat(qj, factors.shape[1]), np.tile(factors, qj.size)])
        axes = n - m - 1  # head coefficients a_2 .. a_(n-m)
        head = [coef.reshape((1,) * (k + 1) + (-1,) + (1,) * (axes - k - 1)) for k in range(axes)]
        block = (S + 2) ** m
        for i in range(0, factors.shape[1], block):
            q = factors[:, i : i + block].reshape((m, -1) + (1,) * axes)
            tail = np.broadcast_arrays(*_factor_tail(a1, head, list(q)))
            ok = abs(tail[0]) <= H
            for t in tail[1:]:
                ok &= abs(t) <= H
            hit = np.nonzero(ok)[1:]
            mask[(*hit, *(t[ok] + H for t in tail))] = True
    return mask


def _slice_counts_n3(H, a1):
    S = 2 * H + 1
    a = np.int64(a1)
    b = np.arange(-H, H + 1, dtype=np.int64)[:, None]
    cc = np.arange(-H, H + 1, dtype=np.int64)[None, :]
    d = (
        18 * a * b * cc
        - 4 * a**3 * cc
        + a * a * b * b
        - 4 * b**3
        - 27 * cc * cc
    )
    zero = d == 0
    red = _factor_mask(3, H, a1) & ~zero
    sq = galois._square_mask(d) & ~zero & ~red
    led = CountLedger(n=3, H=H, total=S * S, disc_zero=int(zero.sum()), reducible=int(red.sum()))
    groups = {"C3": int(sq.sum()), "S3": int((~zero & ~red & ~sq).sum())}
    led.per_group = {k: v for k, v in groups.items() if v}
    led.square_disc = groups["C3"]
    return led


def _resolvent_root_bound(H, a):
    """Least t >= H with t^2 >= (|a| + 4) H and 2 t^3 >= (a^2 + 4H) H + H^2.

    For |b|, |c|, |d| <= H these are bounds on the coefficients -b, ac - 4d
    and -(a^2 d - 4bd + c^2) of the quartic resolvent cubic, so by Fujiwara's
    bound |y| <= 2 max(|e2|, |e1|^(1/2), |e0 / 2|^(1/3)) every root y of it
    has |y| <= 2t.
    """
    t = H
    while t * t < (abs(a) + 4) * H or 2 * t**3 < (a * a + 4 * H) * H + H * H:
        t += 1
    return t


def _quartic_block_rows(H, Y):
    """b rows per block of `_slice_counts_n4`, at least one and at most S.

    A block's temporaries are (rows, 2Y + 1, S) and (rows, S, S) arrays, so
    each holds at most max(S^3, BLOCK_ENTRIES) entries (S^3 from H = 20 on),
    unless one b row alone holds more.  Up to H = 14 a slice is one block.
    """
    S = 2 * H + 1
    return min(S, max(1, max(S**3, BLOCK_ENTRIES) // (S * (2 * Y + 1))))


def _kappe_warren_dtype(H):
    """int64 while q * delta < 2^62 for q = beta^2 - 4d and a^2 - 4(b - beta),
    so |q| <= max(Y^2 + 4H, H^2 + 4H + 4Y), with Y = 2t the root bound of
    `_resolvent_root_bound` at |a| = H, where it is largest."""
    Y = 2 * _resolvent_root_bound(H, H)
    return np.int64 if max(Y * Y + 4 * H, H * H + 4 * H + 4 * Y) * 1069 * H**6 < 2**62 else object


def _slice_counts_n4(H, a1):
    """Every quartic x^4 + a x^3 + b x^2 + c x + d of the slice a = a1.

    The resolvent cubic g(y) = y^3 - b y^2 + (ac - 4d) y - (a^2 d - 4bd + c^2)
    has the roots x1x2 + x3x4 etc., all with |y| <= Y by Fujiwara's bound
    (`_resolvent_root_bound`), so the box costs O(H) candidate y per (b, c).
    g is linear in d: g = N(y, b, c) - d D(y, b) with N = y^3 - b y^2 + acy
    - c^2 and D = 4y + a^2 - 4b.  So for each (b, y, c), D != 0 gives one
    candidate d = N / D, kept if exact with |d| <= H, and D = 0 (at y0 = b -
    a^2/4, a root only if |y0| <= Y) with N = 0 makes y0 a root for every d.
    Scatter-counting these gives the integer roots of g per (b, c, d); the
    group follows as in `galois.quartic_group_irreducible`, whose
    Kappe-Warren test runs on the arrays of one-root entries, in the dtype of
    `_kappe_warren_dtype`.  The b rows are counted in blocks of
    `_quartic_block_rows`.
    """
    S = 2 * H + 1
    kdt = _kappe_warren_dtype(H)
    a = a1
    red = _factor_mask(4, H, a1)
    coef = np.arange(-H, H + 1, dtype=np.int64)
    Y = 2 * _resolvent_root_bound(H, a)
    y = np.arange(-Y, Y + 1, dtype=np.int64)[:, None]
    yy = y * y
    N0 = (yy + a * coef) * y - coef * coef  # the b-free part y^3 + acy - c^2 of N, (y, c)
    led = CountLedger(n=4, H=H, total=S**3)
    groups = _group_tally(4)

    def count_rows(lo, hi):  # the block of b rows lo <= b < hi; its temporaries end with the call
        r = hi - lo
        b = np.arange(lo, hi, dtype=np.int64)[:, None, None]
        # integer roots of the resolvent per (b, c, d)
        N = N0 - b * yy
        D = 4 * y + (a * a - 4 * b)
        d = N // np.where(D == 0, 1, D)
        bi, yi, ci = np.nonzero((d * D == N) & (D != 0) & (d >= -H) & (d <= H))
        idx = (bi * S + ci) * S + d[bi, yi, ci] + H
        del d
        roots = np.bincount(idx, minlength=r * S * S).reshape(r, S, S)
        beta = np.zeros(r * S * S, dtype=np.int64)
        beta[idx] = y[yi, 0]
        beta = beta.reshape(r, S, S)
        if a % 2 == 0:  # D = 0 at y0 = b - a^2/4
            y0 = b[:, 0, 0] - a * a // 4
            (i,) = np.nonzero(abs(y0) <= Y)
            hit = np.zeros((r, S, 1), dtype=bool)
            hit[i, :, 0] = N[i, y0[i] + Y] == 0
            roots += hit
            beta = np.where(hit, y0[:, None, None], beta)
        del N
        delta = galois.quartic_disc(a, b, coef[:, None], coef)
        zero = delta == 0
        blk = red[lo + H : hi + H]
        irr = ~zero & ~blk
        led.disc_zero += int(zero.sum())
        led.reducible += int((blk & ~zero).sum())
        none = irr & (roots == 0)
        pos = none & (delta > 0)
        square = int(galois._square_mask(delta[pos]).sum())
        groups["A4"] += square
        groups["S4"] += int(none.sum()) - square
        groups["V4"] += int((irr & (roots == 3)).sum())
        one = irr & (roots == 1)
        bs, _, ds = np.nonzero(one)
        c4 = galois._kappe_warren_mask(a, *(v.astype(kdt) for v in (bs + lo, ds - H, beta[one], delta[one])))
        groups["C4"] += int(c4.sum())
        groups["D4"] += int((~c4).sum())

    rows = _quartic_block_rows(H, Y)
    for lo in range(-H, H + 1, rows):
        count_rows(lo, min(lo + rows, H + 1))
    led.per_group = {k: v for k, v in groups.items() if v}
    led.square_disc = groups["A4"] + groups["V4"]
    return led


def _unmasked(led, H, a1):
    """(f, disc(f)) for every irreducible f of the slice a1 with a nonzero
    discriminant: the others go to led.disc_zero, or to led.reducible by
    `_factor_mask`."""
    mask = _factor_mask(led.n, H, a1).ravel().tolist()
    for rest, masked in zip(itertools.product(range(-H, H + 1), repeat=led.n - 1), mask):
        f = MonicIntPoly((a1, *rest))
        delta = disc(f)
        if delta == 0:
            led.disc_zero += 1
        elif masked:
            led.reducible += 1
        else:
            yield f, delta


def _decided(items, decide):
    """(tag, f, delta, verdict) for each (tag, f, delta) of `items`, with the
    batched decide(polys, deltas) fed `chunks` of items."""
    for batch in chunks(items):
        tags, polys, deltas = map(list, zip(*batch))
        yield from zip(tags, polys, deltas, decide(polys, deltas))


def _verdicts(n, polys, deltas):
    """(group name, square discriminant) of each irreducible f of degree n =
    5, 6 or 7: quintics get their exact group, sextics and septics S_n only
    by certificate, and the name None (unresolved) otherwise."""
    if n == 5:
        return [(name, name in ("C5", "D5", "A5")) for name in galois.quintic_groups(polys, deltas)]
    return [
        (SN_NAME[n], False) if v.status == "certifiedSn" else (None, v.status == "certifiedSubsetAn")
        for v in galois.sn_certificates(polys, deltas, prime_budget=25)
    ]


def _mirror(coeffs):
    """The coefficients (a_1, ..., a_n) of (-1)^n f(-x): a_i -> (-1)^i a_i."""
    return tuple(-a if i % 2 else a for i, a in enumerate(coeffs, start=1))


def _walked(leds, H, a1s):
    """(slices, f, delta) for the polynomials of the run a1s that reach the
    Frobenius walk, with `_unmasked` booking the rest into leds.  Of two
    twins f != mirror(f) whose slices are both in the run only one is
    walked, and `slices` names both: slice a1 > 0 is walked for the pair
    a1, -a1, and slice 0, its own mirror, walks the lesser coefficient
    tuple, booked twice into slice 0.  A lone slice is walked whole."""
    for a1 in a1s:
        polys = _unmasked(leds[a1], H, a1)
        if a1 == 0:
            for f, delta in polys:
                twin = _mirror(f.coeffs)
                if f.coeffs < twin:
                    yield (0, 0), f, delta
                elif f.coeffs == twin:
                    yield (0,), f, delta
        elif a1 < 0 and -a1 in leds:
            for _ in polys:  # its own disc and mask pass; slice -a1 walks the pair
                pass
        else:
            slices = (a1, -a1) if -a1 in leds else (a1,)
            for f, delta in polys:
                yield slices, f, delta


def _run_counts(n, H, a1s):
    """Degrees 5-7: the ledgers of the run a1s.  Every unmasked polynomial
    is irreducible; those that `_walked` keeps are decided together, one
    Frobenius walk per chunk.  A verdict depends only on its own
    polynomial, and a twin has the verdict of its mirror, so each verdict
    is booked into every slice it names, unchanged by the grouping.  A
    slice must then account for (2H+1)^(n-1) polynomials, and twin slices
    a1, -a1 must agree in discZero and reducible; else InternalError."""
    leds = {a1: CountLedger(n=n, H=H, total=(2 * H + 1) ** (n - 1)) for a1 in a1s}
    for slices, _, _, (name, square) in _decided(_walked(leds, H, a1s), partial(_verdicts, n)):
        for a1 in slices:
            led = leds[a1]
            led.square_disc += square
            if name is None:
                led.unresolved += 1
            else:
                led.per_group[name] = led.per_group.get(name, 0) + 1
    for a1, led in leds.items():
        twin = leds.get(-a1, led)
        booked = led.disc_zero + led.reducible + sum(led.per_group.values()) + led.unresolved
        if booked != led.total or (led.disc_zero, led.reducible) != (twin.disc_zero, twin.reducible):
            raise InternalError(f"slice {a1} of ({n}, {H}) misses polynomials or disagrees with its twin")
    return list(leds.values())


_ARRAY_COUNTERS = {2: _slice_counts_n2, 3: _slice_counts_n3, 4: _slice_counts_n4}


def slice_ledger(n: int, H: int, a1s: list[int]) -> list[CountLedger]:
    """The ledgers of the sub-boxes with the leading coefficient pinned to
    each a1 of `a1s`, in that order, each sealed for its own a1.  Slice -a1
    has the ledger of slice a1 (the module docstring): degrees 2-4 count
    each slice once, except that for a1 > 0 slice -a1 takes a copy of the
    ledger of a1 when both are in the list; degrees 5-7 decide the whole
    list (a run) together, walking one of each pair of twins
    (`_run_counts`)."""
    if n in _ARRAY_COUNTERS:
        own = {a1: _ARRAY_COUNTERS[n](H, a1) for a1 in a1s if a1 >= 0 or -a1 not in a1s}
        leds = [own[a1] if a1 in own else replace(own[-a1], per_group=dict(own[-a1].per_group)) for a1 in a1s]
    elif n in (5, 6, 7):
        leds = _run_counts(n, H, a1s)
    else:
        raise DegreeOutOfRange("enumeration implemented for 2 <= n <= 7")
    for a1, led in zip(a1s, leds):
        led.checksum = _slice_crc(a1, led)
    return leds


def _per_run(n, H):
    """Units per run: enough slices of (2H+1)^(n-1) polynomials to count
    BLOCK_ENTRIES of them (degrees 2-4) or DECIDE_CHUNK (degrees 5-7)."""
    chunk = BLOCK_ENTRIES if n in _ARRAY_COUNTERS else DECIDE_CHUNK
    return -(-chunk // (2 * H + 1) ** (n - 1))


def _runs(n, H, units):
    """`units`, one entry per slice or twin pair to count, cut into runs of
    `_per_run` consecutive entries.  A shorter last run joins the run
    before it, so a cold box of H + 1 pairs has max(1, (H + 1) // per_run)
    runs."""
    per_run = _per_run(n, H)
    runs = [units[i : i + per_run] for i in range(0, len(units), per_run)]
    if len(runs) > 1 and len(runs[-1]) < per_run:
        runs[-2:] = [runs[-2] + runs[-1]]
    return runs


def _cpus() -> int:
    """The CPUs this process may run on, by its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Workers:
    """The Pool that the boxes of a ladder share.  It is made when a box
    first has two runs or more, with min(parallelism, CPUs, the most runs
    of a cold box of the ladder) processes, and terminated on exit; a box
    of one run, or a ladder where that minimum is 1, is counted
    in-process."""

    def __init__(self, n, Hs, parallelism):
        self.n, self.Hs, self.parallelism = n, Hs, parallelism
        self.size = self.pool = None

    def map(self, fn, jobs):
        if len(jobs) < 2:
            return list(map(fn, jobs))
        if self.size is None:
            most = max(max(1, (H + 1) // _per_run(self.n, H)) for H in self.Hs)
            self.size = min(self.parallelism, _cpus(), most)
            if self.size > 1:
                self.pool = Pool(self.size)
        return list(map(fn, jobs)) if self.pool is None else self.pool.map(fn, jobs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()


# ---------------------------------------------------------------------------
# Slice files: one per (n, H, a1), written whole or not at all


def _slice_path(root, n, H, a1):
    return os.path.join(root, f"count_n{n}_H{H}_a1{a1:+d}.json")


def _store_slice(root, n, H, a1, led: CountLedger) -> None:
    path = _slice_path(root, n, H, a1)
    record = {"formatVersion": FORMAT_VERSION, "n": n, "H": H, "a1": a1, "ledger": led.to_json()}
    with open(path + ".tmp", "w") as fh:  # json.dumps: json.dump never uses the C encoder
        fh.write(json.dumps(record, sort_keys=True))
    os.replace(path + ".tmp", path)


def _load_slice(root, n, H, a1) -> CountLedger | None:
    """The stored slice if it re-seals, else None (a cache miss).

    It re-seals when the file parses, its formatVersion, n, H and a1 are the
    expected ones, total = discZero + reducible + sum(perGroup) + unresolved
    = (2H+1)^(n-1), the checksum recomputed from a1 and the counts is the
    stored one, and it has no case histogram, which the checksum does not
    cover and no slice counter fills.
    """
    try:
        with open(_slice_path(root, n, H, a1)) as fh:
            record = json.load(fh)
        led = CountLedger.from_json(record["ledger"])
        stored, led.checksum = led.checksum, _slice_crc(a1, led)
        counted = led.disc_zero + led.reducible + sum(led.per_group.values()) + led.unresolved
        ok = (
            (record["formatVersion"], record["n"], record["H"], record["a1"], led.n, led.H)
            == (FORMAT_VERSION, n, H, a1, n, H)
            and led.total == counted == (2 * H + 1) ** (n - 1)
            and stored == led.checksum
            and not record["ledger"].get("caseHistogram")
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return led if ok else None


def _slice_worker(args):
    """Count a run of slices (`slice_ledger`) and store each with a
    checkpoint.  Returns the (slice, ledger) pairs."""
    n, H, run, checkpoint = args
    pairs = list(zip(run, slice_ledger(n, H, run)))
    if checkpoint:
        for a1, led in pairs:
            _store_slice(checkpoint, n, H, a1, led)
    return pairs


def check_budget(n: int, H: int, budget: int) -> None:
    """Refuse a box of more than `budget` polynomials before enumerating it."""
    if (2 * H + 1) ** n > budget:
        raise BudgetExceeded(f"(2H+1)^n = {(2*H+1)**n} exceeds budget {budget}")


def _int64_bound(n: int, H: int) -> int:
    """A bound on every int64 intermediate of the array counters for the box
    (n, H), which `enumerate_box` requires below 2^62: |d| for the n = 2, 3
    discriminants, whose `galois._square_mask` is exact there, and the
    bounds 2R^n and (4R)^(n-1) of `_factor_mask` from n = 3 on.  For n = 4
    also the quartic discriminant terms, at most 1069 H^6, and the
    resolvent values of `_slice_counts_n4`, at most Y^3 + H Y^2 + H^2 Y +
    H^2 with Y = 2t the root bound of `_resolvent_root_bound` at |a| = H,
    where it is largest."""
    if n == 2:
        return H * H + 4 * H
    R = H + 1
    bound = max(2 * R**n, (4 * R) ** (n - 1))
    if n == 3:
        return max(bound, 5 * H**4 + 22 * H**3 + 27 * H**2)
    if n == 4:
        Y = 2 * _resolvent_root_bound(H, H)
        return max(bound, 1069 * H**6, Y**3 + H * Y * Y + H * H * Y + H * H)
    return bound


def enumerate_box(
    n: int,
    H: int,
    parallelism: int = 1,
    budget: int = DEFAULT_BUDGET,
    checkpoint: str | None = None,
    workers: _Workers | None = None,
) -> tuple[CountLedger, int]:
    """The merged ledger of the box and the number of slices computed.

    With a `checkpoint` directory, every stored slice that re-seals is
    reused.  The missing slices are cut into runs (`_runs`, one slice or
    pair of twin slices a1, -a1 as a unit), which may join non-adjacent
    a1 where stored slices lie between, and each run is counted by
    `slice_ledger`, so a lone missing slice is counted directly.  The runs
    go to `workers`, the Pool of a ladder, or else to one of the box's
    own; one run is counted in-process.  Each slice of a run is stored
    when its run is done, by the process that computed it, and counts as
    computed.  A box over budget, or one whose int64 arithmetic
    `_int64_bound` does not prove exact, is refused before anything is
    made.
    """
    if workers is None:
        with _Workers(n, [H], parallelism) as workers:
            return enumerate_box(n, H, parallelism, budget, checkpoint, workers)
    if not 2 <= n <= 7 or H < 0:
        raise UsageError("need 2 <= n <= 7 and H >= 0")
    if parallelism < 1:
        raise UsageError(f"need parallelism >= 1, got {parallelism}")
    check_budget(n, H, budget)
    if _int64_bound(n, H) >= 2**62:
        raise BudgetExceeded(f"H = {H} is past the int64 range the degree-{n} counter is proven exact in")
    a1s = range(-H, H + 1)
    results = {}
    if checkpoint:
        os.makedirs(checkpoint, exist_ok=True)
        for a1 in a1s:
            led = _load_slice(checkpoint, n, H, a1)
            if led is not None:
                results[a1] = led
    todo = [a1 for a1 in a1s if a1 not in results]
    missing = set(todo)
    units = [sorted({-r, r} & missing) for r in sorted({abs(a1) for a1 in todo})]
    jobs = [(n, H, sum(run, []), checkpoint) for run in _runs(n, H, units)]
    for pairs in workers.map(_slice_worker, jobs):
        results.update(pairs)
    merged = CountLedger(n=n, H=H)
    for a1 in a1s:  # fixed order; checksum is order-free anyway
        merged = merged.merge(results[a1])
    return merged, len(todo)


# ---------------------------------------------------------------------------
# Headline counts


def compute_ladder(
    n: int,
    Hs: list[int],
    parallelism: int = 1,
    budget: int = DEFAULT_BUDGET,
    checkpoint: str | None = None,
):
    """Yield the `compute_E` result of each box (n, H) of `Hs`, in order.

    The boxes are checked and counted one after another, each after the
    one before has stored its slices, so an error in one leaves the later
    ones uncounted; they share one `_Workers` Pool, which ends with the
    ladder, also when it raises or is closed early.
    """
    Hs = list(Hs)
    with _Workers(n, Hs, parallelism) as workers:
        for H in Hs:
            yield compute_E(n, H, parallelism, budget, checkpoint, workers)


def compute_E(
    n: int,
    H: int,
    parallelism: int = 1,
    budget: int = DEFAULT_BUDGET,
    checkpoint: str | None = None,
    workers: _Workers | None = None,
) -> dict:
    """E_n(H): polynomials in the box whose group is not S_n.  Without
    `workers` the box is the ladder [H] of `compute_ladder`, which passes
    its shared Pool as `workers`.

    Exact for n <= 5; a certified interval [lower, upper] for n in {6, 7}.
    "slicesComputed" counts the slices not taken from `checkpoint`; a slice
    that copies the ledger of its twin -a1 counts as computed.
    """
    if n >= 1:
        check_budget(n, H, budget)
    if not 2 <= n <= 7:
        raise DegreeOutOfRange("compute_E implemented for 2 <= n <= 7")
    led, computed = enumerate_box(n, H, parallelism, budget, checkpoint, workers)
    mode, value = ledger_E(led)
    return {"mode": mode, "value": value, "ledger": led, "slicesComputed": computed}


def ledger_E(led: CountLedger) -> tuple[str, int | list[int]]:
    """("exact", E) for n <= 5, ("interval", [lower, upper]) for n >= 6."""
    upper = led.total - led.per_group.get(SN_NAME[led.n], 0)
    if led.n <= 5:
        return "exact", upper
    return "interval", [led.reducible + led.disc_zero + led.square_disc, upper]


# ---------------------------------------------------------------------------
# Sieve-case partition


@dataclass(frozen=True)
class SieveParams:
    n: int
    delta: Fraction | None = None

    def resolved_delta(self) -> Fraction:
        d = self.delta if self.delta is not None else Fraction(1, 2 * self.n)
        if not 0 < d < Fraction(1, 2 * self.n - 1):
            raise UsageError("need 0 < delta < 1/(2n-1)")
        return d


_PRIMITIVE_NON_SN = {3: ("C3",), 4: ("A4",), 5: ("C5", "D5", "F20", "A5")}


def case_partition(n: int, H: int, params: SieveParams | None = None) -> dict:
    """Sieve cases for irreducible f with primitive non-S_n group.

    The slices are screened by `_unmasked`, which leaves exactly the
    irreducible f, and `galois.irreducible_groups` names them in batches.

    C = product of primes with certified positive field-disc valuation,
    D = product p^{v_p} over those primes.  Case I: C <= H^{1+d} < ... and
    D > H^{2+2d}; Case II: C <= H^{1+d} and D <= H^{2+2d}; Case III:
    C > H^{1+d}.  A prime with p^2 | disc and no Dedekind certificate sends
    the polynomial to unknownC.  Threshold comparisons are exact: C <= H^t
    for rational t = u/v is decided as C^v <= H^u in integers.
    """
    if n not in _PRIMITIVE_NON_SN:
        raise DegreeOutOfRange("case partition for 3 <= n <= 5")
    params = params or SieveParams(n)
    delta = params.resolved_delta()
    num, den = delta.numerator, delta.denominator
    targets = set(_PRIMITIVE_NON_SN[n])
    hist = {"I": 0, "II": 0, "III": 0, "unknownC": 0}
    scratch = CountLedger(n=n, H=H, total=0)  # takes the discZero and reducible counts
    tagged = ((a1, f, d) for a1 in range(-H, H + 1) for f, d in _unmasked(scratch, H, a1))
    for _, f, delta_f, name in _decided(tagged, galois.irreducible_groups):
        if name not in targets:
            continue
        C = 1
        D = 1
        unknown = False
        for p, e in factor_int(delta_f).items():
            if e == 1:
                D *= p  # p-maximality is automatic when p exactly divides disc
                C *= p
                continue
            v = field_disc_valuation(f, p)
            if v is None:
                unknown = True
                break
            if v > 0:
                C *= p
                D *= p**v
        if unknown:
            hist["unknownC"] += 1
            continue
        # C <= H^(1+delta)  <=>  C^den <= H^(den+num)
        c_small = C**den <= H ** (den + num)
        d_small = D**den <= H ** (2 * den + 2 * num)
        if not c_small:
            hist["III"] += 1
        elif d_small:
            hist["II"] += 1
        else:
            hist["I"] += 1
    return hist


# ---------------------------------------------------------------------------
# Exponent bound calculator


@dataclass(frozen=True)
class BoundInputs:
    n: int
    ind: int  # k = ind(G)
    a: Fraction
    u: Fraction

    def __post_init__(self):
        if self.n < 2:
            raise UsageError("need n >= 2")
        if not 1 <= self.ind <= self.n - 1:
            raise UsageError("need 1 <= ind <= n-1")
        if self.a <= 0:
            raise UsageError("need a > 0")
        if self.u not in (Fraction(0), Fraction(1, self.n * (self.n - 1))):
            raise UsageError("u must be 0 or 1/(n(n-1))")


def bound_calculator(inp: BoundInputs) -> dict:
    """Exponent bound for N_n(G,H): all terms exact Fractions.

    term1 = n+1-k, term2 = n - (n-1)(1-1/k)/(a+1-1/k-u),
    term3 = (2n-2)(a-u)+1, chosen = min(max(term1, term2), term3);
    Ystar is the balancing exponent (n-1)/(a+1-1/k-u).
    """
    n, k, a, u = inp.n, inp.ind, inp.a, inp.u
    denom = a + 1 - Fraction(1, k) - u
    if denom == 0:
        raise DivisionByZero("a + 1 - 1/k - u = 0")
    term1 = Fraction(n + 1 - k)
    term2 = n - (n - 1) * (1 - Fraction(1, k)) / denom
    term3 = (2 * n - 2) * (a - u) + 1
    chosen = min(max(term1, term2), term3)
    ystar = Fraction(n - 1) / denom
    return {
        "term1Exp": term1,
        "term2Exp": term2,
        "term3Exp": term3,
        "chosenExp": chosen,
        "Ystar": ystar,
    }


# ---------------------------------------------------------------------------
# Height multiplicativity table


def intransitive_height_report(n1: int, n2: int, H: int, budget: int = 10**6) -> dict:
    """Joint height distribution over factorizations f = f1 f2 in the box.

    Enumerates every monic f of degree n1+n2 with H(f) <= H, splits its
    integer factorization into degree-(n1, n2) products, and brackets the
    ratio H(f1)H(f2)/H(f) against [C(n, floor(n/2))^-1, sqrt(n+1)].
    """
    n = n1 + n2
    if n1 < 1 or n2 < 1 or n > 8 or H > 30 or H < 0:
        raise UsageError("need n1, n2 >= 1, n1+n2 <= 8, 0 <= H <= 30")
    check_budget(n, H, budget)
    lo_const = Fraction(1, math.comb(n, n // 2))
    hi_const = math.sqrt(n + 1)
    rows = []
    ratios = []
    for tup in itertools.product(range(-H, H + 1), repeat=n):
        f = MonicIntPoly(tup)
        fac = []
        for g, e in galois.factor_over_Z(f):
            fac.extend([g] * e)
        seen = set()
        idx = range(len(fac))
        for r in range(len(fac) + 1):
            for combo in itertools.combinations(idx, r):
                if sum(fac[i].degree for i in combo) != n1:
                    continue
                f1 = _product([fac[i] for i in combo])
                if f1 in seen:
                    continue
                seen.add(f1)
                rest = [fac[i] for i in idx if i not in combo]
                f2 = _product(rest)
                h1 = max(1, f1.height())
                h2 = max(1, f2.height())
                hf = max(1, f.height())
                ratio = h1 * h2 / hf
                ratios.append(ratio)
                rows.append({"f1": f1.to_json(), "f2": f2.to_json(), "H1": h1, "H2": h2, "Hf": hf, "ratio": ratio})
    in_bracket = all(float(lo_const) <= r <= hi_const for r in ratios)
    return {
        "rows": rows,
        "products": len(rows),
        "minRatio": min(ratios) if ratios else None,
        "maxRatio": max(ratios) if ratios else None,
        "bracket": [float(lo_const), hi_const],
        "withinBracket": in_bracket,
    }


def _product(factors) -> MonicIntPoly:
    out = [1]
    for g in factors:
        out = pmul(out, g.full())
    return MonicIntPoly.from_full(out)


# ---------------------------------------------------------------------------
# Exponent fit


def exponent_fit(counts) -> dict:
    """Least-squares slope of log(count) against log(H), from at least 3
    distinct H (fewer leave the slope undetermined)."""
    counts = list(counts)
    if len({h for h, _ in counts}) < 3:
        raise InsufficientData("need at least 3 distinct H")
    for h, c in counts:
        if c <= 0:
            raise ZeroCount(f"count {c} at H={h}")
        if h <= 0:
            raise UsageError("need H > 0 for a log-log fit")
    x = np.log([float(h) for h, _ in counts])
    y = np.log([float(c) for _, c in counts])
    A = np.vstack([x, np.ones_like(x)]).T
    sol, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    residual = float(res[0]) if len(res) else float(np.sum((A @ sol - y) ** 2))
    return {"slope": float(sol[0]), "intercept": float(sol[1]), "residual": residual}
