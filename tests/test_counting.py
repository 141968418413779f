"""Exact box enumeration ledgers, E_n and per-group counts, sieve cases, bound calculator."""

import functools
import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from galcount import cli
from galcount import counting as ct
from galcount import galois as ga
from galcount import polyarith as pa
from galcount.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    DivisionByZero,
    InsufficientData,
    InternalError,
    UsageError,
    ZeroCount,
)
from galcount.polyarith import MonicIntPoly, disc, frobenius_cycle_types

x = sympy.Symbol("x")


def naive_ledger(n, H):
    """Slow reference ledger built straight from the classifier, no slicing."""
    total = disc_zero = reducible = 0
    per_group = {}
    square_disc = 0
    for tup in itertools.product(range(-H, H + 1), repeat=n):
        total += 1
        f = MonicIntPoly(tup)
        d = disc(f)
        if d == 0:
            disc_zero += 1
            continue
        name = ga.classify(f).group
        if name is None:
            reducible += 1
        else:
            per_group[name] = per_group.get(name, 0) + 1
            # squareDisc tracks irreducibles inside the alternating group
            if d > 0 and math.isqrt(d) ** 2 == d:
                square_disc += 1
    return total, disc_zero, reducible, per_group, square_disc


# ---------------------------------------------------------------------------
# ledger structure


def test_ledger_counts_match_naive_small_boxes():
    for n, H in [(2, 5), (3, 3), (4, 2), (4, 3)]:
        led = ct.enumerate_box(n, H)[0]
        total, dz, red, per_group, sq = naive_ledger(n, H)
        assert led.total == total == (2 * H + 1) ** n
        assert led.disc_zero == dz
        assert led.reducible == red
        assert led.per_group == per_group
        assert led.square_disc == sq
        assert led.unresolved == 0


# the golden ledgers of the ROADMAP table, regression anchors
GOLDEN = {
    (3, 80): {
        "n": 3, "H": 80, "total": 4173281, "discZero": 493, "reducible": 93334,
        "perGroup": {"C3": 3474, "S3": 4075980}, "squareDisc": 3474, "unresolved": 0,
        "caseHistogram": {}, "checksum": 2387957788,
    },
    (4, 16): {
        "n": 4, "H": 16, "total": 1185921, "discZero": 1989, "reducible": 97385,
        "perGroup": {"A4": 596, "C4": 272, "D4": 17752, "S4": 1067326, "V4": 601},
        "squareDisc": 1197, "unresolved": 0, "caseHistogram": {}, "checksum": 1552539815,
    },
    (5, 3): {
        "n": 5, "H": 3, "total": 16807, "discZero": 487, "reducible": 4872,
        "perGroup": {"A5": 32, "D5": 78, "F20": 14, "S5": 11324}, "squareDisc": 110,
        "unresolved": 0, "caseHistogram": {}, "checksum": 3521256537,
    },
    (6, 1): {  # E in [457, 493]
        "n": 6, "H": 1, "total": 729, "discZero": 97, "reducible": 340,
        "perGroup": {"S6": 236}, "squareDisc": 20, "unresolved": 56,
        "caseHistogram": {}, "checksum": 141975921,
    },
    (7, 1): {  # E in [1271, 1283]
        "n": 7, "H": 1, "total": 2187, "discZero": 279, "reducible": 992,
        "perGroup": {"S7": 904}, "squareDisc": 0, "unresolved": 12,
        "caseHistogram": {}, "checksum": 672081037,
    },
    # slice 0 and the mirrored slices of these two carry many non-S_n verdicts
    (5, 4): {  # E = 15585
        "n": 5, "H": 4, "total": 59049, "discZero": 1079, "reducible": 14286,
        "perGroup": {"A5": 56, "C5": 4, "D5": 116, "F20": 44, "S5": 43464}, "squareDisc": 176,
        "unresolved": 0, "caseHistogram": {}, "checksum": 1276696869,
    },
    (6, 2): {  # E in [6425, 7043]
        "n": 6, "H": 2, "total": 15625, "discZero": 805, "reducible": 5556,
        "perGroup": {"S6": 8582}, "squareDisc": 64, "unresolved": 682,
        "caseHistogram": {}, "checksum": 3209762289,
    },
}


@pytest.mark.parametrize("box", sorted(GOLDEN), ids=lambda b: f"n{b[0]}_H{b[1]}")
def test_golden_ledgers_pinned(box):
    assert ct.enumerate_box(*box)[0].to_json() == GOLDEN[box]


def test_golden_ledgers_do_not_depend_on_the_chunk_size(monkeypatch):
    """With DECIDE_CHUNK = 3 the runs, the walk chunks and the root-count
    blocks are all cut differently, and the root-count bound DECIDE_CHUNK
    n^2 is 75 for n = 5, so the quintic walks at larger primes count their
    roots by gcd(f, x^p - x); the ledgers stay the golden ones."""
    monkeypatch.setattr(pa, "DECIDE_CHUNK", 3)
    monkeypatch.setattr(ct, "DECIDE_CHUNK", 3)
    gcds = []
    pgcd = pa.pgcd
    monkeypatch.setattr(pa, "pgcd", lambda *args: gcds.append(args[2]) or pgcd(*args))
    for box in [(5, 3), (6, 1), (7, 1)]:
        assert ct.compute_E(*box)["ledger"].to_json() == GOLDEN[box]
    assert gcds and min(gcds) > 75


def _each_slice(n, H):
    """Every slice ledger of the box, each slice counted by itself: a run
    holding both twins would copy slice -a1 from slice a1."""
    return [ct.slice_ledger(n, H, [a1])[0].canonical() for a1 in range(-H, H + 1)]


def test_quartic_int64_bounds_hold_at_the_largest_int64_H():
    """`enumerate_box` takes quartic boxes up to H = 403, far beyond the
    default budget, and refuses H = 404 by `_int64_bound` (checked with the
    other degrees in `test_factor_mask_int64_bounds_hold_at_the_largest_int64_H`).
    At H = 403, in Python ints at the corners of the box, the 16
    discriminant terms sum to at most 1069 H^6 in size, and the resolvent
    values N(y, b, c) and d D(y, b) at y = +-Y stay within the bound, below
    2^62; the int64 discriminants equal the Python ones there."""
    H = _largest_int64_H(4)
    assert H == 403 and (2 * H + 1) ** 4 > ct.DEFAULT_BUDGET
    bound = ct._int64_bound(4, H)
    assert 1069 * H**6 <= bound < 2**62
    Y = 2 * ct._resolvent_root_bound(H, H)
    syms = sympy.symbols("a b c d")
    quartic = x**4 + sum(s * x ** (3 - k) for k, s in enumerate(syms))
    terms = sympy.Poly(sympy.discriminant(quartic, x), *syms).terms()
    assert len(terms) == 16
    corners = list(itertools.product((-H, H), repeat=4))
    for a, b, c, d in corners:
        values = [int(k) * a**i * b**j * c**l * d**m for (i, j, l, m), k in terms]
        assert sum(map(abs, values)) <= 1069 * H**6
        assert ga.quartic_disc(a, b, c, d) == sum(values)
        for y in (-Y, Y):
            assert abs(y**3 - b * y * y + a * c * y - c * c) <= bound
            assert abs(d * (4 * y + a * a - 4 * b)) <= bound
    cols = np.array(corners, dtype=np.int64)
    assert ga.quartic_disc(*cols.T).tolist() == [ga.quartic_disc(*row) for row in corners]


def test_resolvent_roots_lie_within_the_fujiwara_bound():
    """Every integer root of the resolvent cubic of every quartic of height
    h <= 6 lies within the bound of the slice a of the box h; the roots come
    from the Cauchy-bracketed `galois._integer_cubic_roots`."""
    for a, b, c, d in itertools.product(range(-6, 7), repeat=4):
        Y = 2 * ct._resolvent_root_bound(max(abs(a), abs(b), abs(c), abs(d)), a)
        roots = ga._integer_cubic_roots(-b, a * c - 4 * d, 4 * b * d - a * a * d - c * c)
        assert all(abs(y) <= Y for y in roots), (a, b, c, d, roots)


def test_resolvent_root_bound_is_the_least_t():
    def holds(t, H, a):
        return t >= H and t * t >= (abs(a) + 4) * H and 2 * t**3 >= (a * a + 4 * H) * H + H * H

    for H in range(101):
        for a in range(-H, H + 1):
            t = ct._resolvent_root_bound(H, a)
            assert holds(t, H, a) and not holds(t - 1, H, a), (H, a, t)


@pytest.mark.parametrize("H, a1", [(13, 12), (13, -12), (14, 14), (14, -14), (16, 16), (16, -16)])
def test_quartic_slice_matches_per_polynomial_count(H, a1):
    """Slices where y0 = b - a^2/4, the root of D = 0, lies within the root
    bound for some b rows and beyond it for others (H = 13) or for all of
    them (H = 14, 16), against one classification per polynomial.  At
    H = 16, reading N at y0 without the bound check would wrap to another
    candidate y that is a root of N."""
    Y = 2 * ct._resolvent_root_bound(H, a1)
    inside = sum(abs(b - a1 * a1 // 4) <= Y for b in range(-H, H + 1))
    assert inside < 2 * H + 1 and (inside > 0) == (H == 13)
    want = ct.CountLedger(n=4, H=H, total=(2 * H + 1) ** 3)
    mask = ct._factor_mask(4, H, a1).ravel().tolist()
    for (b, c, d), masked in zip(itertools.product(range(-H, H + 1), repeat=3), mask):
        if ga.quartic_disc(a1, b, c, d) == 0:
            want.disc_zero += 1
        elif masked:
            want.reducible += 1
        else:
            name = ga.quartic_group_irreducible(a1, b, c, d)
            want.per_group[name] = want.per_group.get(name, 0) + 1
            want.square_disc += name in ("A4", "V4")
    want.per_group = dict(sorted(want.per_group.items()))
    (got,) = ct.slice_ledger(4, H, [a1])
    got.checksum = 0
    assert got.to_json() == want.to_json()


def test_quartic_blocks_stay_within_the_entry_bound():
    """Up to the largest quartic box the default budget admits, a block's
    (rows, 2Y + 1, S) and (rows, S, S) temporaries hold at most
    max(S^3, 2^16) entries, or one b row where that alone is more; up to
    H = 14 every slice is one block."""
    Hmax = max(H for H in range(200) if (2 * H + 1) ** 4 <= ct.DEFAULT_BUDGET)
    assert Hmax == 88 and ct.BLOCK_ENTRIES == 2**16
    for H in range(Hmax + 1):
        S = 2 * H + 1
        for a1 in range(-H, H + 1):
            Y = 2 * ct._resolvent_root_bound(H, a1)
            rows = ct._quartic_block_rows(H, Y)
            assert 1 <= rows <= S
            assert rows * (2 * Y + 1) * S <= max(S**3, 2**16, (2 * Y + 1) * S)
            assert rows * S * S <= S**3
            assert rows == S or H > 14


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("H", [6, 13])
def test_quartic_block_size_does_not_change_the_count(monkeypatch, H, dtype):
    """One b row per block gives every slice ledger that the default blocks
    (one per slice at these H) give, so the block edges, and the D = 0 rows
    at y0 = b - a^2/4 among them, lose and double-count nothing; with the
    Kappe-Warren test on int64 and on dtype=object entries."""
    monkeypatch.setattr(ct, "_kappe_warren_dtype", lambda H: dtype)
    want = _each_slice(4, H)
    monkeypatch.setattr(ct, "_quartic_block_rows", lambda H, Y: 1)
    assert _each_slice(4, H) == want


def test_kappe_warren_dtype_turns_to_object_where_its_bound_reaches_2_62():
    """int64 exactly while (max |q|) * (max |delta|) < 2^62; that ends at
    H = 76, inside the default budget (H <= 88), long before `enumerate_box`
    refuses a quartic box (H = 404)."""
    for H in range(200):
        Y = 2 * ct._resolvent_root_bound(H, H)
        bound = max(Y * Y + 4 * H, H * H + 4 * H + 4 * Y) * 1069 * H**6
        assert (ct._kappe_warren_dtype(H) is np.int64) == (bound < 2**62), H
    assert ct._kappe_warren_dtype(75) is np.int64 and ct._kappe_warren_dtype(76) is object


def test_degree_2_to_4_counters_run_no_scalar_classifier(monkeypatch):
    """The degree 2-4 slice counters decide every polynomial with arrays:
    with the scalar quartic classifier and square test made to raise, the
    boxes count to the same ledgers."""
    boxes = [(2, 20), (3, 10), (4, 6)]
    want = [ct.compute_E(n, H)["ledger"].canonical() for n, H in boxes]

    def scalar(*args):
        raise AssertionError(f"a slice counter decided {args} by itself")

    monkeypatch.setattr(ga, "quartic_group_irreducible", scalar)
    monkeypatch.setattr(ga, "_is_square", scalar)
    assert [ct.compute_E(n, H)["ledger"].canonical() for n, H in boxes] == want


def test_factor_mask_matches_factor_over_Z():
    """The mask is "f is not irreducible" (factor_over_Z gives more than one
    factor, or a repeated one) on every polynomial of every slice, a_n = 0
    included, and on the slice a1 = 0 of (6, 2)."""
    boxes = [(3, 3), (4, 3), (5, 2), (6, 1), (7, 1)]
    for n, H, a1 in [(n, H, a1) for n, H in boxes for a1 in range(-H, H + 1)] + [(6, 2, 0)]:
        rows = itertools.product(range(-H, H + 1), repeat=n - 1)
        factors = (ga.factor_over_Z(MonicIntPoly((a1, *r))) for r in rows)
        want = [len(fac) > 1 or fac[0][1] > 1 for fac in factors]
        assert ct._factor_mask(n, H, a1).ravel().tolist() == want, (n, H, a1)


def _largest_int64_H(n):
    """The largest H whose box `enumerate_box` does not refuse by `_int64_bound`."""
    lo, hi = 0, 2**32  # accepted at lo, refused at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ct._int64_bound(n, mid) < 2**62 else (lo, mid)
    return lo


@pytest.mark.parametrize("n", range(3, 8))
def test_factor_mask_int64_bounds_hold_at_the_largest_int64_H(n, tmp_path):
    """At the largest H that `enumerate_box` accepts, `_factor_tail` on
    int64 arrays equals the Python-int evaluation at every corner of the box
    and of the factor ranges |q_j| <= C(m, j) R^j, |q_m| <= H of every
    m <= n/2.  At H + 1 the box is refused, even within its budget, before
    the checkpoint directory is made."""
    H = _largest_int64_H(n)
    R = H + 1
    for m in range(1, n // 2 + 1):
        sides = [(-math.comb(m, j) * R**j, math.comb(m, j) * R**j) for j in range(1, m)] + [(-H, H)]
        corners = [(*a, *q) for a in itertools.product((-H, H), repeat=n - m) for q in itertools.product(*sides)]
        cols = np.array(corners, dtype=np.int64).T
        got = ct._factor_tail(cols[0], list(cols[1 : n - m]), list(cols[n - m :]))
        want = [ct._factor_tail(c[0], c[1 : n - m], c[n - m :]) for c in corners]
        assert [t.tolist() for t in got] == [list(w) for w in zip(*want)]
    ckpt = tmp_path / "ckpt"
    with pytest.raises(BudgetExceeded):
        ct.enumerate_box(n, H + 1, budget=(2 * H + 3) ** n, checkpoint=str(ckpt))
    assert not ckpt.exists()


@pytest.mark.parametrize("n, refused", [(2, 2**31 - 1), (3, 30989)])
def test_discriminant_counters_are_refused_where_the_square_test_ends(n, refused):
    """The n = 2, 3 counters test int64 discriminants with
    `galois._square_mask`, exact below 2^62, and |d| <= H^2 + 4H and
    5H^4 + 22H^3 + 27H^2 reach 2^62 first at H = `refused`.  The bound
    holds at the corners of the last accepted box, and the square test
    still separates k^2 from its neighbours at its top."""
    H = _largest_int64_H(n)
    assert H + 1 == refused
    bound = ct._int64_bound(n, H)
    assert bound < 2**62 <= ct._int64_bound(n, H + 1)
    assert all(abs(disc(MonicIntPoly(c))) <= bound for c in itertools.product((-H, H), repeat=n))
    k = math.isqrt(bound)
    near = np.array([k * k - 1, k * k, k * k + 1, bound], dtype=np.int64)
    assert ga._square_mask(near).tolist() == [math.isqrt(v) ** 2 == v for v in near.tolist()]


def test_counting_never_factors_over_Z(monkeypatch):
    """The mask decides reducibility at every degree, so compute_E makes no
    Zassenhaus call."""
    calls = {"is_irreducible": 0, "factor_over_Z": 0}
    for name in calls:
        def counted(f, _name=name, _fn=getattr(ga, name)):
            calls[_name] += 1
            return _fn(f)
        monkeypatch.setattr(ga, name, counted)
    for n, H in [(5, 2), (6, 1), (7, 1)]:
        ct.compute_E(n, H)
        assert calls == {"is_irreducible": 0, "factor_over_Z": 0}, (n, H)


def test_ledger_invariant_holds():
    for n, H in [(2, 6), (3, 4), (5, 1)]:
        led = ct.enumerate_box(n, H)[0]
        classified = led.reducible + sum(led.per_group.values()) + led.unresolved
        assert classified == led.total - led.disc_zero


def test_merge_equals_single_pass():
    for n, H in [(3, 4), (5, 1)]:
        whole = ct.enumerate_box(n, H)[0]
        merged = ct.CountLedger(n=n, H=H)
        for a1 in range(-H, H + 1):
            (led,) = ct.slice_ledger(n, H, [a1])
            merged = merged.merge(led)
        assert merged.canonical() == whole.canonical()
        # merging is order-insensitive, and one list of every slice in
        # reverse gives the ledgers that one slice per call gives
        rev = ct.CountLedger(n=n, H=H)
        for led in ct.slice_ledger(n, H, list(range(H, -H - 1, -1))):
            rev = rev.merge(led)
        assert rev.canonical() == whole.canonical()


def test_ledger_json_roundtrip():
    led = ct.enumerate_box(3, 2)[0]
    again = ct.CountLedger.from_json(led.to_json())
    assert again.canonical() == led.canonical()


def test_parallel_ledgers_identical():
    base = ct.enumerate_box(3, 6, parallelism=1)[0].canonical()
    for workers in (2, 4):
        assert ct.enumerate_box(3, 6, parallelism=workers)[0].canonical() == base


# ---------------------------------------------------------------------------
# checkpointed slices


def _slice_file(ck, n, H, a1):
    return ck / f"count_n{n}_H{H}_a1{a1:+d}.json"


def test_checkpoint_slice_file_bytes_pinned(tmp_path):
    # a directory written by an earlier build resumes without recomputation
    led, computed = ct.enumerate_box(2, 5, checkpoint=str(tmp_path))
    assert computed == 11 and len(list(tmp_path.iterdir())) == 11
    assert _slice_file(tmp_path, 2, 5, 0).read_text() == (
        '{"H": 5, "a1": 0, "formatVersion": 1, "ledger": {"H": 5, "caseHistogram": {}, '
        '"checksum": 3295712191, "discZero": 1, "n": 2, "perGroup": {"C2": 8}, "reducible": 2, '
        '"squareDisc": 0, "total": 11, "unresolved": 0}, "n": 2}'
    )
    again, computed = ct.enumerate_box(2, 5, checkpoint=str(tmp_path))
    assert computed == 0 and again.canonical() == led.canonical()


def test_stored_slice_is_the_sorted_json_record(tmp_path):
    (led,) = ct.slice_ledger(4, 3, [-2])
    ct._store_slice(str(tmp_path), 4, 3, -2, led)
    record = {"formatVersion": ct.FORMAT_VERSION, "n": 4, "H": 3, "a1": -2, "ledger": led.to_json()}
    assert _slice_file(tmp_path, 4, 3, -2).read_bytes() == json.dumps(record, sort_keys=True).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["count_n4_H3_a1-2.json"]


def _edit_record(change):
    def damage(path):
        rec = json.loads(path.read_text())
        change(rec)
        path.write_text(json.dumps(rec, sort_keys=True))

    return damage


def _raise_s3(rec):
    rec["ledger"]["total"] += 1000
    rec["ledger"]["perGroup"]["S3"] += 1000


def _move_one_to_c3(rec):  # the invariant still holds; only the checksum catches it
    rec["ledger"]["perGroup"]["S3"] -= 1
    rec["ledger"]["perGroup"]["C3"] = rec["ledger"]["perGroup"].get("C3", 0) + 1


@pytest.mark.parametrize(
    "damage",
    [
        _edit_record(_raise_s3),
        _edit_record(_move_one_to_c3),
        _edit_record(lambda rec: rec.update(a1=0)),
        _edit_record(lambda rec: rec.update(formatVersion=2)),
        _edit_record(lambda rec: rec["ledger"].update(caseHistogram={"I": 5})),
        lambda path: path.write_text(path.read_text()[:40]),
        lambda path: path.write_text("[]"),
        lambda path: path.write_text('{"ledger": {"n": 3}}'),
    ],
    ids=["raised", "moved", "a1", "version", "histogram", "truncated", "list", "partial"],
)
def test_checkpoint_damaged_slice_recomputed(tmp_path, damage):
    direct = ct.enumerate_box(3, 4)[0]
    ct.enumerate_box(3, 4, checkpoint=str(tmp_path))
    path = _slice_file(tmp_path, 3, 4, 1)
    good = path.read_bytes()
    damage(path)
    led, computed = ct.enumerate_box(3, 4, checkpoint=str(tmp_path))
    assert computed == 1
    assert led.canonical() == direct.canonical()
    assert path.read_bytes() == good


def test_checkpoint_not_created_for_a_refused_box(tmp_path):
    ck = str(tmp_path / "ck")
    for n, H in ((8, 0), (0, 1), (1, 1), (3, -1)):
        with pytest.raises(UsageError):
            ct.enumerate_box(n, H, checkpoint=ck)
    with pytest.raises(BudgetExceeded):
        ct.enumerate_box(3, 10, budget=100, checkpoint=ck)
    assert not os.path.exists(ck)


def test_pool_capped_at_runs_to_compute(tmp_path, monkeypatch):
    """The Pool has min(parallelism, runs, CPUs) workers; a cubic run holds
    slices, never splits a twin pair a1, -a1, and closes once it counts
    DECIDE_CHUNK polynomials, here 2 units (a slice or twin pair) of 81,
    except that a shorter last run joins the run before it."""
    sizes, runs = [], []
    worker = ct._slice_worker

    def recorded(job):
        runs.append(job[2])
        return worker(job)

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(ct, "Pool", SerialPool)
    monkeypatch.setattr(ct, "DECIDE_CHUNK", 150)
    monkeypatch.setattr(ct, "_slice_worker", recorded)
    direct = ct.enumerate_box(3, 4)[0]
    runs.clear()
    led, computed = ct.enumerate_box(3, 4, parallelism=10**6, checkpoint=str(tmp_path))
    assert computed == 9 and led.canonical() == direct.canonical()
    workers = min(2, os.cpu_count() or 1)
    assert sizes == ([workers] if workers > 1 else [])
    assert runs == [[0, -1, 1], [-2, 2, -3, 3, -4, 4]]  # the last run, [-4, 4], joined the one before
    # the missing slices -2 and 2 are one twin pair, and one run starts no Pool
    for a1 in (-2, 2):
        _slice_file(tmp_path, 3, 4, a1).unlink()
    runs.clear()
    assert ct.enumerate_box(3, 4, parallelism=10**6, checkpoint=str(tmp_path))[1] == 2
    assert runs == [[-2, 2]]
    assert ct.enumerate_box(3, 4, parallelism=10**6, checkpoint=str(tmp_path))[1] == 0
    assert sizes == ([workers] if workers > 1 else [])
    assert ct._runs(3, 4, [[0], [-2, 2]]) == [[[0], [-2, 2]]]
    assert ct._runs(3, 4, list(range(4))) == [[0, 1], [2, 3]]
    assert ct._runs(3, 4, list(range(5))) == [[0, 1], [2, 3, 4]]


@pytest.mark.parametrize("n, H", [(2, 5), (3, 6), (4, 3), (5, 2), (6, 1), (7, 1)])
def test_mirrored_slices_equal_the_direct_count(tmp_path, monkeypatch, n, H):
    """One slice of each twin pair a1, -a1 is counted (degrees 2-4) or
    walked (degrees 5-7, which call `disc` once per polynomial of every
    missing slice), a lone missing slice is counted itself and no stored
    slice is counted, yet every slice file is the stored direct
    `slice_ledger` of its own a1, and checkpoints holding only a1 < 0,
    only a1 > 0 or every other slice resume to the same directory and
    ledger at parallelism 1 and 2."""
    a1s = range(-H, H + 1)
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    for a1 in a1s:
        ct._store_slice(str(oracle), n, H, a1, ct.slice_ledger(n, H, [a1])[0])
    want = {p.name: p.read_bytes() for p in oracle.iterdir()}

    counted, discs = [], []
    if n in ct._ARRAY_COUNTERS:
        counter = ct._ARRAY_COUNTERS[n]

        def recorded(H, a1):
            counted.append(a1)
            return counter(H, a1)

        monkeypatch.setitem(ct._ARRAY_COUNTERS, n, recorded)
    else:
        walked = ct._walked

        def recorded(leds, H, a1s):
            for slices, f, delta in walked(leds, H, a1s):
                if slices[0] not in counted:
                    counted.append(slices[0])
                yield slices, f, delta

        monkeypatch.setattr(ct, "_walked", recorded)
        monkeypatch.setattr(ct, "disc", lambda f: discs.append(f) or disc(f))

    def one_per_pair(stored):
        missing = [a1 for a1 in a1s if a1 not in stored]
        assert set(counted) <= set(missing)  # no stored slice is counted
        # each twin pair once, a lone missing slice included
        assert sorted(abs(a1) for a1 in counted) == sorted({abs(a1) for a1 in missing})
        assert len(discs) == (n not in ct._ARRAY_COUNTERS) * len(missing) * (2 * H + 1) ** (n - 1)

    full, computed = ct.enumerate_box(n, H, checkpoint=str(tmp_path / "full"))
    assert computed == 2 * H + 1
    one_per_pair([])
    assert {p.name: p.read_bytes() for p in (tmp_path / "full").iterdir()} == want
    for name, stored in [("neg", range(-H, 0)), ("pos", range(1, H + 1)), ("odd", a1s[::2])]:
        for workers in (1, 2):
            ck = tmp_path / f"{name}{workers}"
            ck.mkdir()
            for a1 in stored:
                _slice_file(ck, n, H, a1).write_bytes(_slice_file(oracle, n, H, a1).read_bytes())
            counted.clear()
            discs.clear()
            led, computed = ct.enumerate_box(n, H, parallelism=workers, checkpoint=str(ck))
            assert computed == 2 * H + 1 - len(stored), ck.name
            if workers == 1:  # a Pool worker's calls are not recorded here
                one_per_pair(stored)
            assert led.canonical() == full.canonical(), ck.name
            assert {p.name: p.read_bytes() for p in ck.iterdir()} == want, ck.name


@pytest.mark.parametrize("n, H", [(5, 2), (6, 1), (7, 1)])
def test_the_walk_takes_one_of_each_mirrored_pair(monkeypatch, n, H):
    """Brute force over the box, with irreducibility from `factor_over_Z`:
    the rows passed to `frobenius_cycle_types` by `enumerate_box` are those
    of walking the irreducible f with a1 > 0, and in slice 0 the lesser of
    f and its mirror, which is half the box's walk but for the slice-0
    polynomials that are their own mirror.  Every slice ledger, slice 0
    included, is the one that walking each of its polynomials gives."""
    rows = []
    cycle_types = ga.frobenius_cycle_types

    def counted(r, deltas, p):
        rows.append(len(r))
        return cycle_types(r, deltas, p)

    def rows_walked(polys):
        rows.clear()
        verdicts = ct._verdicts(n, polys, [disc(f) for f in polys]) if polys else []
        return sum(rows), verdicts

    monkeypatch.setattr(ga, "frobenius_cycle_types", counted)
    S = 2 * H + 1
    leds = {a1: ct.CountLedger(n=n, H=H, total=S ** (n - 1)) for a1 in range(-H, H + 1)}
    irreducible = []
    for c in itertools.product(range(-H, H + 1), repeat=n):
        f = MonicIntPoly(c)
        if disc(f) == 0:
            leds[c[0]].disc_zero += 1
        elif len(ga.factor_over_Z(f)) > 1:
            leds[c[0]].reducible += 1
        else:
            irreducible.append(f)
    every, verdicts = rows_walked(irreducible)
    for f, (name, square) in zip(irreducible, verdicts):
        led = leds[f.coeffs[0]]
        led.square_disc += square
        if name is None:
            led.unresolved += 1
        else:
            led.per_group[name] = led.per_group.get(name, 0) + 1
    for a1, led in leds.items():
        led.checksum = ct._slice_crc(a1, led)
    own = rows_walked([f for f in irreducible if f.coeffs[0] == 0 and f.coeffs == _mirror(f.coeffs)])[0]
    half = rows_walked([f for f in irreducible if f.coeffs[0] > 0 or f.coeffs[0] == 0 and f.coeffs < _mirror(f.coeffs)])[0]
    assert every == 2 * half + own
    rows.clear()
    led = ct.enumerate_box(n, H)[0]
    assert sum(rows) == half + own
    merged = ct.CountLedger(n=n, H=H)
    for a1 in range(-H, H + 1):
        merged = merged.merge(leds[a1])
    assert led.canonical() == merged.canonical()
    direct = ct.slice_ledger(n, H, list(range(-H, H + 1)))
    assert [d.canonical() for d in direct] == [leds[a1].canonical() for a1 in range(-H, H + 1)]


@pytest.mark.parametrize(
    "n, H, a1",
    [
        pytest.param(n, H, a1, id=f"{n}-{H}" + ("-slice0" if a1 == 0 else ""))
        for a1 in (-1, 0)
        for n, H in [(5, 2), (6, 1), (7, 1)]
    ],
)
def test_a_mirrored_slice_that_disagrees_with_its_mirror_raises(monkeypatch, tmp_path, n, H, a1):
    """Every slice gets its own discriminant and factor-mask pass, so one
    flipped mask entry in slice -1, or in slice 0 at a polynomial that is
    not its own mirror, makes a slice book a different number of twins
    than it skips: InternalError, and the CLI exits 3."""
    mask = ct._factor_mask

    def flipped(n, H, s):
        m = mask(n, H, s)
        if s == a1:
            polys = (MonicIntPoly((a1, *(j - H for j in i))) for i in np.ndindex(m.shape))
            f = next(f for f in polys if disc(f) and f.coeffs != _mirror(f.coeffs))
            at = tuple(c + H for c in f.coeffs[1:])
            m[at] = not m[at]
        return m

    monkeypatch.setattr(ct, "_factor_mask", flipped)
    with pytest.raises(InternalError):
        ct.enumerate_box(n, H)
    assert cli.main(["count", "--n", str(n), "--H", str(H), "--out", str(tmp_path / "out.jsonl")]) == 3


@pytest.mark.parametrize("n, H", [(5, 2), (6, 1), (7, 1)])
def test_twin_slices_that_split_disc_zero_and_reducible_differently_raise(monkeypatch, n, H):
    """Moving one polynomial of slice -1 from reducible to discZero keeps its
    total, but no longer matches slice 1: InternalError."""
    unmasked = ct._unmasked

    def moved(led, H, a1):
        yield from unmasked(led, H, a1)
        if a1 == -1:
            led.reducible -= 1
            led.disc_zero += 1

    monkeypatch.setattr(ct, "_unmasked", moved)
    with pytest.raises(InternalError):
        ct.enumerate_box(n, H)


# ---------------------------------------------------------------------------
# the sign symmetry f(x) -> (-1)^n f(-x), a_i -> (-1)^i a_i


def _mirror(coeffs):
    return tuple(-a if i % 2 else a for i, a in enumerate(coeffs, start=1))


@functools.lru_cache(maxsize=64)
def _cached_mask(n, H, a1):
    return ct._factor_mask(n, H, a1)


def _mask_verdict(f):
    """`_factor_mask`'s verdict on f, from the slice of f's own height."""
    H = f.height()
    return bool(_cached_mask(f.degree, H, f.coeffs[0])[tuple(a + H for a in f.coeffs[1:])])


@given(st.integers(2, 7).flatmap(lambda n: st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
@settings(max_examples=200, deadline=None)
def test_sign_symmetry_keeps_disc_factors_groups_and_cycle_types(coeffs):
    """The map keeps disc, the `_factor_mask` verdict, the group for n <= 5
    and the Frobenius cycle types at the first three good primes for
    n = 5-7.  The mask of a septic slice of height 4 or more takes seconds,
    so degree 7 checks the verdict up to height 3 here, and
    `test_sign_symmetry_maps_each_factor_mask_slice_onto_its_mirror`
    checks whole slices."""
    f, g = MonicIntPoly(tuple(coeffs)), MonicIntPoly(_mirror(coeffs))
    n, delta = f.degree, disc(f)
    assert disc(g) == delta
    if n >= 3 and (n < 7 or f.height() <= 3):
        assert _mask_verdict(f) == _mask_verdict(g)
    if n <= 5:
        assert ga.classify(f) == ga.classify(g)
    if n >= 5 and delta:
        rows = np.array([f.coeffs, g.coeffs], dtype=np.int64)
        for p in itertools.islice((p for p in ga._ascending_primes() if delta % p), 3):
            types = frobenius_cycle_types(rows, [delta, delta], p)
            assert types[0] == types[1], p


@pytest.mark.parametrize("n, H", [(3, 6), (4, 4), (5, 3), (6, 2), (7, 2)])
def test_sign_symmetry_maps_each_factor_mask_slice_onto_its_mirror(n, H):
    """The mask of slice -a1 is that of slice a1 reversed along the axes of
    the odd-index coefficients a_3, a_5, a_7."""
    odd = tuple(k for k in range(n - 1) if (k + 2) % 2)
    for a1 in range(-H, H + 1):
        assert np.array_equal(ct._factor_mask(n, H, -a1), np.flip(ct._factor_mask(n, H, a1), odd)), a1


@pytest.mark.parametrize("n, H", [(5, 2), (6, 1), (7, 1)])
def test_run_grouping_does_not_change_ledgers_or_slice_files(tmp_path, n, H):
    """Serial, two workers, and a checkpoint holding every other slice (so
    a run joins non-adjacent a1) give byte-identical ledgers and slice
    files; slicesComputed counts slices, not runs."""
    dirs = [tmp_path / name for name in ("serial", "par2", "gaps")]
    serial, computed = ct.enumerate_box(n, H, checkpoint=str(dirs[0]))
    assert computed == 2 * H + 1 and len(ct._runs(n, H, list(range(-H, H + 1)))) < computed
    par2, computed = ct.enumerate_box(n, H, parallelism=2, checkpoint=str(dirs[1]))
    assert computed == 2 * H + 1
    dirs[2].mkdir()
    stored = range(-H, H + 1, 2)
    for a1 in stored:
        _slice_file(dirs[2], n, H, a1).write_bytes(_slice_file(dirs[0], n, H, a1).read_bytes())
    gaps, computed = ct.enumerate_box(n, H, checkpoint=str(dirs[2]))
    assert computed == 2 * H + 1 - len(stored)
    assert serial.canonical() == par2.canonical() == gaps.canonical()
    files = [{p.name: p.read_bytes() for p in d.iterdir()} for d in dirs]
    assert len(files[0]) == 2 * H + 1 and files[0] == files[1] == files[2]


def test_counting_computes_one_disc_per_polynomial(monkeypatch):
    """The degree 5-7 counters call `disc` through counting's own binding
    exactly once per polynomial of the box, whatever the runs."""
    calls = []

    def counted(f):
        calls.append(f)
        return disc(f)

    monkeypatch.setattr(ct, "disc", counted)
    for n, H in [(5, 2), (6, 1), (7, 1)]:
        calls.clear()
        ct.compute_E(n, H)
        assert len(calls) == (2 * H + 1) ** n, (n, H)


# ---------------------------------------------------------------------------
# E_n and N_n


def test_E2_of_1_is_4():
    assert ct.compute_E(2, 1)["value"] == 4


def test_E3_of_0():
    # a_i = 0: only x^3, disc 0, so not an S3 polynomial
    assert ct.compute_E(3, 0)["value"] == 1


def test_E_lower_bound_an_zero():
    for H in (2, 4, 8):
        assert ct.compute_E(3, H)["value"] >= (2 * H + 1) ** 2


def test_E_monotone_in_H():
    vals = [ct.compute_E(3, H)["value"] for H in (1, 2, 3, 4)]
    assert vals == sorted(vals)


def test_N_known_values():
    # 5 of the 9 quadratics x^2 + bx + c with |b|, |c| <= 1 are irreducible
    assert ct.enumerate_box(2, 1)[0].per_group["C2"] == 5
    # every cubic counted as C3 has square discriminant
    led = ct.enumerate_box(3, 6)[0]
    assert led.per_group.get("C3", 0) <= led.square_disc


def test_N_v4_brute_force():
    count = 0
    for tup in itertools.product(range(-2, 3), repeat=4):
        f = MonicIntPoly(tup)
        if disc(f) != 0 and ga.classify(f).group == "V4":
            count += 1
    assert ct.enumerate_box(4, 2)[0].per_group["V4"] == count


def test_budget_and_degree_errors():
    with pytest.raises(BudgetExceeded):
        ct.compute_E(3, 10, budget=100)
    with pytest.raises(BudgetExceeded):
        ct.compute_E(9, 10)  # budget trips before the degree check
    with pytest.raises(DegreeOutOfRange):
        ct.compute_E(9, 1)


def test_interval_mode_degree_6():
    out = ct.compute_E(6, 1)
    assert out["mode"] == "interval"
    lower, upper = out["value"]
    assert 0 <= lower <= upper <= 3**6
    led = out["ledger"]
    assert led.square_disc <= led.unresolved + sum(led.per_group.values())


# ---------------------------------------------------------------------------
# sieve case partition


def test_case_partition_structure():
    hist = ct.case_partition(3, 8)
    assert set(hist) == {"I", "II", "III", "unknownC"}
    # the box contains C3 cubics (e.g. x^3 - 3x - 1), so something is classified
    assert sum(hist.values()) > 0
    brute = 0
    for tup in itertools.product(range(-8, 9), repeat=3):
        f = MonicIntPoly(tup)
        d = disc(f)
        if d and ga._is_square(d) and ga.classify(f).group == "C3":
            brute += 1
    assert sum(hist.values()) == brute


@pytest.mark.parametrize(
    "n, H, want",
    [
        (5, 2, {"I": 0, "II": 0, "III": 20, "unknownC": 2}),
        (4, 3, {"I": 0, "II": 0, "III": 8, "unknownC": 0}),
    ],
)
def test_case_partition_histograms_pinned(n, H, want):
    # both degrees are screened by the slice factor mask and named in batches
    assert ct.case_partition(n, H) == want


@pytest.mark.parametrize("n, H", [(2, 6), (3, 4), (4, 3), (5, 1)])
def test_irreducible_groups_on_a_box_match_classify(n, H):
    # the slice factor mask leaves exactly the irreducibles that classify
    # names, and the batched decider names them as classify does one by one
    batched, single = [], []
    for a1 in range(-H, H + 1):
        pairs = list(ct._unmasked(ct.CountLedger(n=n, H=H), H, a1))
        if pairs:
            polys, deltas = map(list, zip(*pairs))
            batched += zip(polys, ga.irreducible_groups(polys, deltas))
        for rest in itertools.product(range(-H, H + 1), repeat=n - 1):
            f = MonicIntPoly((a1, *rest))
            name = ga.classify(f).group
            if name is not None:
                single.append((f, name))
    assert batched == single


def test_case_partition_delta_validation():
    with pytest.raises(UsageError):
        ct.case_partition(3, 2, ct.SieveParams(3, delta=Fraction(1, 2)))
    with pytest.raises(DegreeOutOfRange):
        ct.case_partition(2, 2)


# ---------------------------------------------------------------------------
# bound calculator


def test_bound_cor18():
    out = ct.bound_calculator(
        ct.BoundInputs(n=11, ind=4, a=Fraction(5, 2), u=Fraction(1, 110))
    )
    assert abs(float(out["chosenExp"]) - 8.686) <= 5e-3


def test_bound_cyclic_inputs_give_two():
    # C_p: n = p, ind = p-1, field-count exponent a = 1/(p-1), u = 0
    # collapses to exponent exactly 2
    for p in (5, 7, 11):
        out = ct.bound_calculator(
            ct.BoundInputs(n=p, ind=p - 1, a=Fraction(1, p - 1), u=Fraction(0))
        )
        assert out["chosenExp"] == 2


def test_bound_k1_gives_n():
    for n in (3, 5, 8):
        out = ct.bound_calculator(ct.BoundInputs(n=n, ind=1, a=Fraction(1, 2), u=Fraction(0)))
        assert out["chosenExp"] == n


def test_bound_all_terms_are_exact_fractions():
    out = ct.bound_calculator(ct.BoundInputs(n=6, ind=2, a=Fraction(2), u=Fraction(0)))
    for v in out.values():
        assert isinstance(v, Fraction)
    assert out["chosenExp"] == min(max(out["term1Exp"], out["term2Exp"]), out["term3Exp"])


def test_bound_division_by_zero():
    # k = 1 makes the denominator a - u, which vanishes when a = u
    with pytest.raises(DivisionByZero):
        ct.bound_calculator(ct.BoundInputs(n=4, ind=1, a=Fraction(1, 12), u=Fraction(1, 12)))


def test_bound_nontrivial_exponent_saving():
    # with field-counting input a=(n+2)/4-1/2 and the standard u, the bound
    # beats the trivial exponent n-1 for a range of even degrees
    for n in range(6, 41, 2):
        a = Fraction(n + 2, 4) - Fraction(1, 2)
        out = ct.bound_calculator(ct.BoundInputs(n=n, ind=2, a=a, u=Fraction(1, n * (n - 1))))
        assert out["chosenExp"] <= n - 1


def test_cor17_report():
    # Cor. 1.7 with a = 3/8, k = n/2, u = 0: term2 is (3n^2+8n-16)/(11n-16)
    def term2(n):
        return ct.bound_calculator(ct.BoundInputs(n=n, ind=n // 2, a=Fraction(3, 8), u=Fraction(0)))["term2Exp"]

    n = 22
    assert term2(n) == Fraction(3 * n * n + 8 * n - 16, 11 * n - 16)
    # the additive constant of the formula reading converges to 136/121
    gaps = [abs(term2(m) - Fraction(3 * m, 11) - Fraction(136, 121)) for m in (20, 200, 2000)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < Fraction(1, 1000)


# ---------------------------------------------------------------------------
# intransitive height table


def test_intransitive_report_bracket():
    rep = ct.intransitive_height_report(1, 2, 3)
    assert rep["withinBracket"]
    assert rep["products"] > 0
    lo, hi = rep["bracket"]
    assert lo <= rep["minRatio"] and rep["maxRatio"] <= hi


# ---------------------------------------------------------------------------
# exponent fit


def test_exponent_fit_exact_power_law():
    pts = [(H, 3 * H**2) for H in (10, 20, 40, 80)]
    fit = ct.exponent_fit(pts)
    assert fit["slope"] == pytest.approx(2.0, abs=1e-9)
    assert fit["residual"] == pytest.approx(0.0, abs=1e-9)


def test_exponent_fit_errors():
    with pytest.raises(InsufficientData):
        ct.exponent_fit([(1, 1), (2, 4)])
    for repeated in ([(2, 5)] * 3, [(2, 5), (4, 9), (2, 5)]):  # fewer than 3 distinct H
        with pytest.raises(InsufficientData):
            ct.exponent_fit(repeated)
    with pytest.raises(ZeroCount):
        ct.exponent_fit([(1, 1), (2, 0), (3, 9)])
