"""Exact box enumeration ledgers, E_n and per-group counts, sieve cases, bound calculator."""

import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
import sympy

from galcount import counting as ct
from galcount import galois as ga
from galcount.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    DivisionByZero,
    InsufficientData,
    UsageError,
    ZeroCount,
)
from galcount.polyarith import MonicIntPoly, disc

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
}


@pytest.mark.parametrize("box", sorted(GOLDEN), ids=lambda b: f"n{b[0]}_H{b[1]}")
def test_golden_ledgers_pinned(box):
    assert ct.enumerate_box(*box)[0].to_json() == GOLDEN[box]


def test_quartic_object_dtype_path_matches_int64(monkeypatch):
    H = 4
    want = [ct.slice_ledger(4, H, a1).canonical() for a1 in range(-H, H + 1)]
    monkeypatch.setattr(ct, "_quartic_dtype", lambda H: object)
    assert [ct.slice_ledger(4, H, a1).canonical() for a1 in range(-H, H + 1)] == want


def test_quartic_int64_bounds_hold_at_the_largest_int64_H():
    H = max(h for h in range(1000) if ct._quartic_dtype(h) is np.int64)
    assert ct._quartic_dtype(H + 1) is object
    assert (2 * H + 1) ** 4 > ct.DEFAULT_BUDGET  # dtype=object needs a raised budget
    corners = np.array(list(itertools.product((-H, H), repeat=4)), dtype=np.int64)
    assert ga.quartic_disc(*corners.T).tolist() == [ga.quartic_disc(*map(int, row)) for row in corners]


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
    got = ct.slice_ledger(4, H, a1)
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
    at y0 = b - a^2/4 among them, lose and double-count nothing."""
    monkeypatch.setattr(ct, "_quartic_dtype", lambda H: dtype)
    monkeypatch.setattr(ct, "_kappe_warren_dtype", lambda H: dtype)
    want = [ct.slice_ledger(4, H, a1).canonical() for a1 in range(-H, H + 1)]
    monkeypatch.setattr(ct, "_quartic_block_rows", lambda H, Y: 1)
    assert [ct.slice_ledger(4, H, a1).canonical() for a1 in range(-H, H + 1)] == want


def test_kappe_warren_dtype_turns_to_object_where_its_bound_reaches_2_62():
    """int64 exactly while (max |q|) * (max |delta|) < 2^62; that ends at
    H = 76, inside the default budget (H <= 88), long before the slice's own
    dtype turns to object."""
    for H in range(200):
        Y = 2 * ct._resolvent_root_bound(H, H)
        bound = max(Y * Y + 4 * H, H * H + 4 * H + 4 * Y) * 1069 * H**6
        assert (ct._kappe_warren_dtype(H) is np.int64) == (bound < 2**62), H
    assert ct._kappe_warren_dtype(75) is np.int64 and ct._kappe_warren_dtype(76) is object
    assert ct._quartic_dtype(76) is np.int64


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


def test_factor_mask_object_dtype_path_matches_int64(monkeypatch):
    boxes = [(3, 5), (4, 3), (5, 2), (6, 1), (7, 1)]
    want = [ct._factor_mask(n, H, a1) for n, H in boxes for a1 in range(-H, H + 1)]
    monkeypatch.setattr(ct, "_factor_dtype", lambda n, H: object)
    got = [ct._factor_mask(n, H, a1) for n, H in boxes for a1 in range(-H, H + 1)]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n", range(3, 8))
def test_factor_mask_int64_bounds_hold_at_the_largest_int64_H(n):
    """At the largest H run in int64, `_factor_tail` on int64 arrays equals
    the Python-int evaluation at every corner of the box and of the factor
    ranges |q_j| <= C(m, j) R^j, |q_m| <= H of every m <= n/2."""
    lo, hi = 0, 2**22  # int64 at lo, object at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ct._factor_dtype(n, mid) is np.int64 else (lo, mid)
    H, R = lo, lo + 1
    for m in range(1, n // 2 + 1):
        sides = [(-math.comb(m, j) * R**j, math.comb(m, j) * R**j) for j in range(1, m)] + [(-H, H)]
        corners = [(*a, *q) for a in itertools.product((-H, H), repeat=n - m) for q in itertools.product(*sides)]
        cols = np.array(corners, dtype=np.int64).T
        got = ct._factor_tail(cols[0], list(cols[1 : n - m]), list(cols[n - m :]))
        want = [ct._factor_tail(c[0], c[1 : n - m], c[n - m :]) for c in corners]
        assert [t.tolist() for t in got] == [list(w) for w in zip(*want)]


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
    n, H = 3, 4
    whole = ct.enumerate_box(n, H)[0]
    merged = ct.CountLedger(n=n, H=H)
    for a1 in range(-H, H + 1):
        merged = merged.merge(ct.slice_ledger(n, H, a1))
    assert merged.canonical() == whole.canonical()
    # merging is order-insensitive
    rev = ct.CountLedger(n=n, H=H)
    for a1 in range(H, -H - 1, -1):
        rev = rev.merge(ct.slice_ledger(n, H, a1))
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
    led = ct.slice_ledger(4, 3, -2)
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


def test_pool_capped_at_slices_to_compute(tmp_path, monkeypatch):
    sizes = []

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
    direct = ct.enumerate_box(3, 2)[0]
    led, computed = ct.enumerate_box(3, 2, parallelism=10**6, checkpoint=str(tmp_path))
    assert computed == 5 and led.canonical() == direct.canonical()
    workers = min(5, os.cpu_count() or 1)
    assert sizes == ([workers] if workers > 1 else [])
    # one missing slice, or none, starts no Pool
    _slice_file(tmp_path, 3, 2, 0).unlink()
    assert ct.enumerate_box(3, 2, parallelism=10**6, checkpoint=str(tmp_path))[1] == 1
    assert ct.enumerate_box(3, 2, parallelism=10**6, checkpoint=str(tmp_path))[1] == 0
    assert sizes == ([workers] if workers > 1 else [])


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
    with pytest.raises(ZeroCount):
        ct.exponent_fit([(1, 1), (2, 0), (3, 9)])
