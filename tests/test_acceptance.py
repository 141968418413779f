"""Acceptance checklist: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Several of these repeat the full-size property-suite runs and take
a few minutes in total; the unit test files cover the same code at smaller
sizes.
"""

import json
import math
import random
import time
from fractions import Fraction

from galcount import cli, counting as ct, permgroup as pg, verification as vf
from galcount.polyarith import MonicIntPoly, mahler_measure


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {number} failed: {detail}"


def test_acceptance_01_growth_exponents():
    t0 = time.time()
    e3 = []
    for H in (10, 20, 40, 80):
        val = ct.compute_E(3, H)["value"]
        e3.append((H, val))
        assert val >= (2 * H + 1) ** 2
    slope3 = ct.exponent_fit(e3)["slope"]
    t3 = time.time() - t0

    t0 = time.time()
    e4 = [(H, ct.compute_E(4, H)["value"]) for H in (4, 8, 16)]
    slope4 = ct.exponent_fit(e4)["slope"]
    t4 = time.time() - t0

    ok = 1.9 <= slope3 <= 2.1 and 2.7 <= slope4 <= 3.3 and t3 <= 120 and t4 <= 600
    report(1, ok, f"slope3={slope3:.3f} in {t3:.0f}s, slope4={slope4:.3f} in {t4:.0f}s")


def test_acceptance_02_known_exact_values():
    checks = [ct.compute_E(2, 1)["value"] == 4]
    m11 = pg.m11()
    checks.append(m11.order() == 7920 and pg.ind_of_group(m11) == 4)
    for p in (3, 5, 7, 11):
        checks.append(pg.ind_of_group(pg._cyclic(p)) == p - 1)
    G = pg.wreath_product_action(pg.ProductActionSpec(5, 1, 2))
    checks.append(pg.is_primitive(G) and pg.ind_of_group(G) == 5)
    report(2, all(checks))


def test_acceptance_03_bound_calculator():
    out = ct.bound_calculator(
        ct.BoundInputs(n=11, ind=4, a=Fraction(5, 2), u=Fraction(1, 110))
    )
    ok = abs(float(out["chosenExp"]) - 8.686) <= 5e-3
    for p in (5, 7, 11):
        cp = ct.bound_calculator(
            ct.BoundInputs(n=p, ind=p - 1, a=Fraction(1, p - 1), u=Fraction(0))
        )
        ok = ok and cp["chosenExp"] == 2
    for n in (4, 7, 11):
        triv = ct.bound_calculator(ct.BoundInputs(n=n, ind=1, a=Fraction(1, 2), u=Fraction(0)))
        ok = ok and triv["chosenExp"] == n
    report(3, ok, f"degree-11 exponent {float(out['chosenExp']):.4f}")


def test_acceptance_04_completion_counts():
    t0 = time.time()
    rep = vf.verify_prop33(ps=(5, 7, 11, 13), ns=(3, 4, 5))
    dt = time.time() - t0
    report(4, rep["pass"] and dt <= 300, f"{rep['checked']} prefixes in {dt:.0f}s")


def test_acceptance_05_power_sum_counts():
    rep = vf.verify_prop34(seed=0, samples=200)
    report(5, rep["pass"], f"{rep['checked']} admissible tuples")


def test_acceptance_06_fourier_decay():
    t0 = time.time()
    rep = vf.verify_decay(ns=(3, 4), ps=(3, 5, 7, 11), spaces=("monic", "binary"))
    dt = time.time() - t0
    report(6, rep["pass"] and dt <= 600, f"{rep['checked']} tables in {dt:.0f}s")


def test_acceptance_07_forced_index():
    rep = vf.verify_prop51dd()
    report(7, rep["pass"], f"{rep['details']['forcedTuples']} forced tuples")


def test_acceptance_08_moved_subsets():
    rep = vf.verify_fmky(mmax=10)
    report(8, rep["pass"], f"{rep['checked']} (m,k,y) cells")


def test_acceptance_09_index_ratio():
    rep = vf.verify_thm25()
    report(9, rep["pass"], f"{rep['checked']} elements")


def test_acceptance_10_mahler_bracket():
    t0 = time.time()
    rng = random.Random(2024)
    tol = 1e-6
    ok = True
    for _ in range(10**5):
        n = rng.randrange(1, 9)
        coeffs = tuple(rng.randrange(-100, 101) for _ in range(n))
        if not any(coeffs):
            continue
        f = MonicIntPoly(coeffs)
        m = mahler_measure(f, tol=tol)
        h = f.height()
        if not (h / math.comb(n, n // 2) <= m + tol and m - tol <= math.sqrt(n + 1) * h):
            ok = False
            break
    mult_ok = True
    for _ in range(10**4):
        nf, ng = rng.randrange(1, 5), rng.randrange(1, 5)
        fc = [1] + [rng.randrange(-20, 21) for _ in range(nf)]
        gc = [1] + [rng.randrange(-20, 21) for _ in range(ng)]
        prod = [0] * (nf + ng + 1)
        for i, a in enumerate(fc):
            for j, b in enumerate(gc):
                prod[i + j] += a * b
        mf = mahler_measure(MonicIntPoly(tuple(fc[1:])), tol=tol)
        mg = mahler_measure(MonicIntPoly(tuple(gc[1:])), tol=tol)
        mfg = mahler_measure(MonicIntPoly(tuple(prod[1:])), tol=tol)
        if abs(mfg - mf * mg) > 3 * tol * mf * mg:
            mult_ok = False
            break
    dt = time.time() - t0
    report(10, ok and mult_ok and dt <= 120, f"in {dt:.0f}s")


def test_acceptance_11_determinism(tmp_path):
    payloads = []
    for workers in (1, 4, 8):
        out = tmp_path / f"t{workers}.jsonl"
        code = cli.main(
            ["count", "--n", "3", "--H", "20", "--parallelism", str(workers), "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            obj = json.loads(fh.readline())
        ledger = {k: v for k, v in obj.items() if k != "config"}
        payloads.append(json.dumps(ledger, sort_keys=True).encode())
    report(11, payloads[0] == payloads[1] == payloads[2])
