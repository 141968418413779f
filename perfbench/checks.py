"""Correctness checks, run outside the timed region.

Every check is one call to `Tally.check`; failures feed the benchmark's
failed/attempted counts.  The anchors in anchors.json are regression
anchors: they are galcount's own outputs at the commit that pinned them,
not independent proofs.  The sympy oracle is the independent check.
"""
from __future__ import annotations

import json
import math
import os
import random

from workloads import LADDER, MAHLER_TOL, boxes_of, mahler_inputs

ANCHORS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "anchors.json")
# ledger fields that do not change when an n = 6, 7 interval tightens
STABLE_FIELDS = ("n", "H", "total", "discZero", "reducible")
# CLI ledger lines also carry these, which differ between the three runs
RUN_FIELDS = ("config", "slicesComputed", "status")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def load_anchors(path: str = ANCHORS) -> dict:
    with open(path) as fh:
        return json.load(fh)


def box_key(n: int, H: int) -> str:
    return f"n{n}_H{H}"


def interval(led: dict) -> tuple[int, int]:
    """E_n(H) bounds of a ledger; equal ends when the ledger is exact."""
    sn = led["perGroup"].get(f"S{led['n']}", 0)
    upper = led["total"] - sn
    if led["n"] <= 5:
        return upper, upper
    return led["reducible"] + led["discZero"] + led["squareDisc"], upper


def check_ledger(t: Tally, led: dict, anchors: dict) -> None:
    key = box_key(led["n"], led["H"])
    want = anchors["ledgers"].get(key)
    t.check(want is not None, f"{key}: no anchor")
    if want is None:
        return
    parts = led["discZero"] + led["reducible"] + sum(led["perGroup"].values()) + led["unresolved"]
    t.check(led["total"] == parts, f"{key}: total != discZero + reducible + sum(perGroup) + unresolved")
    if led["n"] <= 5:
        t.check(led == want, f"{key}: ledger differs from anchor")
        return
    # degrees 6-7: the interval may tighten but never widen or move off the old values
    t.check(all(led[k] == want[k] for k in STABLE_FIELDS), f"{key}: total/discZero/reducible differ from anchor")
    lo, hi = interval(led)
    alo, ahi = interval(want)
    t.check(alo <= lo <= hi <= ahi, f"{key}: interval [{lo}, {hi}] not inside anchor [{alo}, {ahi}]")


def check_outputs(t: Tally, workload: str, size: str, seed: int, outputs: dict, anchors: dict) -> None:
    """Checks on the outputs of one timed repeat."""
    if workload in ("quartic_box", "highdeg_box"):
        emitted = [(led["n"], led["H"]) for led in outputs["ledgers"]]
        t.check(emitted == boxes_of(workload, size), f"{workload}: boxes {emitted}")
        for led in outputs["ledgers"]:
            check_ledger(t, led, anchors)
    elif workload == "suites":
        _check_suites(t, size, seed, outputs, anchors)
    elif workload == "ladder_ckpt":
        _check_ladder(t, size, outputs, anchors)
    else:
        raise ValueError(workload)


def _check_suites(t, size, seed, outputs, anchors):
    for rep in outputs["suites"]:
        name = rep["suite"]
        t.check(rep["pass"] and rep["violations"] == 0, f"suite {name}: pass={rep['pass']}")
        want = anchors["suites"][size].get(name)
        if want is not None:  # prop34 is seeded, so its count varies
            t.check(rep["checked"] == want, f"suite {name}: checked {rep['checked']} != {want}")
        else:
            t.check(rep["checked"] > 0, f"suite {name}: nothing checked")
    polys = mahler_inputs(seed, len(outputs["mahler"]))
    for coeffs, m in zip(polys, outputs["mahler"]):
        n = len(coeffs)
        h = max(1, max(abs(c) for c in coeffs))
        ok = h / math.comb(n, n // 2) <= m + MAHLER_TOL and m - MAHLER_TOL <= math.sqrt(n + 1) * h
        t.check(ok, f"mahler bracket violated for {coeffs}: M={m}")


def _check_ladder(t, size, outputs, anchors):
    ladder = LADDER[size]
    for label, code in zip(("parallel", "cold", "resume"), outputs["codes"]):
        t.check(code == 0, f"ladder {label}: exit code {code}")
    stripped = []
    for label, objs in zip(("parallel", "cold", "resume"), outputs["runs"]):
        leds = [o for o in objs if o.get("type") == "ledger"]
        fits = [o for o in objs if o.get("type") == "fit"]
        t.check([o["H"] for o in leds] == list(ladder), f"ladder {label}: ledgers for H={[o['H'] for o in leds]}")
        t.check(len(fits) == 1, f"ladder {label}: {len(fits)} fit lines")
        for o in leds:
            led = {k: v for k, v in o.items() if k not in RUN_FIELDS + ("formatVersion", "type", "E")}
            check_ledger(t, led, anchors)
            t.check(o.get("E") == interval(led)[0], f"ladder {label}: E field of H={o['H']}")
        for o in fits:
            want = anchors["fits"][",".join(map(str, ladder))]
            close = all(math.isclose(o[k], want[k], rel_tol=1e-9, abs_tol=1e-12) for k in want)
            t.check(close, f"ladder {label}: fit differs from anchor")
        stripped.append([{k: v for k, v in o.items() if k not in RUN_FIELDS} for o in objs])
        if label == "cold":
            t.check([o.get("slicesComputed") for o in leds] == [2 * H + 1 for H in ladder], "cold run computed wrong slice counts")
        if label == "resume":
            ok = all(o.get("slicesComputed") == 0 and o.get("status") == "up to date" for o in leds)
            t.check(ok, "resume run recomputed slices")
    t.check(stripped[0] == stripped[1] == stripped[2], "ladder runs differ beyond config/slicesComputed/status")
    t.check(outputs["csvRows"] == len(ladder) + 1, f"ladder csv has {outputs['csvRows']} rows")
    t.check(outputs["ckptFiles"] == sum(2 * H + 1 for H in ladder), f"{outputs['ckptFiles']} checkpoint files")


# ---------------------------------------------------------------------------
# Independent oracle: sympy


SYMPY_NAMES = {"A3": "C3", "V": "V4", "M20": "F20"}


def oracle(t: Tally, workload: str, size: str, seed: int, per_box: int) -> int:
    """Reclassify a seeded sample of each box with sympy; returns the sample size.

    Half the sample is drawn among polynomials galcount puts outside S_n,
    so the rarer verdicts are exercised too.
    """
    from sympy import Poly, symbols
    from sympy.polys.numberfields.galoisgroups import galois_group

    from galcount import galois, polyarith

    x = symbols("x")
    sampled = 0
    for n, H in boxes_of(workload, size):
        rng = random.Random(f"oracle-{seed}-{workload}-{n}-{H}")
        picks: dict[bool, list] = {True: [], False: []}
        for _ in range(40 * per_box):
            coeffs = tuple(rng.randint(-H, H) for _ in range(n))
            f = polyarith.MonicIntPoly(coeffs)
            verdict = _galcount_verdict(galois, polyarith, f)
            generic = verdict == ("group", f"S{n}")
            if len(picks[generic]) < per_box // 2:
                picks[generic].append((coeffs, verdict))
            if all(len(v) >= per_box // 2 for v in picks.values()):
                break
        for coeffs, verdict in picks[True] + picks[False]:
            sampled += 1
            P = Poly([1, *coeffs], x)
            irreducible = P.is_irreducible
            t.check(galois.is_irreducible(polyarith.MonicIntPoly(coeffs)) == irreducible, f"oracle: irreducibility of {coeffs}")
            kind, value = verdict
            if not irreducible:
                degs = tuple(sorted(g.degree() for g, e in P.factor_list()[1] for _ in range(e)))
                t.check(kind == "reducible" and value in (degs, None), f"oracle: {coeffs} is reducible {degs}, galcount {verdict}")
                continue
            if n >= 7:  # sympy has Galois groups up to degree 6 only
                t.check(kind != "reducible", f"oracle: {coeffs} irreducible, galcount {verdict}")
                continue
            group, is_alt = galois_group(P, by_name=True)
            name = SYMPY_NAMES.get(group.name, group.name)
            if kind == "group":
                t.check(name == value, f"oracle: group of {coeffs} is {name}, galcount {value}")
            elif kind == "subsetAn":
                t.check(is_alt, f"oracle: {coeffs} certified inside A_n, sympy {name}")
            else:
                t.check(kind == "unresolved", f"oracle: {coeffs} irreducible, galcount {verdict}")
    return sampled


def _galcount_verdict(galois, polyarith, f):
    """('reducible', degrees or None) | ('group', name) | ('subsetAn', None) | ('unresolved', None)."""
    n = f.degree
    if n <= 5:
        v = galois.classify(f)
        if v.status == "reducible":
            return ("reducible", tuple(v.factor_degrees))
        return ("group", v.group)
    if polyarith.disc(f) == 0 or not galois.is_irreducible(f):
        return ("reducible", None)
    v = galois.sn_certificate(f, prime_budget=25)
    if v.status == "certifiedSn":
        return ("group", f"S{n}")
    if v.status == "certifiedSubsetAn":
        return ("subsetAn", None)
    return ("unresolved", None)
