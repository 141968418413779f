"""Named property suites shared by the `verify` command and the test suite.

Each suite exhaustively (or, where noted, by seeded sampling) checks one of
the finitely decidable statements backing the counting bounds: completion
counts, power-sum solution counts, moved-subset lower bounds, index ratios
of product actions (every element's cycle counts in closed form from the
cycles of its factors on k-subsets and on letters), the forced-index
criterion, and Fourier decay.  A suite returns a report dict with `pass`,
`checked`, `violations`, and details.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from .errors import UsageError
from . import fourier, permgroup
from .polyarith import (
    DoubleDiscInput,
    disc_poly_in_last,
    double_disc,
    index_table,
    is_prime,
    mod_p2_forced_test,
    partition_bound,
    power_sum_solution_count,
    zero_subset_sum,
)
from .errors import SubsetSumZero


def verify_prop33(ps=(5, 7, 11, 13), ns=(3, 4, 5)) -> dict:
    """Completions of a prefix to index >= k number at most q(k,n-k)(n-k)!.

    Exhaustive over the prefixes of one `index_table` per (p, n); cells with
    p <= n are skipped, as the proposition (and `count_index_completions`) needs p > n.
    """
    checked = 0
    violations = []
    cells = []
    for p in ps:
        for n in ns:
            if p <= n:
                cells.append({"p": p, "n": n, "skipped": "needs p > n"})
                continue
            tab = index_table(p, n)
            for k in range(1, n):
                bound = partition_bound(k, n - k)
                rows = tab.reshape(p ** (n - k), p**k)
                counts = (rows >= k).sum(axis=1)
                worst = int(counts.max())
                checked += rows.shape[0]
                if worst > bound:
                    violations.append({"p": p, "n": n, "k": k, "worst": worst, "bound": bound})
                cells.append({"p": p, "n": n, "k": k, "worst": worst, "bound": bound})
    return {
        "suite": "prop33",
        "pass": not violations,
        "checked": checked,
        "violations": len(violations),
        "details": {"cells": cells, "failures": violations},
    }


def verify_prop34(seed: int = 0, samples: int = 200) -> dict:
    """Power-sum systems with admissible weights have at most r! solutions.
    A cell is skipped if it has no admissible weights, or after 100 x samples draws."""
    rng = random.Random(seed)
    checked = 0
    violations = []
    skipped = []
    for p in (q for q in range(3, 14) if is_prime(q)):
        for r in (1, 2, 3):
            multisets = itertools.combinations_with_replacement(range(1, p), r)
            if all(zero_subset_sum(ws, p) is not None for ws in multisets):
                skipped.append({"p": p, "r": r, "collected": 0})
                continue
            done = 0
            attempts = 0
            while done < samples:
                attempts += 1
                if attempts > 100 * samples:
                    skipped.append({"p": p, "r": r, "collected": done})
                    break
                weights = tuple(rng.randrange(1, p) for _ in range(r))
                targets = tuple(rng.randrange(p) for _ in range(r))
                try:
                    cnt = power_sum_solution_count(p, weights, targets)
                except SubsetSumZero:
                    continue
                done += 1
                checked += 1
                if cnt > math.factorial(r):
                    violations.append({"p": p, "weights": weights, "targets": targets, "count": cnt})
    return {
        "suite": "prop34",
        "pass": not violations,
        "checked": checked,
        "violations": len(violations),
        "details": {"failures": violations, "skippedCells": skipped},
    }


def verify_fmky(mmax: int = 10) -> dict:
    """Moved k-subsets under y disjoint 2-cycles: f(m,k,y) >= (8/(5k)) C(m-1,k-1) y.

    The count depends only on the cycle type, so one product of y disjoint
    transpositions per (m, y) covers every such involution.
    """
    checked = 0
    violations = []
    for m in range(3, mmax + 1):
        for k in range(1, (m + 1) // 2):
            for y in range(1, m // 2 + 1):
                sigma = permgroup.Permutation.from_cycles(m, [(2 * i + 1, 2 * i + 2) for i in range(y)])
                moved = permgroup.count_moved_ksubsets(sigma, k)
                bound = Fraction(8, 5 * k) * math.comb(m - 1, k - 1) * y
                checked += 1
                if Fraction(moved) < bound:
                    violations.append({"m": m, "k": k, "y": y, "moved": moved, "bound": str(bound)})
    return {
        "suite": "fmky",
        "pass": not violations,
        "checked": checked,
        "violations": len(violations),
        "details": {"failures": violations},
    }


def verify_thm25() -> dict:
    """Product-action vs imprimitive-action index ratio exceeds n/(3rm).

    Exhaustive over all non-identity elements of S_m wr S_r for every
    (m, k, r) with k < m/2, r <= 2, and product-action degree n = C(m,k)^r
    <= 100.  The cycle counts come from `permgroup.wreath_cycle_counts`,
    which reads them off the cycles of each g in S_m on k-subsets (c_g[l]
    of length l) and on letters (cyc(g)), with Gamma[a, b] = gcd(a, b):

    - h = id: (S_1, S_2) -> (g_1 S_1, g_2 S_2) maps A x B to itself for a
      g_1-cycle A and a g_2-cycle B, with orbits of length lcm(|A|, |B|),
      so gcd(|A|, |B|) of them: c_g1^T Gamma c_g2 cycles in all, and
      cyc(g_1) + cyc(g_2) on the two blocks.
    - h = (1 2): conjugating T: (S_1, S_2) -> (g_1 S_2, g_2 S_1) by
      (x, y) -> (x, g_1 y) gives U: (s, t) -> (t, pi s) with pi = g_1 g_2
      (g_2 applied first), and U^2 = pi x pi.  For a pi-cycle A of length
      l, U maps A x A to itself; U^(2j) fixes no point for 0 < j < l, and
      U^(2j+1)(s, t) = (pi^j t, pi^(j+1) s) = (s, t) needs t = pi^(-j) s
      and 2j + 1 = 0 mod l, so the l^2 points lie in ceil(l/2) orbits
      (l/2 of length 2l for even l, and (l-1)/2 of length 2l plus one of
      length l for odd l).  For two pi-cycles A != B, U swaps A x B and
      B x A, and its orbits on their union are the gcd(|A|, |B|) orbits of
      pi x pi on A x B.  Summed over cycles and pairs that is
      sum_l c_pi[l] ceil(l/2) + (c_pi^T Gamma c_pi - C(m,k))/2, since the
      diagonal of c_pi^T Gamma c_pi is sum_A |A| = C(m,k).  The imprimitive
      element squares to pi on each block, so each pi-cycle becomes one
      cycle through both blocks: cyc(pi) in all.
    - r = 1: sum_l c_g[l] and cyc(g).
    """
    checked = 0
    violations = []
    combos = []
    for m in range(3, 6):
        for k in range(1, (m + 1) // 2):
            for r in (1, 2):
                deg = math.comb(m, k) ** r
                if deg <= 100:
                    combos.append((m, k, r))
    sizes = {m for m, _, _ in combos} | {r for _, _, r in combos}
    sym = {m: list(itertools.permutations(range(m))) for m in sizes}
    for m, k, r in combos:
        n = math.comb(m, k) ** r
        for hs in sym[r]:
            # indexed like itertools.product(sym[m], repeat=r), the identity first
            big, small = permgroup.wreath_cycle_counts(m, k, r, hs)
            big_ind, small_ind = n - big, r * m - small
            # the imprimitive action is faithful, so only the identity has
            # index 0; big/small <= n/(3rm) is compared in integers
            keep = small_ind > 0
            checked += int(keep.sum())
            for j in np.flatnonzero(keep & (big_ind * 3 * r * m <= n * small_ind)):
                gtup = tuple(sym[m][i] for i in np.unravel_index(j, (len(sym[m]),) * r))
                violations.append({"m": m, "k": k, "r": r, "gs": gtup, "h": hs, "big": int(big_ind[j]), "small": int(small_ind[j])})
    return {
        "suite": "thm25",
        "pass": not violations,
        "checked": checked,
        "violations": len(violations),
        "details": {"combos": combos, "failures": violations},
    }


def verify_prop51dd() -> dict:
    """Forced-index residues have vanishing disc derivative and divide DD.

    Exhaustive over residue tuples for n=3, p in {3,5,7} and n=4,
    p in {3,5}: whenever every lift of the tuple mod p^2 keeps p^2 | disc,
    the partial derivative of Disc with respect to a_n vanishes mod p, and
    p divides the double discriminant of the prefix when it is nonzero.
    """
    checked = 0
    forced = 0
    violations = []
    cells = [(3, p) for p in (3, 5, 7)] + [(4, p) for p in (3, 5)]
    for n, p in cells:
        for tup in itertools.product(range(p), repeat=n):
            if not mod_p2_forced_test(p, n, tup):
                continue
            forced += 1
            checked += 1
            prefix = tup[:-1]
            dpoly = disc_poly_in_last(n, prefix)  # Disc as a poly in a_n, descending
            deg = len(dpoly) - 1
            deriv_at = sum(
                (deg - i) * dpoly[i] * tup[-1] ** (deg - i - 1) for i in range(deg)
            )
            ok_deriv = deriv_at % p == 0
            dd = double_disc(DoubleDiscInput(n, prefix))
            ok_dd = dd == 0 or dd % p == 0
            if not (ok_deriv and ok_dd):
                violations.append({"n": n, "p": p, "tuple": tup, "derivOK": ok_deriv, "ddOK": ok_dd})
    return {
        "suite": "prop51dd",
        "pass": not violations,
        "checked": checked,
        "violations": len(violations),
        "details": {"forcedTuples": forced, "failures": violations},
    }


def verify_decay(ns=(3, 4), ps=(3, 5, 7, 11), spaces=("monic", "binary"), tol=1e-9) -> dict:
    """Fourier decay across primes: scaled maxima stay bounded in p.

    For each space, degree, and sigma, builds the full transform at every
    prime, checks Parseval to tolerance, and requires that neither the
    main-term error nor the scaled off-peak maximum increases monotonically
    across the prime ladder (a proxy for p-uniform boundedness).  Each
    space's tables come from one type map, prime by prime; the report lists
    them sigma by sigma.
    """
    checked = 0
    violations = []
    series = []
    for kind in spaces:
        for n in ns:
            sigmas = fourier.sigmas_up_to(n)
            found = [[] for _ in sigmas]  # (p, Parseval gap, report) per sigma
            for p in ps:
                space = fourier.WeightSpace(kind, p, n)
                for row, table in zip(found, fourier.fourier_tables(space, sigmas)):
                    row.append((p, fourier.parseval_gap(table), fourier.verify_decay(table)))
            for sigma, row in zip(sigmas, found):
                for p, gap, _ in row:
                    checked += 1
                    if gap > tol:
                        violations.append({"space": kind, "n": n, "p": p, "sigma": str(sigma), "parsevalGap": gap})
                errs = [rep["mainTermError"] for _, _, rep in row]
                maxima = [rep["maxNonzeroScaled"] for _, _, rep in row]
                if fourier.accelerating(errs, tol) or fourier.accelerating(maxima, tol):
                    violations.append(
                        {"space": kind, "n": n, "sigma": str(sigma), "mainTermErrors": errs, "maxima": maxima}
                    )
                series.append({"space": kind, "n": n, "sigma": str(sigma), "mainTermErrors": errs, "maxNonzeroScaled": maxima})
    return {
        "suite": "decay",
        "pass": not violations,
        "checked": checked,
        "violations": len(violations),
        "details": {"series": series, "failures": violations},
    }


SUITES = {
    "prop33": verify_prop33,
    "prop34": verify_prop34,
    "fmky": verify_fmky,
    "thm25": verify_thm25,
    "prop51dd": verify_prop51dd,
    "decay": verify_decay,
}


def run_suite(name: str, seed: int | None = None) -> dict:
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    fn = SUITES[name]
    if name == "prop34" and seed is not None:
        return fn(seed=seed)
    return fn()
