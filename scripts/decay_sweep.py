#!/usr/bin/env python3
"""Observed Fourier-decay constants for every splitting type up to degree n.

For each sigma and each prime on the ladder the full transform is built
and the scaled off-peak maximum recorded; the printed constant is the
maximum over primes, which the decay bounds predict to be O(1).

Usage: python3 scripts/decay_sweep.py --n 3 --primes 3,5,7,11 --space monic
"""

import argparse
import json

from galcount import fourier


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--primes", default="3,5,7,11")
    ap.add_argument("--space", choices=("monic", "binary"), default="monic")
    args = ap.parse_args()

    primes = [int(t) for t in args.primes.split(",")]
    sigmas = fourier.sigmas_up_to(args.n)
    found = [[] for _ in sigmas]  # one report per prime for each sigma
    for p in primes:
        space = fourier.WeightSpace(args.space, p, args.n)
        for reports, table in zip(found, fourier.fourier_tables(space, sigmas)):
            reports.append(fourier.verify_decay(table))
    for sigma, reports in zip(sigmas, found):
        maxima = [rep["maxNonzeroScaled"] for rep in reports]
        errs = [rep["mainTermError"] for rep in reports]
        regime = reports[-1]["regime"]
        print(
            json.dumps(
                {
                    "sigma": str(sigma),
                    "regime": regime,
                    "observedConstant": max(maxima),
                    "mainTermConstant": max(errs),
                    "perPrimeMax": maxima,
                },
                sort_keys=True,
            )
        )


if __name__ == "__main__":
    main()
