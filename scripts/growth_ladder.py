#!/usr/bin/env python3
"""E_n(H) over a doubling ladder of box sizes, with the fitted exponent.

The non-S_n count should grow like H^(n-1); the slope of the log-log fit
is printed together with the per-ledger breakdown.

Usage: python3 scripts/growth_ladder.py --n 3 --ladder 10,20,40,80
       python3 scripts/growth_ladder.py --n 4 --ladder 8,16,32
"""

import argparse
import json
import time

from galcount import counting


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--ladder", default="10,20,40,80")
    ap.add_argument("--parallelism", type=int, default=1)
    args = ap.parse_args()

    points = []
    for H in [int(t) for t in args.ladder.split(",")]:
        t0 = time.time()
        out = counting.compute_E(args.n, H, parallelism=args.parallelism)
        dt = time.time() - t0
        led = out["ledger"]
        row = {
            "H": H,
            "E": out["value"],
            "discZero": led.disc_zero,
            "reducible": led.reducible,
            "perGroup": led.per_group,
            "seconds": round(dt, 2),
        }
        print(json.dumps(row, sort_keys=True))
        if out["mode"] == "exact":
            points.append((H, out["value"]))

    if len(points) >= 3:
        fit = counting.exponent_fit(points)
        print(json.dumps({"slope": fit["slope"], "expected": args.n - 1}))


if __name__ == "__main__":
    main()
