#!/usr/bin/env python3
"""E_n(H) over a doubling ladder of box sizes, with the fitted exponent.

The non-S_n count should grow like H^(n-1); the slope of the log-log fit
is printed together with the per-ledger breakdown.  The boxes share one
worker Pool, and each row's seconds time its own box.

Usage: python3 scripts/growth_ladder.py --n 3 --ladder 10,20,40,80
       python3 scripts/growth_ladder.py --n 4 --ladder 8,16,32
"""

import argparse
import contextlib
import json
import time

from galcount import counting
from galcount.errors import InsufficientData


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--ladder", default="10,20,40,80")
    ap.add_argument("--parallelism", type=int, default=1)
    args = ap.parse_args()

    points = []
    ladder = [int(t) for t in args.ladder.split(",")]
    t0 = time.perf_counter()
    for out in counting.compute_ladder(args.n, ladder, parallelism=args.parallelism):
        dt = time.perf_counter() - t0
        led = out["ledger"]
        row = {
            "H": led.H,
            "E": out["value"],
            "discZero": led.disc_zero,
            "reducible": led.reducible,
            "perGroup": led.per_group,
            "seconds": round(dt, 2),
        }
        print(json.dumps(row, sort_keys=True))
        if out["mode"] == "exact":
            points.append((led.H, out["value"]))
        t0 = time.perf_counter()

    with contextlib.suppress(InsufficientData):
        fit = counting.exponent_fit(points)
        print(json.dumps({"slope": fit["slope"], "expected": args.n - 1}))


if __name__ == "__main__":
    main()
