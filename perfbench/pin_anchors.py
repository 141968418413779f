"""Regenerate anchors.json from the galcount sources under src/.

    python3 perfbench/pin_anchors.py

Pins every ledger the workloads emit (both sizes), the ladder fits and the
check counts of the unseeded suites.  The "golden" section holds the
ROADMAP table and is carried over unchanged.  Run it only on a commit
whose outputs are trusted: the anchors are regression anchors, not proofs.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from galcount import counting, verification  # noqa: E402

import checks  # noqa: E402
from workloads import LADDER, SUITE_ARGS, WORKLOADS, boxes_of  # noqa: E402


def main() -> None:
    old = checks.load_anchors() if os.path.exists(checks.ANCHORS) else {}
    boxes = sorted({box for w in WORKLOADS for size in ("full", "tiny") for box in boxes_of(w, size)})
    ledgers = {checks.box_key(n, H): counting.compute_E(n, H)["ledger"].to_json() for n, H in boxes}
    fits = {}
    for ladder in LADDER.values():
        counts = [(H, checks.interval(ledgers[checks.box_key(3, H)])[0]) for H in ladder]
        fits[",".join(map(str, ladder))] = counting.exponent_fit(counts)
    suites = {}
    for size, args in SUITE_ARGS.items():
        suites[size] = {
            "prop33": verification.verify_prop33(**args["prop33"])["checked"],
            "decay": verification.verify_decay(**args["decay"])["checked"],
        }
        if args["thm25"]:
            suites[size]["thm25"] = verification.verify_thm25()["checked"]
    out = {"ledgers": ledgers, "fits": fits, "suites": suites, "golden": old.get("golden", {})}
    with open(checks.ANCHORS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
