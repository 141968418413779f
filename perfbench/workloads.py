"""Workload definitions: the job each repeat times, and its inputs.

A job runs in a fresh interpreter (see child.py) and drives galcount only
through its public functions and the `galcount` CLI entry point.  Each job
returns (items, post): the number of work items it completed and a
function, called after the timer stops, that collects the raw outputs
checks.py compares with the pinned anchors.

Two sizes exist: "full" is what the benchmark measures, "tiny" is the
seconds-long variant the self-test uses.
"""
from __future__ import annotations

import json
import os
import random

WORKLOADS = ("quartic_box", "highdeg_box", "suites", "ladder_ckpt")

# (n, H) boxes computed serially with counting.compute_E
BOXES = {
    "quartic_box": {"full": [(4, 9)], "tiny": [(4, 2)]},
    "highdeg_box": {"full": [(5, 2), (6, 1)], "tiny": [(5, 1)]},
}

# `galcount count --n 3 --H <ladder>`, run three ways
LADDER = {"full": (10, 20, 40, 80), "tiny": (2, 4, 8)}

# explicit arguments for the verification suites
SUITE_ARGS = {
    "full": {
        "prop33": {"ps": (7,), "ns": (3, 4, 5)},
        "decay": {"ns": (3, 4), "ps": (3, 5, 7)},
        "thm25": True,
        "prop34_samples": 40,
        "mahler_polys": 1000,
    },
    "tiny": {
        "prop33": {"ps": (5,), "ns": (3,)},
        "decay": {"ns": (3,), "ps": (3, 5, 7)},
        "thm25": False,  # takes seconds and has no size arguments
        "prop34_samples": 2,
        "mahler_polys": 20,
    },
}

MAHLER_TOL = 1e-6


def boxes_of(workload: str, size: str) -> list[tuple[int, int]]:
    """Every (n, H) box whose ledger the workload emits."""
    if workload in BOXES:
        return BOXES[workload][size]
    if workload == "ladder_ckpt":
        return [(3, H) for H in LADDER[size]]
    return []


def mahler_inputs(seed: int, count: int) -> list[tuple[int, ...]]:
    """Seeded sweep drawn like acceptance criterion 10: degree 1..8, |a_i| <= 100."""
    rng = random.Random(f"mahler-{seed}")
    out = []
    while len(out) < count:
        n = rng.randrange(1, 9)
        coeffs = tuple(rng.randrange(-100, 101) for _ in range(n))
        if any(coeffs):
            out.append(coeffs)
    return out


def ladder_argvs(size: str, work: str) -> list[list[str]]:
    """The three CLI invocations of ladder_ckpt: parallel, cold checkpoint, resume."""
    base = ["count", "--n", "3", "--H", ",".join(map(str, LADDER[size]))]
    ck = os.path.join(work, "ckpt")
    return [
        base + ["--parallelism", "2", "--out", os.path.join(work, "par.jsonl"), "--csv", os.path.join(work, "par.csv")],
        base + ["--checkpoint", ck, "--out", os.path.join(work, "cold.jsonl")],
        base + ["--checkpoint", ck, "--out", os.path.join(work, "resume.jsonl")],
    ]


# ---------------------------------------------------------------------------
# Jobs.  Each takes (seed, size, work) and returns (items, post).


def _box_job(workload):
    def job(seed, size, work):
        from galcount import counting

        ledgers = []
        for n, H in BOXES[workload][size]:
            res = counting.compute_E(n, H)
            ledgers.append(res["ledger"])
        items = sum(led.total for led in ledgers)

        def post():
            return {"ledgers": [led.to_json() for led in ledgers]}

        return items, post

    return job


def _suites_job(seed, size, work):
    from galcount import polyarith, verification

    args = SUITE_ARGS[size]
    reports = [
        verification.verify_prop33(**args["prop33"]),
        verification.verify_decay(**args["decay"]),
        verification.verify_prop34(seed=seed, samples=args["prop34_samples"]),
    ]
    if args["thm25"]:
        reports.append(verification.verify_thm25())
    polys = mahler_inputs(seed, args["mahler_polys"])
    measures = [polyarith.mahler_measure(polyarith.MonicIntPoly(c), tol=MAHLER_TOL) for c in polys]
    items = sum(r["checked"] for r in reports) + len(measures)

    def post():
        summaries = [{k: v for k, v in r.items() if k != "details"} for r in reports]
        return {"suites": summaries, "mahler": measures}

    return items, post


def _ladder_job(seed, size, work):
    from galcount import cli

    codes = [cli.main(argv) for argv in ladder_argvs(size, work)]
    items = len(codes) * sum((2 * H + 1) ** 3 for H in LADDER[size])

    def post():
        runs = []
        for name in ("par", "cold", "resume"):
            path = os.path.join(work, f"{name}.jsonl")
            if os.path.exists(path):
                with open(path) as fh:
                    runs.append([json.loads(line) for line in fh if line.strip()])
            else:
                runs.append([])
        csv_path = os.path.join(work, "par.csv")
        csv_rows = 0
        if os.path.exists(csv_path):
            with open(csv_path) as fh:
                csv_rows = sum(1 for _ in fh) - 1
        ck = os.path.join(work, "ckpt")
        names = os.listdir(ck) if os.path.isdir(ck) else []
        return {
            "codes": codes,
            "runs": runs,
            "csvRows": csv_rows,
            "ckptFiles": len(names),
            "ckptBytes": sum(os.path.getsize(os.path.join(ck, f)) for f in names),
        }

    return items, post


JOBS = {
    "quartic_box": _box_job("quartic_box"),
    "highdeg_box": _box_job("highdeg_box"),
    "suites": _suites_job,
    "ladder_ckpt": _ladder_job,
}
