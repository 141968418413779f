"""galcount benchmark.

    python3 perfbench/run.py --workload quartic_box --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and measures the galcount source under
src/.  Each timed repeat runs in a fresh interpreter (child.py), so the
lazy caches are filled again as in every CLI invocation a user makes.
Repeats continue, at least three of them, until the next one would end
after --seconds.  --trace 1 alternates untraced and traced repeats and
reports the per-layer table instead of the end-to-end metrics.

Times are reported at reference host speed.  The shared host's speed
drifts by tens of percent over minutes, so every repeat runs a fixed
reference kernel, which uses no galcount code, right before and after
its job (child.py), each time for REF_SHARE of the previous job's time
but at least MIN_REF_SECONDS.  A
repeat's speed is the kernel's rate over REFERENCE_RATE; its throughput
is divided by that speed, and set-up times are multiplied by the run's
median speed.  The unscaled figures are in the run-information line.

Correctness is checked after the timed loop: every repeat's outputs
against anchors.json, plus a seeded sample reclassified by sympy.  Two
JSON lines go to stdout: run information (machine, commit, samples), then
the result object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --golden

checks the ROADMAP golden ledgers (slow: about a minute and a half).
"""
from __future__ import annotations

import os

# set before numpy is imported anywhere: mahler_measure calls np.roots
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}
SETUP_PROBES = 10
# reference-kernel rounds per second that define reference host speed; a
# fixed scale (the baseline's 2-vCPU Xeon ran at 0.74-0.88 of it)
REFERENCE_RATE = 125_000.0
REF_SHARE = 0.15
MIN_REF_SECONDS = 0.5
MIN_REPEATS = {"full": 2, "tiny": 1}
ORACLE_PER_BOX = {"full": 20, "tiny": 4}
CHILD_TIMEOUT = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(spec: dict) -> dict:
    """Run child.py once; returns its result with setup_s filled in."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(spec)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except BaseException as exc:  # timeout, or SIGTERM/SIGINT while waiting
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and any Pool workers
        except ProcessLookupError:  # the group has already exited
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{spec['workload']} repeat exceeded {CHILD_TIMEOUT} s") from exc
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{spec['workload']} repeat exited {proc.returncode}:\n{err[-3000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t_spawn
    return res


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import mpmath
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpuModel": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "loadavg": list(os.getloadavg()),
        "threadEnv": THREAD_ENV,
        "commit": git_commit(),
    }


def measure(args, work: str) -> tuple[list[dict], list[dict]]:
    """The timed loop: setup probes, then repeats until the time is used."""
    setups = [spawn({"workload": "setup"}) for _ in range(SETUP_PROBES)]
    modes = (False, True) if args.trace else (False,)
    min_units = 1 if args.trace else MIN_REPEATS[args.size]
    repeats: list[dict] = []
    t_start = time.monotonic()
    units = 0
    min_ref = MIN_REF_SECONDS if args.size == "full" else 0.01
    ref_seconds = min_ref
    while True:
        for traced in modes:
            rep_work = os.path.join(work, f"r{len(repeats)}")
            os.makedirs(rep_work)
            spec = {
                "workload": args.workload,
                "seed": args.seed,
                "size": args.size,
                "work": rep_work,
                "trace": traced,
                "ref_seconds": ref_seconds,
            }
            res = spawn(spec)
            res["traced"] = traced
            if traced:
                spans = tracing.load(res["spans"])
                res["layers"] = tracing.layer_metrics(spans, res["outputs"])
                res["discCalls"] = tracing.counting_disc_calls(spans)
                del spans
            shutil.rmtree(rep_work)
            setups.append(res)
            repeats.append(res)
            ref_seconds = max(min_ref, REF_SHARE * res["job_s"])
        units += 1
        elapsed = time.monotonic() - t_start
        if units >= min_units and elapsed + elapsed / units > args.seconds:
            return repeats, setups


def run_checks(args, repeats: list[dict]) -> tuple[checks.Tally, int]:
    anchors = checks.load_anchors(args.anchors)
    t = checks.Tally()
    for res in repeats:
        checks.check_outputs(t, args.workload, args.size, args.seed, res["outputs"], anchors)
        for n, H, calls in res.get("discCalls", ()):
            t.check(calls == (2 * H + 1) ** n, f"trace: {calls} disc calls from counting in compute_E({n}, {H})")
    sampled = checks.oracle(t, args.workload, args.size, args.seed, ORACLE_PER_BOX[args.size])
    return t, sampled


def median(xs):
    return statistics.median(xs) if xs else 0.0


def speed(res: dict) -> float:
    """Host speed during a repeat, relative to reference host speed."""
    return res["ref_rate"] / REFERENCE_RATE


def metrics_of(args, repeats, setups, tally) -> dict:
    plain = [r for r in repeats if not r["traced"]]
    if not args.trace:
        values = {
            "items_per_s": median([r["items"] / r["job_s"] / speed(r) for r in plain]),
            "setup_s": median([s["setup_s"] for s in setups]) * median([speed(r) for r in repeats]),
            "peak_rss_mb": median([r["rss_kb"] / 1024 for r in plain]),
            "pass_frac": 1 - len(tally.failures) / tally.attempted,
        }
        return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    traced = [r for r in repeats if r["traced"]]
    units = tracing.metric_units()
    values = {k: median([r["layers"][k] for r in traced]) for k in units if k != "trace.overhead_frac"}
    values["trace.overhead_frac"] = (
        median([r["job_s"] * speed(r) for r in traced]) / median([r["job_s"] * speed(r) for r in plain]) - 1
    )
    return {k: {"value": values[k], "unit": units[k][0]} for k in units}


def golden(args) -> int:
    """Recompute the ROADMAP golden boxes and compare (opt-in, slow)."""
    from galcount import counting

    g = checks.load_anchors(args.anchors)["golden"]
    t = checks.Tally()
    seconds = {}
    for key, want in g.items():
        n, H = (int(p[1:]) for p in key.split("_"))
        t0 = time.perf_counter()
        led = counting.compute_E(n, H)["ledger"].to_json()
        seconds[key] = time.perf_counter() - t0
        lo, hi = checks.interval(led)
        if "interval" in want:
            alo, ahi = want["interval"]
            t.check(alo <= lo <= hi <= ahi, f"golden {key}: [{lo}, {hi}] not inside [{alo}, {ahi}]")
        else:
            got = {"E": lo, **{k: led[k] for k in want if k != "E"}}
            t.check(got == want, f"golden {key}: {got} != {want}")
    for msg in t.failures:
        print(msg, file=sys.stderr)
    print(json.dumps({"correct": not t.failures, "attempted": t.attempted, "failed": len(t.failures), "seconds": seconds}))
    return 0 if not t.failures else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: seconds-long boxes for the self-test")
    p.add_argument("--anchors", default=checks.ANCHORS, help="anchor file (default: anchors.json here)")
    p.add_argument("--golden", action="store_true", help="check the ROADMAP golden ledgers and exit")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "galcount", "__init__.py")):
        print(f"error: no galcount sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import galcount
    from galcount import cli, counting, fourier, galois, permgroup, polyarith, verification  # noqa: F401

    if not os.path.abspath(galcount.__file__).startswith(SRC + os.sep):
        print(f"error: galcount imported from {galcount.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.golden:
        return golden(args)
    if args.workload is None:
        p.error("--workload is required")

    # SIGTERM unwinds like Ctrl-C, so children are killed and the work dir removed
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    info = machine_info()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        repeats, setups = measure(args, work)
        tally, sampled = run_checks(args, repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    metrics = metrics_of(args, repeats, setups, tally)
    for msg in tally.failures[:50]:
        print(f"check failed: {msg}", file=sys.stderr)
    info.update(
        workload=args.workload,
        seed=args.seed,
        size=args.size,
        trace=args.trace,
        repeats=len(repeats),
        jobSeconds=[round(r["job_s"], 4) for r in repeats],
        setupSeconds=[round(s["setup_s"], 4) for s in setups],
        hostSpeed=[round(speed(r), 4) for r in repeats],
        unscaledItemsPerS=median([r["items"] / r["job_s"] for r in repeats if not r["traced"]]),
        unscaledSetupS=median([s["setup_s"] for s in setups]),
        items=[r["items"] for r in repeats],
        oracleSample=sampled,
        failures=tally.failures[:20],
    )
    print(json.dumps({"run": info}))
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
