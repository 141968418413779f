"""One timed repeat of a workload, in a fresh interpreter.

    python3 child.py '<json spec>'

The spec names the workload, seed, size, work directory and whether to
trace.  The child imports galcount with numpy and mpmath, notes the
monotonic clock just before the first workload call (the parent started
its set-up clock before spawning), runs the job once under a timer, and
prints one JSON line: the set-up end time, the job time, the item count,
peak RSS and the job's outputs for the parent's checks.  A traced repeat
also writes its spans to the work directory.  A spec with workload
"setup" stops after the imports.

Right before and right after the job the child runs a fixed reference
kernel, which uses no galcount code, for spec["ref_seconds"] each, and
reports its speed in rounds per second.  The parent uses it to divide
out the host's speed drift (see run.py).
"""
import json
import os
import resource
import sys
import time

ROUNDS_PER_CHUNK = 1000


def _reference_chunk(start: int) -> int:
    """A fixed pure-Python kernel: small-integer polynomial products, Horner
    evaluation, dict and tuple work, as in galcount's inner loops but
    independent of it."""
    acc = 0
    counts: dict[int, int] = {}
    for i in range(start, start + ROUNDS_PER_CHUNK):
        coeffs = [(i * 7919 + k * 104729) % 201 - 100 for k in range(6)]
        v = 0
        for x in (2, 3, 5):
            for c in coeffs:
                v = v * x + c
        prod = [0] * 11
        for a, ca in enumerate(coeffs):
            for b, cb in enumerate(coeffs):
                prod[a + b] += ca * cb
        counts[v % 97] = counts.get(v % 97, 0) + 1
        acc ^= hash(tuple(prod))
    return acc


def reference(seconds: float) -> tuple[int, float]:
    """Run the reference kernel for about `seconds`; (rounds, elapsed)."""
    t0 = time.perf_counter()
    rounds = 0
    while True:
        _reference_chunk(rounds)
        rounds += ROUNDS_PER_CHUNK
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return rounds, elapsed


def main() -> None:
    spec = json.loads(sys.argv[1])
    import mpmath  # noqa: F401
    import numpy  # noqa: F401
    from galcount import cli, counting, fourier, galois, permgroup, polyarith, verification  # noqa: F401

    ready = time.monotonic()
    if spec["workload"] == "setup":
        print(json.dumps({"ready": ready}))
        return

    import tracing  # the script's directory is first on sys.path
    import workloads

    recorder = None
    if spec["trace"]:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    job = workloads.JOBS[spec["workload"]]
    rounds_before, ref_before = reference(spec["ref_seconds"])
    t0 = time.perf_counter()
    items, post = job(spec["seed"], spec["size"], spec["work"])
    job_s = time.perf_counter() - t0
    rounds_after, ref_after = reference(spec["ref_seconds"])
    ref_rate = (rounds_before + rounds_after) / (ref_before + ref_after)

    outputs = post()
    spans = None
    if recorder is not None:
        spans = os.path.join(spec["work"], "spans.json")
        recorder.dump(spans)
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    result = {
        "ready": ready,
        "job_s": job_s,
        "ref_rate": ref_rate,
        "items": items,
        "rss_kb": rss_kb,
        "spans": spans,
        "outputs": outputs,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
