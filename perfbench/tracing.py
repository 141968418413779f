"""Span tracing around galcount's public functions, and the per-layer table.

`install()` wraps each function in WRAPPED.  Modules such as `counting` and
`galois` bind `disc`, `splitting_type` and friends with `from .polyarith
import ...`, so a wrapper must replace the name in every module namespace
that binds it; otherwise calls through that binding go unseen.  Each
binding gets its own wrapper, tagged with the binding module (the "site"),
so calls can be attributed to the module that made them.

Spans are kept in memory as (name, site, start, end, parent, nested, extra)
rows indexed by start order, and written out at the end with `dump()`.
Spans made in Pool children stay in the children and are lost, so the
parallel part of a traced run shows only parent-level spans.

`layer_metrics()` turns the spans of one traced repeat into the per-layer
table.  A span's self time is its duration minus the durations of its
direct child spans.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (home module, attribute) of every wrapped public function
WRAPPED = (
    ("counting", "compute_E"),
    ("counting", "slice_ledger"),
    ("counting", "CountLedger.merge"),
    ("galois", "quartic_group_irreducible"),
    ("galois", "quintic_group_irreducible"),
    ("galois", "quintic_resolvent_sextic"),
    ("galois", "factor_over_Z"),
    ("galois", "sn_certificate"),
    ("polyarith", "disc"),
    ("polyarith", "splitting_type"),
    ("polyarith", "factor_mod_p"),
    ("polyarith", "index_table"),
    ("polyarith", "count_index_completions"),
    ("polyarith", "power_sum_solution_count"),
    ("polyarith", "mahler_measure"),
    ("fourier", "fourier_table"),
    ("fourier", "enumerate_irreducibles"),
    ("fourier", "verify_decay"),
    ("permgroup", "blow_down_index_ratio"),
    ("verification", "verify_prop33"),
    ("verification", "verify_decay"),
    ("verification", "verify_thm25"),
    ("verification", "verify_prop34"),
    ("cli", "main"),
)

# verification suites get one inclusive time each, not the per-call triple
SUITE_SPANS = {f"verification.verify_{s}": s for s in ("prop33", "decay", "thm25", "prop34")}
CALL_FUNCS = [f"{m}.{a}" for m, a in WRAPPED if f"{m}.{a}" not in SUITE_SPANS]
POLY_DEGREES = (3, 4, 5, 6)


# what a span keeps of its call; every caller passes n, H (and a1) positionally
EXTRAS = {
    "counting.compute_E": lambda args, result: [args[0], args[1]],
    "counting.slice_ledger": lambda args, result: [args[0], args[1], args[2]],
    "galois.sn_certificate": lambda args, result: [result.status, len(result.evidence)],
}


class Recorder:
    """In-memory span store of one process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.origin = time.perf_counter()

    def wrap(self, fn, name: str, site: str):
        spans, stack, active = self.spans, self.stack, self.active
        extra_fn = EXTRAS.get(name)
        clock = time.perf_counter
        active.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = active[name] > 0
            active[name] += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                spans[idx] = (name, site, t0, t1, parent, nested, None)
            if extra_fn is not None:
                spans[idx] = (name, site, t0, t1, parent, nested, extra_fn(args, result))
            return result

        return wrapper

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans} | {s[1] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        o = self.origin
        if self.stack:
            raise RuntimeError("spans still open at dump")
        rows = [
            [code[s[0]], code[s[1]], round(s[2] - o, 7), round(s[3] - o, 7), s[4], int(s[5]), s[6]]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def install(recorder: Recorder) -> None:
    """Wrap every WRAPPED function in every galcount namespace that binds it."""
    import galcount  # noqa: F401  (the package must be importable)

    mods = {name: mod for name, mod in sys.modules.items() if name.startswith("galcount") and mod is not None}
    for home, attr in WRAPPED:
        home_mod = sys.modules[f"galcount.{home}"]
        name = f"{home}.{attr}"
        if "." in attr:  # a method: replace it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(home_mod, cls_name)
            setattr(cls, meth, recorder.wrap(getattr(cls, meth), name, home_mod.__name__))
            continue
        original = getattr(home_mod, attr)
        for mod_name, mod in mods.items():
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, recorder.wrap(original, name, mod_name))


# ---------------------------------------------------------------------------
# Analysis


def load(path: str) -> list[tuple]:
    with open(path) as fh:
        data = json.load(fh)
    names = data["names"]
    return [(names[r[0]], names[r[1]], r[2], r[3], r[4], bool(r[5]), r[6]) for r in data["spans"]]


def layer_metrics(spans: list[tuple], outputs: dict) -> dict[str, float]:
    """The per-layer table of one traced repeat.

    `outputs` holds the repeat's job outputs, for the checkpoint directory
    counts of ladder_ckpt.
    """
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    for i, s in enumerate(spans):
        name, dur = s[0], s[3] - s[2]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        if not s[5]:
            incl[name] = incl.get(name, 0.0) + dur

    m: dict[str, float] = {}
    for f in CALL_FUNCS:
        c = calls.get(f, 0)
        m[f"{f}.calls"] = c
        m[f"{f}.self_s"] = self_s.get(f, 0.0)
        m[f"{f}.us_per_call"] = incl.get(f, 0.0) / c * 1e6 if c else 0.0

    boxes = [(s[6][0], s[6][1], s[3] - s[2]) for s in spans if s[0] == "counting.compute_E" and not s[5]]
    polys = 0
    for deg in POLY_DEGREES:
        p = sum((2 * H + 1) ** deg for d, H, _ in boxes if d == deg)
        t = sum(dt for d, _, dt in boxes if d == deg)
        m[f"counting.compute_E.n{deg}.polys_per_s"] = p / t if t else 0.0
        polys += p

    groups: dict[tuple, list[float]] = {}
    for s in spans:
        if s[0] == "counting.slice_ledger":
            groups.setdefault((s[6][0], s[6][1]), []).append(s[3] - s[2])
    if groups:
        heaviest = max(groups.values(), key=sum)
        m["counting.slice_ledger.max_s"] = max(heaviest)
        m["counting.slice_ledger.imbalance"] = max(heaviest) / (sum(heaviest) / len(heaviest))
    else:
        m["counting.slice_ledger.max_s"] = 0.0
        m["counting.slice_ledger.imbalance"] = 0.0

    mains = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    m["counting.par2_efficiency"] = 0.0
    m["cli.checkpoint.resume_s"] = 0.0
    if len(mains) == 3:  # ladder_ckpt: parallel, cold checkpoint, resume
        top = {}
        for i, s in enumerate(spans):
            j = i
            while spans[j][4] >= 0:
                j = spans[j][4]
            top[i] = j
        par = sum(s[3] - s[2] for i, s in enumerate(spans) if s[0] == "counting.compute_E" and top[i] == mains[0])
        serial = sum(s[3] - s[2] for i, s in enumerate(spans) if s[0] == "counting.slice_ledger" and top[i] == mains[1])
        m["counting.par2_efficiency"] = serial / (2 * par) if par else 0.0
        m["cli.checkpoint.resume_s"] = spans[mains[2]][3] - spans[mains[2]][2]
    m["cli.checkpoint.files_written"] = outputs.get("ckptFiles", 0)
    m["cli.checkpoint.bytes_written"] = outputs.get("ckptBytes", 0)

    quintic = calls.get("galois.quintic_group_irreducible", 0)
    resolvent = calls.get("galois.quintic_resolvent_sextic", 0)
    m["galois.quintic.shortcut_ratio"] = 1 - resolvent / quintic if quintic else 0.0
    certs = [s[6] for s in spans if s[0] == "galois.sn_certificate" and s[6] is not None]
    m["galois.sn_certificate.certified_ratio"] = (
        sum(1 for st, _ in certs if st == "certifiedSn") / len(certs) if certs else 0.0
    )
    m["galois.sn_certificate.primes_per_call"] = sum(k for _, k in certs) / len(certs) if certs else 0.0
    m["polyarith.splitting_type.per_poly"] = calls.get("polyarith.splitting_type", 0) / polys if polys else 0.0

    for span_name, suite in SUITE_SPANS.items():
        m[f"verification.{suite}.s"] = incl.get(span_name, 0.0)
    return m


def counting_disc_calls(spans: list[tuple]) -> list[tuple[int, int, int]]:
    """(n, H, disc calls made from counting) for each compute_E box with n >= 5.

    The degree 5-7 slice counters call `disc` once per polynomial through
    counting's own binding, so each count must equal (2H+1)^n.
    """
    per_box: dict[int, int] = {}
    for s in spans:
        if s[0] == "polyarith.disc" and s[1] == "galcount.counting":
            j = s[4]
            while j >= 0 and spans[j][0] != "counting.compute_E":
                j = spans[j][4]
            per_box[j] = per_box.get(j, 0) + 1
    out = []
    for i, s in enumerate(spans):
        if s[0] == "counting.compute_E" and s[6][0] >= 5:
            out.append((s[6][0], s[6][1], per_box.get(i, 0)))
    return out


def metric_units() -> dict[str, tuple[str, str]]:
    """Name -> (unit, better) of every per-layer metric, in table order."""
    u: dict[str, tuple[str, str]] = {}
    for f in CALL_FUNCS:
        u[f"{f}.calls"] = ("count", "lower")
        u[f"{f}.self_s"] = ("s", "lower")
        u[f"{f}.us_per_call"] = ("us", "lower")
    for deg in POLY_DEGREES:
        u[f"counting.compute_E.n{deg}.polys_per_s"] = ("1/s", "higher")
    u["counting.slice_ledger.max_s"] = ("s", "lower")
    u["counting.slice_ledger.imbalance"] = ("ratio", "lower")
    u["counting.par2_efficiency"] = ("ratio", "higher")
    u["galois.quintic.shortcut_ratio"] = ("ratio", "higher")
    u["galois.sn_certificate.certified_ratio"] = ("ratio", "higher")
    u["galois.sn_certificate.primes_per_call"] = ("count", "lower")
    u["polyarith.splitting_type.per_poly"] = ("count", "lower")
    for suite in SUITE_SPANS.values():
        u[f"verification.{suite}.s"] = ("s", "lower")
    u["cli.checkpoint.files_written"] = ("count", "lower")
    u["cli.checkpoint.bytes_written"] = ("bytes", "lower")
    u["cli.checkpoint.resume_s"] = ("s", "lower")
    u["trace.overhead_frac"] = ("ratio", "lower")
    return u
