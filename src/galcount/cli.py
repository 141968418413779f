"""Batch command-line front end.

Subcommands: count, fourier, group, verify, bound.  Results are written as
JSON lines (one object per result), optionally mirrored to CSV; every
object embeds the run configuration and a format-version field.  Exit
codes: 0 success, 1 usage or configuration error (including an --out,
--csv or --checkpoint path that cannot be written), 2 resource or budget
error, 3 internal invariant failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from fractions import Fraction

from .errors import InternalError, ResourceError, UsageError
from . import counting, fourier, permgroup, verification
from .counting import FORMAT_VERSION
from .galois import transitive_group
from .polyarith import SplittingType


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad rational {text!r}: {e}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise UsageError(f"bad integer list {text!r}")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write `--opt -1,2` as `--opt=-1,2`, since argparse takes a value like
    -1,2 or -1/110 for an option.  Every long option but --help takes a value."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        takes_value = prev.startswith("--") and "=" not in prev and prev != "--help"
        if takes_value and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="galcount", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--out", help="output file for JSON lines (default stdout)")
    common.add_argument("--csv", help="CSV mirror of the JSON-lines output")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized sub-algorithms")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", description="exact E_n(H) ledgers over an H ladder", parents=[common])
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--H", required=True, help="comma-separated ladder, e.g. 10,20,40")
    c.add_argument("--parallelism", type=int, default=1)
    c.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)
    c.add_argument("--checkpoint", help="directory for per-slice checkpoint files")
    c.set_defaults(func=cmd_count)

    f = sub.add_parser("fourier", parents=[common], description="decay reports for weight transforms")
    f.add_argument("--p", required=True, help="comma-separated primes")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--sigma", required=True, help="comma-separated sigmas, parts as f^e joined by spaces")
    f.add_argument("--space", choices=("monic", "binary"), default="monic")
    f.set_defaults(func=cmd_fourier)

    g = sub.add_parser("group", parents=[common], description="order/index report for a catalogue group")
    g.add_argument("--name", help="catalogue name, e.g. M11, C7, A5")
    g.add_argument("--wreath", help="product action spec m=5,k=1,r=2")
    g.set_defaults(func=cmd_group)

    v = sub.add_parser("verify", parents=[common], description="run a named property suite")
    v.add_argument("suite", help=f"one of: {', '.join(sorted(verification.SUITES))}")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bound", parents=[common], description="exponent bound calculator")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--ind", type=int, required=True)
    b.add_argument("--a", required=True, help="rational, e.g. 5/2 or 2.5")
    b.add_argument("--u", default="0", help="rational, e.g. 1/110")
    b.add_argument("--precision", type=int, default=3)
    b.set_defaults(func=cmd_bound)
    return p


def _config_echo(args) -> dict:
    skip = {"func", "out", "csv"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def cmd_count(args) -> list[dict]:
    ladder = _int_list(args.H)
    if not ladder or any(h < 0 for h in ladder):
        raise UsageError("need a nonempty ladder of H >= 0")
    out = []
    counts = []
    for H in ladder:
        result = counting.compute_E(args.n, H, args.parallelism, args.budget, args.checkpoint)
        mode, value = result["mode"], result["value"]
        if mode == "exact":
            counts.append((H, value))
        obj = {
            "formatVersion": FORMAT_VERSION,
            "config": _config_echo(args),
            "type": "ledger",
            "E" if mode == "exact" else "EInterval": value,
            **result["ledger"].to_json(),
        }
        if args.checkpoint:
            obj["slicesComputed"] = result["slicesComputed"]
            if result["slicesComputed"] == 0:
                obj["status"] = "up to date"
        out.append(obj)
    if len(counts) >= 3 and all(h > 0 and c > 0 for h, c in counts):
        fit = counting.exponent_fit(counts)
        out.append(
            {"formatVersion": FORMAT_VERSION, "config": _config_echo(args), "type": "fit", **fit}
        )
    return out


def cmd_fourier(args) -> list[dict]:
    primes = _int_list(args.p)
    if not primes or len(set(primes)) != len(primes):
        raise UsageError("need a nonempty list of distinct primes")
    sigmas = [SplittingType.parse(s) for s in args.sigma.split(",")]
    out = []
    for reports in fourier.decay_reports(args.space, args.n, primes, sigmas):
        trend_ok = not fourier.accelerating([r["maxNonzeroScaled"] for r in reports])
        for rep in reports:
            out.append(
                {
                    "formatVersion": FORMAT_VERSION,
                    "config": _config_echo(args),
                    "type": "decay",
                    "trendBounded": trend_ok,
                    **rep,
                }
            )
    return out


def cmd_group(args) -> list[dict]:
    if bool(args.name) == bool(args.wreath):
        raise UsageError("give exactly one of --name or --wreath")
    if args.name:
        matches = [g for g in permgroup.catalogue() if g.name == args.name]
        if not matches:
            try:
                G = transitive_group(args.name)
            except UsageError:
                known = sorted(g.name for g in permgroup.catalogue())
                raise UsageError(f"unknown group {args.name!r}; catalogue: {', '.join(known)}")
        else:
            G = matches[0]
    else:
        params = {}
        for item in args.wreath.split(","):
            key, _, v = item.partition("=")
            key = key.strip()
            if key not in ("m", "k", "r") or key in params:
                raise UsageError(f"wreath spec takes each of m, k, r once, got {item!r}")
            try:
                params[key] = int(v)
            except ValueError:
                raise UsageError(f"bad wreath component {item!r}")
        missing = {"m", "k", "r"} - set(params)
        if missing:
            raise UsageError(f"wreath spec needs m, k, r (missing {sorted(missing)})")
        spec = permgroup.ProductActionSpec(params["m"], params["k"], params["r"])
        G = permgroup.wreath_product_action(spec)
    entry = permgroup.catalogue_entry(G)
    return [{"formatVersion": FORMAT_VERSION, "config": _config_echo(args), "type": "group", **entry}]


def cmd_verify(args) -> list[dict]:
    report = verification.run_suite(args.suite, seed=args.seed)
    if not report["pass"]:
        raise InternalError(f"suite {args.suite} failed: {report['violations']} violations")
    summary = {k: v for k, v in report.items() if k != "details"}
    return [{"formatVersion": FORMAT_VERSION, "config": _config_echo(args), "type": "verify", **summary}]


def cmd_bound(args) -> list[dict]:
    inp = counting.BoundInputs(n=args.n, ind=args.ind, a=_fraction(args.a), u=_fraction(args.u))
    res = counting.bound_calculator(inp)
    prec = args.precision
    if prec < 0:
        raise UsageError("need --precision >= 0")
    obj = {"formatVersion": FORMAT_VERSION, "config": _config_echo(args), "type": "bound"}
    for key, val in res.items():
        obj[key] = str(val)
        obj[key + "Decimal"] = f"{float(val):.{prec}f}"
    return [obj]


# ---------------------------------------------------------------------------


def _write_outputs(objs, out_fh, csv_fh):
    for o in objs:
        print(json.dumps(o, sort_keys=True), file=out_fh or sys.stdout)
    if csv_fh:
        keys = sorted({k for o in objs for k in o})
        w = csv.DictWriter(csv_fh, fieldnames=keys)
        w.writeheader()
        for o in objs:
            w.writerow({k: json.dumps(o[k], sort_keys=True) if isinstance(o.get(k), (dict, list)) else o.get(k, "") for k in keys})


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
        # open the outputs first, so an unwritable path fails before any work
        with contextlib.ExitStack() as stack:
            out_fh = stack.enter_context(open(args.out, "w")) if args.out else None
            csv_fh = stack.enter_context(open(args.csv, "w", newline="")) if args.csv else None
            _write_outputs(args.func(args), out_fh, csv_fh)
        return 0
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        if e.filename is None:  # not a file the user named
            raise
        print(f"error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return 1
    except ResourceError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
