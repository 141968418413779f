"""Command-line interface: outputs, exit codes, checkpointing, CSV mirror."""

import csv
import hashlib
import json
import multiprocessing
import os
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from galcount import cli
from galcount import counting as ct
from galcount.errors import InternalError


def run(argv, tmp_path, name="out.jsonl", extra=()):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out), *extra])
    lines = []
    if out.exists():
        with open(out) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    return code, lines


# ---------------------------------------------------------------------------
# count


def test_count_E2(tmp_path):
    code, objs = run(["count", "--n", "2", "--H", "1"], tmp_path)
    assert code == 0
    assert objs[0]["E"] == 4
    assert objs[0]["formatVersion"] == 1
    assert objs[0]["config"]["n"] == 2


def test_count_ladder_emits_fit(tmp_path):
    code, objs = run(["count", "--n", "2", "--H", "2,4,8"], tmp_path)
    assert code == 0
    kinds = [o["type"] for o in objs]
    assert kinds == ["ledger", "ledger", "ledger", "fit"]
    assert 0.5 <= objs[-1]["slope"] <= 1.5  # E_2(H) grows like H


@pytest.mark.parametrize("ladder", ["2,2,2", "2,4,2,4"])
def test_count_fit_needs_three_distinct_heights(tmp_path, ladder):
    code, objs = run(["count", "--n", "3", "--H", ladder], tmp_path)
    assert code == 0
    assert [o["type"] for o in objs] == ["ledger"] * len(ladder.split(","))


def test_count_interval_degree6(tmp_path):
    code, objs = run(["count", "--n", "6", "--H", "1"], tmp_path)
    assert code == 0
    lo, hi = objs[0]["EInterval"]
    assert 0 <= lo <= hi


def test_count_budget_exit_2(tmp_path):
    assert cli.main(["count", "--n", "9", "--H", "10"]) == 2


def test_count_past_the_int64_proof_exit_2(tmp_path, capsys):
    """A cubic box beyond the int64 proof of its discriminants, and a
    quartic one beyond that of its discriminants and resolvent values, are
    refused even with a budget that admits them: exit 2, no traceback, no
    checkpoint directory and no slice array (a slice of the cubic box holds
    3.8e9 entries)."""
    for n, H, budget in [(3, 30989, 10**15), (4, 404, 10**12)]:
        ckpt = tmp_path / f"ckpt{n}"
        tracemalloc.start()
        try:
            code = cli.main(["count", "--n", str(n), "--H", str(H), "--budget", str(budget), "--checkpoint", str(ckpt)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("resource error: ") and "Traceback" not in err, n
        assert not ckpt.exists()
        assert peak < 2**20


def test_count_bad_ladder_exit_1(tmp_path, capsys):
    assert cli.main(["count", "--n", "3", "--H", "abc"]) == 1
    # a ladder that starts with a minus is a value, not an option
    for ladder in (["--H", "-1,2"], ["--H=-1,2"]):
        capsys.readouterr()
        assert cli.main(["count", "--n", "3", *ladder]) == 1
        assert capsys.readouterr().err == "error: need a nonempty ladder of H >= 0\n"


def test_count_checkpoint_idempotent(tmp_path):
    ck = tmp_path / "ck"
    args = ["count", "--n", "3", "--H", "2", "--checkpoint", str(ck)]
    code, objs = run(args, tmp_path, "a.jsonl")
    assert code == 0 and objs[0]["slicesComputed"] == 5
    files = sorted(os.listdir(ck))
    assert len(files) == 5 and all(f.endswith(".json") for f in files)
    code, objs = run(args, tmp_path, "b.jsonl")
    assert code == 0 and objs[0]["slicesComputed"] == 0
    assert objs[0]["status"] == "up to date"


def test_count_checkpoint_matches_direct(tmp_path):
    ck = tmp_path / "ck"
    code, ck_objs = run(["count", "--n", "3", "--H", "2", "--checkpoint", str(ck)], tmp_path, "a.jsonl")
    code2, objs = run(["count", "--n", "3", "--H", "2"], tmp_path, "b.jsonl")
    assert code == code2 == 0
    for key in ("E", "total", "discZero", "reducible", "perGroup", "checksum"):
        assert ck_objs[0][key] == objs[0][key]


def test_count_checkpoint_parallel_matches_serial(tmp_path):
    ledgers, trees = [], []
    for workers in ("1", "2"):
        ck = tmp_path / f"ck{workers}"
        argv = ["count", "--n", "3", "--H", "4", "--checkpoint", str(ck), "--parallelism", workers]
        code, objs = run(argv, tmp_path, f"p{workers}.jsonl")
        assert code == 0 and objs[0]["slicesComputed"] == 9
        ledgers.append({k: v for k, v in objs[0].items() if k != "config"})
        trees.append({f: (ck / f).read_bytes() for f in os.listdir(ck)})
    assert ledgers[0] == ledgers[1]
    assert len(trees[0]) == 9 and trees[0] == trees[1]


def test_count_checkpoint_damaged_slices_recomputed(tmp_path):
    ck = tmp_path / "ck"
    argv = ["count", "--n", "3", "--H", "4", "--checkpoint", str(ck)]
    assert run(argv, tmp_path, "a.jsonl")[0] == 0
    raised = ck / "count_n3_H4_a1+0.json"
    rec = json.loads(raised.read_text())
    rec["ledger"]["total"] += 1000
    rec["ledger"]["perGroup"]["S3"] += 1000
    raised.write_text(json.dumps(rec, sort_keys=True))
    truncated = ck / "count_n3_H4_a1-2.json"
    truncated.write_text(truncated.read_text()[:40])
    code, objs = run([*argv, "--parallelism", "2"], tmp_path, "b.jsonl")
    assert code == 0 and objs[0]["slicesComputed"] == 2
    _, direct = run(argv[:5], tmp_path, "c.jsonl")
    drop = ("config", "slicesComputed", "status")
    assert {k: v for k, v in objs[0].items() if k not in drop} == {k: v for k, v in direct[0].items() if k != "config"}


def test_count_parallel_ledger_bytes_identical(tmp_path):
    payloads = []
    for workers in ("1", "4"):
        _, objs = run(
            ["count", "--n", "3", "--H", "5", "--parallelism", workers],
            tmp_path,
            f"p{workers}.jsonl",
        )
        obj = {k: v for k, v in objs[0].items() if k != "config"}
        payloads.append(json.dumps(obj, sort_keys=True).encode())
    assert payloads[0] == payloads[1]


def _record_pools(monkeypatch):
    """Pool sizes as they are made, and the number made when each box starts."""
    made, at_box = [], []
    Pool, compute_E = ct.Pool, ct.compute_E
    monkeypatch.setattr(ct, "Pool", lambda processes: made.append(processes) or Pool(processes))
    monkeypatch.setattr(ct, "compute_E", lambda *args: at_box.append(len(made)) or compute_E(*args))
    return made, at_box


def test_count_ladder_leaves_no_worker_running(tmp_path, monkeypatch):
    """A ladder at --parallelism 2 makes its one Pool in the first box (H =
    40 has 4 runs) and ends it whether the ladder succeeds, a later box is
    refused (exit 2) or a later box fails in a worker (exit 3)."""
    monkeypatch.setattr(ct, "_cpus", lambda: 2)
    made, at_box = _record_pools(monkeypatch)
    counter = ct._ARRAY_COUNTERS[3]

    def failing(H, a1):
        if H == 80:
            raise InternalError("planted failure")
        return counter(H, a1)

    monkeypatch.setitem(ct._ARRAY_COUNTERS, 3, failing)
    ladder = ["count", "--n", "3", "--H", "40,40,80", "--parallelism", "2"]
    for argv, code in [
        (ladder[:4] + ["40,40"] + ladder[5:], 0),
        (ladder + ["--budget", str(10**6)], 2),
        (ladder, 3),
    ]:
        made.clear()
        at_box.clear()
        assert cli.main([*argv, "--out", str(tmp_path / "out.jsonl")]) == code, argv
        assert made == [2] and at_box[:2] == [0, 1], argv
        assert multiprocessing.active_children() == [], argv
    # a repeated box reads the slices the box before it stored
    ck = str(tmp_path / "ck")
    code, objs = run(ladder[:4] + ["40,40"] + ladder[5:] + ["--checkpoint", ck], tmp_path)
    assert code == 0 and [o["slicesComputed"] for o in objs] == [81, 0] and objs[1]["status"] == "up to date"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n, ladder", [(3, "10,20,40"), (5, "1,2")])
def test_count_ladder_bytes_identical_across_parallelism(tmp_path, monkeypatch, n, ladder):
    """Plain, with a cold checkpoint and resumed after every other slice file
    is deleted, a ladder gives the same ledger lines (but for its config)
    and slice files at --parallelism 1 and 2, and makes at most one Pool."""
    made, _ = _record_pools(monkeypatch)
    digests = {}
    for workers in ("1", "2"):
        ck = tmp_path / f"ck{workers}"
        argv = ["count", "--n", str(n), "--H", ladder, "--parallelism", workers]
        for mode, extra in [("plain", []), ("cold", ["--checkpoint", str(ck)]), ("resumed", ["--checkpoint", str(ck)])]:
            if mode == "resumed":
                for name in sorted(os.listdir(ck))[::2]:
                    os.unlink(ck / name)
            made.clear()
            code, objs = run([*argv, *extra], tmp_path, f"{mode}{workers}.jsonl")
            assert code == 0 and len(made) <= 1 and multiprocessing.active_children() == []
            lines = [json.dumps({k: v for k, v in o.items() if k != "config"}, sort_keys=True) for o in objs]
            files = sorted((f, (ck / f).read_bytes()) for f in os.listdir(ck)) if extra else []
            digests[workers, mode] = hashlib.sha256(repr((lines, files)).encode()).hexdigest()
    for mode in ("plain", "cold", "resumed"):
        assert digests["1", mode] == digests["2", mode], mode


def test_count_checkpoint_degree_checked_first(tmp_path):
    ck = tmp_path / "ck"
    assert cli.main(["count", "--n", "1", "--H", "1", "--checkpoint", str(ck)]) == 1
    assert not ck.exists()


def test_csv_mirror(tmp_path):
    out = tmp_path / "o.jsonl"
    mirror = tmp_path / "o.csv"
    code = cli.main(["count", "--n", "2", "--H", "1", "--out", str(out), "--csv", str(mirror)])
    assert code == 0
    with open(mirror) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and rows[0]["E"] == "4"


# ---------------------------------------------------------------------------
# group


def test_group_m11(tmp_path):
    code, objs = run(["group", "--name", "M11"], tmp_path)
    assert code == 0
    assert objs[0]["order"] == 7920 and objs[0]["ind"] == 4


def test_group_from_exact_table(tmp_path):
    code, objs = run(["group", "--name", "F20"], tmp_path)
    assert code == 0
    assert objs[0]["order"] == 20 and objs[0]["degree"] == 5


def test_group_wreath(tmp_path):
    code, objs = run(["group", "--wreath", "m=5,k=1,r=2"], tmp_path)
    assert code == 0
    assert objs[0]["degree"] == 25 and objs[0]["ind"] == 5 and objs[0]["primitive"]


def test_group_usage_errors(tmp_path):
    assert cli.main(["group"]) == 1
    assert cli.main(["group", "--name", "Nope"]) == 1
    assert cli.main(["group", "--wreath", "m=5"]) == 1


def test_group_wreath_too_large_refused_before_closure():
    # 933,120 elements of degree 243, 50,803,200 of degree 49, and 17! of
    # degree C(17, 8) = 24,310, whose generators need no table of 17^8 entries
    for spec in ("m=3,k=1,r=5", "m=7,k=1,r=2", "m=17,k=8,r=1"):
        start = time.perf_counter()
        assert cli.main(["group", "--wreath", spec]) == 2
        assert time.perf_counter() - start < 5


# ---------------------------------------------------------------------------
# fourier


def test_fourier_reports(tmp_path):
    code, objs = run(
        ["fourier", "--p", "3,5,7", "--n", "3", "--sigma", "1^2"], tmp_path
    )
    assert code == 0
    assert len(objs) == 3
    for o in objs:
        assert o["parsevalGap"] <= 1e-9
        assert o["trendBounded"]


def test_fourier_bad_sigma_exit_1(tmp_path):
    assert cli.main(["fourier", "--p", "5", "--n", "3", "--sigma", "0^9"]) == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_fmky(tmp_path):
    code, objs = run(["verify", "fmky"], tmp_path)
    assert code == 0
    assert objs[0]["pass"] and objs[0]["violations"] == 0


def test_verify_unknown_suite(tmp_path):
    assert cli.main(["verify", "nosuch"]) == 1


# ---------------------------------------------------------------------------
# bound


def test_bound_cor18(tmp_path):
    code, objs = run(
        ["bound", "--n", "11", "--ind", "4", "--a", "5/2", "--u", "1/110"], tmp_path
    )
    assert code == 0
    assert abs(float(objs[0]["chosenExpDecimal"]) - 8.686) <= 5e-3


def test_bound_accepts_decimal_rational(tmp_path):
    code, objs = run(["bound", "--n", "11", "--ind", "4", "--a", "2.5", "--u", "1/110"], tmp_path)
    assert code == 0


def test_bound_bad_rational_exit_1(tmp_path):
    assert cli.main(["bound", "--n", "4", "--ind", "2", "--a", "x/y"]) == 1


# ---------------------------------------------------------------------------
# exit codes


def test_bad_values_and_paths_exit_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in [
        ["bound", "--n", "4", "--ind", "2", "--a", "1", "--precision", "-1"],
        ["group", "--wreath", "m=5,k=x,r=2"],
        # an unknown or a repeated key is refused, not ignored or overwritten
        ["group", "--wreath", "m=5,k=1,r=2,x=9"],
        ["group", "--wreath", "m=5,k=1,r=2,m=4"],
        # an empty prime list would print nothing, and a repeated prime would
        # judge the trend of identical reports
        ["fourier", "--p", ",", "--n", "3", "--sigma", "1"],
        ["fourier", "--p", "5,5", "--n", "3", "--sigma", "1"],
        ["count", "--n", "2", "--H", "1", "--out", "/nonexistent/x"],
        ["count", "--n", "2", "--H", "1", "--csv", "/nonexistent/x"],
        ["count", "--n", "3", "--H", "2", "--parallelism", "0"],
        ["count", "--n", "3", "--H", "2", "--parallelism", "-2"],
        # a checkpoint directory is made with its parents, so one that
        # cannot be made lies under a regular file
        ["count", "--n", "2", "--H", "1", "--checkpoint", str(blocker / "ck")],
        ["count", "--n", "2", "--H", "1", "--checkpoint", str(blocker)],
    ]:
        capsys.readouterr()
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
        # an unwritable output path fails before anything is counted or printed
        assert captured.out == "", (argv, captured.out)
        if argv[-2] in ("--out", "--csv", "--checkpoint"):
            assert argv[-1] in err[0]


_INT = st.sampled_from([str(i) for i in range(-3, 9)] + ["x", ""])
_DEGREE = st.sampled_from([str(n) for n in range(2, 8)] * 2 + ["-1", "0", "1", "8", "x", ""])
_LADDER = st.one_of(
    st.lists(st.integers(0, 2), min_size=1, max_size=4).map(lambda hs: ",".join(map(str, hs))),
    st.sampled_from(["", "x", "1,,2", "-1,2"]),
)
_SIGMA = st.sampled_from(["1", "1^2", "1 1", "2", "1 1 1", "1^2 1", "3", "0^9", "1^", "x", "1,2"])
_WREATH = st.one_of(
    st.builds(
        "m={},k={},r={}".format,
        st.sampled_from(["-1", "0", "3", "4", "x"]),
        st.sampled_from(["0", "1", "2", "x"]),
        st.sampled_from(["0", "1", "2", "5", "x"]),
    ),
    st.sampled_from(["m=3", "m=3,k=1", "=", "m==3,k=1,r=1", ""]),
)


def _argv(draw, tmp_path):
    """One argv from a small grammar over the five subcommands."""
    command = draw(st.sampled_from(["count", "fourier", "group", "verify", "bound"]))
    argv = [command]
    if command == "count":
        argv += ["--n", draw(_DEGREE), "--H", draw(_LADDER)]
        # a small budget keeps every box the grammar reaches cheap
        argv += ["--budget", draw(st.sampled_from(["250", "250", "250", "30", "0", "-1", "x"]))]
        if draw(st.booleans()):
            argv += ["--parallelism", draw(st.sampled_from(["-1", "0", "1", "2"]))]
        if draw(st.booleans()):
            ck = st.sampled_from([str(tmp_path / "ck"), str(tmp_path / "file" / "ck")])
            argv += ["--checkpoint", draw(ck)]
    elif command == "fourier":
        primes = st.lists(st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "7", "x"]), max_size=3)
        argv += ["--p", ",".join(draw(primes)), "--n", draw(_INT), "--sigma", draw(_SIGMA)]
        if draw(st.booleans()):
            argv += ["--space", draw(st.sampled_from(["monic", "binary", "x"]))]
    elif command == "group":
        if draw(st.booleans()):
            argv += ["--name", draw(st.sampled_from(["M11", "A5", "F20", "C7", "Nope", ""]))]
        if draw(st.booleans()):
            argv += ["--wreath", draw(_WREATH)]
    elif command == "verify":
        argv += [draw(st.sampled_from(["fmky", "nosuch", ""]))]
    else:
        argv += ["--n", draw(_INT), "--ind", draw(_INT)]
        argv += ["--a", draw(st.sampled_from(["5/2", "2.5", "1", "0", "-1", "x/y", "1/0"]))]
        if draw(st.booleans()):
            argv += ["--u", draw(st.sampled_from(["0", "1/110", "1/12", "1/0", "x"]))]
        if draw(st.booleans()):
            argv += ["--precision", str(draw(st.integers(-3, 5)))]
    out = str(tmp_path / "out")
    paths = st.sampled_from([out, out, out, "/nonexistent/x", str(tmp_path / "file" / "x")])
    for flag in ("--out", "--csv"):
        if draw(st.booleans()):
            argv += [flag, draw(paths)]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["0", "7", "-1", "x"]))]
    return argv


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_argv_maps_to_an_exit_code(tmp_path, data):
    (tmp_path / "file").write_text("")
    argv = _argv(data.draw, tmp_path)
    assert cli.main(argv) in (0, 1, 2, 3), argv
