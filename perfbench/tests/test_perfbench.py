"""Self-test of the benchmark at its tiny sizes.

    python3 -m pytest perfbench/tests -q

Runs every workload untraced and traced with --size tiny, and checks that
the printed metrics match BENCHMARK.json by name and unit, that a
corrupted anchor is reported as a failure, and that the benchmark refuses
to run without the galcount sources.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402


def run(*args):
    proc = subprocess.run(
        [sys.executable, RUN, "--seed", "5", "--seconds", "1", "--size", "tiny", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_workloads_match_spec(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_spec(spec, workload, trace):
    res = run("--workload", workload, "--trace", str(trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in res["metrics"].items()}
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_corrupted_anchor_counts_as_failure(tmp_path):
    with open(os.path.join(BENCH, "anchors.json")) as fh:
        anchors = json.load(fh)
    anchors["ledgers"]["n4_H2"]["checksum"] += 1
    path = tmp_path / "anchors.json"
    path.write_text(json.dumps(anchors))
    res = run("--workload", "quartic_box", "--trace", "0", "--anchors", str(path))
    assert not res["correct"] and res["failed"] > 0
    assert res["metrics"]["pass_frac"]["value"] < 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quartic_box", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
