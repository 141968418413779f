"""Property-suite plumbing; the full runs live in the acceptance tests."""

import itertools

import pytest

from galcount import fourier
from galcount import verification as vf
from galcount.errors import UsageError


def test_suite_registry():
    assert set(vf.SUITES) == {"prop33", "prop34", "fmky", "thm25", "prop51dd", "decay"}
    with pytest.raises(UsageError):
        vf.run_suite("nosuch")


def test_prop33_small_cell():
    rep = vf.verify_prop33(ps=(5, 7), ns=(3,))
    assert rep["pass"] and rep["violations"] == 0
    skipped = [c for c in rep["details"]["cells"] if "skipped" in c]
    assert not skipped  # p > n throughout this cell


def test_prop33_skips_small_characteristic():
    rep = vf.verify_prop33(ps=(5,), ns=(5,))
    assert any("skipped" in c for c in rep["details"]["cells"])


def test_prop34_seeded_and_reproducible():
    a = vf.verify_prop34(seed=3, samples=20)
    b = vf.verify_prop34(seed=3, samples=20)
    assert a == b
    assert a["pass"]
    # p=3, r=3 has no admissible weights at all
    assert {"p": 3, "r": 3, "collected": 0} in a["details"]["skippedCells"]


def test_prop34_skips_only_cells_without_admissible_weights():
    """Brute force over every ordered weight tuple in {1..p-1}^r: a cell is
    skipped exactly when each tuple has a nonempty subset summing to 0 mod p."""
    def admissible(ws, p):
        subsets = itertools.product((0, 1), repeat=len(ws))
        return all(sum(w * b for w, b in zip(ws, bits)) % p for bits in subsets if any(bits))

    inadmissible = [
        {"p": p, "r": r, "collected": 0}
        for p in (3, 5, 7, 11, 13)
        for r in (1, 2, 3)
        if not any(admissible(ws, p) for ws in itertools.product(range(1, p), repeat=r))
    ]
    assert inadmissible == [{"p": 3, "r": 3, "collected": 0}]
    for seed in range(3):
        assert vf.verify_prop34(seed=seed, samples=20)["details"]["skippedCells"] == inadmissible


@pytest.mark.parametrize("seed", [0, 1, 3, 5])
def test_prop34_checked_and_skipped_cells_pinned(seed):
    rep = vf.verify_prop34(seed=seed, samples=20)
    assert (rep["checked"], rep["violations"]) == (280, 0)
    assert rep["details"]["skippedCells"] == [{"p": 3, "r": 3, "collected": 0}]


def test_fmky_small():
    rep = vf.verify_fmky(mmax=7)
    assert rep["pass"] and rep["checked"] > 0


def test_thm25_report_pinned():
    rep = vf.verify_thm25()
    assert (rep["pass"], rep["checked"], rep["violations"]) == (True, 59086, 0)
    assert rep["details"] == {
        "combos": [(3, 1, 1), (3, 1, 2), (4, 1, 1), (4, 1, 2), (5, 1, 1), (5, 1, 2), (5, 2, 1), (5, 2, 2)],
        "failures": [],
    }


def test_prop51dd_finds_forced_tuples():
    rep = vf.verify_prop51dd()
    assert rep["pass"]
    assert rep["details"]["forcedTuples"] > 0


def test_decay_single_space():
    rep = vf.verify_decay(ns=(3,), ps=(3, 5, 7), spaces=("monic",))
    assert rep["pass"] and rep["violations"] == 0
    assert all(len(s["mainTermErrors"]) == 3 for s in rep["details"]["series"])
    # one or two primes give at most one increment: never accelerating
    for ps in ((5,), (5, 7)):
        rep = vf.verify_decay(ns=(3,), ps=ps, spaces=("monic", "binary"))
        assert rep["pass"] and rep["violations"] == 0
    # three points with growing increments are still flagged
    assert fourier.accelerating([0.0, 1.0, 3.0])
    assert not fourier.accelerating([0.0, 2.0, 3.0])


def test_sigma_enumeration_covers_all_types():
    sigmas = fourier.sigmas_up_to(3)
    texts = {str(s) for s in sigmas}
    assert texts == {"1", "1^2", "1^3", "1 1", "1 1 1", "1 1^2", "2", "1 2", "3"}


def test_sigma_enumeration_counts_pinned():
    lengths = [len(fourier.sigmas_up_to(n)) for n in range(1, 9)]
    assert lengths == [1, 4, 9, 20, 37, 71, 123, 217]
