"""The CC-incidence table against the per-pair loop over every CC that it
replaced, on the good and bad CC fixtures."""
import numpy as np
import pandas as pd
import pytest

from repro.core.binning import CCIncidence
from repro.core.hasse import build_structure
from repro.core.phase2 import solve_invalid_tuples
from tests.conftest import build_phase1_inputs


class BruteScorer:
    """Reference: per-CC bin and combo sets, one loop over every CC for each
    (bin, combo) pair."""

    def __init__(self, ccs, binning, combos):
        self.cc_ids = [c.cc_id for c in ccs]
        self.bin_sets = {c.cc_id: set(binning.cond_bin_ids(c.r1).tolist()) for c in ccs}
        self.combo_sets = {
            c.cc_id: set(combos.cond_combo_ids(c.r2).tolist()) for c in ccs
        }

    def score(self, bin_id: int, combo_id: int, allowed: set[int]) -> int:
        return sum(
            1
            for i in self.cc_ids
            if i not in allowed
            and bin_id in self.bin_sets[i]
            and combo_id in self.combo_sets[i]
        )

    def matrix(self, n_bins: int, n_combos: int, allowed: set[int]) -> np.ndarray:
        return np.array(
            [[self.score(b, c, allowed) for c in range(n_combos)] for b in range(n_bins)]
        )


@pytest.fixture(params=["good", "bad"])
def instance(request, db, ccs_good, ccs_bad):
    ccs = ccs_good if request.param == "good" else ccs_bad
    binning, combos = build_phase1_inputs(db, ccs)
    table = CCIncidence.build(ccs, binning, combos)
    return ccs, binning, combos, table, BruteScorer(ccs, binning, combos)


def test_membership_matches_brute_force(instance):
    ccs, binning, combos, table, ref = instance
    assert table.bins.shape == (len(binning.bins), len(ccs))
    assert table.combos.shape == (len(combos), len(ccs))
    for cc in ccs:
        k = table.col[cc.cc_id]
        assert set(np.flatnonzero(table.bins[:, k])) == ref.bin_sets[cc.cc_id]
        assert set(np.flatnonzero(table.combos[:, k])) == ref.combo_sets[cc.cc_id]


def test_spurious_matches_brute_force(instance):
    ccs, binning, combos, table, ref = instance
    want = ref.matrix(len(binning.bins), len(combos), set())
    assert np.array_equal(table.spurious, want)
    got = np.array([table.scores(b) for b in range(len(binning.bins))])
    assert np.array_equal(got, want)


def test_scores_with_ancestors_allowed_match_brute_force(instance):
    ccs, binning, combos, table, ref = instance
    structure = build_structure(ccs)
    for cc in ccs:
        allowed = {cc.cc_id} | structure.ancestors(cc.cc_id)
        got = np.array([table.scores(b, allowed) for b in range(len(binning.bins))])
        assert np.array_equal(got, ref.matrix(len(binning.bins), len(combos), allowed)), cc


def test_solve_invalid_tuples_matches_brute_force(instance):
    """Each invalid tuple takes the combo of least added error, ties to the
    smallest combo id, and its own fresh household."""
    ccs, binning, combos, table, ref = instance
    bins = np.arange(len(binning.bins))[::-1]
    invalid = pd.DataFrame(
        {"p_id": 1000 + bins, "bin_id": bins}, index=np.arange(len(bins)) + 7
    )
    assign, new = solve_invalid_tuples(invalid, ccs, binning, combos, 500)
    want = [
        min(range(len(combos)), key=lambda c: (ref.score(int(b), c, set()), c))
        for b in bins
    ]
    assert assign["combo_id"].tolist() == want
    assert assign["p_id"].tolist() == (1000 + bins).tolist()
    assert assign["h_id"].tolist() == list(range(500, 500 + len(bins)))
    assert new.to_dict("list") == assign[["h_id", "combo_id"]].to_dict("list")
