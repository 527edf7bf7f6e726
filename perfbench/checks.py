"""Correctness checks on one C-Extension result, over collected pandas frames.

The checks are the benchmark's own and do not call the program's metrics:

* |R̂1| = |R1| and R̂1 holds each R1 key once;
* every FK is non-null and present in R̂2;
* R̂2 ⊇ R2, and R̂2 keys are unique;
* the (bin, combo) histogram of R̂1 ⋈ R̂2 equals the phase-I allocation,
  except that tuples phase I marked invalid (or left unallocated) may land
  in any combo;
* for the hybrid, no DC is violated (Prop 5.5).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

KEY, FK = "p_id", "h_id"


def dc_violators(r1_hat: pd.DataFrame, dcs: list) -> np.ndarray:
    """Keys of R̂1 tuples in at least one violated (pairwise) DC instance."""
    pairs = r1_hat.merge(r1_hat, on=FK, suffixes=("_0", "_1"))
    pairs = pairs[pairs[f"{KEY}_0"] != pairs[f"{KEY}_1"]]
    cols = [c for c in r1_hat.columns if c != FK]
    side = [pairs[[f"{c}_{i}" for c in cols]].set_axis(cols, axis=1) for i in (0, 1)]
    hit = np.zeros(len(pairs), dtype=bool)
    for dc in dcs:
        if dc.arity != 2:
            raise ValueError(f"{dc.name}: only pairwise DCs are checked")
        m = dc.preds[0].mask(side[0]) & dc.preds[1].mask(side[1])
        for comp in dc.comps:
            m &= comp.apply(
                side[comp.i][comp.col_i].to_numpy(), side[comp.j][comp.col_j].to_numpy()
            )
        hit |= m
    return np.union1d(side[0][KEY].to_numpy()[hit], side[1][KEY].to_numpy()[hit])


def check_result(
    persons: pd.DataFrame,
    housing: pd.DataFrame,
    r1_hat: pd.DataFrame,
    r2_hat: pd.DataFrame,
    alloc: pd.DataFrame,
    binning,
    combos,
    dcs: list,
    *,
    hybrid: bool,
) -> list[str]:
    """Return a description of every failed check (empty when all pass)."""
    bad: list[str] = []
    if len(r1_hat) != len(persons) or not r1_hat[KEY].is_unique or set(
        r1_hat[KEY]
    ) != set(persons[KEY]):
        bad.append("R̂1 keys differ from R1 keys")
    if r1_hat[FK].isna().any():
        bad.append("R̂1 has null FKs")
    if not r2_hat[FK].is_unique:
        bad.append("R̂2 keys are not unique")
    if not r1_hat[FK].dropna().isin(r2_hat[FK]).all():
        bad.append("R̂1 FK missing from R̂2")
    kept = housing.merge(r2_hat[housing.columns], on=list(housing.columns), how="left", indicator=True)
    if (kept["_merge"] != "both").any():
        bad.append("R̂2 does not contain R2")
    if bad:
        return bad

    active = combos.active_cols
    joined = r1_hat.merge(r2_hat[[FK, *active]], on=FK)
    joined = joined.merge(combos.table[[*active, "combo_id"]], on=active, how="left")
    joined = joined.merge(binning.mapping, on=binning.attrs, how="left")
    hist = joined.groupby(["bin_id", "combo_id"]).size()
    planned = alloc[alloc["combo_id"] >= 0].set_index(["bin_id", "combo_id"])["count"]
    diff = hist.sub(planned, fill_value=0)
    free = len(persons) - int(planned.sum())  # invalid or unallocated tuples
    if joined["combo_id"].isna().any() or (diff < 0).any() or int(diff.sum()) != free:
        bad.append("combo histogram of R̂1 ⋈ R̂2 differs from the phase-I allocation")
    if hybrid and len(dc_violators(r1_hat, dcs)):
        bad.append("hybrid result violates a DC")
    return bad
