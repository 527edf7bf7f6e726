"""Conflict hypergraph construction (Def 5.1).

Edges connect sets of R1 tuples that would violate a Foreign-Key DC's
condition φ if they shared an FK value. Enumeration is per phase-II
partition (tuples sharing a B-combo), vectorised with NumPy broadcasting for
the common pairwise case; 3-ary DCs (used by the NP-hardness gadget) extend
candidate tuples one variable at a time — gadget instances are small by
construction. The comps are evaluated by ``DC.comps_hold``, the same code
the DC-error metric uses.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .constraints import DC


def pairwise_edges(pdf: pd.DataFrame, dc: DC) -> set[tuple[int, int]]:
    """Positional-index pairs violating a 2-ary DC's φ."""
    i1 = np.where(dc.preds[0].mask(pdf))[0]
    i2 = np.where(dc.preds[1].mask(pdf))[0]
    if i1.size == 0 or i2.size == 0:
        return set()

    def side(var: int, rows: np.ndarray) -> dict[str, np.ndarray]:
        return {c: pdf[c].to_numpy()[rows] for c in dc.var_columns(var)}

    # Tuple variable 0 ranges over i1 (rows matching pred 0, the first
    # broadcast axis), variable 1 over i2.
    sides = [side(0, i1[:, None]), side(1, i2[None, :])]
    ok = dc.comps_hold(sides, i1[:, None] != i2[None, :])
    out: set[tuple[int, int]] = set()
    xs, ys = np.where(ok)
    for x, y in zip(i1[xs].tolist(), i2[ys].tolist()):
        out.add((x, y) if x < y else (y, x))
    return out


def _nary_edges(pdf: pd.DataFrame, dc: DC) -> set[tuple[int, ...]]:
    """Generic k-ary enumeration (k ≥ 3).

    Candidate tuples of distinct positions grow one variable at a time over
    that variable's pred-filtered rows; after each step only those whose
    comps on the bound variables hold are kept.
    """
    cols = {c: pdf[c].to_numpy() for c in dc.columns}
    rows = np.zeros((1, 0), dtype=np.int64)
    for k, pred in enumerate(dc.preds):
        idx = np.where(pred.mask(pdf))[0]
        rows = np.hstack(
            [np.repeat(rows, idx.size, axis=0), np.tile(idx, len(rows))[:, None]]
        )
        ok = (rows[:, :k] != rows[:, k:]).all(axis=1)
        sides = [{c: cols[c][rows[:, v]] for c in dc.var_columns(v)} for v in range(k + 1)]
        rows = rows[dc.comps_hold(sides, ok, last=k)]
    return {tuple(sorted(r)) for r in rows.tolist()}


def enumerate_edges(pdf: pd.DataFrame, dcs: list[DC]) -> list[tuple[int, ...]]:
    """All conflict edges within a partition, deduplicated."""
    edges: set[tuple[int, ...]] = set()
    for dc in dcs:
        if dc.arity == 2:
            edges |= pairwise_edges(pdf, dc)
        else:
            edges |= _nary_edges(pdf, dc)
    return sorted(edges)
