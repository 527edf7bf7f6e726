"""Phase II — Algorithm 4: complete ``R1.FK`` from the filled-in V_Join.

The paper's key optimization (§5.2) — partitioning V_Join and R2 by the
assigned B-values, since candidate FK sets are disjoint across partitions —
maps directly onto Spark:
``vjoin.groupBy(combo).cogroup(r2.groupBy(combo)).applyInPandas(...)``.
Each partition independently builds its conflict hypergraph and runs the
largest-first list coloring (§A.3 notes this parallelism explicitly).

Skipped vertices take fresh colors = fresh R2 keys; per-partition key ranges
are pre-reserved on the driver (a partition can never need more new keys
than it has tuples), so fresh keys are globally unique without coordination.

Invalid tuples (no B-assignment possible in phase I) are resolved last on
the driver: each gets a fresh household whose B-values minimise added CC
error (the paper's ``solveInvalidTuples`` strategy).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .binning import Binning, CCIncidence, Combos
from .coloring import color_with_extension
from .conflict import enumerate_edges
from .constraints import CC, DC
from .hybrid import INVALID_COMBO


def _key_bases(sizes: dict[int, int], max_key: int) -> dict[int, int]:
    """Reserve a fresh-key range per partition: base_i = max_key+1+Σ sizes."""
    bases: dict[int, int] = {}
    off = max_key + 1
    for combo_id in sorted(sizes):
        bases[combo_id] = off
        off += sizes[combo_id]
    return bases


def _partition_of(keys: np.ndarray, bases: dict[int, int]) -> np.ndarray:
    """The partition whose reserved fresh-key range holds each of ``keys``."""
    ids = np.array(sorted(bases), dtype=np.int64)
    starts = np.array([bases[i] for i in ids], dtype=np.int64)
    return ids[np.searchsorted(starts, keys, side="right") - 1]


def _coloring_fn(dcs: list[DC], bases: dict[int, int], r2_key: str):
    def fn(key, left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if left.empty:
            return pd.DataFrame({"p_id": [], "h_id": []})
        lp = left.reset_index(drop=True)
        keys = sorted(int(k) for k in right[r2_key].tolist())
        edges = enumerate_edges(lp, dcs)
        c, _ = color_with_extension(len(lp), edges, keys, bases[int(key[0])])
        return pd.DataFrame(
            {
                "p_id": lp["p_id"].astype(np.int64),
                "h_id": np.array([c[i] for i in range(len(lp))], dtype=np.int64),
            }
        )

    return fn


def _random_fn(seed: int, r2_key: str):
    """Baseline phase II: uniformly random candidate key per tuple."""

    def fn(key, left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if left.empty:
            return pd.DataFrame({"p_id": [], "h_id": []})
        g = np.random.default_rng(seed + int(key[0]))
        keys = np.sort(right[r2_key].to_numpy())
        return pd.DataFrame(
            {
                "p_id": left["p_id"].astype(np.int64).to_numpy(),
                "h_id": g.choice(keys, size=len(left)).astype(np.int64),
            }
        )

    return fn


def solve_invalid_tuples(
    invalid_pdf: pd.DataFrame,
    ccs: list[CC],
    binning: Binning,
    combos: Combos,
    fresh_start: int,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Assign each invalid tuple a fresh household minimising added CC error.

    Returns (assignments[p_id, h_id, combo_id], new_households[h_id,
    combo_id]). A tuple alone in a fresh household cannot violate any
    Foreign-Key DC (arity ≥ 2), so DC satisfaction is preserved.
    """
    if invalid_pdf.empty:
        empty = pd.DataFrame({"p_id": [], "h_id": [], "combo_id": []})
        return empty, pd.DataFrame({"h_id": [], "combo_id": []})
    table = CCIncidence.build(ccs, binning, combos)
    # argmin takes the first minimum: ties go to the smallest combo id
    best = table.spurious[invalid_pdf["bin_id"].to_numpy(np.int64)].argmin(axis=1)
    assign = pd.DataFrame(
        {
            "p_id": invalid_pdf["p_id"].to_numpy(np.int64),
            "h_id": np.arange(fresh_start, fresh_start + len(best), dtype=np.int64),
            "combo_id": best.astype(np.int64),
        }
    )
    return assign, assign[["h_id", "combo_id"]]


def complete_fk(
    spark: SparkSession,
    vjoin_df: DataFrame,
    r2_with_combo: DataFrame,
    r2_df: DataFrame,
    combos: Combos,
    binning: Binning,
    dcs: list[DC],
    ccs: list[CC],
    *,
    strategy: str = "coloring",
    r2_key: str = "h_id",
    seed: int = 0,
) -> tuple[DataFrame, DataFrame]:
    """Run Algorithm 4. Returns (assignments[p_id, h_id], r2_hat).

    ``vjoin_df`` must carry ``p_id``, the R1 attributes, ``bin_id`` and a
    non-null ``combo_id`` (INVALID_COMBO for invalid tuples).

    The assignments are persisted, so that the per-partition coloring runs
    once for the new-household query here and the caller's R̂1; the caller
    unpersists them once it has materialised R̂1.
    """
    valid = vjoin_df.filter(F.col("combo_id") != INVALID_COMBO)
    sizes = {
        int(r["combo_id"]): int(r["n"])
        for r in valid.groupBy("combo_id").agg(F.count("*").alias("n")).collect()
    }
    max_key = r2_df.agg(F.max(r2_key)).collect()[0][0] or 0
    bases = _key_bases(sizes, int(max_key))

    fn = (
        _coloring_fn(dcs, bases, r2_key)
        if strategy == "coloring"
        else _random_fn(seed, r2_key)
    )
    assign = (
        valid.groupBy("combo_id")
        .cogroup(r2_with_combo.groupBy("combo_id"))
        .applyInPandas(fn, "p_id long, h_id long")
    )

    invalid_pdf = (
        vjoin_df.filter(F.col("combo_id") == INVALID_COMBO)
        .select("p_id", "bin_id")
        .toPandas()
    )
    fresh_start = (max(bases.values()) + max(sizes.values())) if bases else int(max_key) + 1
    inv_assign, inv_new = solve_invalid_tuples(
        invalid_pdf, ccs, binning, combos, fresh_start
    )

    if len(inv_assign):
        assign = assign.unionByName(spark.createDataFrame(inv_assign[["p_id", "h_id"]]))
    assign = assign.persist()

    # new households = fresh keys used by coloring + invalid resolutions
    colored = (
        assign.filter((F.col("h_id") > int(max_key)) & (F.col("h_id") < fresh_start))
        .select("h_id")
        .distinct()
        .toPandas()["h_id"]
        .sort_values()
        .to_numpy(np.int64)
    )
    new_pairs = pd.DataFrame({"h_id": colored, "combo_id": _partition_of(colored, bases)})
    new_pairs = pd.concat([new_pairs, inv_new], ignore_index=True)
    r2_hat = r2_df
    if len(new_pairs):
        fresh = new_pairs.astype(np.int64).merge(
            combos.table[[*combos.active_cols, "combo_id"]], on="combo_id", how="left"
        )
        keys = fresh.pop("h_id")
        defaults = _column_defaults(r2_df, r2_key)
        for col in r2_df.columns:
            if col not in combos.active_cols:
                fresh[col] = defaults.get(col)
        fresh[r2_key] = keys
        r2_hat = r2_df.unionByName(spark.createDataFrame(fresh[r2_df.columns]))
    return assign, r2_hat


def _column_defaults(r2_df: DataFrame, r2_key: str) -> dict:
    """Values for the R2 columns a fresh household's combo does not fix.

    They are copied from the R2 row with the smallest ``r2_key``, so that
    fresh households are the same on every run.
    """
    first = r2_df.orderBy(r2_key).limit(1).collect()
    if not first:
        return {}
    return first[0].asDict()
