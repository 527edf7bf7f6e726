"""Error measures of §6.1, computed with Spark DataFrame queries.

* relative CC error: ``|ĉ − c| / max(10, c)`` per CC, over the *final*
  database ``R̂1 ⋈ R̂2`` (so phase-II effects are included);
* DC error: fraction of R̂1 tuples participating in at least one violated
  DC instance — found in one pass that groups R̂1 by a hash bucket of the
  FK and evaluates every DC on each group in pandas, with the comps
  evaluated by ``DC.comps_hold`` as in conflict enumeration (cross-checked
  against a DuckDB SQL oracle in tests).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import StructField, StructType

from .constraints import CC, DC


def cc_report(r1_hat: DataFrame, r2_hat: DataFrame, ccs: list[CC], *, fk: str = "h_id") -> pd.DataFrame:
    """Per-CC achieved counts and relative errors on the final database.

    One Spark join + one groupBy over the columns any CC references; the
    resulting (small) histogram is evaluated per CC in pandas.
    """
    used: list[str] = []
    for cc in ccs:
        for col in cc.full.columns:
            if col not in used:
                used.append(col)
    joined = r1_hat.join(r2_hat, on=fk, how="inner")
    hist = joined.groupBy(*used).agg(F.count("*").alias("__n")).toPandas()
    rows = []
    for cc in ccs:
        achieved = int(hist.loc[cc.full.mask(hist), "__n"].sum()) if len(hist) else 0
        err = abs(achieved - cc.target) / max(10, cc.target)
        rows.append((cc.cc_id, cc.target, achieved, err))
    return pd.DataFrame(rows, columns=["cc_id", "target", "achieved", "rel_err"])


def cc_error_summary(report: pd.DataFrame) -> dict:
    return {
        "median": float(report["rel_err"].median()),
        "mean": float(report["rel_err"].mean()),
        "max": float(report["rel_err"].max()),
        "n_nonzero": int((report["rel_err"] > 0).sum()),
    }


def household_violators(pdf: pd.DataFrame, dcs: list[DC], key: str, fk: str) -> np.ndarray:
    """Distinct keys of the tuples of ``pdf`` in a violated instance of a DC.

    ``pdf`` must hold every tuple of each of its households. Per DC, each
    tuple variable's side is filtered by its pred and the sides are merged
    on the FK (chained for arity ≥ 3), so the work is Σ over households of
    the product of the side sizes. The candidate tuples need pairwise
    distinct keys and the comps must hold. As in SQL, a null FK joins no
    tuple and a null key differs from none.
    """
    pdf = pdf[pdf[fk].notna() & pdf[key].notna()]
    keys = pdf[key].to_numpy()
    fks = pdf[fk].to_numpy()
    cols = {c: pdf[c].to_numpy() for dc in dcs for c in dc.columns}
    hit = np.zeros(len(pdf), dtype=bool)
    for dc in dcs:
        joined = None
        for var, pred in enumerate(dc.preds):
            rows = np.where(pred.mask(pdf))[0]
            side = pd.DataFrame({"fk": fks[rows], var: rows})
            joined = side if joined is None else joined.merge(side, on="fk")
        pos = [joined[var].to_numpy() for var in range(dc.arity)]
        ok = np.ones(len(joined), dtype=bool)
        for i in range(dc.arity):
            for j in range(i + 1, dc.arity):
                ok &= keys[pos[i]] != keys[pos[j]]
        sides = [{c: cols[c][p] for c in dc.var_columns(var)} for var, p in enumerate(pos)]
        dc.comps_hold(sides, ok)
        for p in pos:
            hit[p[ok]] = True
    return np.unique(keys[hit])


def _by_household(r1_hat: DataFrame, dcs: list[DC], key: str, fk: str, fn, schema) -> DataFrame:
    """``fn`` applied to R̂1 split by a hash bucket of the FK, one group per
    shuffle partition, so that every household lies whole in one group."""
    buckets = int(r1_hat.sparkSession.conf.get("spark.sql.shuffle.partitions"))
    used = sorted({c for dc in dcs for c in dc.columns} - {key, fk})
    return (
        r1_hat.select(key, fk, *used)
        .withColumn("__bucket", F.pmod(F.hash(fk), F.lit(buckets)))
        .groupBy("__bucket")
        .applyInPandas(fn, schema)
    )


def dc_violators(r1_hat: DataFrame, dc: DC, *, key: str = "p_id", fk: str = "h_id") -> DataFrame:
    """Distinct keys (column ``vid``) of tuples violating ``dc``."""
    schema = StructType([StructField("vid", r1_hat.schema[key].dataType)])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"vid": household_violators(pdf, [dc], key, fk)})

    return _by_household(r1_hat, [dc], key, fk, fn, schema)


def dc_error(r1_hat: DataFrame, dcs: list[DC], *, key: str = "p_id", fk: str = "h_id") -> float:
    """Fraction of R̂1 tuples violating at least one DC (§6.1).

    One Spark job: |R̂1| and the violator count are summed over the
    FK-partitioned groups together. A violator is counted in the group of
    its household, so ``key`` must be unique, as R̂1's key is.
    """
    if not dcs:
        return 0.0

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [len(pdf)], "v": [len(household_violators(pdf, dcs, key, fk))]})

    counts = _by_household(r1_hat, dcs, key, fk, fn, "n long, v long")
    [(n, v)] = counts.agg(F.sum("n"), F.sum("v")).collect()
    return v / n if n else 0.0
