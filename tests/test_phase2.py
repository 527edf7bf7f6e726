"""Tests for phase II (Algorithm 4): DC satisfaction, join consistency."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import metrics
from repro.core.phase2 import _key_bases, solve_invalid_tuples
from repro.oracle import assert_equivalent


def test_key_bases_disjoint_ranges():
    bases = _key_bases({0: 5, 2: 3, 1: 4}, max_key=100)
    assert bases == {0: 101, 1: 106, 2: 110}


def test_solve_invalid_tuples_empty():
    from repro.core.binning import Binning, Combos
    from repro.core.constraints import CC, Cond

    ccs = [CC(0, Cond.of(Rel="A"), Cond.of(Area="C"), 1)]
    pdf = pd.DataFrame({"Age": [1], "Rel": ["A"], "count": [1]})
    binning = Binning.build(pdf, ccs, ["Age", "Rel"])
    combos = Combos.build(pd.DataFrame({"Area": ["C"], "count": [2]}), ["Area"])
    a, n = solve_invalid_tuples(pd.DataFrame(), ccs, binning, combos, 100)
    assert a.empty and n.empty


def test_all_fk_values_filled(solved):
    assert solved.r1_hat.filter(F.col("h_id").isNull()).count() == 0


def test_fk_referential_integrity(solved):
    """Every assigned FK exists in R̂2 (possibly a fresh household)."""
    missing = solved.r1_hat.join(
        solved.r2_hat.select("h_id"), on="h_id", how="left_anti"
    )
    assert missing.count() == 0


def test_r2_hat_extends_r2(spark, db, solved):
    """R̂2 is a copy of R2 possibly with extra tuples (Prop 5.5)."""
    r2 = db.spark_r2(spark)
    # original households survive unchanged
    diff = r2.exceptAll(solved.r2_hat.select(*r2.columns))
    assert diff.count() == 0


def test_new_households_have_fresh_keys(spark, db, solved):
    max_orig = int(db.housing["h_id"].max())
    new = solved.r2_hat.filter(F.col("h_id") > max_orig)
    n_new = new.count()
    # fresh keys must be unique
    assert new.select("h_id").distinct().count() == n_new


def test_join_consistency_prop_55(spark, db, solved):
    """R̂1 ⋈ R̂2 = V_Join on the active columns (Proposition 5.5)."""
    active = solved.combos.active_cols
    joined = solved.r1_hat.join(solved.r2_hat, on="h_id").select(
        "p_id", *active
    )
    combo_map = spark.createDataFrame(
        solved.combos.table[[*active, "combo_id"]]
    )
    vj = solved.vjoin.join(combo_map, on="combo_id", how="left").select(
        "p_id", *active
    )
    assert joined.exceptAll(vj).count() == 0
    assert vj.exceptAll(joined).count() == 0


def test_dc_error_zero_for_hybrid(solved, dcs_all):
    assert metrics.dc_error(solved.r1_hat, dcs_all) == 0.0


def test_dc_error_zero_for_hybrid_bad_ccs(solved_bad, dcs_all):
    assert metrics.dc_error(solved_bad.r1_hat, dcs_all) == 0.0


def test_no_two_owners_share_household_sql_oracle(spark, solved):
    """DC9 on the final R̂1, verified with a direct SQL count via DuckDB."""
    got = (
        solved.r1_hat.filter(F.col("Rel") == "Owner")
        .groupBy("h_id")
        .agg(F.count("*").alias("n"))
        .filter(F.col("n") > 1)
        .groupBy()
        .agg(F.count("*").alias("bad"))
    )
    assert_equivalent(
        got,
        """
        SELECT count(*) AS bad FROM (
          SELECT h_id, count(*) AS n FROM r1 WHERE Rel = 'Owner'
          GROUP BY h_id HAVING count(*) > 1
        )
        """,
        r1=solved.r1_hat.toPandas(),
    )
    assert got.collect()[0]["bad"] == 0


def test_baseline_random_fk_assigns_all(solved_baseline):
    assert solved_baseline.r1_hat.filter(F.col("h_id").isNull()).count() == 0


def test_baseline_typically_violates_dcs(solved_baseline, dcs_all):
    """Random FK assignment should violate DCs on ~any realistic instance."""
    assert metrics.dc_error(solved_baseline.r1_hat, dcs_all) > 0.0


def test_coloring_runs_once_per_partition(spark, db, ccs_good, dcs_good, monkeypatch):
    """Each B-combo partition is colored once per solve, and the cached
    phase-II assignments are released once R̂1 is materialised."""
    from repro.core import phase2
    from repro.core.hybrid import INVALID_COMBO
    from repro.core.pipeline import c_extension

    sc = spark.sparkContext
    calls = sc.accumulator(0)
    coloring_fn = phase2._coloring_fn

    def counting_fn(*args):
        fn = coloring_fn(*args)

        def counted(key, left, right):
            calls.add(1)
            return fn(key, left, right)

        return counted

    monkeypatch.setattr(phase2, "_coloring_fn", counting_fn)
    r1, r2 = db.spark_r1(spark), db.spark_r2(spark)
    cached_before = set(sc._jsc.getPersistentRDDs().keys())
    res = c_extension(spark, r1, r2, ccs_good, dcs_good, method="hybrid", seed=0)
    # the cogroup calls the UDF once per combo key present on either side
    valid = res.vjoin.filter(F.col("combo_id") != INVALID_COMBO)
    left = {r["combo_id"] for r in valid.select("combo_id").distinct().collect()}
    active = res.combos.active_cols
    right = set(r2.toPandas().merge(res.combos.table, on=active)["combo_id"])
    assert calls.value == len(left | right)
    res.r1_hat.toPandas()
    assert calls.value == len(left | right)
    # only V_Join and R̂1 stay cached
    res.vjoin.unpersist(blocking=True)
    res.r1_hat.unpersist(blocking=True)
    assert set(sc._jsc.getPersistentRDDs().keys()) <= cached_before
