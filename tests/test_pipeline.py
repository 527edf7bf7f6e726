"""End-to-end C-Extension tests: the paper's headline guarantees.

* hybrid: zero DC error always; zero CC error on non-intersecting CC sets
  (consistent targets); median CC error 0 on the bad set.
* baselines: reproduce the paper's failure modes.
* the running example (Figures 1–3) solves exactly.
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import workloads
from repro.core import metrics
from repro.core.constraints import CC, Cond, pairwise_dc
from repro.core.pipeline import c_extension


def test_hybrid_good_ccs_zero_cc_error(spark, solved, ccs_good):
    rep = metrics.cc_report(solved.r1_hat, solved.r2_hat, ccs_good)
    assert metrics.cc_error_summary(rep)["max"] == 0.0


def test_hybrid_good_ccs_zero_dc_error(solved, dcs_all):
    assert metrics.dc_error(solved.r1_hat, dcs_all) == 0.0


def test_hybrid_bad_ccs_median_zero(spark, solved_bad, ccs_bad):
    rep = metrics.cc_report(solved_bad.r1_hat, solved_bad.r2_hat, ccs_bad)
    s = metrics.cc_error_summary(rep)
    assert s["median"] == 0.0
    assert s["mean"] < 0.15  # paper: 0.048–0.093


def test_hybrid_uses_alg2_for_good_set(solved):
    assert len(solved.phase1.s2_ids) == 0
    assert solved.phase1.timings["ilp"] == 0.0


def test_hybrid_bad_set_splits_s1_s2(solved_bad):
    assert len(solved_bad.phase1.s1_ids) > 0
    assert len(solved_bad.phase1.s2_ids) > 0


def test_baseline_marginals_zero_cc_error(spark, solved_baseline_marg, ccs_good):
    rep = metrics.cc_report(
        solved_baseline_marg.r1_hat, solved_baseline_marg.r2_hat, ccs_good
    )
    assert metrics.cc_error_summary(rep)["max"] == 0.0


def test_baseline_marginals_violates_dcs(solved_baseline_marg, dcs_all):
    assert metrics.dc_error(solved_baseline_marg.r1_hat, dcs_all) > 0.0


def test_baseline_has_cc_error(spark, solved_baseline, ccs_good):
    rep = metrics.cc_report(solved_baseline.r1_hat, solved_baseline.r2_hat, ccs_good)
    assert metrics.cc_error_summary(rep)["mean"] > 0.0


def test_result_timings_populated(solved):
    for k in ("pairwise", "recursion", "ilp", "fill", "coloring", "total"):
        assert k in solved.timings


def test_r1_hat_preserves_attributes(spark, db, solved):
    """Imputation must not alter any R1 attribute (only add the FK)."""
    orig = db.persons_missing_fk().sort_values("p_id").reset_index(drop=True)
    got = (
        solved.r1_hat.select("p_id", "Age", "Rel", "Multi_ling")
        .toPandas()
        .sort_values("p_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, orig, check_dtype=False)


def test_invalid_method_rejected(spark, db, ccs_good, dcs_all):
    with pytest.raises(ValueError):
        c_extension(
            spark, db.spark_r1(spark), db.spark_r2(spark), ccs_good, dcs_all,
            method="nope",
        )


def test_running_example_solves_exactly(spark, running_example):
    """Figures 1–3: the full pipeline satisfies all 4 CCs and all DCs."""
    persons, housing, ccs, dcs = running_example
    r1 = spark.createDataFrame(persons)
    r2 = spark.createDataFrame(housing)
    res = c_extension(spark, r1, r2, ccs, dcs, method="hybrid", seed=0)
    rep = metrics.cc_report(res.r1_hat, res.r2_hat, ccs)
    assert metrics.cc_error_summary(rep)["max"] == 0.0
    assert metrics.dc_error(res.r1_hat, dcs) == 0.0
    # no fresh households needed: 6 owners, 6 homes
    assert res.r2_hat.count() == 6


def test_running_example_owner_distinct_households(spark, running_example):
    persons, housing, ccs, dcs = running_example
    res = c_extension(
        spark,
        spark.createDataFrame(persons),
        spark.createDataFrame(housing),
        ccs,
        dcs,
        method="hybrid",
        seed=0,
    )
    owners = res.r1_hat.filter(F.col("Rel") == "Owner")
    assert owners.select("h_id").distinct().count() == owners.count()


@pytest.mark.parametrize("seed", [1, 2])
def test_hybrid_deterministic_given_seed(spark, db, ccs_good, dcs_all, seed):
    r1, r2 = db.spark_r1(spark), db.spark_r2(spark)
    a = c_extension(spark, r1, r2, ccs_good, dcs_all, method="hybrid", seed=seed)
    b = c_extension(spark, r1, r2, ccs_good, dcs_all, method="hybrid", seed=seed)
    pa = a.r1_hat.toPandas().sort_values("p_id").reset_index(drop=True)
    pb = b.r1_hat.toPandas().sort_values("p_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(pa, pb)


def test_hybrid_with_good_dcs_subset(spark, db, ccs_good, dcs_good):
    res = c_extension(
        spark, db.spark_r1(spark), db.spark_r2(spark), ccs_good, dcs_good,
        method="hybrid", seed=0,
    )
    assert metrics.dc_error(res.r1_hat, dcs_good) == 0.0


@pytest.mark.parametrize(
    "rel, col",
    [("r1", "Multi_ling"), ("r1", "Age"), ("r2", "Tenure")],
)
def test_null_attribute_rejected(spark, db, ccs_good, dcs_all, rel, col):
    """A null bin key can never be matched back to its tuples, so a null in
    an R1 attribute or an active R2 column is refused at the boundary."""
    frames = {"r1": db.spark_r1(spark), "r2": db.spark_r2(spark)}
    key = {"r1": "p_id", "r2": "h_id"}[rel]
    df = frames[rel]
    first = [r[key] for r in df.orderBy(key).limit(3).collect()]
    frames[rel] = df.withColumn(
        col, F.when(F.col(key).isin(first), None).otherwise(F.col(col))
    )
    with pytest.raises(ValueError, match=col):
        c_extension(
            spark, frames["r1"], frames["r2"], ccs_good, dcs_all,
            method="hybrid", seed=0,
        )


def test_fresh_households_copy_smallest_key_row(spark):
    """Columns a fresh household's combo does not fix come from the R2 row
    with the smallest key, whatever order R2 is stored in."""
    persons = pd.DataFrame(
        {"p_id": [1, 2, 3], "Age": [40, 50, 60], "Rel": ["Owner"] * 3}
    )
    housing = pd.DataFrame({"h_id": [7, 3], "Area": ["C", "C"], "Bath": [1, 2]})
    owner = Cond.of(Rel="Owner")
    ccs = [CC(0, owner, Cond.of(Area="C"), 3)]
    dcs = [pairwise_dc("dc_oo", owner, owner)]  # 3 owners, 2 homes: 1 fresh
    res = c_extension(
        spark, spark.createDataFrame(persons), spark.createDataFrame(housing),
        ccs, dcs, method="hybrid", seed=0,
    )
    fresh = res.r2_hat.filter(F.col("h_id") > 7).toPandas()
    assert fresh[["Area", "Bath"]].to_dict("records") == [{"Area": "C", "Bath": 2}]
