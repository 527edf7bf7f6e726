"""The DC-error metric against two oracles: the per-DC Spark self-join it
replaced (kept here as the reference) and each DC's own SQL on DuckDB."""
import itertools

import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core import metrics, reduction
from repro.core.constraints import DC, Comp, Cond, OutsideComp, pairwise_dc

# ------------------------------------------------------------ reference


_OPS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _comp_col(comp):
    left = F.col(f"t{comp.i}.{comp.col_i}")
    right = F.col(f"t{comp.j}.{comp.col_j}")
    if isinstance(comp, OutsideComp):
        return (left < right + F.lit(comp.lo)) | (left > right + F.lit(comp.hi))
    rhs = right + F.lit(comp.offset) if comp.offset else right
    return _OPS[comp.op](left, rhs)


def self_join_violators(r1_hat, dc, *, key="p_id", fk="h_id"):
    """Distinct keys of tuples violating ``dc``: one Spark self-join per DC."""
    k = dc.arity
    aliased = [r1_hat.alias(f"t{i}") for i in range(k)]
    joined = aliased[0]
    for i in range(1, k):
        joined = joined.join(
            aliased[i], on=F.col(f"t0.{fk}") == F.col(f"t{i}.{fk}"), how="inner"
        )
    cond = F.lit(True)
    for i in range(k):
        for j in range(i + 1, k):
            cond = cond & (F.col(f"t{i}.{key}") != F.col(f"t{j}.{key}"))
    for i, p in enumerate(dc.preds):
        if not p.is_empty():
            expr = F.lit(True)
            for col, spec in p.specs:
                ref = F.col(f"t{i}.{col}")
                if spec[0] == "range":
                    expr = expr & (ref >= spec[1]) & (ref <= spec[2])
                else:
                    expr = expr & ref.isin(list(spec[1]))
            cond = cond & expr
    for comp in dc.comps:
        cond = cond & _comp_col(comp)
    matched = joined.filter(cond)
    out = matched.select(F.col(f"t0.{key}").alias("vid"))
    for i in range(1, k):
        out = out.unionByName(matched.select(F.col(f"t{i}.{key}").alias("vid")))
    return out.distinct()


def self_join_dc_error(r1_hat, dcs, *, key="p_id", fk="h_id"):
    n = r1_hat.count()
    if n == 0 or not dcs:
        return 0.0
    viol = None
    for dc in dcs:
        v = self_join_violators(r1_hat, dc, key=key, fk=fk)
        viol = v if viol is None else viol.unionByName(v)
    return viol.distinct().count() / n


def duckdb_violators(pdf, dcs, *, key="p_id", fk="h_id"):
    """Union over ``dcs`` of the keys each DC's own SQL finds."""
    con = duckdb.connect()
    try:
        con.register("t", pdf)
        out = set()
        for dc in dcs:
            sql = dc.to_sql_violation("t", key=key, fk=fk)
            sql = sql.replace("SELECT COUNT(*) AS n", "SELECT DISTINCT vid", 1)
            out |= {r[0] for r in con.execute(sql).fetchall()}
        return out
    finally:
        con.close()


def _vids(df):
    return sorted(r["vid"] for r in df.collect())


# ------------------------------------------------------------ instances

SCHEMA = "p_id long, h_id long, Age long, Rel string"


def _spark_df(spark, pdf, schema=SCHEMA):
    """Spark frame of ``pdf`` with nulls kept as nulls (not NaN)."""
    rows = pdf.astype(object).where(pdf.notna(), None).itertuples(index=False)
    return spark.createDataFrame([tuple(r) for r in rows], schema)


interval = st.tuples(st.integers(0, 12), st.integers(0, 12)).map(lambda t: (min(t), max(t)))


@st.composite
def preds(draw):
    kw = {}
    if draw(st.booleans()):
        kw["Age"] = draw(interval)
    if draw(st.booleans()):
        kw["Rel"] = draw(st.sets(st.sampled_from(["A", "B"]), min_size=1))
    return Cond.of(**kw)


@st.composite
def comps(draw):
    i, j = draw(st.sampled_from([(0, 1), (1, 0), (0, 0), (1, 1)]))
    if draw(st.booleans()):
        lo = draw(st.integers(-6, 6))
        return OutsideComp(i, "Age", j, "Age", lo, lo + draw(st.integers(0, 6)))
    if draw(st.booleans()):
        return Comp(i, "Rel", draw(st.sampled_from(["=", "!="])), j, "Rel")
    op = draw(st.sampled_from(["<", ">", "<=", ">=", "=", "!="]))
    return Comp(i, "Age", op, j, "Age", draw(st.integers(-3, 3)))


@st.composite
def dc_lists(draw):
    return [
        DC(f"d{n}", (draw(preds()), draw(preds())), tuple(draw(st.lists(comps(), max_size=2))))
        for n in range(draw(st.integers(1, 3)))
    ]


@st.composite
def r1_hats(draw):
    """Small R̂1s with a few households; FKs, ages and roles may be null."""
    n = draw(st.integers(0, 12))

    def column(values, dtype):
        drawn = draw(st.lists(st.one_of(st.none(), values), min_size=n, max_size=n))
        return pd.array(drawn, dtype=dtype)

    return pd.DataFrame(
        {
            "p_id": pd.array(range(1, n + 1), dtype="Int64"),
            "h_id": column(st.integers(1, 3), "Int64"),
            "Age": column(st.integers(0, 12), "Int64"),
            "Rel": column(st.sampled_from(["A", "B"]), object),
        }
    )


def _as_udf_input(pdf):
    """``pdf`` as applyInPandas hands it over: integer columns with nulls
    as floats, the others as int64."""
    ints = ("p_id", "h_id", "Age")
    return pdf.astype({c: "float64" if pdf[c].isna().any() else "int64" for c in ints})


# ---------------------------------------------------------------- tests


@given(r1_hats(), dc_lists())
@settings(max_examples=150, deadline=None)
def test_household_violators_match_duckdb(pdf, dcs):
    got = metrics.household_violators(_as_udf_input(pdf), dcs, "p_id", "h_id")
    assert set(got.tolist()) == duckdb_violators(pdf, dcs)


@given(r1_hats(), dc_lists())
@settings(max_examples=10, deadline=None)
def test_dc_error_matches_self_join_and_duckdb(spark, pdf, dcs):
    df = _spark_df(spark, pdf)
    expected = duckdb_violators(pdf, dcs)
    n = len(pdf)
    assert metrics.dc_error(df, dcs) == self_join_dc_error(df, dcs)
    assert metrics.dc_error(df, dcs) == (len(expected) / n if n else 0.0)
    assert _vids(metrics.dc_violators(df, dcs[0])) == _vids(self_join_violators(df, dcs[0]))


def test_null_fks_do_not_share_a_household(spark):
    """pandas would pair the two null-FK owners; SQL does not."""
    pdf = pd.DataFrame(
        {"p_id": [1, 2, 3, 4], "h_id": pd.array([None, None, 5, 5], dtype="Int64"),
         "Age": [30, 40, 30, 40], "Rel": ["A", "A", "A", "B"]}
    )
    dc = pairwise_dc("aa", Cond.of(Rel="A"), Cond.of(Rel="A"))
    df = _spark_df(spark, pdf)
    assert duckdb_violators(pdf, [dc]) == set()
    assert _vids(metrics.dc_violators(df, dc)) == _vids(self_join_violators(df, dc)) == []
    assert metrics.dc_error(df, [dc]) == 0.0


def test_null_attribute_fails_not_equal(spark):
    """NumPy has NaN != x; a SQL comparison with a null is never true."""
    pdf = pd.DataFrame(
        {"p_id": [1, 2, 3, 4, 5], "h_id": [1, 1, 2, 2, 2],
         "Age": pd.array([None, 30, None, None, 7], dtype="Int64"),
         "Rel": ["A", None, "A", "B", None]}
    )
    dcs = [
        pairwise_dc("age", Cond.of(), Cond.of(), [("Age", "!=", "Age", 0)]),
        pairwise_dc("rel", Cond.of(), Cond.of(), [("Rel", "!=", "Rel", 0)]),
    ]
    df = _spark_df(spark, pdf)
    expected = duckdb_violators(pdf, dcs)
    assert expected == {3, 4}  # only household 2's "A" vs "B" is a real !=
    for dc in dcs:
        assert _vids(metrics.dc_violators(df, dc)) == _vids(self_join_violators(df, dc))
    assert metrics.dc_error(df, dcs) == self_join_dc_error(df, dcs) == pytest.approx(2 / 5)


def test_three_ary_gadget(spark):
    """The NAE gadget's DCs on a random completion, FK column ``Chosen``."""
    inst = reduction.build_instance([(1, 2, 3), (-1, 2, -3), (1, -2, 3), (2, 3, -1)])
    g = np.random.default_rng(3)
    pdf = inst.r1.assign(Chosen=g.integers(0, 2, len(inst.r1)))
    df = spark.createDataFrame(pdf)
    expected = duckdb_violators(pdf, inst.dcs, fk="Chosen")
    assert expected  # the instance does violate the gadget's DCs
    for dc in inst.dcs:
        assert _vids(metrics.dc_violators(df, dc, fk="Chosen")) == _vids(
            self_join_violators(df, dc, fk="Chosen")
        )
    got = metrics.dc_error(df, inst.dcs, fk="Chosen")
    assert got == self_join_dc_error(df, inst.dcs, fk="Chosen") == len(expected) / len(pdf)


def test_other_key_and_fk_names(spark):
    """Key ``s_id`` and FK ``m_id``, as in the snowflake driver."""
    g = np.random.default_rng(0)
    pdf = pd.DataFrame(
        {"s_id": range(100, 140), "Year": g.integers(1, 5, 40),
         "Honors": g.integers(0, 2, 40), "m_id": g.integers(1, 4, 40)}
    )
    dcs = [
        pairwise_dc("honors", Cond.of(Honors=1, Year=(4, 4)), Cond.of(Honors=1, Year=(4, 4))),
        pairwise_dc("older", Cond.of(Honors=1), Cond.of(), [("Year", ">", "Year", 2)]),
    ]
    df = spark.createDataFrame(pdf)
    kw = {"key": "s_id", "fk": "m_id"}
    expected = duckdb_violators(pdf, dcs, **kw)
    assert expected
    for dc in dcs:
        assert _vids(metrics.dc_violators(df, dc, **kw)) == _vids(self_join_violators(df, dc, **kw))
    assert metrics.dc_error(df, dcs, **kw) == self_join_dc_error(df, dcs, **kw)
    assert metrics.dc_error(df, dcs, **kw) == len(expected) / len(pdf)


def test_empty_r1_hat_and_empty_dc_list(spark):
    empty = _spark_df(spark, pd.DataFrame({c: [] for c in ("p_id", "h_id", "Age", "Rel")}))
    dc = pairwise_dc("aa", Cond.of(Rel="A"), Cond.of(Rel="A"))
    assert metrics.dc_error(empty, [dc]) == self_join_dc_error(empty, [dc]) == 0.0
    assert _vids(metrics.dc_violators(empty, dc)) == []
    one = _spark_df(spark, pd.DataFrame({"p_id": [1], "h_id": [1], "Age": [3], "Rel": ["A"]}))
    assert metrics.dc_error(one, []) == self_join_dc_error(one, []) == 0.0


def test_dc_error_is_one_spark_job(spark):
    """|R̂1| and the violator count come from the same job (adaptive
    execution off: it would run each shuffle stage as a job of its own)."""
    pdf = pd.DataFrame({"p_id": [1, 2, 3], "h_id": [1, 1, 2], "Age": [3, 4, 5], "Rel": ["A"] * 3})
    df = _spark_df(spark, pdf)
    dc = pairwise_dc("aa", Cond.of(Rel="A"), Cond.of(Rel="A"))
    sc = spark.sparkContext
    adaptive = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    sc.setJobGroup("dc_error_jobs", "dc_error_jobs")
    try:
        assert metrics.dc_error(df, [dc]) == pytest.approx(2 / 3)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        spark.conf.set("spark.sql.adaptive.enabled", adaptive)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert len(sc.statusTracker().getJobIdsForGroup("dc_error_jobs")) == 1


def test_household_violators_chain_three_sides():
    """Arity 3: every ordered triple of distinct same-FK tuples is a
    candidate; the comps pick the violating ones."""
    pdf = pd.DataFrame({"p_id": range(6), "h_id": [0, 0, 0, 1, 1, 2], "Cls": list("aabaab")})
    dc = DC("tri", (Cond.of(), Cond.of(), Cond.of()),
            (Comp(0, "Cls", "=", 1, "Cls"), Comp(1, "Cls", "!=", 2, "Cls")))
    expected = set()
    for h, grp in pdf.groupby("h_id"):
        for a, b, c in itertools.permutations(grp.itertuples(), 3):
            if a.Cls == b.Cls and b.Cls != c.Cls:
                expected |= {a.p_id, b.p_id, c.p_id}
    got = metrics.household_violators(pdf, [dc], "p_id", "h_id")
    assert set(got.tolist()) == expected == {0, 1, 2}
