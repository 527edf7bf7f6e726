"""Benchmark of the C-Extension solver, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
(repeated ``SETUP_REPS`` times) and warm-up rounds, then, for ``S``
seconds and at least ``MIN_ROUNDS`` times, a warm ``c_extension`` solve
followed by the §6.1 metrics on its result, and a driver-only replay in a
child process.
``--trace 1`` composes ``c_extension``'s steps from the public calls with a
span and a Spark job group around each one, and reports per-layer metrics.
Every solve is checked (``checks.py``); a run that raises or fails a check
counts as failed. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
T0 = time.perf_counter()

CORES = min(4, os.cpu_count() or 1)
SHUFFLE_PARTITIONS = 2
DRIVER_MEMORY = "1g"
SETUP_REPS = 3
# The JVM's JIT keeps speeding up solves and evaluations for several rounds
# after the cold one; the warm-up rounds take the measured ones further along.
WARM_UP_ROUNDS = 2
MIN_ROUNDS = 2
REPLAY_REPS = 3
NODE_LIMIT = 50  # c_extension's default
REPLAY_TIMEOUT_S = 120


def _prepare_env() -> None:
    """Fix the Spark and BLAS settings before pyspark or numpy load."""
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "pipeline.py")):
        raise SystemExit(f"perfbench: no repro sources under {SRC}; run from the repo root")
    os.makedirs(TMP, exist_ok=True)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = TMP
    # for every JVM, the spark-submit launcher too; without -UsePerfData
    # each would write its counters under /tmp
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={TMP} -XX:-UsePerfData"
    confs = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.local.dir": TMP,
        "spark.sql.warehouse.dir": os.path.join(TMP, "warehouse"),
    }
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [f"--master local[{CORES}]", f"--driver-memory {DRIVER_MEMORY}"]
        + [f"--conf {shlex.quote(f'{k}={v}')}" for k, v in confs.items()]
        + ["pyspark-shell"]
    )
    sys.path[:0] = [SRC]


def _session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.adaptive.enabled", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


class Tracer:
    """Spans kept in memory, with the Spark jobs each span ran.

    Each span sets a Spark job group named after it; after the span the
    status tracker gives the exact job, stage and task counts of the group.
    """

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.spans: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        self.sc.setJobGroup(name, name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] = time.perf_counter() - t0
            self.sc.setLocalProperty("spark.jobGroup.id", None)

    def spark_counts(self, *names: str) -> dict[str, int]:
        """Jobs, stages run and tasks completed by the spans ``names``."""
        # The status store is fed asynchronously by the listener bus; drain it
        # so the counts include the last job of the last span.
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        jobs = [tracker.getJobInfo(j) for n in names for j in tracker.getJobIdsForGroup(n)]
        stages = {}
        for job in jobs:
            for sid in job.stageIds:
                info = tracker.getStageInfo(sid)
                if info is not None and info.numCompletedTasks > 0:
                    stages[sid] = info.numCompletedTasks
        return {"spark_jobs": len(jobs), "spark_stages": len(stages), "spark_tasks": sum(stages.values())}


class Bench:
    """One workload instance on one SparkSession."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.hybrid = workload.method == "hybrid"
        self.spark = None
        self.reference = None  # allocation digest of the first, cold solve

    # -- set-up ---------------------------------------------------------------
    def setup(self) -> float:
        """Start a SparkSession, build the inputs and constraints, and cache
        the input DataFrames. A repeated call restarts the session first (the
        JVM keeps running)."""
        from suite import build_inputs

        t0 = time.perf_counter()
        if self.spark is not None:
            self.spark.stop()
        self.spark = _session()
        self.inp = build_inputs(self.workload, self.seed)
        self.r1_df = self.spark.createDataFrame(self.inp.persons).persist()
        self.r2_df = self.spark.createDataFrame(self.inp.housing).persist()
        self.r1_df.count()
        self.r2_df.count()
        return time.perf_counter() - t0

    def warm_up(self) -> float:
        """``WARM_UP_ROUNDS`` untimed rounds of a solve and an evaluation of
        its result. Returns the time of the first, cold solve, whose
        allocation is the reference."""
        from suite import alloc_digest

        cold = None
        for _ in range(WARM_UP_ROUNDS):
            res, took = self.solve()
            if cold is None:
                cold = took
                self.reference = alloc_digest(res.phase1.alloc)
            self.evaluate(res.r1_hat, res.r2_hat)
            self.release(res)
        return cold

    def close(self) -> None:
        """Stop the SparkSession and the JVM it runs in."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()
                proc.wait(timeout=60)
            SparkContext._gateway = None
            SparkContext._jvm = None

    # -- solving and checking ------------------------------------------------
    def solve(self):
        from repro.core.pipeline import c_extension

        t0 = time.perf_counter()
        res = c_extension(
            self.spark, self.r1_df, self.r2_df, self.inp.ccs, self.inp.dcs,
            method=self.workload.method, seed=self.seed, node_limit=NODE_LIMIT,
        )
        return res, time.perf_counter() - t0

    @staticmethod
    def release(res) -> None:
        # blocking, so that freeing the blocks does not overlap the next solve
        res.vjoin.unpersist(blocking=True)
        res.r1_hat.unpersist(blocking=True)

    def check(self, alloc, binning, combos, r1_hat, r2_hat) -> list[str]:
        from checks import check_result
        from suite import alloc_digest

        bad = check_result(
            self.inp.persons, self.inp.housing, r1_hat.toPandas(), r2_hat.toPandas(),
            alloc, binning, combos, self.inp.dcs, hybrid=self.hybrid,
        )
        if alloc_digest(alloc) != self.reference:
            bad.append("allocation differs from the first, cold solve's")
        return bad

    def evaluate(self, r1_hat, r2_hat, tracer: Tracer | None = None) -> tuple[dict, list[str]]:
        """The §6.1 metrics; the DC error is checked against ``checks``."""
        from checks import dc_violators
        from repro.core import metrics

        span = tracer.span if tracer else _nospan
        t0 = time.perf_counter()
        with span("metrics.cc_report"):
            rep = metrics.cc_report(r1_hat, r2_hat, self.inp.ccs)
        with span("metrics.dc_error"):
            dc_err = metrics.dc_error(r1_hat, self.inp.dcs)
        took = time.perf_counter() - t0
        pdf = r1_hat.toPandas()
        expect = len(dc_violators(pdf, self.inp.dcs)) / len(pdf)
        bad = [] if dc_err == expect else [f"dc_error {dc_err} != {expect} from the pair check"]
        quality = {"evaluate_s": took, "cc_err_mean": float(rep["rel_err"].mean()), "dc_err": dc_err}
        return quality, bad

    # -- traced composition ----------------------------------------------------
    def traced_solve(self, tr: Tracer):
        """``c_extension``'s steps from the public calls, one span each."""
        from repro.core.allocation import (
            fill_null_combos_random, mark_null_combos_invalid, materialize_vjoin,
        )
        from repro.core.baseline import baseline_phase1
        from repro.core.binning import Binning, Combos, active_r2_columns
        from repro.core.hybrid import hybrid_phase1
        from repro.core.phase2 import complete_fk

        spark, ccs, seed = self.spark, self.inp.ccs, self.seed
        attrs = [c for c in self.r1_df.columns if c != "p_id"]
        active = active_r2_columns(ccs)
        t0 = time.perf_counter()
        with tr.span("binning.groupby"):
            distinct = self.r1_df.groupBy(*attrs).count().toPandas()
            active_counts = self.r2_df.groupBy(*active).count().toPandas()
        with tr.span("binning.build"):
            binning = Binning.build(distinct, ccs, attrs)
            combos = Combos.build(active_counts, active)
        if self.hybrid:
            # hybrid_phase1 times its own build_structure/split_s1_s2 and
            # alg2_allocate calls; alg1_allocate is timed apart, in ilp_alloc.
            with tr.span("hybrid.phase1"):
                p1 = hybrid_phase1(ccs, binning, combos, seed=seed, node_limit=NODE_LIMIT)
        else:
            with tr.span("baseline.phase1"):
                p1 = baseline_phase1(
                    ccs, binning, combos,
                    with_marginals=self.workload.method == "baseline_marginals",
                    seed=seed, node_limit=min(NODE_LIMIT, 4),
                )
        with tr.span("allocation.vjoin"):
            vjoin = materialize_vjoin(spark, self.r1_df, binning, p1.alloc, key="p_id")
            if self.hybrid:
                vjoin = mark_null_combos_invalid(vjoin)
            else:
                vjoin = fill_null_combos_random(vjoin, combos, seed=seed)
            vjoin = vjoin.persist()
            vjoin.count()
        with tr.span("phase2.spark"):
            combo_map = spark.createDataFrame(combos.table[[*active, "combo_id"]])
            r2_with_combo = self.r2_df.join(combo_map, on=active, how="inner")
            assign, r2_hat = complete_fk(
                spark, vjoin, r2_with_combo, self.r2_df, combos, binning,
                self.inp.dcs, ccs, strategy="coloring" if self.hybrid else "random",
                r2_key="h_id", seed=seed,
            )
            r1_hat = self.r1_df.join(assign, on="p_id", how="left").persist()
            r1_hat.count()
        total = time.perf_counter() - t0
        return binning, combos, p1, vjoin, r1_hat, r2_hat, total

    def ilp_alloc(self, tr: Tracer, p1, binning, combos) -> None:
        """Time ``alg1_allocate`` on S2 as ``hybrid_phase1`` called it, after
        an untimed ``alg2_allocate`` that leaves the same availability."""
        from repro.core.hasse import alg2_allocate
        from repro.core.ilp_phase import alg1_allocate

        avail = binning.avail
        alg2_allocate(p1.structure, p1.s1_ids, binning, avail, combos)
        s2 = set(p1.s2_ids)
        with tr.span("ilp_phase.alloc"):
            alg1_allocate(
                [c for c in self.inp.ccs if c.cc_id in s2], binning, combos, avail,
                marginals="restricted", restrict_vars=True, node_limit=NODE_LIMIT,
            )


@contextmanager
def _nospan(name: str):
    yield


def _log(msg: str) -> None:
    print(f"perfbench [{time.perf_counter() - T0:6.1f}s]: {msg}", file=sys.stderr, flush=True)


def _replay(workload: str, seed: int, reps: int) -> dict:
    """Run the driver-only replay in a child process and parse its result."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "replay.py"), "--workload", workload,
         "--seed", str(seed), "--reps", str(reps)],
        capture_output=True, text=True, timeout=REPLAY_TIMEOUT_S, env=os.environ.copy(),
    )
    if out.returncode != 0:
        raise RuntimeError(f"replay failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class Outcome:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def attempt(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception:  # a failed operation is counted, reported and survived
            self.failed += 1
            print(f"perfbench: {what} failed", file=sys.stderr)
            traceback.print_exc()

    def fail(self, what: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            print(f"perfbench: {what}: {'; '.join(problems)}", file=sys.stderr)


def run_untraced(bench: Bench, replay: dict, seconds: float, outcome: Outcome) -> dict:
    setups = [bench.setup() for _ in range(SETUP_REPS)]
    cold = bench.warm_up()
    _log(f"setup {[round(t, 2) for t in setups]}, cold solve {cold:.2f}")
    outcome.fail("replay", [] if replay["alloc_digest"] == bench.reference
                 else ["replay allocation differs from the Spark run's"])
    # Rounds of one solve and one evaluation of its result, so that host
    # slow-downs of a few seconds reach both medians alike.
    solves: list[float] = []
    evals: list[float] = []
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds += 1
        res = None
        with outcome.attempt("solve"):
            res, took = bench.solve()
            solves.append(took)
            outcome.fail("solve", bench.check(
                res.phase1.alloc, res.binning, res.combos, res.r1_hat, res.r2_hat
            ))
        if res is None:
            continue
        with outcome.attempt("evaluate"):
            quality, bad = bench.evaluate(res.r1_hat, res.r2_hat)
            evals.append(quality["evaluate_s"])
            outcome.fail("evaluate", bad)
        # Spark would otherwise reuse the cached V_Join and R̂1 for the
        # identical plans of the next solve.
        bench.release(res)
    if not solves or not evals:
        raise RuntimeError("every solve or every evaluation failed")
    _log(f"solves {[round(t, 2) for t in solves]}, evaluations {[round(t, 2) for t in evals]}")
    return {
        "solve_s": (statistics.median(solves), "s"),
        "evaluate_s": (statistics.median(evals), "s"),
        "peak_rss_mb": (replay["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups) + cold, "s"),
    }


def run_traced(bench: Bench, replay: dict, outcome: Outcome) -> dict:
    from suite import alloc_digest

    bench.setup()
    bench.warm_up()
    # An untraced solve and evaluation before the traced ones, and an
    # untraced solve after: the JVM is still warming up, so the untraced
    # time is the mean of the solves on either side of the traced one.
    res, before_s = bench.solve()
    outcome.attempted += 2
    outcome.fail("solve", bench.check(
        res.phase1.alloc, res.binning, res.combos, res.r1_hat, res.r2_hat
    ))
    untraced_digest = alloc_digest(res.phase1.alloc)
    outcome.fail("evaluate", bench.evaluate(res.r1_hat, res.r2_hat)[1])
    bench.release(res)

    tr = Tracer(bench.spark)
    outcome.attempted += 1
    binning, combos, p1, vjoin, r1_hat, r2_hat, traced_s = bench.traced_solve(tr)
    problems = bench.check(p1.alloc, binning, combos, r1_hat, r2_hat)
    if alloc_digest(p1.alloc) != untraced_digest:
        problems.append("traced allocation differs from the untraced run's")
    outcome.fail("traced solve", problems)
    fresh = r2_hat.count() - bench.r2_df.count()
    if bench.hybrid:
        bench.ilp_alloc(tr, p1, binning, combos)
    outcome.attempted += 1
    quality, bad = bench.evaluate(r1_hat, r2_hat, tr)
    outcome.fail("evaluate", bad)
    outcome.fail("replay", [] if replay["alloc_digest"] == untraced_digest
                 else ["replay allocation differs from the Spark run's"])

    s = tr.spans
    hybrid = bench.hybrid
    info = p1.ilp_info
    pairwise, recursion = p1.timings["pairwise"], p1.timings["recursion"]
    m = {
        "binning.groupby_s": (s["binning.groupby"], "s"),
        "binning.build_s": (s["binning.build"], "s"),
        "binning.bins": (len(binning.bins), "count"),
        "binning.combos": (len(combos), "count"),
        "hasse.pairwise_s": (pairwise, "s"),
        "hasse.recursion_s": (recursion, "s"),
        "hasse.s1_ccs": (len(p1.s1_ids), "count"),
        "hasse.s2_ccs": (len(p1.s2_ids), "count"),
        "ilp_phase.alloc_s": (s["ilp_phase.alloc"] if hybrid else s["baseline.phase1"], "s"),
        "ilp_phase.vars": (info["n_vars"], "count"),
        "ilp_phase.rows": (info["n_rows"], "count"),
        "ilp_phase.nodes": (info["nodes"], "count"),
        "ilp_phase.slack": (info["slack"], "count"),
        # the scorer loops: the hybrid_phase1 span minus its Hasse steps and
        # the separately timed (deterministic) Algorithm 1 call
        "hybrid.complete_s": (
            s["hybrid.phase1"] - pairwise - recursion - s["ilp_phase.alloc"] if hybrid else 0.0, "s"
        ),
        "hybrid.invalid_tuples": (p1.n_invalid, "count"),
        "baseline.phase1_s": (s.get("baseline.phase1", 0.0), "s"),
        "allocation.vjoin_s": (s["allocation.vjoin"], "s"),
        "conflict.edges_s": (replay["conflict.edges_s"], "s"),
        "conflict.edges": (replay["conflict.edges"], "count"),
        "conflict.max_partition": (replay["conflict.max_partition"], "count"),
        "coloring.color_s": (replay["coloring.color_s"], "s"),
        "coloring.fresh_colors": (replay["coloring.fresh_colors"], "count"),
        "phase2.spark_s": (s["phase2.spark"], "s"),
        "phase2.invalid_s": (replay["phase2.invalid_s"], "s"),
        "phase2.fresh_households": (fresh, "count"),
        "phase2.straggler_share": (replay["phase2.straggler_share"], "ratio"),
        "metrics.cc_report_s": (s["metrics.cc_report"], "s"),
        "metrics.dc_error_s": (s["metrics.dc_error"], "s"),
        "replay.phase1_s": (replay["replay.phase1_s"], "s"),
        "replay.phase2_s": (replay["replay.phase2_s"], "s"),
        "replay.total_s": (replay["replay.total_s"], "s"),
        "trace.total_s": (traced_s, "s"),
        "quality.cc_err_mean": (quality["cc_err_mean"], "ratio"),
        "quality.dc_err": (quality["dc_err"], "ratio"),
    }
    for layer, names in (
        ("binning", ["binning.groupby"]),
        ("allocation", ["allocation.vjoin"]),
        ("phase2", ["phase2.spark"]),
        ("metrics", ["metrics.cc_report", "metrics.dc_error"]),
    ):
        for k, v in tr.spark_counts(*names).items():
            m[f"{layer}.{k}"] = (v, "count")
    vjoin.unpersist(blocking=True)
    r1_hat.unpersist(blocking=True)
    res, after_s = bench.solve()
    outcome.attempted += 1
    outcome.fail("solve", bench.check(
        res.phase1.alloc, res.binning, res.combos, res.r1_hat, res.r2_hat
    ))
    bench.release(res)
    untraced_s = (before_s + after_s) / 2
    m["pipeline.spark_overhead_s"] = (untraced_s - replay["replay.total_s"], "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["quality.failed_frac"] = (outcome.failed / outcome.attempted, "ratio")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    _prepare_env()
    from suite import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    outcome = Outcome()
    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        # The replay runs before the JVM starts, so that no Spark thread or
        # Python worker competes with it.
        outcome.attempted += 1
        # Only the traced run reports the replay's times; the untraced run
        # needs its peak RSS and allocation, which one repetition gives.
        replay = _replay(args.workload, args.seed, REPLAY_REPS if args.trace else 1)
        _log(f"replay {replay['replay.total_s']:.2f}s")
        if args.trace:
            metrics = run_traced(bench, replay, outcome)
        else:
            metrics = run_untraced(bench, replay, args.seconds, outcome)
    finally:
        bench.close()
        shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
