"""Driver-only replay of ``c_extension``'s algorithm layers on pandas.

No JVM is started: binning, phase I, V_Join materialisation, per-partition
phase II and invalid-tuple resolution run on the driver over pandas frames,
through the same public functions the Spark pipeline calls. The replay runs
in its own process, and resets the peak RSS once the inputs are built, so
that the peak covers only this work:

    python3 perfbench/replay.py --workload NAME --seed N

It rebuilds the workload's inputs from the seed (untimed), runs the replay
``--reps`` times and prints one JSON object as its last line of output: the
median of each time, the counts, the allocation digest and the peak RSS
above the RSS the process had before the replay.
"""
from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np
import pandas as pd

from suite import WORKLOADS, Inputs, alloc_digest, build_inputs


def _phase1(inp: Inputs, seed: int):
    from repro.core.baseline import baseline_phase1
    from repro.core.binning import Binning, Combos, active_r2_columns
    from repro.core.hybrid import hybrid_phase1

    attrs = [c for c in inp.persons.columns if c != "p_id"]
    distinct = inp.persons.groupby(attrs).size().reset_index(name="count")
    binning = Binning.build(distinct, inp.ccs, attrs)
    active = active_r2_columns(inp.ccs)
    active_counts = inp.housing.groupby(active).size().reset_index(name="count")
    combos = Combos.build(active_counts, active)
    if inp.workload.method == "hybrid":
        p1 = hybrid_phase1(inp.ccs, binning, combos, seed=seed)
    else:
        p1 = baseline_phase1(
            inp.ccs, binning, combos,
            with_marginals=inp.workload.method == "baseline_marginals",
            seed=seed, node_limit=4,
        )
    return binning, combos, p1


def _vjoin(inp: Inputs, binning, combos, alloc: pd.DataFrame, seed: int) -> pd.DataFrame:
    """pandas counterpart of ``materialize_vjoin`` plus the null-combo fill."""
    from repro.core.allocation import alloc_ranges
    from repro.core.hybrid import INVALID_COMBO

    tagged = inp.persons.merge(binning.mapping, on=binning.attrs, how="left")
    tagged = tagged.sort_values("p_id", kind="stable").reset_index(drop=True)
    tagged["__idx"] = tagged.groupby("bin_id").cumcount()
    hit = tagged.merge(alloc_ranges(alloc), on="bin_id")
    hit = hit[(hit["__idx"] >= hit["start"]) & (hit["__idx"] < hit["end"])]
    vj = tagged.merge(hit[["p_id", "combo_id"]], on="p_id", how="left")
    missing = vj["combo_id"].isna().to_numpy()
    if inp.workload.method == "hybrid":
        fill = np.full(missing.sum(), INVALID_COMBO)
    else:
        fill = np.random.default_rng(seed).integers(0, len(combos), missing.sum())
    combo = vj["combo_id"].to_numpy(dtype=float)
    combo[missing] = fill
    vj["combo_id"] = combo.astype(np.int64)
    return vj.drop(columns="__idx")


def _phase2(inp: Inputs, binning, combos, vj: pd.DataFrame, seed: int) -> dict:
    """Per-partition phase II (Algorithm 4) plus invalid-tuple resolution."""
    from repro.core.coloring import color_with_extension
    from repro.core.conflict import enumerate_edges
    from repro.core.hybrid import INVALID_COMBO
    from repro.core.phase2 import solve_invalid_tuples

    valid = vj[vj["combo_id"] != INVALID_COMBO]
    r2c = inp.housing.merge(
        combos.table[[*combos.active_cols, "combo_id"]], on=combos.active_cols
    )
    keys_of = {int(c): np.sort(g["h_id"].to_numpy()) for c, g in r2c.groupby("combo_id")}
    max_key = int(inp.housing["h_id"].max())
    nxt = max_key + 1
    edges_s = color_s = 0.0
    n_edges = fresh = 0
    part_s: list[float] = []
    part_n: list[int] = []
    coloring = inp.workload.method == "hybrid"
    for combo_id, part in valid.groupby("combo_id", sort=True):
        lp = part.sort_values("p_id").reset_index(drop=True)
        keys = keys_of.get(int(combo_id), np.array([], dtype=np.int64))
        t0 = time.perf_counter()
        if coloring:
            edges = enumerate_edges(lp, inp.dcs)
            t1 = time.perf_counter()
            _, used = color_with_extension(len(lp), edges, keys.tolist(), nxt)
            t2 = time.perf_counter()
            n_edges += len(edges)
            fresh += len(used)
        else:  # random strategy: one uniform candidate key per tuple
            g = np.random.default_rng(seed + int(combo_id))
            g.choice(keys, size=len(lp))
            t1 = t2 = time.perf_counter()
        edges_s += t1 - t0
        color_s += t2 - t1
        part_s.append(t2 - t0)
        part_n.append(len(lp))
        nxt += len(lp)

    t0 = time.perf_counter()
    inv = vj[vj["combo_id"] == INVALID_COMBO][["p_id", "bin_id"]]
    solve_invalid_tuples(inv, inp.ccs, binning, combos, nxt)
    invalid_s = time.perf_counter() - t0
    largest = int(np.argmax(part_n)) if part_n else 0
    return {
        "conflict.edges_s": edges_s,
        "conflict.edges": n_edges,
        "conflict.max_partition": max(part_n, default=0),
        "coloring.color_s": color_s,
        "coloring.fresh_colors": fresh,
        "phase2.invalid_s": invalid_s,
        "phase2.straggler_share": part_s[largest] / sum(part_s) if sum(part_s) > 0 else 1.0,
    }


def _status_mb(field: str) -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} in /proc/self/status")


def _reset_peak_rss() -> float:
    """Reset this process's peak RSS (``VmHWM``) to its current RSS and
    return that RSS, so that a later ``VmHWM`` covers only what follows."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return _status_mb("VmRSS")


def replay_once(inp: Inputs, seed: int) -> dict:
    t0 = time.perf_counter()
    binning, combos, p1 = _phase1(inp, seed)
    t1 = time.perf_counter()
    vj = _vjoin(inp, binning, combos, p1.alloc, seed)
    t2 = time.perf_counter()
    out = _phase2(inp, binning, combos, vj, seed)
    t3 = time.perf_counter()
    out.update(
        {
            "replay.phase1_s": t1 - t0,
            "replay.vjoin_s": t2 - t1,
            "replay.phase2_s": t3 - t2,
            "replay.total_s": t3 - t0,
            "alloc_digest": alloc_digest(p1.alloc),
        }
    )
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--reps", type=int, required=True)
    args = ap.parse_args()

    inp = build_inputs(WORKLOADS[args.workload], args.seed)
    base_mb = _reset_peak_rss()
    runs = [replay_once(inp, args.seed) for _ in range(args.reps)]
    if len({r["alloc_digest"] for r in runs}) != 1:
        raise SystemExit("replay allocation differs between repetitions")
    out = {k: v for k, v in runs[-1].items() if not isinstance(v, float)}
    for k, v in runs[-1].items():
        if isinstance(v, float):
            out[k] = statistics.median(r[k] for r in runs)
    out["reps"] = len(runs)
    out["peak_rss_mb"] = _status_mb("VmHWM") - base_mb
    print(json.dumps(out))


if __name__ == "__main__":
    main()
