"""Workload definitions and input construction shared by the Spark run and
the driver-only replay.

Every workload is a Census database (``repro.census.generate``) at scale 3
and shrink 0.02, generated from the benchmark's ``--seed``, plus an
``S_CC_bad`` CC set and the ``S_DC_good`` DC set from ``repro.workloads``.
Why each workload is there is recorded in ``BENCHMARK.json``. Both
processes build their inputs with ``build_inputs`` so they solve the same
instance.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import pandas as pd

SHRINK = 0.02
SCALE = 3  # paper scale: persons = 25,099 x SCALE x SHRINK
CC_SEED = 0  # seed of the CC-set shuffle; the data seed comes from --seed


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # c_extension method
    n_cc: int  # size of the S_CC_bad set


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hybrid_bad", "hybrid", 300),
        Workload("marginals_bad", "baseline_marginals", 20),
    )
}


@dataclass
class Inputs:
    workload: Workload
    persons: pd.DataFrame   # R1 with the FK dropped
    housing: pd.DataFrame   # R2
    ccs: list
    dcs: list


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's database and constraints from ``seed``."""
    from repro import census, workloads

    db = census.generate(scale=SCALE, shrink=SHRINK, seed=seed)
    ccs = workloads.make_cc_bad(db, n_cc=workload.n_cc, seed=CC_SEED)
    return Inputs(workload, db.persons_missing_fk(), db.housing, ccs, workloads.dcs_good())


def alloc_digest(alloc: pd.DataFrame) -> str:
    """Order-independent fingerprint of a phase-I allocation table."""
    rows = alloc[["bin_id", "combo_id", "count"]].sort_values(["bin_id", "combo_id"])
    return hashlib.sha256(rows.to_numpy(np.int64).tobytes()).hexdigest()[:16]
