"""Property-based tests (hypothesis) for the algorithmic substrates."""
import itertools

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coloring import color_with_extension, coloring_lf
from repro.core.conflict import enumerate_edges, pairwise_edges
from repro.core.constraints import (
    CC,
    CONTAINED,
    CONTAINS,
    DC,
    DISJOINT,
    EQUAL,
    Comp,
    Cond,
    OutsideComp,
    cc_relationship,
    pairwise_dc,
)
from repro.ilp import solve_ilp

# --------------------------------------------------------------------- Cond
interval = st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
    lambda t: (min(t), max(t))
)
cat = st.sets(st.sampled_from(["A", "B", "C"]), min_size=1)


@st.composite
def conds(draw):
    kw = {}
    if draw(st.booleans()):
        kw["Age"] = draw(interval)
    if draw(st.booleans()):
        kw["Rel"] = draw(cat)
    return Cond.of(**kw)


@given(conds(), conds())
@settings(max_examples=80, deadline=None)
def test_disjointness_symmetric(a, b):
    assert a.disjoint_with(b) == b.disjoint_with(a)


@given(conds(), conds(), conds())
@settings(max_examples=80, deadline=None)
def test_containment_transitive(a, b, c):
    if a.contains(b) and b.contains(c):
        assert a.contains(c)


@given(conds(), conds())
@settings(max_examples=80, deadline=None)
def test_containment_and_disjointness_exclusive_on_nonempty(a, b):
    """If a contains b and b is satisfiable, they cannot be disjoint."""
    if a.contains(b) and not b.is_empty():
        assert not a.disjoint_with(b)


@given(conds(), conds())
@settings(max_examples=60, deadline=None)
def test_containment_agrees_with_evaluation(a, b):
    """contains() must agree with row-level evaluation on a grid."""
    rows = pd.DataFrame(
        [(age, rel) for age in range(0, 41, 5) for rel in ["A", "B", "C"]],
        columns=["Age", "Rel"],
    )
    ma, mb = a.mask(rows), b.mask(rows)
    if a.contains(b):
        assert not (mb & ~ma).any()


@given(conds(), conds())
@settings(max_examples=60, deadline=None)
def test_cc_relationship_total_and_antisymmetric(a, b):
    cc1 = CC(0, a, Cond.of(Area="C"), 0)
    cc2 = CC(1, b, Cond.of(Area="C"), 0)
    r12 = cc_relationship(cc1, cc2)
    r21 = cc_relationship(cc2, cc1)
    flip = {CONTAINS: CONTAINED, CONTAINED: CONTAINS}
    assert r21 == flip.get(r12, r12)


# ----------------------------------------------------------------- coloring
@given(
    st.integers(2, 10),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20),
    st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_coloring_extension_always_proper(n, raw_edges, n_colors):
    edges = [tuple(sorted(e)) for e in raw_edges if e[0] != e[1] and max(e) < n]
    c, fresh = color_with_extension(n, edges, list(range(n_colors)), fresh_start=100)
    assert set(c) == set(range(n))
    for e in edges:
        assert len({c[v] for v in e}) >= 2


@given(
    st.integers(2, 8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=15),
)
@settings(max_examples=60, deadline=None)
def test_coloring_lf_never_miscolors(n, raw_edges):
    edges = [tuple(sorted(e)) for e in raw_edges if e[0] != e[1] and max(e) < n]
    c, skipped = coloring_lf(n, edges, {}, list(range(3)))
    for e in edges:
        if all(v in c for v in e):
            assert len({c[v] for v in e}) >= 2


# ----------------------------------------------------------------- conflict
@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_pairwise_edges_random_instances(seed):
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 15))
    pdf = pd.DataFrame(
        {
            "p_id": range(n),
            "Age": g.integers(0, 30, n),
            "Rel": g.choice(["A", "B"], n),
            "Multi_ling": g.integers(0, 2, n),
        }
    )
    dc = pairwise_dc("d", Cond.of(Rel="A"), Cond.of(), [("Age", "<", "Age", 0)])
    got = pairwise_edges(pdf, dc)
    # brute force
    expected = set()
    for i in range(n):
        for j in range(n):
            if i == j or pdf.Rel[i] != "A":
                continue
            if pdf.Age[i] < pdf.Age[j]:
                expected.add(tuple(sorted((i, j))))
    assert got == expected


def _random_dc(g, arity):
    """A DC with random preds on Rel and random Age/Rel comps."""
    preds = tuple(
        Cond.of(Rel=str(g.choice(["A", "B"]))) if g.random() < 0.5 else Cond.of()
        for _ in range(arity)
    )
    comps = []
    for _ in range(int(g.integers(0, 3))):
        i, j = (int(v) for v in g.integers(0, arity, 2))
        kind = g.integers(0, 3)
        if kind == 0:
            lo = int(g.integers(-10, 10))
            comps.append(OutsideComp(i, "Age", j, "Age", lo, lo + int(g.integers(0, 10))))
        elif kind == 1:
            comps.append(Comp(i, "Rel", str(g.choice(["=", "!="])), j, "Rel"))
        else:
            op = str(g.choice(["<", ">", "<=", ">=", "=", "!="]))
            comps.append(Comp(i, "Age", op, j, "Age", int(g.integers(-5, 5))))
    return DC("rnd", preds, tuple(comps))


def _brute_edges(pdf, dc):
    """Sorted position tuples of ordered distinct rows violating ``dc``."""
    rows = pdf.to_dict("records")
    out = set()
    for t in itertools.permutations(range(len(rows)), dc.arity):
        if not all(p.matches_row(rows[v]) for p, v in zip(dc.preds, t)):
            continue
        if all(
            bool(c.apply(np.array(rows[t[c.i]][c.col_i]), np.array(rows[t[c.j]][c.col_j])))
            for c in dc.comps
        ):
            out.add(tuple(sorted(t)))
    return out


@given(st.integers(0, 10_000), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_edges_match_bruteforce_on_random_dcs(seed, arity):
    """Conflict edges of random pairwise and 3-ary DCs equal a brute force
    over all ordered tuples of distinct rows."""
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 10))
    pdf = pd.DataFrame(
        {
            "p_id": range(n),
            "Age": g.integers(0, 30, n),
            "Rel": g.choice(["A", "B"], n),
        }
    )
    dc = _random_dc(g, arity)
    got = pairwise_edges(pdf, dc) if arity == 2 else set(enumerate_edges(pdf, [dc]))
    assert got == _brute_edges(pdf, dc)


# ---------------------------------------------------------------------- ILP
@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_ilp_zero_slack_on_consistent_systems(seed):
    g = np.random.default_rng(seed)
    m, n = int(g.integers(2, 6)), int(g.integers(4, 9))
    A0 = (g.random((m, n)) < 0.5).astype(float)
    b = A0 @ g.integers(0, 5, n)
    A = np.hstack([A0, np.eye(m), -np.eye(m)])
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    res = solve_ilp(A, b.astype(float), c, node_limit=150)
    assert res.integral
    assert abs(res.objective) < 1e-6
