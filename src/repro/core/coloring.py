"""Algorithm 3: largest-first greedy list coloring of a conflict hypergraph.

Vertices are tuple positions, edges are sets of positions that may not all
share one FK value. A color is forbidden for ``v`` only when some edge
through ``v`` has *all* its other vertices colored with that same color
(hyperedge semantics — at least two distinct colors per edge suffice).
Vertices whose candidate list is exhausted are *skipped* and returned for
the caller to retry with fresh colors (Algorithm 4 lines 11–12).
"""
from __future__ import annotations


def coloring_lf(
    n: int,
    edges: list[tuple[int, ...]],
    c: dict[int, int],
    colors: list[int],
) -> tuple[dict[int, int], list[int]]:
    """Run Algorithm 3 over vertices ``0..n-1``.

    ``c`` is the (possibly partial) coloring built so far — it is extended in
    place and also returned. ``colors`` is the shared candidate list L,
    tried in ascending order ("smallest available color", line 10).
    """
    adj: dict[int, list[tuple[int, ...]]] = {v: [] for v in range(n)}
    for e in edges:
        for v in e:
            adj[v].append(e)
    order = sorted(
        (v for v in range(n) if v not in c),
        key=lambda v: (-len(adj[v]), v),
    )
    L = sorted(colors)
    skipped: list[int] = []
    for v in order:
        forbidden = set()
        for e in adj[v]:
            others = [c[u] for u in e if u != v and u in c]
            if len(others) == len(e) - 1 and len(set(others)) == 1:
                forbidden.add(others[0])
        for col in L:
            if col not in forbidden:
                c[v] = col
                break
        else:
            skipped.append(v)
    return c, skipped


def color_with_extension(
    n: int,
    edges: list[tuple[int, ...]],
    colors: list[int],
    fresh_start: int,
) -> tuple[dict[int, int], list[int]]:
    """Color everything: Algorithm 3, then fresh colors for skipped vertices.

    Fresh colors are ``fresh_start, fresh_start+1, ...`` (they become new R2
    keys in Algorithm 4). Returns the total coloring and the list of fresh
    colors actually used.
    """
    c, skipped = coloring_lf(n, edges, {}, colors)
    used_fresh: list[int] = []
    next_fresh = fresh_start
    while skipped:
        fresh = list(range(next_fresh, next_fresh + len(skipped)))
        c, skipped = coloring_lf(n, edges, c, fresh)
        # report only fresh colors actually assigned (c only ever grows)
        assigned = set(c.values())
        used_fresh.extend(col for col in fresh if col in assigned)
        next_fresh += len(fresh)
    return c, used_fresh
