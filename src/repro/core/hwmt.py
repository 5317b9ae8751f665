"""Hop-Window Mining Tree (paper §4.3, Algorithm 2, Figures 4/6, Table 2).

HWMT validates the togetherness of candidate-cluster objects at the
*interior* timestamps of a hop-window, visiting them in binary-bisection
(farthest-first) order: the root is the middle timestamp, the next level
the middles of the two halves, and so on. Coincidental togetherness is
cheapest to refute at distant timestamps, so whole windows are abandoned
after only 1–2 reclusterings when no convoy spans them.

Reclustering chains *per timestamp* (the surviving clusters at (2,1)
are the input at (2,2)), exactly as the paper's Table 2 walks through
its Figure 6 example; Algorithm 2's pseudocode is ambiguous between
per-timestamp and per-level chaining, but both yield the same final
cluster set — chaining per timestamp simply prunes faster.

All hop-windows walk their bisection orders in lockstep: step j
reclusters every still-live window at its j-th timestamp off one batched
store read. Each window's sequence of reclusterings and its abandon
point are those of a window mined alone, so the points read are the
same; only the number of store calls drops, to one per step.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.clustering import meps_clusters
from repro.core.convoy import Convoy
from repro.stores.base import TrajectoryStore


def hwmt_order(lo: int, hi: int) -> list[list[int]]:
    """Bisection visit order of the open interval (lo, hi).

    Returns levels (root first); each level's timestamps are ordered
    left-to-right, matching Figure 4: for (0, 8) → [[4], [2, 6],
    [1, 3, 5, 7]].
    """
    levels: list[list[int]] = []
    frontier = [(lo, hi)]
    while frontier:
        level: list[int] = []
        nxt: list[tuple[int, int]] = []
        for a, b in frontier:
            if b - a <= 1:
                continue
            mid = (a + b) // 2
            level.append(mid)
            nxt.extend([(a, mid), (mid, b)])
        if level:
            levels.append(level)
        frontier = nxt
    return levels


def recluster(
    oids: np.ndarray,
    xy: np.ndarray,
    groups: Sequence[frozenset[int]],
    m: int,
    eps: float,
) -> list[frozenset[int]]:
    """reCluster(DB[t]|O(g)) for each candidate group g → surviving clusters.

    ``oids``/``xy`` are rows already read at one timestamp (sorted by
    oid) and may hold objects outside the groups; each group is
    reclustered restricted to its own objects. Results are the union of
    per-group (m,eps)-clusters, so disjoint groups give disjoint outputs.
    """
    out: list[frozenset[int]] = []
    for g in groups:
        want = np.sort(np.fromiter(g, dtype=np.int64, count=len(g)))
        keep = want[np.searchsorted(want, oids).clip(max=len(want) - 1)] == oids
        out.extend(meps_clusters(oids[keep], xy[keep], m, eps))
    return out


def recluster_steps(
    store: TrajectoryStore,
    steps: Sequence[tuple[int, Sequence[frozenset[int]]]],
    m: int,
    eps: float,
) -> list[list[frozenset[int]]]:
    """:func:`recluster` every ``(t, groups)`` step off one ``gather`` call."""
    if not steps:
        return []
    key_t = np.fromiter((t for t, gs in steps for g in gs for _ in g), dtype=np.int64)
    key_oid = np.fromiter((o for _, gs in steps for g in gs for o in g), dtype=np.int64)
    got_t, got_oid, got_xy = store.gather(key_t, key_oid)
    step_t = np.fromiter((t for t, _ in steps), dtype=np.int64, count=len(steps))
    lo = np.searchsorted(got_t, step_t, side="left")
    hi = np.searchsorted(got_t, step_t, side="right")
    return [
        recluster(got_oid[a:b], got_xy[a:b], gs, m, eps)
        for (_, gs), a, b in zip(steps, lo, hi)
    ]


def hwmt(
    store: TrajectoryStore,
    windows: Sequence[tuple[int, int]],
    ccs: Sequence[Sequence[frozenset[int]]],
    m: int,
    eps: float,
) -> list[list[Convoy]]:
    """Mine the 1st-order spanning convoys of every hop-window.

    ``ccs[i]`` is window i's candidate cluster set (already
    size-filtered). Returns, per window, its spanning convoys with
    lifespan set to the *bordering benchmark points* [b_i, b_{i+1}]
    (Algorithm 2 line 11) — empty as soon as any timestamp kills all of
    the window's candidates.
    """
    orders = [[t for level in hwmt_order(a, b) for t in level] for a, b in windows]
    groups = [list(cc) for cc in ccs]
    for step in range(max(map(len, orders), default=0)):
        live = [i for i, g in enumerate(groups) if g and step < len(orders[i])]
        if not live:
            break
        found = recluster_steps(store, [(orders[i][step], groups[i]) for i in live], m, eps)
        for i, g in zip(live, found):
            groups[i] = g
    return [
        [Convoy(ts=a, te=b, objs=g) for g in gs] for (a, b), gs in zip(windows, groups)
    ]
