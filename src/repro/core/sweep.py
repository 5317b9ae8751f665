"""Exhaustive convoy sweep over a per-timestamp cluster sequence.

This is the corrected CMC-style miner (PCCD semantics, Yoon & Shahabi):
scan timestamps in order keeping *all* maximal candidate convoys open,
intersect each with every cluster of the next snapshot, and emit a
candidate when it cannot be continued in its current shape. Unlike the
original CMC, candidates are not matched greedily — every (candidate ×
cluster) intersection of size ≥ m is kept — which fixes CMC's known
accuracy/recall bugs.

Used by: the VCoDA/PCCD baselines (over full snapshots), the DCM
baseline (per temporal partition), and k/2-hop's validation phase
(over a dataset restricted to one candidate's objects × lifespan, where
it plays the role of HWMT* — exact and, on the tiny restricted data,
just as cheap; see DESIGN.md §5).
"""
from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.clustering import meps_clusters
from repro.core.convoy import Convoy, antichain
from repro.stores.base import TrajectoryStore


def sweep_maximal_convoys(
    cluster_seq: Iterable[tuple[int, list[frozenset[int]]]],
    m: int,
    k: int,
    *,
    edge_ts: tuple[int, int] | None = None,
) -> list[Convoy]:
    """Maximal (partially-connected) convoys of length ≥ k.

    ``cluster_seq`` yields (t, clusters) in strictly increasing t; a gap
    in t closes every open candidate (objects cannot be "together" at a
    missing timestamp).

    ``edge_ts=(t_lo, t_hi)`` is the DCM per-partition mode: convoys
    shorter than k are also emitted when they start at ``t_lo`` or end
    at ``t_hi`` — such fragments may grow across partition borders.
    """
    out: set[Convoy] = set()
    open_set: dict[frozenset[int], int] = {}  # objects → start time

    def close(objs: frozenset[int], s: int, e: int) -> None:
        v = Convoy(ts=s, te=e, objs=objs)
        if v.length >= k or (
            edge_ts is not None and (s == edge_ts[0] or e == edge_ts[1])
        ):
            out.add(v)

    t_prev: int | None = None
    for t, clusters in cluster_seq:
        if t_prev is not None and t != t_prev + 1:  # gap: close everything
            for objs, s in open_set.items():
                close(objs, s, t_prev)
            open_set = {}
        nxt: dict[frozenset[int], int] = {}
        for c in clusters:
            nxt[c] = min(nxt.get(c, t), t)
        for objs, s in open_set.items():
            for c in clusters:
                inter = objs & c
                if len(inter) >= m:
                    nxt[inter] = min(nxt.get(inter, s), s)
        # Dominance prune: (O, s) is redundant if (O', s') has O ⊂ O',
        # s' ≤ s — its closure would be a sub-convoy of O''s closure.
        items = sorted(nxt.items(), key=lambda kv: (len(kv[0]), -kv[1]), reverse=True)
        pruned: dict[frozenset[int], int] = {}
        for objs, s in items:
            if not any(objs < o2 and s2 <= s for o2, s2 in pruned.items()):
                pruned[objs] = s
        # Close candidates that did not survive in their current shape
        # (only reachable when t == t_prev + 1; gaps cleared open_set).
        for objs, s in open_set.items():
            if not any(objs <= o2 and s2 <= s for o2, s2 in pruned.items()):
                close(objs, s, t - 1)
        open_set = pruned
        t_prev = t
    if t_prev is not None:
        for objs, s in open_set.items():
            close(objs, s, t_prev)
    return sorted(antichain(out))


def store_cluster_seq(
    store: TrajectoryStore, m: int, eps: float, *, mode: str = "grid"
) -> Iterator[tuple[int, list[frozenset[int]]]]:
    """Per-timestamp (m,eps)-clusters of every snapshot in a store."""
    ts, te = store.time_range()
    for t in range(ts, te + 1):
        yield t, meps_clusters(*store.snapshot(t), m, eps, mode=mode)
