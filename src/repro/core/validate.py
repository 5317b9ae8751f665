"""Fully-connected convoy validation (paper §4.6, Algorithm 4).

An FC convoy (O, T) is exactly a convoy of the dataset *restricted* to
its own objects and lifespan. For each extended candidate we therefore
re-mine ``DB[T(v)]|O(v)``: if the candidate comes back whole it is FC;
otherwise the (strictly smaller) convoys found are re-validated, until
candidates either prove FC or fall below m objects / k timestamps.

The restricted miner — the paper's HWMT* — is implemented as the exact
exhaustive sweep over the restriction (see DESIGN.md §5): on the tiny
restricted datasets both formulations are exact, and the paper measures
validation time as negligible (Fig. 8i). Each candidate's whole
``[ts, te] × O(v)`` block is read in one batched store call.

The returned set is the maximal antichain of FC convoys (the FC Convoy
Mining Problem, Definition 8).
"""
from __future__ import annotations

from repro.core.convoy import Convoy, antichain
from repro.core.hwmt import recluster_steps
from repro.core.sweep import sweep_maximal_convoys
from repro.stores.base import TrajectoryStore


def restricted_mine(
    store: TrajectoryStore, v: Convoy, m: int, k: int, eps: float
) -> list[Convoy]:
    """HWMT*: all maximal convoys of length ≥ k in DB[T(v)]|O(v)."""
    span = range(v.ts, v.te + 1)
    seq = recluster_steps(store, [(t, [v.objs]) for t in span], m, eps)
    return sweep_maximal_convoys(zip(span, seq), m, k)


def validate(
    store: TrajectoryStore, candidates: list[Convoy], m: int, k: int, eps: float
) -> list[Convoy]:
    """Algorithm 4: reduce extended candidates to maximal FC convoys."""
    fc: set[Convoy] = set()
    todo: set[Convoy] = {v for v in candidates if len(v.objs) >= m and v.length >= k}
    seen: set[Convoy] = set(todo)
    while todo:
        v = todo.pop()
        found = restricted_mine(store, v, m, k, eps)
        if found == [v]:
            fc.add(v)
            continue
        for w in found:
            if w == v:  # v re-found alongside smaller convoys: FC too
                fc.add(v)
            elif len(w.objs) >= m and w.length >= k and w not in seen:
                seen.add(w)
                todo.add(w)
    return sorted(antichain(fc))
