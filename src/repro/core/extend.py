"""Extension of maximal spanning convoys to their true starts and ends
(paper §4.5, Algorithm 3 ``extendRight`` + its symmetric left pass).

Each maximal spanning convoy is re-clustered timestamp-by-timestamp past
its benchmark-point boundaries, restricted to its own objects. A
reclustering can continue the convoy whole, split it into smaller
branches (each explored independently, inheriting the original start),
or kill it. A convoy that does not survive *in its current shape* is
recorded via the antichain ``update``; branches carry on.

All convoys advance in lockstep: each step reclusters every live branch
of every convoy at that convoy's next timestamp off one batched store
read, so a pass costs one store call per timestamp stepped rather than
one per (convoy, branch, timestamp).

After the right pass, the left pass extends the right-closed convoys
toward ``Ts``. Only then is the minimum-length constraint k applied:
a convoy that fails k after the right pass may still reach k by growing
left, so the filter must wait (paper §4.5).
"""
from __future__ import annotations

from repro.core.convoy import Convoy, update
from repro.core.hwmt import recluster_steps
from repro.stores.base import TrajectoryStore


def _advance(
    prev: dict[frozenset[int], Convoy],
    t: int,
    found: list[list[frozenset[int]]],
    direction: int,
    result: set[Convoy],
) -> dict[frozenset[int], Convoy]:
    """One step of one convoy: grow its branches ``prev`` to ``t``, given
    the clusters ``found`` for each branch at ``t``.

    Branches with identical object sets are deduplicated keeping the
    widest lifespan; sub-branches dominated by a sibling superset with an
    equal-or-wider lifespan are dropped (only non-maximal results lost).
    """
    nxt: dict[frozenset[int], Convoy] = {}
    for (objs, v), clusters in zip(prev.items(), found):
        if not clusters:
            update(result, v)
            continue
        survived_whole = False
        for c in clusters:
            if c == objs:
                survived_whole = True
            grown = (
                Convoy(ts=v.ts, te=t, objs=c)
                if direction > 0
                else Convoy(ts=t, te=v.te, objs=c)
            )
            old = nxt.get(c)
            if old is not None:
                # Same objects from two parent branches: keep the
                # widest lifespan (the frontier end equals t for all
                # branches, so min/max picks the realized wider one).
                grown = Convoy(
                    ts=min(grown.ts, old.ts), te=max(grown.te, old.te), objs=c
                )
            nxt[c] = grown
        if not survived_whole:
            update(result, v)
    # Dominance: a branch is redundant if a sibling superset covers
    # its interval — all its future extensions are sub-convoys.
    return {
        objs: v
        for objs, v in nxt.items()
        if not any(
            objs < o2 and v2.ts <= v.ts and v.te <= v2.te
            for o2, v2 in nxt.items()
        )
    }


def _extend(
    store: TrajectoryStore,
    convoys: list[Convoy],
    m: int,
    eps: float,
    direction: int,
    t_stop: int,
) -> list[Convoy]:
    """Extend every convoy right (direction=+1) or left (−1) until t_stop."""
    result: set[Convoy] = set()
    # One frontier per convoy: its next timestamp and its live branches.
    fronts = [((v.te if direction > 0 else v.ts) + direction, {v.objs: v}) for v in convoys]
    while fronts:
        live = []
        for t, prev in fronts:
            if (t - t_stop) * direction <= 0:
                live.append((t, prev))
            else:  # ran off the dataset edge
                for v in prev.values():
                    update(result, v)
        found = iter(
            recluster_steps(store, [(t, [objs]) for t, prev in live for objs in prev], m, eps)
        )
        fronts = []
        for t, prev in live:
            nxt = _advance(prev, t, [next(found) for _ in prev], direction, result)
            if nxt:
                fronts.append((t + direction, nxt))
    return sorted(result)


def extend_right(
    store: TrajectoryStore, convoys: list[Convoy], m: int, eps: float
) -> list[Convoy]:
    """Algorithm 3: extend every convoy to its right-closed forms."""
    _ts, te = store.time_range()
    return _extend(store, convoys, m, eps, +1, te)


def extend_left(
    store: TrajectoryStore, convoys: list[Convoy], m: int, eps: float
) -> list[Convoy]:
    """Symmetric left pass, from ts(v)−1 down to Ts."""
    ts, _te = store.time_range()
    return _extend(store, convoys, m, eps, -1, ts)


def extend(
    store: TrajectoryStore, convoys: list[Convoy], m: int, k: int, eps: float
) -> list[Convoy]:
    """Right pass, left pass, then the minimum-length-k filter."""
    out = extend_left(store, extend_right(store, convoys, m, eps), m, eps)
    return [v for v in out if v.length >= k]
