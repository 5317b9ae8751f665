"""The k/2-hop convoy miner (paper Algorithm 1) — sequential driver.

Pipeline over a :class:`TrajectoryStore`:

1. cluster the **benchmark snapshots** (every ⌊k/2⌋-th timestamp);
2. intersect adjacent benchmark cluster sets → **candidate clusters**;
3. **HWMT** over all hop-windows in lockstep → 1st-order spanning convoys;
4. **DCM-merge** → maximal spanning convoys;
5. **extend** right then left → semi-connected candidates (≥ k long);
6. **validate** (restricted re-mining) → maximal FC convoys.

Every phase is timed, and when the store is a :class:`MeteredStore` the
point reads are attributed per phase — together these produce the
paper's Table 5 (pruning) and Fig. 8i (phase breakdown) numbers.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.benchmarks import (
    benchmark_cluster_sets,
    benchmark_points,
    candidate_clusters,
    hop_windows,
)
from repro.core.clustering import check_params
from repro.core.convoy import Convoy
from repro.core.extend import extend_left, extend_right
from repro.core.hwmt import hwmt
from repro.core.merge import dcm_merge
from repro.core.validate import validate
from repro.stores.base import TrajectoryStore
from repro.stores.metered import MeteredStore


@dataclass
class K2HopResult:
    """Mining output plus per-phase instrumentation."""

    convoys: list[Convoy]
    phase_seconds: dict[str, float] = field(default_factory=dict)
    points_processed: int = 0
    pruning_pct: float = 0.0
    n_spanning: int = 0
    n_maximal_spanning: int = 0
    n_prevalidation: int = 0


def k2hop(
    store: TrajectoryStore,
    m: int,
    k: int,
    eps: float,
    *,
    do_validate: bool = True,
) -> K2HopResult:
    """Mine all maximal FC (m,eps)-convoys of length ≥ k.

    ``do_validate=False`` stops after extension, returning the
    *semi-connected* candidates — the pre-validation set Fig. 8j counts.
    """
    check_params(eps, m)
    metered = store if isinstance(store, MeteredStore) else None
    times: dict[str, float] = {}

    def phase(name: str):
        if metered is not None:
            metered.set_phase(name)
        times[name] = time.perf_counter()
        return name

    def done(name: str):
        times[name] = time.perf_counter() - times[name]

    ts, te = store.time_range()

    p = phase("benchmark")
    bpts = benchmark_points(ts, te, k)
    csets = benchmark_cluster_sets(store, bpts, m, eps)
    done(p)

    p = phase("candidate")
    windows = hop_windows(bpts)
    ccs = [candidate_clusters(csets[a], csets[b], m) for a, b in windows]
    done(p)

    p = phase("hwmt")
    spanning = hwmt(store, windows, ccs, m, eps)
    n_spanning = sum(len(s) for s in spanning)
    done(p)

    p = phase("merge")
    merged = dcm_merge(spanning, m)
    done(p)

    p = phase("extend-right")
    right = extend_right(store, merged, m, eps)
    done(p)

    p = phase("extend-left")
    extended = [v for v in extend_left(store, right, m, eps) if v.length >= k]
    done(p)

    if do_validate:
        p = phase("validation")
        convoys = validate(store, extended, m, k, eps)
        done(p)
    else:
        convoys = extended

    return K2HopResult(
        convoys=convoys,
        phase_seconds=times,
        points_processed=metered.points_processed if metered else 0,
        pruning_pct=metered.pruning_pct if metered else 0.0,
        n_spanning=n_spanning,
        n_maximal_spanning=len(merged),
        n_prevalidation=len(extended),
    )
