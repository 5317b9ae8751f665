"""Reference convoy sets for the benchmark's queries, and the canonical
form results are compared in.

The reference miner is VCoDA* (full clustering of every snapshot, then
the corrected PCCD sweep and validation), an algorithm independent of
k/2-hop's pruning. It costs seconds per query, so its answers are cached
in ``reference.json`` next to this file, keyed by the digest of the
canonical input frame and by the query; the two T-Drive workloads
share entries. A miss (say, after a generator change altered the frame)
is computed outside any timed region and written back to the cache.

Run this file to fill the cache for every workload::

    python3 perfbench/reference.py
"""
from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

CACHE = Path(__file__).resolve().parent / "reference.json"

Canonical = list[list]  # [[ts, te, [oid, ...]], ...] in sorted order


def canonical(convoys) -> Canonical:
    """Sort convoys by (ts, te, sorted objects): a total order.

    ``Convoy``'s own ordering compares frozensets with ``<``, a subset
    test, so ``sorted(convoys)`` depends on input order.
    """
    return [
        [ts, te, list(objs)]
        for ts, te, objs in sorted(
            (int(c.ts), int(c.te), tuple(sorted(int(o) for o in c.objs)))
            for c in convoys
        )
    ]


def query_key(m: int, k: int, eps: float) -> str:
    return f"m={m},k={k},eps={eps:g}"


class Reference:
    """VCoDA* answers for one frame, computed on a cache miss."""

    def __init__(self, digest: str, frame):
        self.digest = digest
        self._frame = frame
        self._all = json.loads(CACHE.read_text()) if CACHE.exists() else {}
        self._mine = self._all.setdefault(digest, {})

    def expected(self, m: int, k: int, eps: float) -> Canonical:
        key = query_key(m, k, eps)
        if key not in self._mine:
            from repro.baselines.vcoda import vcoda_star
            from repro.stores import FileStore

            t0 = time.perf_counter()
            self._mine[key] = canonical(vcoda_star(FileStore(self._frame), m, k, eps))
            print(f"reference: computed {self.digest} {key} with VCoDA* in "
                  f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
            self._save()
        return self._mine[key]

    def digest_of(self, queries) -> str:
        """Digest of the reference answers for ``queries``."""
        blob = json.dumps([self.expected(*q) for q in queries])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def _save(self) -> None:
        tmp = CACHE.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._all, indent=1, sort_keys=True) + "\n")
        tmp.replace(CACHE)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS, frame_digest

    frames: dict[str, object] = {}
    for w in WORKLOADS.values():
        if w.dataset.name not in frames:
            frames[w.dataset.name] = w.dataset.frame()
        frame = frames[w.dataset.name]
        ref = Reference(frame_digest(frame), frame)
        for q in w.queries:
            n = len(ref.expected(*q))
            print(f"{w.name} {query_key(*q)}: {n} convoys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
