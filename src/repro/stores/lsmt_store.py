"""From-scratch log-structured merge-tree store (the paper's ``k2-LSMT``).

The paper (Section 5.2) keys an LSM-tree by the composite ``(t, oid)``
with ``(x, y)`` as the value: benchmark snapshots become a single range
scan ``[(t, 0), (t, max_oid)]`` (keys for one timestamp are co-located
in sorted runs), and HWMT issues point/batch gets by ``(t, oid)``.

This module implements that structure over the local filesystem:

* **Memtable** — an in-memory dict of fresh inserts; flushed to a sorted
  run when it reaches ``memtable_limit`` entries. Reads see it as one
  more sorted source: a (t, oid)-sorted record array built from the dict
  on first read and dropped on every write.
* **SSTable run** — an immutable file of fixed-width records sorted by
  key. Record layout: ``t:int64, oid:int64, x:float64, y:float64``. Each
  run is memory-mapped once, when it is written, and keeps an in-memory
  index block: its ``(t, oid)`` keys packed into 16 bytes per row. Reads
  search the index and take the values from the mapped file, so they
  touch the files.
* **Size-tiered compaction** — when more than ``max_runs`` runs exist,
  all runs are merged (newest wins on duplicate keys) into one.

Every merge — compaction, snapshot and the key count — is one array
merge, :func:`_newest_wins`: concatenate the sources oldest first,
stable-sort by key, keep the last row of each key; a flush writes the
memtable's sorted record array. A snapshot narrows
each source to its rows at ``t`` by a binary search on the index first;
a batched ``gather`` is one ``searchsorted`` of all requested keys per
source, newer sources overwriting older ones. ``put_frame`` bulk-loads a
(t, oid)-sorted frame: a chunk that fills an empty memtable is written
straight as a run (the bytes insert-then-flush would write), the rest
goes into the memtable in one ``dict.update``. Keys are (t, oid) pairs
of non-negative ints, packed big-endian, so their bytewise order is key
order.
"""
from __future__ import annotations

import tempfile
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
import pandas as pd

from repro.stores.base import EMPTY_IDS, EMPTY_XY, gather_keys, validate_frame

_DTYPE = np.dtype([("t", "<i8"), ("oid", "<i8"), ("x", "<f8"), ("y", "<f8")])
# Index keys are packed big-endian, so comparing two keys' 16 bytes (the
# bytewise order of LevelDB-style stores) is (t, oid) order for
# non-negative keys; a negative query key sorts after every stored key.
_KEY = np.dtype([("t", ">i8"), ("oid", ">i8")])


class _Source(NamedTuple):
    """A (t, oid)-sorted source with unique keys: a run or the memtable."""

    rec: np.ndarray  # _DTYPE records (mapped from the file for runs)
    keys: np.ndarray  # the same rows' keys, packed by _pack, in memory
    path: Path | None = None


def _pack(t, oid) -> np.ndarray:
    """(t, oid) keys as 16-byte strings that sort in key order."""
    keys = np.empty(len(t), dtype=_KEY)
    keys["t"], keys["oid"] = t, oid
    return keys.view("V16")


def _newest_wins(parts: list[np.ndarray]) -> np.ndarray:
    """Merge (t, oid)-sorted arrays with unique keys, oldest first, into
    one sorted array keeping the newest row per key. Works on records
    and on key arrays alike."""
    if len(parts) == 1:
        return parts[0]
    cat = np.concatenate(parts)
    cat = cat[np.lexsort((cat["oid"], cat["t"]))]  # stable: newer rows last
    last = np.ones(len(cat), dtype=bool)
    last[:-1] = (cat["t"][1:] != cat["t"][:-1]) | (cat["oid"][1:] != cat["oid"][:-1])
    return cat[last]


class LSMTStore:
    """LSM-tree keyed by (t, oid) over the local filesystem."""

    def __init__(
        self,
        df: pd.DataFrame | None = None,
        *,
        directory: str | None = None,
        memtable_limit: int = 64_000,
        max_runs: int = 6,
    ):
        if directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="k2lsmt-")
            directory = self._tmp.name
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._memtable: dict[tuple[int, int], tuple[float, float]] = {}
        self._mem: _Source | None = None  # sorted view of the memtable
        self._memtable_limit = int(memtable_limit)
        self._max_runs = int(max_runs)
        self._runs: list[_Source] = []  # oldest → newest
        self._next_run = 0
        self._range = (0, -1)  # (min t, max t) over every key ever put
        if df is not None:
            self.put_frame(df)

    # ------------------------------------------------------------- write
    def put(self, t: int, oid: int, x: float, y: float) -> None:
        """Insert/overwrite one point; may trigger a flush."""
        t, oid = int(t), int(oid)
        if t < 0 or oid < 0:
            raise ValueError(f"negative key ({t}, {oid}): keys must be non-negative")
        self._widen(t, t)
        self._memtable[(t, oid)] = (float(x), float(y))
        self._mem = None
        if len(self._memtable) >= self._memtable_limit:
            self.flush()

    def put_frame(self, df: pd.DataFrame) -> None:
        """Bulk-insert a trajectory frame: the same runs and memtable a
        ``put`` per row in (t, oid) order would leave."""
        df = validate_frame(df)  # non-negative unique keys, (t, oid)-sorted
        if not len(df):
            return
        self._widen(int(df["t"].iloc[0]), int(df["t"].iloc[-1]))
        rec = np.empty(len(df), dtype=_DTYPE)
        for col in _DTYPE.names:
            rec[col] = df[col].to_numpy()
        # A put loop flushes whenever the memtable reaches the limit (so
        # every put flushes when the limit is below 1).
        limit = max(self._memtable_limit, 1)
        i = 0
        while i < len(rec):
            chunk = rec[i : i + limit]
            if not self._memtable and len(chunk) == limit:
                self._add_run(chunk)
                i += limit
                continue
            keys = list(zip(chunk["t"].tolist(), chunk["oid"].tolist()))
            new = ~np.fromiter(map(self._memtable.__contains__, keys), bool, len(keys))
            # Rows up to and including the one that fills the memtable.
            size = len(self._memtable) + np.cumsum(new)
            take = min(int(np.searchsorted(size, limit)) + 1, len(chunk))
            self._memtable.update(
                zip(keys[:take], zip(chunk["x"][:take].tolist(), chunk["y"][:take].tolist()))
            )
            self._mem = None
            i += take
            if len(self._memtable) >= limit:
                self.flush()

    def _widen(self, lo: int, hi: int) -> None:
        ts, te = self._range
        self._range = (lo, hi) if ts > te else (min(ts, lo), max(te, hi))

    def flush(self) -> None:
        """Write the memtable as a new sorted run."""
        if not self._memtable:
            return
        rec = self._memtable_source().rec
        self._memtable.clear()
        self._mem = None
        self._add_run(rec)

    def _add_run(self, rec: np.ndarray) -> None:
        self._runs.append(self._write_run(rec))
        if len(self._runs) > self._max_runs:
            self._compact()

    def _write_run(self, rec: np.ndarray) -> _Source:
        path = self._dir / f"run-{self._next_run:06d}.sst"
        self._next_run += 1
        rec.tofile(path)
        mapped = np.memmap(path, dtype=_DTYPE, mode="r").view(np.ndarray)  # keeps the map
        return _Source(mapped, _pack(rec["t"], rec["oid"]), path)

    def _compact(self) -> None:
        """Size-tiered compaction: merge all runs, newest wins per key."""
        old = self._runs
        self._runs = [self._write_run(_newest_wins([run.rec for run in old]))]
        for run in old:
            run.path.unlink()

    # -------------------------------------------------------------- read
    def _memtable_source(self) -> _Source | None:
        if self._mem is None and self._memtable:
            n = len(self._memtable)
            k = np.fromiter(chain.from_iterable(self._memtable), np.int64, 2 * n).reshape(n, 2)
            v = np.fromiter(chain.from_iterable(self._memtable.values()), np.float64, 2 * n)
            order = np.lexsort((k[:, 1], k[:, 0]))
            rec = np.empty(n, dtype=_DTYPE)
            rec["t"], rec["oid"] = k[order, 0], k[order, 1]
            rec["x"], rec["y"] = v[0::2][order], v[1::2][order]
            self._mem = _Source(rec, _pack(rec["t"], rec["oid"]))
        return self._mem

    def _sources(self) -> list[_Source]:
        """Runs oldest → newest, then the memtable."""
        mem = self._memtable_source()
        return self._runs + [mem] if mem is not None else self._runs

    def snapshot(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        t = int(t)
        bounds = _pack([t, t], [0, -1])  # (t, -1) sorts after every oid at t
        parts = []
        for src in self._sources():
            lo, hi = np.searchsorted(src.keys, bounds)
            if hi > lo:
                parts.append(src.rec[lo:hi])
        if not parts:
            return EMPTY_IDS, EMPTY_XY
        rec = _newest_wins(parts)
        return rec["oid"].copy(), np.column_stack((rec["x"], rec["y"]))

    def points(self, t: int, oids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        want = np.fromiter(oids, dtype=np.int64)
        _, hit, xy = self.gather(np.full(len(want), int(t), dtype=np.int64), want)
        return hit, xy

    def gather(self, t, oid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t, oid = gather_keys(t, oid)
        if not len(t):
            return EMPTY_IDS, EMPTY_IDS, EMPTY_XY
        want = _pack(t, oid)
        xy = np.empty((len(t), 2), dtype=np.float64)
        found = np.zeros(len(t), dtype=bool)
        for src in self._sources():  # oldest first: newer sources overwrite
            pos = np.minimum(np.searchsorted(src.keys, want), len(src.keys) - 1)
            hit = src.keys[pos] == want
            r = src.rec[pos[hit]]
            xy[hit, 0], xy[hit, 1] = r["x"], r["y"]
            found |= hit
        return t[found], oid[found], xy[found]

    # ------------------------------------------------------------- stats
    def time_range(self) -> tuple[int, int]:
        return self._range

    def total_points(self) -> int:
        keys = [src.keys.view(_KEY) for src in self._sources()]
        return len(_newest_wins(keys)) if keys else 0

    @property
    def n_runs(self) -> int:
        return len(self._runs)
