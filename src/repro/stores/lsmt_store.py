"""From-scratch log-structured merge-tree store (the paper's ``k2-LSMT``).

The paper (Section 5.2) keys an LSM-tree by the composite ``(t, oid)``
with ``(x, y)`` as the value: benchmark snapshots become a single range
scan ``[(t, 0), (t, max_oid)]`` (keys for one timestamp are co-located
in sorted runs), and HWMT issues point/batch gets by ``(t, oid)``.

This module implements that structure over the local filesystem:

* **Memtable** — an in-memory dict of fresh inserts; flushed to a sorted
  run when it exceeds ``memtable_limit`` entries.
* **SSTable run** — an immutable file of fixed-width records sorted by
  key; read back via ``np.memmap`` so reads actually touch the files.
  Record layout: ``t:int64, oid:int64, x:float64, y:float64``.
* **Size-tiered compaction** — when more than ``max_runs`` runs exist,
  all runs are k-way merged (newest wins on duplicate keys) into one.

Reads consult the memtable first, then runs from newest to oldest;
range scans merge all sources. A batched ``gather`` binary-searches all
requested keys in each run at once (newest run wins), then lets the
memtable override by key lookup. Keys are (t, oid) tuples of non-negative
ints, so numpy structured-array ordering matches key ordering.
"""
from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np
import pandas as pd

from repro.stores.base import EMPTY_IDS, EMPTY_XY, gather_keys, validate_frame

_DTYPE = np.dtype([("t", "<i8"), ("oid", "<i8"), ("x", "<f8"), ("y", "<f8")])


def _find(rec: np.ndarray, t: np.ndarray, oid: np.ndarray) -> np.ndarray:
    """Positions of the (t[i], oid[i]) keys in a (t, oid)-sorted run, −1
    where absent: one binary search over the run for all keys at once,
    touching O(len(t) · log len(rec)) records."""
    n = len(rec)
    lo = np.zeros(len(t), dtype=np.int64)
    hi = np.full(len(t), n, dtype=np.int64)
    while True:
        live = lo < hi
        if not live.any():
            break
        mid = (lo + hi) // 2
        r = rec[np.minimum(mid, n - 1)]
        below = (r["t"] < t) | ((r["t"] == t) & (r["oid"] < oid))
        lo = np.where(live & below, mid + 1, lo)
        hi = np.where(live & ~below, mid, hi)
    r = rec[np.minimum(lo, n - 1)]
    return np.where((lo < n) & (r["t"] == t) & (r["oid"] == oid), lo, -1)


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
        self._memtable_limit = int(memtable_limit)
        self._max_runs = int(max_runs)
        self._runs: list[Path] = []  # oldest → newest
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
        self._insert(t, oid, x, y)

    def put_frame(self, df: pd.DataFrame) -> None:
        """Bulk-insert a trajectory frame through the normal write path."""
        df = validate_frame(df)  # non-negative keys, sorted by t
        if len(df):
            self._widen(int(df["t"].iloc[0]), int(df["t"].iloc[-1]))
        for t, oid, x, y in df.itertuples(index=False):
            self._insert(t, oid, x, y)

    def _widen(self, lo: int, hi: int) -> None:
        ts, te = self._range
        self._range = (lo, hi) if ts > te else (min(ts, lo), max(te, hi))

    def _insert(self, t: int, oid: int, x: float, y: float) -> None:
        self._memtable[(int(t), int(oid))] = (float(x), float(y))
        if len(self._memtable) >= self._memtable_limit:
            self.flush()

    def flush(self) -> None:
        """Write the memtable as a new sorted run."""
        if not self._memtable:
            return
        rec = np.empty(len(self._memtable), dtype=_DTYPE)
        for i, ((t, oid), (x, y)) in enumerate(self._memtable.items()):
            rec[i] = (t, oid, x, y)
        rec.sort(order=("t", "oid"))
        path = self._dir / f"run-{self._next_run:06d}.sst"
        self._next_run += 1
        rec.tofile(path)
        self._runs.append(path)
        self._memtable.clear()
        if len(self._runs) > self._max_runs:
            self._compact()

    def _compact(self) -> None:
        """Size-tiered compaction: merge all runs, newest wins per key."""
        merged: dict[tuple[int, int], tuple[float, float]] = {}
        for path in self._runs:  # oldest first → later (newer) overwrite
            for r in np.fromfile(path, dtype=_DTYPE):
                merged[(int(r["t"]), int(r["oid"]))] = (float(r["x"]), float(r["y"]))
        rec = np.empty(len(merged), dtype=_DTYPE)
        for i, ((t, oid), (x, y)) in enumerate(merged.items()):
            rec[i] = (t, oid, x, y)
        rec.sort(order=("t", "oid"))
        path = self._dir / f"run-{self._next_run:06d}.sst"
        self._next_run += 1
        rec.tofile(path)
        for old in self._runs:
            old.unlink()
        self._runs = [path]

    # -------------------------------------------------------------- read
    def _run_mmap(self, path: Path) -> np.ndarray:
        return np.memmap(path, dtype=_DTYPE, mode="r")

    def _range_from_run(self, rec: np.ndarray, t: int) -> np.ndarray:
        """Records for timestamp ``t`` — one binary-searched range scan."""
        lo = np.searchsorted(rec["t"], t, side="left")
        hi = np.searchsorted(rec["t"], t, side="right")
        return np.asarray(rec[lo:hi])

    def snapshot(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        t = int(t)
        # Newer sources override older on duplicate keys.
        out: dict[int, tuple[float, float]] = {}
        for path in self._runs:
            for r in self._range_from_run(self._run_mmap(path), t):
                out[int(r["oid"])] = (float(r["x"]), float(r["y"]))
        for (kt, oid), (x, y) in self._memtable.items():
            if kt == t:
                out[oid] = (x, y)
        if not out:
            return np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.float64)
        oids = np.array(sorted(out), dtype=np.int64)
        xy = np.array([out[int(o)] for o in oids], dtype=np.float64)
        return oids, xy

    def points(self, t: int, oids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        t = int(t)
        want = sorted({int(o) for o in oids})
        out: dict[int, tuple[float, float]] = {}
        for path in self._runs:
            rec = self._run_mmap(path)
            # Narrow to the timestamp's key range, then one binary search
            # per requested oid within it (oids are sorted in-range).
            seg = self._range_from_run(rec, t)
            if not len(seg):
                continue
            seg_oids = seg["oid"]
            pos = np.searchsorted(seg_oids, np.asarray(want, dtype=np.int64))
            for oid, p in zip(want, pos):
                if p < len(seg_oids) and seg_oids[p] == oid:
                    out[oid] = (float(seg[p]["x"]), float(seg[p]["y"]))
        for oid in want:
            if (t, oid) in self._memtable:
                out[oid] = self._memtable[(t, oid)]
        if not out:
            return np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.float64)
        hit = np.array(sorted(out), dtype=np.int64)
        xy = np.array([out[int(o)] for o in hit], dtype=np.float64)
        return hit, xy

    def gather(self, t, oid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t, oid = gather_keys(t, oid)
        if not len(t):
            return EMPTY_IDS, EMPTY_IDS, EMPTY_XY
        xy = np.empty((len(t), 2), dtype=np.float64)
        found = np.zeros(len(t), dtype=bool)
        for path in self._runs:  # oldest first: newer runs overwrite
            rec = self._run_mmap(path)
            if not len(rec):
                continue
            pos = _find(rec, t, oid)
            hit = pos >= 0
            r = rec[pos[hit]]
            xy[hit, 0], xy[hit, 1] = r["x"], r["y"]
            found |= hit
        if self._memtable:
            for i, key in enumerate(zip(t.tolist(), oid.tolist())):
                val = self._memtable.get(key)
                if val is not None:
                    xy[i] = val
                    found[i] = True
        return t[found], oid[found], xy[found]

    # ------------------------------------------------------------- stats
    def time_range(self) -> tuple[int, int]:
        return self._range

    def total_points(self) -> int:
        keys = {(int(r["t"]), int(r["oid"])) for p in self._runs for r in np.fromfile(p, dtype=_DTYPE)}
        keys.update(self._memtable)
        return len(keys)

    @property
    def n_runs(self) -> int:
        return len(self._runs)
