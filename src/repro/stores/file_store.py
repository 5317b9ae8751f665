"""In-memory flat-file store (the paper's ``k2-File`` variant).

Models loading the whole flat file into memory once: snapshots are
pre-bucketed per timestamp; point reads and batched reads look up the
per-snapshot oid array. Fast when the dataset fits in RAM, which is exactly the
regime where the paper finds k2-File competitive (Trucks dataset).
"""
from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd

from repro.stores.base import EMPTY_IDS, EMPTY_XY, gather_keys, t_runs, validate_frame


class FileStore:
    """Trajectory store over an in-memory pandas frame."""

    def __init__(self, df: pd.DataFrame, *, time_range: tuple[int, int] | None = None):
        """``time_range`` overrides the (Ts, Te) derived from the rows —
        needed when the frame is a pruned slice of a larger dataset but
        algorithms must still see the full dataset's time span."""
        df = validate_frame(df)
        self._forced_range = time_range
        self._n = len(df)
        self._snaps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        t = df["t"].to_numpy()
        oid = df["oid"].to_numpy()
        xy = df[["x", "y"]].to_numpy()
        # df is sorted by (t, oid): slice contiguous runs per timestamp,
        # so each snapshot's oid array is sorted (searchsorted-ready).
        for lo, hi in t_runs(t):
            self._snaps[int(t[lo])] = (oid[lo:hi], xy[lo:hi])
        self._ts = int(t.min()) if self._n else 0
        self._te = int(t.max()) if self._n else -1

    def time_range(self) -> tuple[int, int]:
        return self._forced_range if self._forced_range else (self._ts, self._te)

    def snapshot(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        return self._snaps.get(int(t), (EMPTY_IDS, EMPTY_XY))

    def points(self, t: int, oids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        snap_oids, snap_xy = self.snapshot(t)
        if not len(snap_oids):
            return EMPTY_IDS, EMPTY_XY
        want = np.fromiter((int(o) for o in oids), dtype=np.int64)
        hit = np.isin(snap_oids, want)
        return snap_oids[hit], snap_xy[hit]

    def gather(self, t, oid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t, oid = gather_keys(t, oid)
        out_t, out_oid, out_xy = [EMPTY_IDS], [EMPTY_IDS], [EMPTY_XY]
        for lo, hi in t_runs(t):
            snap_oids, snap_xy = self.snapshot(t[lo])
            hit = np.isin(snap_oids, oid[lo:hi])
            out_t.append(np.full(hit.sum(), t[lo], dtype=np.int64))
            out_oid.append(snap_oids[hit])
            out_xy.append(snap_xy[hit])
        return np.concatenate(out_t), np.concatenate(out_oid), np.concatenate(out_xy)

    def total_points(self) -> int:
        return self._n
