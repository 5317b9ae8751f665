"""TrajectoryStore protocol: the access interface k/2-hop mines against.

Movement data is the paper's 4-column relation ``<oid, x, y, t>`` with
non-negative integer timestamps and object ids. A snapshot is all points
at one timestamp.

The miner reads through three access paths:

* ``snapshot(t)``      — a full timestamp scan (benchmark points);
* ``points(t, oids)``  — (t, oid) point reads at one timestamp;
* ``gather(t, oid)``   — one batched (t, oid) read over many timestamps,
  which HWMT, extension and validation use to read a whole step (or a
  whole ``[ts, te] × O(v)`` block) in one store call.
"""
from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

import numpy as np
import pandas as pd

#: canonical column order for trajectory frames across the repo
COLUMNS = ["t", "oid", "x", "y"]

EMPTY_IDS = np.empty(0, dtype=np.int64)
EMPTY_XY = np.empty((0, 2), dtype=np.float64)


@runtime_checkable
class TrajectoryStore(Protocol):
    """Read interface over a trajectory dataset."""

    def time_range(self) -> tuple[int, int]:
        """(Ts, Te): first and last timestamp present in the dataset."""
        ...

    def snapshot(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """All points at time ``t`` → (oids int64 [n], xy float64 [n,2])."""
        ...

    def points(self, t: int, oids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Points of the given objects at time ``t`` (absent ones omitted)."""
        ...

    def gather(
        self, t: np.ndarray, oid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored rows for the (t[i], oid[i]) keys → (t, oid, xy).

        Each key is returned once, sorted by (t, oid); absent keys are
        omitted.
        """
        ...

    def total_points(self) -> int:
        """Number of (t, oid) points stored — Table 5 denominator."""
        ...


def gather_keys(t, oid) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a ``gather`` request: int64 keys, unique, (t, oid)-sorted."""
    t = np.asarray(t, dtype=np.int64).ravel()
    oid = np.asarray(oid, dtype=np.int64).ravel()
    if len(t) != len(oid):
        raise ValueError(f"gather: {len(t)} timestamps for {len(oid)} object ids")
    order = np.lexsort((oid, t))
    t, oid = t[order], oid[order]
    keep = np.ones(len(t), dtype=bool)
    keep[1:] = (t[1:] != t[:-1]) | (oid[1:] != oid[:-1])
    return t[keep], oid[keep]


def t_runs(t: np.ndarray) -> list[tuple[int, int]]:
    """[lo, hi) bounds of the runs of equal timestamps in a sorted array."""
    cut = np.flatnonzero(np.diff(t)) + 1
    return list(zip(np.r_[0, cut], np.r_[cut, len(t)])) if len(t) else []


def validate_frame(df: pd.DataFrame) -> pd.DataFrame:
    """Normalize a trajectory frame to canonical columns/dtypes.

    Raises on duplicate (t, oid) pairs — a convoy dataset is a function
    from (t, oid) to a location — on NaN/inf coordinates, and on negative
    ``t``/``oid``: the LSM-tree's record order and ``gather``'s key
    arrays assume non-negative integer keys.
    """
    df = df[COLUMNS].copy()
    df["t"] = df["t"].astype(np.int64)
    df["oid"] = df["oid"].astype(np.int64)
    df["x"] = df["x"].astype(np.float64)
    df["y"] = df["y"].astype(np.float64)
    if not np.isfinite(df[["x", "y"]].to_numpy()).all():
        raise ValueError("NaN or infinite coordinates in trajectory frame")
    if (df["t"] < 0).any() or (df["oid"] < 0).any():
        raise ValueError("negative t or oid in trajectory frame")
    if df.duplicated(["t", "oid"]).any():
        raise ValueError("duplicate (t, oid) points in trajectory frame")
    return df.sort_values(["t", "oid"], ignore_index=True)
