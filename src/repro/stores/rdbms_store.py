"""Relational store backed by DuckDB (the paper's ``k2-RDBMS``).

The paper stores ``(timestamp, oid, x, y)`` in a relational table with a
multi-column clustered index on (timestamp, oid); benchmark snapshots
are fetched with a ``WHERE t = ?`` scan, single-timestamp point reads
with ``WHERE t = ? AND oid IN (...)``, and batched reads as one join
against the requested (t, oid) keys passed as ``unnest``ed arrays. DuckDB plays the RDBMS
role here — a real SQL engine with an ART index on (t, oid). Data is
physically ordered by (t, oid) at load time to model the clustered
index.
"""
from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Iterable

import duckdb
import numpy as np
import pandas as pd

from repro.stores.base import EMPTY_IDS, EMPTY_XY, gather_keys, validate_frame


class RDBMSStore:
    """Trajectory store over an (optionally on-disk) DuckDB database."""

    def __init__(self, df: pd.DataFrame, *, path: str | None = None):
        df = validate_frame(df)  # sorted by (t, oid) → clustered layout
        if path is None:
            # Keep the database on disk so the RDBMS variant actually
            # pays I/O, as in the paper; the tempdir lives as long as
            # the store object.
            self._tmp = tempfile.TemporaryDirectory(prefix="k2rdbms-")
            path = str(Path(self._tmp.name) / "traj.duckdb")
        self._con = duckdb.connect(path)
        self._con.register("df_in", df)
        self._con.execute(
            "CREATE TABLE points AS SELECT t, oid, x, y FROM df_in ORDER BY t, oid"
        )
        self._con.execute("CREATE INDEX idx_t_oid ON points (t, oid)")
        self._con.unregister("df_in")
        self._n = len(df)
        if self._n:
            ts, te = self._con.execute("SELECT min(t), max(t) FROM points").fetchone()
            self._range = (int(ts), int(te))
        else:
            self._range = (0, -1)

    def time_range(self) -> tuple[int, int]:
        return self._range

    def _fetch(self, sql: str, params: list) -> dict[str, np.ndarray]:
        out = self._con.execute(sql, params).fetchnumpy()
        out["oid"] = out["oid"].astype(np.int64)
        out["xy"] = np.column_stack([out["x"], out["y"]]).astype(np.float64).reshape(-1, 2)
        return out

    def snapshot(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        out = self._fetch("SELECT oid, x, y FROM points WHERE t = ? ORDER BY oid", [int(t)])
        return out["oid"], out["xy"]

    def points(self, t: int, oids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        want = [int(o) for o in oids]
        if not want:
            return EMPTY_IDS, EMPTY_XY
        ph = ",".join("?" * len(want))
        out = self._fetch(
            f"SELECT oid, x, y FROM points WHERE t = ? AND oid IN ({ph}) ORDER BY oid",
            [int(t), *want],
        )
        return out["oid"], out["xy"]

    def gather(self, t, oid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t, oid = gather_keys(t, oid)
        if not len(t):
            return EMPTY_IDS, EMPTY_IDS, EMPTY_XY
        out = self._fetch(
            "SELECT p.t, p.oid, p.x, p.y FROM points p JOIN "
            "(SELECT unnest(?::BIGINT[]) AS t, unnest(?::BIGINT[]) AS oid) k "
            "ON p.t = k.t AND p.oid = k.oid",
            [t, oid],
        )
        # Sorting the few result rows here is cheaper than ORDER BY.
        got_t = out["t"].astype(np.int64)
        order = np.lexsort((out["oid"], got_t))
        return got_t[order], out["oid"][order], out["xy"][order]

    def total_points(self) -> int:
        return self._n

    def close(self) -> None:
        self._con.close()
