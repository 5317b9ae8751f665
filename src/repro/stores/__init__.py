"""Persistent storage substrates for trajectory data (paper Section 5).

k/2-hop needs two access paths: full snapshot scans at benchmark
timestamps, and (t, oid) reads for candidate objects inside hop-windows
and convoy lifespans. The second comes as a single-timestamp
``points(t, oids)`` and as a batched ``gather(t, oid)`` over many
timestamps, so one mining step costs one store call.

Each backend realizes all three:

* :class:`~repro.stores.file_store.FileStore` — whole dataset in memory
  (the paper's ``k2-File`` flat-file variant);
* :class:`~repro.stores.rdbms_store.RDBMSStore` — DuckDB with an index on
  (t, oid) (the paper's ``k2-RDBMS``);
* :class:`~repro.stores.lsmt_store.LSMTStore` — a from-scratch
  log-structured merge-tree over the local filesystem (``k2-LSMT``).

:class:`~repro.stores.metered.MeteredStore` wraps any backend and counts
points fetched per algorithm phase — the Table 5 pruning metric.
"""
from repro.stores.base import TrajectoryStore
from repro.stores.file_store import FileStore
from repro.stores.metered import MeteredStore
from repro.stores.rdbms_store import RDBMSStore
from repro.stores.lsmt_store import LSMTStore

__all__ = ["TrajectoryStore", "FileStore", "MeteredStore", "RDBMSStore", "LSMTStore"]
