"""The benchmark's workloads: input frames, query lists and engines.

Each workload is one store (or Spark) over one generated frame, mined by
a closed loop with one client that sends a fixed list of (m, k, eps)
queries back to back. The frames come from the repository's generators
with their seeds fixed, so every run mines the same data and the
reference convoys can be cached; the run's ``--seed`` shuffles the rows
handed to the store (so set-up really sorts) and the query order.

Why these three:

* ``dense-rdbms``  candidates fill most hop-windows, so HWMT, extension
  and validation issue thousands of (t, oid) point reads of a few
  objects each. Moves with store point reads and small-n clustering;
  no-change check for large-n clustering.
* ``tdrive-lsmt``  large snapshots on the LSM-tree: benchmark-point DBSCAN
  is most of a query, so it moves with the clustering kernel. The only
  set-up that is a store write path, and reads that merge sorted runs.
* ``spark-tdrive`` the Spark dataflow over the same frame; no store, so
  it is the no-change check for store work. Its ``points_read``
  compares with ``tdrive-lsmt``'s on the same queries.

There is no ``tdrive-file`` workload (the same frame and queries on
``FileStore``): every layer it would measure is measured on
``tdrive-lsmt``, and its time goes to longer, steadier runs of the others.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import sys
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np
import pandas as pd

from repro.core.k2hop import k2hop
from repro.stores import LSMTStore, MeteredStore, RDBMSStore
from repro.stores.base import validate_frame
from repro.synth_data import convoy_scene, tdrive_like
from spans import CountingStore, Tracer

EPS = (50.0, 100.0, 200.0)
Query = tuple[int, int, float]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _grid(ms: tuple[int, int], ks: list[int]) -> list[Query]:
    """Every (m, k) pair once; eps cycles so each (k, eps) pair shows up
    with one m and each eps equally often."""
    return [
        (m, k, EPS[(i + i // len(ks)) % len(EPS)])
        for i, (m, k) in enumerate(product(ms, ks))
    ]


@dataclass(frozen=True)
class Dataset:
    name: str
    params: dict
    ks: list[int]

    def frame(self) -> pd.DataFrame:
        """The canonical (validated, (t, oid)-sorted) frame."""
        gen = {"tdrive": tdrive_like, "dense": convoy_scene}[self.name]
        df, _truth = gen(**self.params)
        return validate_frame(df)


# k at the paper's timeline fractions (Dataset.k_grid in repro.experiments):
# T-Drive-like has 396 timestamps, the dense scene 400.
TDRIVE = Dataset("tdrive", {"scale": 0.02}, [27, 55, 83, 110, 138, 166])
DENSE = Dataset(
    "dense",
    dict(n_objects=200, n_timestamps=400, n_convoys=8, convoy_size=5,
         convoy_len=100, area=30_000.0, eps=100.0, speed=300.0),
    [28, 56, 84],
)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: Dataset
    engine: str  # rdbms | lsmt | spark
    queries: list[Query]
    # A run times at least this many passes over the query list, so the
    # tail level (see run.tail_level) is fixed per workload.
    min_passes: int = 1


WORKLOADS = {
    w.name: w
    for w in [
        Workload("dense-rdbms", DENSE, "rdbms", _grid((3, 5), DENSE.ks)),
        Workload("tdrive-lsmt", TDRIVE, "lsmt", _grid((3, 6), TDRIVE.ks), min_passes=3),
        # k=55 finds 6 convoys, k=83 none.
        Workload("spark-tdrive", TDRIVE, "spark", [(3, 55, 100.0), (3, 83, 200.0)]),
    ]
}


def frame_digest(df: pd.DataFrame) -> str:
    h = hashlib.sha256()
    for col in ("t", "oid", "x", "y"):
        h.update(np.ascontiguousarray(df[col].to_numpy()).tobytes())
    return h.hexdigest()[:16]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid or 'self'}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class StoreEngine:
    """One of the repository's stores; queries run k2hop on the bare store
    behind a :class:`CountingStore`, never on ``MeteredStore``."""

    def __init__(self, kind: str, workdir: Path, tracer: Tracer):
        self.kind = kind
        self.workdir = workdir
        self.tracer = tracer
        self.store = self.proxy = None
        self._n_builds = 0

    def start(self) -> float:
        return 0.0

    def build(self, df: pd.DataFrame) -> tuple[float, int]:
        """Build a fresh store from ``df`` → (seconds, bytes on disk)."""
        self.drop()
        self._n_builds += 1
        where = self.workdir / f"store-{self._n_builds}"
        where.mkdir(parents=True)
        t0 = time.perf_counter()
        if self.kind == "rdbms":
            store = RDBMSStore(df, path=str(where / "traj.duckdb"))
        else:
            store = LSMTStore(df, directory=str(where / "lsmt"), memtable_limit=64_000)
        seconds = time.perf_counter() - t0
        self.store, self._where = store, where
        self.proxy = CountingStore(store, self.tracer)
        return seconds, dir_bytes(where)

    def drop(self) -> None:
        if self.store is None:
            return
        if self.kind == "rdbms":
            self.store.close()
        self.store = self.proxy = None
        shutil.rmtree(self._where)

    def mine(self, m: int, k: int, eps: float):
        """→ (convoys, rows read, {})."""
        before = self.proxy.rows_read
        convoys = k2hop(self.proxy, m, k, eps).convoys
        return convoys, self.proxy.rows_read - before, {}

    def metered_rows(self, m: int, k: int, eps: float) -> int:
        """Points ``MeteredStore`` counts for one query on the same store."""
        metered = MeteredStore(self.store)
        k2hop(metered, m, k, eps)
        return metered.points_processed

    def close(self) -> None:
        self.drop()


class SparkEngine:
    """k2hop_spark over a cached DataFrame in a local-mode session."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.spark = None
        self.df = None
        self._jobs = 0

    def start(self) -> float:
        """Start the session → seconds. Workers get ``repro`` on their path."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        os.environ["PYSPARK_PYTHON"] = os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
        local = self.workdir / "spark"
        local.mkdir(parents=True, exist_ok=True)
        os.environ["SPARK_LOCAL_DIRS"] = str(local)
        # Every JVM spark-submit starts, its launcher included: no
        # hsperfdata files in /tmp, temporary files in the checkout.
        os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={local}"
        from pyspark.sql import SparkSession

        from repro.core.k2hop_spark import k2hop_spark

        self._k2hop_spark = k2hop_spark
        n = nproc()
        t0 = time.perf_counter()
        self.spark = (
            SparkSession.builder.master(f"local[{n}]")
            .appName("perfbench")
            .config("spark.driver.memory", "1g")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.sql.warehouse.dir", str(local / "warehouse"))
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.sql.shuffle.partitions", str(2 * n))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        return time.perf_counter() - t0

    def build(self, df: pd.DataFrame) -> tuple[float, int]:
        """validate_frame + createDataFrame + cache + count → (seconds, 0)."""
        if self.df is not None:
            self.df.unpersist(blocking=True)
        t0 = time.perf_counter()
        self.df = self.spark.createDataFrame(validate_frame(df)).cache()
        self.df.count()
        return time.perf_counter() - t0, 0

    def mine(self, m: int, k: int, eps: float):
        """→ (convoys, points scanned, {jobs, stages, tasks})."""
        sc = self.spark.sparkContext
        self._jobs += 1
        group = f"perfbench-{self._jobs}"
        sc.setJobGroup(group, group)
        res = self._k2hop_spark(self.spark, self.df, m, k, eps)
        tracker = sc.statusTracker()
        stages = tasks = 0
        jobs = tracker.getJobIdsForGroup(group)
        for jid in jobs:
            info = tracker.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                st = tracker.getStageInfo(sid)
                stages += 1
                tasks += st.numTasks if st else 0
        return res.convoys, res.points_scanned, {
            "jobs": len(jobs), "stages": stages, "tasks": tasks,
        }

    def jvm_peak_rss_mb(self) -> float:
        pid = self.spark._jvm.java.lang.ProcessHandle.current().pid()
        return peak_rss_mb(int(pid))

    def close(self) -> None:
        """Stop the session and wait for the JVM to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        self.spark.stop()
        gateway = SparkContext._gateway
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()
                proc.wait(timeout=60)
        self.spark = None


def make_engine(workload: Workload, workdir: Path, tracer: Tracer):
    if workload.engine == "spark":
        return SparkEngine(workdir)
    if workload.engine == "rdbms":
        _cap_duckdb_threads(nproc())
    return StoreEngine(workload.engine, workdir, tracer)


def _cap_duckdb_threads(n: int) -> None:
    """Make every DuckDB connection of this process use at most n threads."""
    import duckdb

    connect = duckdb.connect

    def capped(database=":memory:", read_only=False, config=None, **kwargs):
        return connect(database, read_only=read_only,
                       config={"threads": n, **(config or {})}, **kwargs)

    duckdb.connect = capped
