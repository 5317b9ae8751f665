"""Distributed k/2-hop: equality with the sequential algorithm, pruning
accounting, and a DuckDB-oracle check of the pruned hop-window join."""
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st
from pyspark.sql import functions as F

from repro.core.k2hop import k2hop
from repro.core.k2hop_spark import k2hop_spark
from repro.stores import FileStore
from repro.synth_data import convoy_scene
from repro.testkit import EPS, scene_from_groups
from tests.test_k2hop import free_world


class TestK2HopSpark:
    @pytest.mark.parametrize("k", [2, 4, 10])
    def test_equals_sequential_on_scene(self, spark, k):
        df, _ = convoy_scene(
            n_objects=40, n_timestamps=60, n_convoys=2, convoy_size=4,
            convoy_len=20, eps=10.0, seed=17,
        )
        seq = k2hop(FileStore(df), 3, k, 10.0).convoys
        par = k2hop_spark(spark, spark.createDataFrame(df), 3, k, 10.0).convoys
        assert par == seq

    def test_equals_sequential_with_dropout(self, spark):
        df, _ = convoy_scene(
            n_objects=50, n_timestamps=80, n_convoys=3, convoy_size=4,
            convoy_len=25, eps=10.0, presence=0.8, seed=23,
        )
        seq = k2hop(FileStore(df), 3, 12, 10.0).convoys
        par = k2hop_spark(spark, spark.createDataFrame(df), 3, 12, 10.0).convoys
        assert par == seq
        assert par  # scene contains convoys

    def test_no_convoys_short_circuit(self, spark):
        groups = {t: [] for t in range(30)}
        df = scene_from_groups(groups, list(range(8)))
        res = k2hop_spark(spark, spark.createDataFrame(df), 3, 8, EPS)
        assert res.convoys == []
        assert res.n_spanning == 0
        # Only the benchmark snapshots were ever scanned.
        assert res.points_scanned == res.points_total * len(range(0, 30, 4)) // 30

    def test_pruning_accounting(self, spark):
        df, _ = convoy_scene(
            n_objects=80, n_timestamps=120, n_convoys=2, convoy_size=4,
            convoy_len=40, eps=10.0, seed=31,
        )
        res = k2hop_spark(spark, spark.createDataFrame(df), 4, 30, 10.0)
        assert 0 < res.points_scanned < res.points_total
        assert res.pruning_pct > 50.0

    @settings(max_examples=10, deadline=None)
    @given(free_world(), st.integers(2, 3), st.integers(2, 5))
    def test_equals_sequential_on_free_geometry(self, spark, world, m, k):
        df, eps = world
        seq = k2hop(FileStore(df), m, k, eps).convoys
        assert k2hop_spark(spark, spark.createDataFrame(df), m, k, eps).convoys == seq

    @pytest.mark.parametrize("m, eps", [(0, EPS), (3, 0.0), (3, float("inf"))])
    def test_rejects_invalid_parameters_on_driver(self, spark, m, eps):
        df = spark.createDataFrame(scene_from_groups({0: [[0, 1, 2]]}, list(range(4))))
        jobs = spark.sparkContext.statusTracker().getJobIdsForGroup()
        with pytest.raises(ValueError):
            k2hop_spark(spark, df, m, 4, eps)
        assert spark.sparkContext.statusTracker().getJobIdsForGroup() == jobs


class TestPrunedJoinOracle:
    def test_candidate_join_matches_sql_semijoin(self, spark):
        """The hop-window pruned read is a Catalyst join; its result must
        equal the equivalent SQL over DuckDB."""
        from repro.oracle import assert_equivalent

        df, _ = convoy_scene(
            n_objects=20, n_timestamps=20, n_convoys=1, convoy_size=4,
            convoy_len=12, eps=10.0, seed=3,
        )
        cand = pd.DataFrame(
            {"oid": [0, 1, 2, 3], "w_lo": [4, 4, 4, 4], "w_hi": [10, 10, 10, 10]}
        )
        sdf = spark.createDataFrame(df)
        got = (
            sdf.join(spark.createDataFrame(cand), on="oid")
            .where((F.col("t") > F.col("w_lo")) & (F.col("t") < F.col("w_hi")))
            .select("t", "oid", "x", "y")
        )
        assert_equivalent(
            got,
            """SELECT d.t, d.oid, d.x, d.y FROM pts d JOIN cand c ON d.oid = c.oid
               WHERE d.t > c.w_lo AND d.t < c.w_hi""",
            pts=df,
            cand=cand,
        )
