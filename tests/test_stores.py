"""Store substrate tests: FileStore / RDBMSStore / LSMTStore equivalence,
LSMT internals (flush/compaction), metering, and DuckDB-oracle checks of
the two access paths the paper's Section 5 requires."""
import numpy as np
import pandas as pd
import pytest

from repro.stores import FileStore, LSMTStore, MeteredStore, RDBMSStore
from repro.stores.base import validate_frame
from repro.synth_data import convoy_scene


def _frame(seed=0, n_obj=25, n_t=30, drop=0.2):
    g = np.random.default_rng(seed)
    tt, oo = np.meshgrid(np.arange(n_t), np.arange(n_obj), indexing="ij")
    df = pd.DataFrame(
        {
            "t": tt.ravel(),
            "oid": oo.ravel(),
            "x": g.random(n_t * n_obj) * 100,
            "y": g.random(n_t * n_obj) * 100,
        }
    )
    return df[g.random(len(df)) >= drop].reset_index(drop=True)


DF = _frame()


def _stores():
    return [
        ("file", FileStore(DF)),
        ("rdbms", RDBMSStore(DF)),
        ("lsmt", LSMTStore(DF, memtable_limit=200, max_runs=3)),
    ]


@pytest.fixture(scope="module", params=["file", "rdbms", "lsmt"])
def store(request):
    return dict(_stores())[request.param]


@pytest.fixture(scope="module", params=["file", "rdbms", "lsmt", "metered"])
def any_store(request):
    """Every backend, plus the metering wrapper (around an LSM-tree)."""
    stores = dict(_stores())
    stores["metered"] = MeteredStore(stores["lsmt"])
    return stores[request.param]


def _expected_rows(t, oid):
    keys = pd.DataFrame({"t": t, "oid": oid}).drop_duplicates()
    return DF.merge(keys, on=["t", "oid"]).sort_values(["t", "oid"], ignore_index=True)


class TestStoreInterface:
    def test_time_range(self, store):
        assert store.time_range() == (int(DF.t.min()), int(DF.t.max()))

    def test_total_points(self, store):
        assert store.total_points() == len(DF)

    @pytest.mark.parametrize("t", [0, 7, 29])
    def test_snapshot_matches_frame(self, store, t):
        oids, xy = store.snapshot(t)
        exp = DF[DF.t == t].sort_values("oid")
        assert oids.tolist() == exp.oid.tolist()
        order = np.argsort(oids)
        np.testing.assert_allclose(xy[order], exp[["x", "y"]].to_numpy())

    def test_snapshot_missing_timestamp(self, store):
        oids, xy = store.snapshot(10_000)
        assert len(oids) == 0 and xy.shape == (0, 2)

    @pytest.mark.parametrize("t", [3, 15])
    def test_points_subset(self, store, t):
        want = [0, 3, 5, 23, 999]  # 999 never exists
        oids, xy = store.points(t, want)
        exp = DF[(DF.t == t) & DF.oid.isin(want)].sort_values("oid")
        assert sorted(oids.tolist()) == exp.oid.tolist()
        order = np.argsort(oids)
        np.testing.assert_allclose(xy[order], exp[["x", "y"]].to_numpy())

    def test_points_empty_request(self, store):
        oids, xy = store.points(3, [])
        assert len(oids) == 0 and xy.shape == (0, 2)


class TestGather:
    """The batched (t, oid) read: each present key once, (t, oid)-sorted."""

    def test_matches_frame(self, any_store):
        g = np.random.default_rng(1)
        t = g.integers(0, 30, 200)
        oid = g.integers(0, 25, 200)
        got_t, got_oid, xy = any_store.gather(t, oid)
        exp = _expected_rows(t, oid)
        assert got_t.tolist() == exp.t.tolist()
        assert got_oid.tolist() == exp.oid.tolist()
        np.testing.assert_allclose(xy, exp[["x", "y"]].to_numpy())

    def test_absent_keys_omitted(self, any_store):
        present = DF.iloc[[0, 40, 300]]
        t = [*present.t, 10_000, 3, 10_000]
        oid = [*present.oid, 0, 999, 999]  # unknown t, unknown oid, both
        got_t, got_oid, xy = any_store.gather(t, oid)
        assert list(zip(got_t.tolist(), got_oid.tolist())) == sorted(
            zip(present.t.tolist(), present.oid.tolist())
        )
        assert xy.shape == (3, 2)

    def test_empty_request(self, any_store):
        got_t, got_oid, xy = any_store.gather(np.empty(0, np.int64), np.empty(0, np.int64))
        assert got_t.dtype == got_oid.dtype == np.int64
        assert len(got_t) == len(got_oid) == 0 and xy.shape == (0, 2)

    def test_duplicate_keys_returned_once(self, any_store):
        row = DF.iloc[17]
        got_t, got_oid, xy = any_store.gather([row.t] * 4, [row.oid] * 4)
        assert got_t.tolist() == [row.t] and got_oid.tolist() == [row.oid]
        np.testing.assert_allclose(xy, [[row.x, row.y]])

    def test_sorted_by_t_then_oid(self, any_store):
        rows = DF.sample(60, random_state=2)  # shuffled request order
        got_t, got_oid, _ = any_store.gather(rows.t.to_numpy(), rows.oid.to_numpy())
        keys = list(zip(got_t.tolist(), got_oid.tolist()))
        assert keys == sorted(keys) and len(keys) == 60

    def test_mismatched_lengths_rejected(self, any_store):
        with pytest.raises(ValueError):
            any_store.gather([1, 2], [1])


class TestValidateFrame:
    @pytest.mark.parametrize("col,bad", [("x", np.nan), ("y", np.inf), ("x", -np.inf)])
    def test_rejects_non_finite_coordinates(self, col, bad):
        df = DF.copy()
        df.loc[5, col] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            validate_frame(df)

    def test_rejects_negative_t(self):
        df = DF.copy()
        df.loc[5, "t"] = -1
        with pytest.raises(ValueError, match="negative"):
            validate_frame(df)

    def test_rejects_negative_oid(self):
        df = DF.copy()
        df.loc[5, "oid"] = -3
        with pytest.raises(ValueError, match="negative"):
            validate_frame(df)

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_frame(pd.concat([DF, DF.iloc[[3]]]))

    def test_lsmt_put_rejects_negative_key(self):
        with pytest.raises(ValueError, match="negative"):
            LSMTStore().put(0, -1, 0.0, 0.0)


class TestStoreCrossEquivalence:
    def test_all_backends_agree_everywhere(self):
        stores = _stores()
        for t in range(int(DF.t.min()), int(DF.t.max()) + 1):
            snaps = {name: s.snapshot(t) for name, s in stores}
            ref_oids, ref_xy = snaps["file"]
            for name, (oids, xy) in snaps.items():
                assert oids.tolist() == ref_oids.tolist(), (name, t)
                np.testing.assert_allclose(xy, ref_xy, err_msg=f"{name}@{t}")


class TestOracleAccessPaths:
    """The two §5 access paths checked against DuckDB SQL directly."""

    def test_snapshot_is_timestamp_scan(self, spark):
        from repro.oracle import assert_equivalent

        store = FileStore(DF)
        oids, xy = store.snapshot(7)
        got = spark.createDataFrame(
            pd.DataFrame({"oid": oids, "x": xy[:, 0], "y": xy[:, 1]})
        )
        assert_equivalent(
            got, "SELECT oid, x, y FROM pts WHERE t = 7", pts=DF
        )

    def test_points_is_point_query(self, spark):
        from repro.oracle import assert_equivalent

        store = RDBMSStore(DF)
        oids, xy = store.points(3, [1, 2, 8])
        got = spark.createDataFrame(
            pd.DataFrame({"oid": oids, "x": xy[:, 0], "y": xy[:, 1]})
        )
        assert_equivalent(
            got,
            "SELECT oid, x, y FROM pts WHERE t = 3 AND oid IN (1,2,8)",
            pts=DF,
        )


    def test_gather_is_keyed_join(self, spark, store):
        from repro.oracle import assert_equivalent

        keys = pd.DataFrame({"t": [3, 3, 3, 7, 7, 29, 29, 500], "oid": [1, 2, 8, 0, 24, 5, 5, 1]})
        t, oid, xy = store.gather(keys.t.to_numpy(), keys.oid.to_numpy())
        got = spark.createDataFrame(
            pd.DataFrame({"t": t, "oid": oid, "x": xy[:, 0], "y": xy[:, 1]})
        )
        assert_equivalent(
            got,
            "SELECT p.t, p.oid, p.x, p.y FROM pts p "
            "JOIN (SELECT DISTINCT t, oid FROM keys) k ON p.t = k.t AND p.oid = k.oid",
            pts=DF,
            keys=keys,
        )


class TestLSMTInternals:
    def test_flush_creates_runs(self):
        s = LSMTStore(memtable_limit=50, max_runs=100)
        for t in range(10):
            for oid in range(20):
                s.put(t, oid, float(t), float(oid))
        assert s.n_runs == 4  # 200 puts / 50 per memtable
        s.flush()
        assert s.total_points() == 200

    def test_compaction_bounds_runs(self):
        s = LSMTStore(memtable_limit=10, max_runs=3)
        for t in range(20):
            for oid in range(5):
                s.put(t, oid, float(t), float(oid))
        assert s.n_runs <= 4  # compaction keeps the tier count bounded

    def test_newest_write_wins(self):
        s = LSMTStore(memtable_limit=4, max_runs=2)
        s.put(1, 1, 10.0, 10.0)
        for i in range(8):  # force flushes around the overwrite
            s.put(50 + i, 1, 0.0, 0.0)
        s.put(1, 1, 99.0, 98.0)
        oids, xy = s.points(1, [1])
        assert oids.tolist() == [1]
        np.testing.assert_allclose(xy[0], [99.0, 98.0])

    def test_gather_newest_write_wins(self):
        s = LSMTStore(memtable_limit=4, max_runs=10)
        s.put(1, 1, 10.0, 10.0)  # oldest run
        s.put(1, 2, 20.0, 20.0)
        for i in range(6):  # flush the above, then pad a second run
            s.put(50 + i, 1, 0.0, 0.0)
        s.put(1, 1, 11.0, 11.0)  # second run overrides the first
        s.put(9, 9, 0.0, 0.0)
        s.put(9, 8, 0.0, 0.0)
        s.put(9, 7, 0.0, 0.0)  # → flushed
        s.put(1, 2, 22.0, 22.0)  # memtable overrides the first run
        assert s.n_runs == 3
        t, oid, xy = s.gather([1, 1, 1], [2, 1, 3])
        assert t.tolist() == [1, 1] and oid.tolist() == [1, 2]
        np.testing.assert_allclose(xy, [[11.0, 11.0], [22.0, 22.0]])

    def test_time_range_tracks_puts(self):
        s = LSMTStore(memtable_limit=3, max_runs=2)
        assert s.time_range() == (0, -1)
        for t in (7, 4, 12, 9, 5, 11, 3):  # flushes and compactions on the way
            s.put(t, 0, 0.0, 0.0)
        assert s.time_range() == (3, 12)

    def test_reads_mix_memtable_and_runs(self):
        s = LSMTStore(memtable_limit=6, max_runs=10)
        for t in (0, 1):
            for oid in range(5):  # 10 puts → one flush at 6, 4 left in memtable
                s.put(t, oid, t + oid / 10, 0.0)
        oids, _ = s.snapshot(1)
        assert oids.tolist() == [0, 1, 2, 3, 4]

    def test_scene_roundtrip(self):
        df, _ = convoy_scene(n_objects=20, n_timestamps=30, n_convoys=1,
                             convoy_size=3, convoy_len=10, seed=3)
        s = LSMTStore(df, memtable_limit=128)
        f = FileStore(df)
        for t in (0, 15, 29):
            a, ax = s.snapshot(t)
            b, bx = f.snapshot(t)
            assert a.tolist() == b.tolist()
            np.testing.assert_allclose(ax, bx)


class TestMeteredStore:
    def test_counts_by_phase(self):
        ms = MeteredStore(FileStore(DF))
        ms.set_phase("benchmark")
        n0 = len(ms.snapshot(0)[0])
        ms.set_phase("hwmt")
        n1 = len(ms.points(1, [0, 1, 2])[0])
        assert ms.reads == {"benchmark": n0, "hwmt": n1}
        assert ms.points_processed == n0 + n1

    def test_counts_gather_rows(self):
        ms = MeteredStore(FileStore(DF))
        ms.set_phase("validation")
        t, _oid, _xy = ms.gather([0, 0, 1, 10_000], [0, 1, 0, 0])
        assert ms.reads == {"validation": len(t)} and len(t) > 0

    def test_pruning_pct(self):
        ms = MeteredStore(FileStore(DF))
        assert ms.pruning_pct == 100.0
        ms.snapshot(0)
        assert 0 < ms.pruning_pct < 100.0

    def test_delegates_metadata(self):
        ms = MeteredStore(FileStore(DF))
        assert ms.time_range() == (0, 29)
        assert ms.total_points() == len(DF)
