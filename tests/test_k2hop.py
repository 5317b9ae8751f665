"""End-to-end k/2-hop tests: worked scenes, planted-convoy recovery,
store-backend independence, and exact agreement with VCoDA and the
brute-force FC miner on randomized small worlds."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.bruteforce import brute_force_fc_convoys
from repro.baselines.vcoda import vcoda, vcoda_star
from repro.core.benchmarks import benchmark_points, hop_length
from repro.core.convoy import convoy
from repro.core.k2hop import k2hop
from repro.stores import FileStore, LSMTStore, MeteredStore, RDBMSStore
from repro.synth_data import convoy_scene
from repro.testkit import EPS, random_walks, scene_from_groups


def _simple_scene():
    """One convoy {0,1,2} on [2,10], one {5,6,7} on [0,5], T=14."""
    groups = {}
    for t in range(14):
        gs = []
        if 2 <= t <= 10:
            gs.append([0, 1, 2])
        if 0 <= t <= 5:
            gs.append([5, 6, 7])
        groups[t] = gs
    return FileStore(scene_from_groups(groups, list(range(10))))


class TestK2HopScenes:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_simple_scene_all_k(self, k):
        store = _simple_scene()
        got = k2hop(store, 3, k, EPS).convoys
        exp = [v for v in
               [convoy([5, 6, 7], 0, 5), convoy([0, 1, 2], 2, 10)]
               if v.length >= k]
        assert sorted(got) == sorted(exp)

    def test_convoy_longer_than_dataset_window(self):
        groups = {t: [[0, 1, 2]] for t in range(30)}
        store = FileStore(scene_from_groups(groups, list(range(6))))
        got = k2hop(store, 3, 8, EPS).convoys
        assert got == [convoy([0, 1, 2], 0, 29)]

    def test_no_convoys(self):
        groups = {t: [] for t in range(20)}
        store = FileStore(scene_from_groups(groups, list(range(8))))
        res = k2hop(store, 3, 6, EPS)
        assert res.convoys == []
        assert res.n_spanning == 0

    def test_convoy_in_dataset_tail(self):
        # Lives in the truncated region past the last full hop-window.
        groups = {t: [[0, 1, 2]] if t >= 13 else [] for t in range(20)}
        store = FileStore(scene_from_groups(groups, list(range(6))))
        got = k2hop(store, 3, 6, EPS).convoys
        assert got == [convoy([0, 1, 2], 13, 19)]

    def test_prevalidation_superset(self):
        store = _simple_scene()
        pre = k2hop(store, 3, 4, EPS, do_validate=False).convoys
        post = k2hop(store, 3, 4, EPS).convoys
        for v in post:
            assert any(v.is_sub_convoy(w) for w in pre)


class TestPlantedScenes:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_convoys_recovered(self, seed):
        df, truth = convoy_scene(
            n_objects=40, n_timestamps=120, n_convoys=3, convoy_size=4,
            convoy_len=30, eps=10.0, seed=seed,
        )
        store = FileStore(df)
        got = k2hop(store, 3, 20, 10.0).convoys
        for objs, s, e in truth:
            assert any(
                objs <= v.objs and v.ts <= s and e <= v.te for v in got
            ), f"planted {sorted(objs)} [{s},{e}] not recovered"

    def test_agrees_with_vcoda_star_on_scene(self):
        df, _ = convoy_scene(
            n_objects=40, n_timestamps=120, n_convoys=3, convoy_size=4,
            convoy_len=30, eps=10.0, seed=5,
        )
        store = FileStore(df)
        assert k2hop(store, 3, 20, 10.0).convoys == vcoda_star(store, 3, 20, 10.0)


class TestStoreBackendIndependence:
    def test_all_stores_same_result(self):
        df, _ = convoy_scene(
            n_objects=30, n_timestamps=80, n_convoys=2, convoy_size=4,
            convoy_len=25, eps=10.0, seed=9,
        )
        results = {}
        for name, store in [
            ("file", FileStore(df)),
            ("rdbms", RDBMSStore(df)),
            ("lsmt", LSMTStore(df, memtable_limit=500)),
        ]:
            results[name] = k2hop(store, 3, 15, 10.0).convoys
        assert results["file"] == results["rdbms"] == results["lsmt"]
        assert results["file"]  # non-trivial


class TestPruningInstrumentation:
    def test_metered_pruning_on_sparse_scene(self):
        df, _ = convoy_scene(
            n_objects=80, n_timestamps=200, n_convoys=2, convoy_size=4,
            convoy_len=40, eps=10.0, seed=3,
        )
        ms = MeteredStore(FileStore(df))
        res = k2hop(ms, 4, 30, 10.0)
        assert res.points_processed == ms.points_processed > 0
        # Convoys are rare → the vast majority of points never read.
        assert res.pruning_pct > 80.0
        assert set(res.phase_seconds) >= {"benchmark", "hwmt", "merge"}

    def test_benchmark_phase_reads_all_benchmark_snapshots(self):
        df, _ = convoy_scene(
            n_objects=20, n_timestamps=40, n_convoys=1, convoy_size=4,
            convoy_len=20, eps=10.0, seed=4,
        )
        ms = MeteredStore(FileStore(df))
        k2hop(ms, 3, 10, 10.0)
        # k=10 → h=5 → benchmarks at 0,5,...,35: 8 snapshots × 20 objects.
        assert ms.reads["benchmark"] == 8 * 20


class CallCountingStore(MeteredStore):
    """MeteredStore that also counts read calls per phase."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = Counter()

    def snapshot(self, t):
        self.calls[self._phase] += 1
        return super().snapshot(t)

    def points(self, t, oids):
        self.calls[self._phase] += 1
        return super().points(t, oids)

    def gather(self, t, oid):
        self.calls[self._phase] += 1
        return super().gather(t, oid)


class TestStoreCallBudget:
    def test_one_read_call_per_step(self):
        # Three convoys of two groups' worth of objects, extending past
        # the benchmark points they span, on T = 40 with k = 8 (h = 4).
        groups = {}
        for t in range(40):
            gs = []
            if 1 <= t <= 30:
                gs += [[0, 1, 2], [3, 4, 5]]
            if 6 <= t <= 37:
                gs.append([6, 7, 8, 9])
            groups[t] = gs
        T, k = 40, 8
        store = CallCountingStore(FileStore(scene_from_groups(groups, list(range(12)))))
        res = k2hop(store, 3, k, EPS)
        assert res.convoys == [
            convoy([0, 1, 2], 1, 30), convoy([3, 4, 5], 1, 30), convoy([6, 7, 8, 9], 6, 37)
        ]
        n_bench = len(benchmark_points(0, T - 1, k))
        longest_order = hop_length(k) - 1  # interior timestamps of a window
        # Each pass steps at most from the nearest benchmark point to the
        # farthest convoy end, plus the step that finds the convoy dead.
        ext_steps = (hop_length(k) + 1) * 2
        assert store.calls["benchmark"] == n_bench
        assert store.calls["hwmt"] <= longest_order
        assert store.calls["extend-right"] + store.calls["extend-left"] <= ext_steps
        assert store.calls["validation"] <= res.n_prevalidation
        assert sum(store.calls.values()) <= (
            n_bench + longest_order + ext_steps + res.n_prevalidation
        )


@st.composite
def tiny_world(draw):
    """Random togetherness plan over ≤7 objects × ≤12 timestamps."""
    n_obj = draw(st.integers(4, 7))
    n_t = draw(st.integers(4, 12))
    groups_per_t = {}
    for t in range(n_t):
        gs = []
        remaining = list(range(n_obj))
        for _ in range(draw(st.integers(0, 2))):
            if len(remaining) < 2:
                break
            sz = draw(st.integers(2, min(4, len(remaining))))
            idx = draw(st.permutations(remaining))[:sz]
            gs.append(sorted(idx))
            remaining = [o for o in remaining if o not in idx]
        groups_per_t[t] = gs
    return groups_per_t, n_obj


@st.composite
def free_world(draw):
    """Random walks of ≤7 objects × ≤12 timestamps in a small box, with
    eps in [0.8, 2]: a (frame, eps) world with chains, bridges and
    border ties, unlike the clique scenes ``tiny_world`` builds."""
    df = random_walks(
        draw(st.integers(4, 7)),
        draw(st.integers(4, 12)),
        box=draw(st.floats(2.0, 5.0)),
        step=draw(st.floats(0.2, 0.8)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return df, draw(st.floats(0.8, 2.0))


class TestAgainstBruteForce:
    @settings(max_examples=30, deadline=None)
    @given(tiny_world(), st.integers(2, 3), st.integers(2, 4))
    def test_k2hop_equals_bruteforce_fc(self, world, m, k):
        groups_per_t, n_obj = world
        store = FileStore(scene_from_groups(groups_per_t, list(range(n_obj))))
        got = k2hop(store, m, k, EPS).convoys
        exp = brute_force_fc_convoys(store, m, k, EPS)
        assert got == exp

    @settings(max_examples=15, deadline=None)
    @given(tiny_world(), st.integers(2, 3), st.integers(2, 4))
    def test_vcoda_equals_bruteforce_fc(self, world, m, k):
        groups_per_t, n_obj = world
        store = FileStore(scene_from_groups(groups_per_t, list(range(n_obj))))
        assert vcoda(store, m, k, EPS) == brute_force_fc_convoys(store, m, k, EPS)

    @settings(max_examples=100, deadline=None)
    @given(free_world(), st.integers(2, 3), st.integers(2, 5))
    def test_free_geometry_k2hop_vcoda_star_bruteforce(self, world, m, k):
        df, eps = world
        store = FileStore(df)
        exp = brute_force_fc_convoys(store, m, k, eps)
        assert k2hop(store, m, k, eps).convoys == exp
        assert vcoda_star(store, m, k, eps) == exp


class TestRejectsInvalidParameters:
    store = _simple_scene()

    def test_zero_m(self):
        with pytest.raises(ValueError, match="min_pts"):
            k2hop(self.store, 0, 4, EPS)

    def test_nonpositive_eps(self):
        with pytest.raises(ValueError, match="eps"):
            k2hop(self.store, 3, 4, -1.0)

    def test_nan_eps(self):
        with pytest.raises(ValueError, match="eps"):
            k2hop(self.store, 3, 4, float("nan"))


class TestEdgeCases:
    def test_dataset_shorter_than_k(self):
        groups = {t: [[0, 1, 2]] for t in range(5)}
        store = FileStore(scene_from_groups(groups, list(range(5))))
        assert k2hop(store, 3, 10, EPS).convoys == []

    def test_single_timestamp_dataset(self):
        store = FileStore(scene_from_groups({0: [[0, 1, 2]]}, list(range(5))))
        assert k2hop(store, 3, 2, EPS).convoys == []

    def test_k_equals_dataset_length(self):
        groups = {t: [[0, 1, 2]] for t in range(8)}
        store = FileStore(scene_from_groups(groups, list(range(5))))
        got = k2hop(store, 3, 8, EPS).convoys
        assert got == [convoy([0, 1, 2], 0, 7)]

    def test_m_larger_than_any_group(self):
        groups = {t: [[0, 1, 2]] for t in range(12)}
        store = FileStore(scene_from_groups(groups, list(range(6))))
        assert k2hop(store, 4, 4, EPS).convoys == []

    def test_two_convoys_same_objects_with_gap(self):
        groups = {t: [[0, 1, 2]] if t not in (8, 9) else [] for t in range(20)}
        store = FileStore(scene_from_groups(groups, list(range(5))))
        got = k2hop(store, 3, 4, EPS).convoys
        assert sorted(got) == [convoy([0, 1, 2], 0, 7), convoy([0, 1, 2], 10, 19)]

    def test_odd_k_hop_length(self):
        # k=7 → h=3; convoy of exactly 7 must still be found wherever it sits.
        for start in (0, 1, 2, 3):
            groups = {t: [[0, 1, 2]] if start <= t < start + 7 else [] for t in range(16)}
            store = FileStore(scene_from_groups(groups, list(range(5))))
            got = k2hop(store, 3, 7, EPS).convoys
            assert got == [convoy([0, 1, 2], start, start + 6)], start

    def test_overlapping_object_sets(self):
        # {0,1,2} on [0,9]; {2,3,4} on [4,13]: object 2 in both.
        groups = {}
        for t in range(14):
            gs = []
            if t <= 9:
                gs.append([0, 1, 2])
            if t >= 4:
                gs.append([3, 4, 5] if t <= 9 else [2, 3, 4])
            groups[t] = gs
        # Rebuild: object 2 moves to second group after t=9 — groups must
        # be disjoint per timestamp, so model the handoff directly.
        store = FileStore(scene_from_groups(groups, list(range(7))))
        got = k2hop(store, 3, 4, EPS).convoys
        assert convoy([0, 1, 2], 0, 9) in got
        assert convoy([3, 4, 5], 4, 9) in got
        assert convoy([2, 3, 4], 10, 13) in got
