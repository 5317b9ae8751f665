"""HWMT tests, including the paper's Figure 4 bisection order, the
full Table 2 / Figure 6 worked example, and lockstep-vs-alone
equivalence of the all-windows miner."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.benchmarks import benchmark_points, candidate_clusters, hop_windows
from repro.core.convoy import Convoy
from repro.core.hwmt import hwmt, hwmt_order, recluster
from repro.core.clustering import meps_clusters
from repro.stores import FileStore, MeteredStore
from repro.testkit import EPS, lset, scene_from_groups


class TestHwmtOrder:
    def test_figure4_window_0_8(self):
        # Fig 4 / Table 2: root 4, then 2 and 6, then 1,3,5,7 (the
        # table's t entries '1' at (3,3) and '6' at (3,4) are typos).
        assert hwmt_order(0, 8) == [[4], [2, 6], [1, 3, 5, 7]]

    def test_empty_interior(self):
        assert hwmt_order(3, 4) == []  # k=2/3: adjacent benchmark points

    def test_one_interior(self):
        assert hwmt_order(4, 6) == [[5]]

    @pytest.mark.parametrize("lo,hi", [(0, 5), (0, 7), (10, 23), (0, 2)])
    def test_covers_exactly_interior(self, lo, hi):
        flat = sorted(t for level in hwmt_order(lo, hi) for t in level)
        assert flat == list(range(lo + 1, hi))

    def test_levels_are_farthest_first(self):
        levels = hwmt_order(0, 16)
        assert levels[0] == [8]
        assert levels[1] == [4, 12]


def _table2_store():
    """The Figure 6 dataset: timestamps 0..8, m=3, letters a..o.

    t=0: {a..j}, {x,y,z}, {m,n,o} cluster;  t=8: {a,b,c,d}, {x,y,z};
    t=4: only {a,b,c,d} still together ({x,y,z} scattered);
    interior t=1,2,3,5,6,7: {a,b,c,d} together.
    """
    abcd = [0, 1, 2, 3]
    a_j = list(range(10))
    xyz = [23, 24, 25]
    mno = [12, 13, 14]
    all_oids = sorted(set(a_j + xyz + mno))
    groups = {t: [abcd] for t in range(1, 8)}
    groups[0] = [a_j, xyz, mno]
    groups[8] = [abcd, xyz]
    return FileStore(scene_from_groups(groups, all_oids)), abcd, xyz, mno


class TestTable2Example:
    def test_benchmark_clusters(self):
        store, abcd, xyz, mno = _table2_store()
        c0 = meps_clusters(*store.snapshot(0), 3, EPS)
        c8 = meps_clusters(*store.snapshot(8), 3, EPS)
        assert sorted(c0, key=sorted) == sorted(
            [frozenset(range(10)), frozenset(xyz), frozenset(mno)], key=sorted
        )
        assert sorted(c8, key=sorted) == sorted(
            [frozenset(abcd), frozenset(xyz)], key=sorted
        )

    def test_cc1_is_intersection(self):
        store, abcd, xyz, _ = _table2_store()
        c0 = meps_clusters(*store.snapshot(0), 3, EPS)
        c8 = meps_clusters(*store.snapshot(8), 3, EPS)
        cc1 = candidate_clusters(c0, c8, 3)
        assert sorted(cc1, key=sorted) == sorted(
            [frozenset(abcd), frozenset(xyz)], key=sorted
        )

    def test_root_recluster_kills_xyz(self):
        # Table 2 step (1,1): reCluster(DB[4]|CC1) = {{a,b,c,d}}.
        store, abcd, xyz, _ = _table2_store()
        cc1 = [frozenset(abcd), frozenset(xyz)]
        cc2 = recluster(*store.snapshot(4), cc1, 3, EPS)
        assert cc2 == [frozenset(abcd)]

    def test_full_hwmt_yields_spanning_abcd(self):
        store, abcd, *_ = _table2_store()
        cc1 = [frozenset(abcd), frozenset({23, 24, 25})]
        [out] = hwmt(store, [(0, 8)], [cc1], 3, EPS)
        assert out == [Convoy(ts=0, te=8, objs=frozenset(abcd))]

    def test_stepwise_survivors_match_table2(self):
        # Walk the table's (l, n) steps: after every recluster, the
        # surviving set is exactly {{a,b,c,d}}.
        store, abcd, xyz, _ = _table2_store()
        groups = [frozenset(abcd), frozenset(xyz)]
        for t in [4, 2, 6, 1, 3, 5, 7]:
            groups = recluster(*store.snapshot(t), groups, 3, EPS)
            assert groups == [frozenset(abcd)], f"after t={t}"


class TestHwmtPruning:
    def test_abandons_window_on_first_dead_timestamp(self):
        # Candidates together at benchmarks but never inside the window:
        # the root recluster already returns [] and HWMT stops.
        reads = []

        class SpyStore(FileStore):
            def gather(self, t, oid):
                reads.extend(sorted(set(t.tolist())))
                return super().gather(t, oid)

        groups = {t: [] for t in range(0, 9)}
        groups[0] = [[0, 1, 2]]
        groups[8] = [[0, 1, 2]]
        store = SpyStore(scene_from_groups(groups, list(range(5))))
        [out] = hwmt(store, [(0, 8)], [[frozenset({0, 1, 2})]], 3, EPS)
        assert out == []
        assert reads == [4]  # only the root was ever touched

    def test_empty_cc_short_circuits(self):
        store, *_ = _table2_store()
        [out] = hwmt(store, [(0, 8)], [[]], 3, EPS)
        assert out == []

    def test_window_split_inside(self):
        # {a,b,c,d,e,f} at both benchmarks, but split {abc}/{def} at the
        # root: both halves span if they persist at every interior t.
        abc, df_ = [0, 1, 2], [3, 4, 5]
        groups = {t: [[0, 1, 2, 3, 4, 5]] for t in (0, 8)}
        for t in range(1, 8):
            groups[t] = [abc, df_]
        store = FileStore(scene_from_groups(groups, list(range(8))))
        [out] = hwmt(store, [(0, 8)], [[frozenset(range(6))]], 3, EPS)
        assert sorted(out) == [
            Convoy(ts=0, te=8, objs=frozenset(abc)),
            Convoy(ts=0, te=8, objs=frozenset(df_)),
        ]


@st.composite
def windowed_world(draw):
    """A random togetherness plan plus, per hop-window, disjoint candidate
    groups drawn independently of the plan (so windows die at varied
    depths of their bisection orders)."""
    n_obj = draw(st.integers(4, 9))
    n_t = draw(st.integers(3, 24))
    plan = {}
    for t in range(n_t):
        perm = draw(st.permutations(range(n_obj)))
        cut = draw(st.integers(0, n_obj))
        plan[t] = [sorted(perm[:cut])] if cut >= 2 else []
    k = draw(st.integers(2, 10))
    windows = hop_windows(benchmark_points(0, n_t - 1, k))
    ccs = []
    for _ in windows:
        perm = draw(st.permutations(range(n_obj)))
        sizes = draw(st.lists(st.integers(2, 4), max_size=2))
        groups, at = [], 0
        for size in sizes:
            if at + size <= n_obj:
                groups.append(frozenset(perm[at:at + size]))
                at += size
        ccs.append(groups)
    return FileStore(scene_from_groups(plan, list(range(n_obj)))), windows, ccs


class TestLockstep:
    @settings(max_examples=60, deadline=None)
    @given(windowed_world(), st.integers(2, 3))
    def test_equals_windows_mined_alone(self, world, m):
        store, windows, ccs = world
        together = MeteredStore(store)
        alone = MeteredStore(store)
        got = hwmt(together, windows, ccs, m, EPS)
        exp = [hwmt(alone, [w], [cc], m, EPS)[0] for w, cc in zip(windows, ccs)]
        assert got == exp
        assert together.points_processed == alone.points_processed

    def test_one_store_call_per_step(self):
        # Three windows with two groups each, all spanning: one read per
        # bisection step, not one per (window, group, timestamp).
        groups = {t: [[0, 1, 2], [3, 4, 5]] for t in range(17)}
        store = FileStore(scene_from_groups(groups, list(range(8))))
        calls = []

        class Spy(MeteredStore):
            def gather(self, t, oid):
                calls.append(len(t))
                return super().gather(t, oid)

        windows = [(0, 8), (8, 12), (12, 16)]
        cc = [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
        out = hwmt(Spy(store), windows, [cc] * 3, 3, EPS)
        assert [len(w) for w in out] == [2, 2, 2]
        assert len(calls) == len([t for lv in hwmt_order(0, 8) for t in lv]) == 7
        assert calls[0] == 3 * 6  # step 0 reads both groups of every window
