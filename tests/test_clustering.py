"""Unit tests for the DBSCAN kernel: both pair sources, parameter checks,
and exact agreement with a classic sequential DBSCAN."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import MATRIX_MAX_N, NOISE, dbscan, meps_clusters


def reference_dbscan(xy, eps, min_pts):
    """Classic DBSCAN: full distance matrix, then a depth-first expansion
    from each unlabelled core point in index order. Border points join
    the first cluster that reaches them."""
    n = len(xy)
    labels = np.full(n, NOISE, dtype=np.int64)
    if n == 0:
        return labels
    d = xy[:, None, :] - xy[None, :, :]
    nbrs = [np.flatnonzero(row) for row in (d * d).sum(axis=2) <= eps * eps]
    core = np.array([len(a) >= min_pts for a in nbrs])
    cid = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        labels[i] = cid
        queue = list(nbrs[i])
        while queue:
            j = queue.pop()
            if labels[j] == NOISE:
                labels[j] = cid
                if core[j]:
                    queue.extend(nbrs[j])
        cid += 1
    return labels


def _labels_to_partition(labels):
    part = {}
    for i, l in enumerate(labels):
        if l != NOISE:
            part.setdefault(l, set()).add(i)
    return sorted(map(frozenset, part.values()), key=sorted)


class TestDbscanBasics:
    def test_empty(self):
        assert dbscan(np.empty((0, 2)), 1.0, 3).size == 0

    def test_single_point_is_noise_for_minpts2(self):
        assert dbscan(np.array([[0.0, 0.0]]), 1.0, 2).tolist() == [NOISE]

    def test_single_point_cluster_minpts1(self):
        assert dbscan(np.array([[0.0, 0.0]]), 1.0, 1).tolist() == [0]

    def test_two_clusters(self):
        xy = np.array([[0, 0], [0.5, 0], [1.0, 0], [100, 100], [100.5, 100], [101, 100]], float)
        labels = dbscan(xy, 1.0, 3)
        assert _labels_to_partition(labels) == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]

    def test_chain_is_density_connected(self):
        # A chain of points each within eps of the next: one cluster.
        xy = np.column_stack([np.arange(10) * 0.9, np.zeros(10)])
        labels = dbscan(xy, 1.0, 2)
        assert set(labels) == {0}

    def test_chain_broken_by_gap(self):
        xy = np.column_stack([np.r_[np.arange(5) * 0.9, 10 + np.arange(5) * 0.9], np.zeros(10)])
        assert len(_labels_to_partition(dbscan(xy, 1.0, 2))) == 2

    def test_minpts_boundary_inclusive(self):
        # |NH(p,eps)| >= m includes p itself (standard DBSCAN).
        xy = np.array([[0, 0], [0.5, 0], [1.0, 0]], float)
        # eps=0.4: every neighborhood is just the point itself → all noise.
        assert set(dbscan(xy, 0.4, 3)) == {NOISE}
        # eps=0.6: the middle point sees all three (|NH| = 3 ≥ m, self
        # included) and the ends join as border points → one cluster.
        assert set(dbscan(xy, 0.6, 3)) == {0}
        assert set(dbscan(xy, 1.0, 3)) == {0}

    def test_border_point_joins_cluster(self):
        # p3 within eps of a core point but not core itself.
        xy = np.array([[0, 0], [0.5, 0], [-0.5, 0], [1.4, 0]], float)
        labels = dbscan(xy, 1.0, 3)
        assert labels[3] == labels[0] != NOISE

    def test_exact_eps_distance_is_neighbor(self):
        xy = np.array([[0, 0], [1.0, 0], [2.0, 0]], float)
        assert set(dbscan(xy, 1.0, 3)) == {0}


class TestGridEqualsNaive:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("minpts", [2, 3, 5])
    def test_random_agreement(self, seed, minpts):
        g = np.random.default_rng(seed)
        xy = g.random((120, 2)) * 20
        for eps in (0.5, 1.0, 2.5):
            a = _labels_to_partition(dbscan(xy, eps, minpts, mode="grid"))
            b = _labels_to_partition(dbscan(xy, eps, minpts, mode="naive"))
            assert a == b, f"eps={eps}"

    def test_negative_coordinates(self):
        g = np.random.default_rng(99)
        xy = g.random((80, 2)) * 20 - 10
        a = _labels_to_partition(dbscan(xy, 1.0, 3, mode="grid"))
        b = _labels_to_partition(dbscan(xy, 1.0, 3, mode="naive"))
        assert a == b


@st.composite
def snapshots(draw):
    """(xy, eps): lattice points (multiples of eps, so points on cell
    boundaries, duplicates and pairs exactly eps apart) mixed with free
    points, negative coordinates, optionally some points moved 2**33
    cells away, and n on both sides of ``MATRIX_MAX_N``."""
    eps = draw(st.sampled_from([0.1, 0.3, 1.0, 2.5]))
    n = draw(st.one_of(
        st.integers(0, 12),
        st.integers(MATRIX_MAX_N - 4, MATRIX_MAX_N + 4),
        st.integers(MATRIX_MAX_N + 5, 3 * MATRIX_MAX_N),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.integers(2, 12))
    lattice = rng.integers(-side, side, (n, 2)) * eps
    free = rng.uniform(-side, side, (n, 2)) * eps
    xy = np.where(rng.random((n, 1)) < draw(st.floats(0, 1)), lattice, free)
    if draw(st.booleans()):
        far = rng.random(n) < 0.3
        xy[far] += rng.choice([-1.0, 1.0], (far.sum(), 2)) * eps * 2.0**33
    return xy, eps


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(snapshots(), st.integers(1, 6))
    def test_labels_identical_in_both_modes(self, snap, min_pts):
        xy, eps = snap
        ref = reference_dbscan(xy, eps, min_pts)
        for mode in ("grid", "naive"):
            assert np.array_equal(dbscan(xy, eps, min_pts, mode=mode), ref), mode

    def test_shared_border_point_joins_first_cluster(self):
        # Point 0 is a border point of both clusters. It joins the one
        # with the lower core index (core 1), not the nearer core 4.
        x = [0.0, -1.0, -1.5, -1.8, 0.9, 1.4, 1.7]
        xy = np.column_stack([x, np.zeros(len(x))])
        expected = [0, 0, 0, 0, 1, 1, 1]
        assert reference_dbscan(xy, 1.0, 4).tolist() == expected
        for mode in ("grid", "naive"):
            assert dbscan(xy, 1.0, 4, mode=mode).tolist() == expected


class TestRejectsInvalidParameters:
    xy = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])

    def test_negative_eps(self):
        with pytest.raises(ValueError, match="eps"):
            dbscan(self.xy, -1.0, 2)

    def test_zero_eps(self):
        with pytest.raises(ValueError, match="eps"):
            dbscan(self.xy, 0.0, 2)

    def test_nan_eps(self):
        with pytest.raises(ValueError, match="eps"):
            dbscan(self.xy, math.nan, 2)

    def test_infinite_eps(self):
        with pytest.raises(ValueError, match="eps"):
            dbscan(self.xy, math.inf, 2)

    def test_zero_min_pts(self):
        with pytest.raises(ValueError, match="min_pts"):
            dbscan(self.xy, 1.0, 0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            dbscan(self.xy, 1.0, 2, mode="kd-tree")


class TestMepsClusters:
    def test_size_filter(self):
        # minPts=2 clusters pair {10,11}, but m=3 discards size-2 sets.
        oids = np.array([10, 11, 20, 21, 22])
        xy = np.array([[0, 0], [0.5, 0], [50, 0], [50.5, 0], [51, 0]], float)
        assert meps_clusters(oids, xy, 3, 1.0) == [frozenset({20, 21, 22})]

    def test_returns_oids_not_indices(self):
        oids = np.array([7, 9, 13])
        xy = np.array([[0, 0], [0.5, 0], [1.0, 0]], float)
        assert meps_clusters(oids, xy, 3, 1.0) == [frozenset({7, 9, 13})]

    def test_clusters_are_disjoint(self):
        g = np.random.default_rng(5)
        oids = np.arange(200)
        xy = g.random((200, 2)) * 10
        cl = meps_clusters(oids, xy, 3, 1.0)
        seen = set()
        for c in cl:
            assert not (c & seen)
            seen |= c

    def test_empty_snapshot(self):
        assert meps_clusters(np.empty(0, dtype=int), np.empty((0, 2)), 3, 1.0) == []
