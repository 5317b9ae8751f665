"""DBSCAN and (m,eps)-cluster extraction for trajectory snapshots.

The convoy literature (Jeung et al.; Yoon & Shahabi; this paper) uses one
parameter ``m`` both as DBSCAN's ``minPts`` and as the minimum convoy
size: an (m,eps)-cluster is a maximal density-connected set of size >= m
mined with ``minPts = m``.

One exact, vectorized kernel (grid-cell DBSCAN, Gan & Tao, SIGMOD 2015)
in two steps:

1. **Neighbour pairs** — every unordered pair with d² <= eps², from one
   of two sources chosen by size. Up to ``MATRIX_MAX_N`` points, the
   full O(n²) distance matrix. Above it, a grid join: points are sorted
   by cell (side just over eps), and each occupied cell is joined with
   itself and its neighbour cells, so memory grows with the number of
   candidate pairs, never with n².
2. **Labels** — one labeller for both sources: core = degree >= minPts;
   core–core components by min-label propagation with pointer jumping,
   so each component is named by its smallest core index; a border point
   takes the smallest root among its core neighbours; a cluster id is
   the rank of its root.

The labels equal classic sequential DBSCAN's exactly, not just up to
renumbering: clusters are numbered in discovery order (by smallest core
index), and a border point shared by several clusters joins the one
discovered first.

``mode="naive"`` forces the matrix source at every n. The VCoDA baseline
uses it to model the un-indexed O(n²) clustering cost the paper
attributes to it; both modes return identical labels.
"""
from __future__ import annotations

import math

import numpy as np

NOISE = -1

#: Largest snapshot that takes its neighbour pairs from the distance
#: matrix; larger ones use the grid join. Measured on a 4-vCPU VM (pairs
#: plus labels, sparse to dense points): the matrix is the cheaper source
#: up to about 120 points, the grid join from 128 on.
MATRIX_MAX_N = 112

# Grid cells are a little wider than eps, so rounding in the cell
# quotient cannot put two points within eps two cells apart (for spans
# below about 2**44 cells, where the quotient errs by < 2**-7 cells).
_CELL_SIDE = 1.0 + 2.0**-6
# The four cell offsets of one half-plane: with the cell itself, each
# pair of neighbouring cells is joined once.
_HALF_PLANE = ((1, -1), (1, 0), (1, 1), (0, 1))


def check_params(eps: float, min_pts: int) -> None:
    """Raise ``ValueError`` unless eps is finite and > 0 and min_pts >= 1."""
    if not math.isfinite(eps) or eps <= 0:
        raise ValueError(f"eps must be finite and > 0 (got {eps})")
    if min_pts < 1:
        raise ValueError(f"min_pts (m) must be >= 1 (got {min_pts})")


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each (s, c)."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1])


def _matrix_pairs(xy: np.ndarray, eps2: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i < j with d² <= eps², from the full distance matrix."""
    x, y = xy[:, 0], xy[:, 1]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    i, j = np.nonzero(dx * dx + dy * dy <= eps2)
    upper = i < j
    return i[upper], j[upper]


def _grid_pairs(xy: np.ndarray, eps: float, eps2: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i < j with d² <= eps², from a join of neighbouring grid cells."""
    g = np.floor((xy - xy.min(axis=0)) / (eps * _CELL_SIDE))
    if (g[:, 0].max() + 1) * (g[:, 1].max() + 2) >= 2.0**62:
        # Too wide for an int64 cell key: rank each axis instead. Cells
        # adjacent on an axis keep adjacent ranks; cells that become
        # adjacent only by ranking add candidates the distance test drops.
        g = np.column_stack([np.unique(c, return_inverse=True)[1] for c in g.T])
    g = g.astype(np.int64)
    # Column w - 1 is never occupied, so offsets that step off the top or
    # bottom row land in empty cells.
    w = int(g[:, 1].max()) + 2
    key = g[:, 0] * w + g[:, 1]
    order = np.argsort(key)
    skey = key[order]
    cstart = np.flatnonzero(np.r_[True, skey[1:] != skey[:-1]])
    ckey = skey[cstart]
    ccount = np.diff(np.r_[cstart, len(skey)])

    nc = len(ckey)
    nkey = np.concatenate([ckey + (dx * w + dy) for dx, dy in _HALF_PLANE])
    pos = np.searchsorted(ckey, nkey).clip(max=nc - 1)
    hit = ckey[pos] == nkey
    a = np.r_[np.arange(nc), np.flatnonzero(hit) % nc]
    b = np.r_[np.arange(nc), pos[hit]]

    # Expand cell pairs into point pairs (positions in cell order).
    pa = _ragged_arange(cstart[a], ccount[a])
    nb = np.repeat(ccount[b], ccount[a])
    p = np.repeat(pa, nb)
    q = _ragged_arange(np.repeat(cstart[b], ccount[a]), nb)
    same = np.repeat(np.repeat(a == b, ccount[a]), nb)
    keep = ~same | (p < q)
    p, q = p[keep], q[keep]

    s = xy[order]
    d = s[p] - s[q]
    near = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= eps2
    i, j = order[p[near]], order[q[near]]
    return np.minimum(i, j), np.maximum(i, j)


def _label(n: int, i: np.ndarray, j: np.ndarray, min_pts: int) -> np.ndarray:
    """Classic DBSCAN labels from the neighbour pairs i < j."""
    core = np.bincount(i, minlength=n) + np.bincount(j, minlength=n) + 1 >= min_pts
    if not np.count_nonzero(core):
        return np.full(n, NOISE, dtype=np.int64)

    # Core–core components: hook each root onto the smallest root across
    # its edges, then jump pointers to the roots; repeat until every edge
    # joins equal roots. The surviving root is the component's min index.
    both = core[i] & core[j]
    ci, cj = i[both], j[both]
    root = np.arange(n)
    while True:
        ri, rj = root[ci], root[cj]
        split = ri != rj
        if not np.count_nonzero(split):
            break
        ri, rj = ri[split], rj[split]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            nxt = root[root]
            if not np.count_nonzero(nxt != root):
                break
            root = nxt

    # Border points: the smallest root among their core neighbours; the
    # rest of the non-core points keep root n and stay noise.
    root = np.where(core, root, n)
    edge = core[i] != core[j]
    bi, bj = i[edge], j[edge]
    src = np.where(core[bi], bi, bj)
    np.minimum.at(root, bi + bj - src, root[src])

    # Cluster id = rank of the root; roots are the points with root == self.
    rank = np.cumsum(root == np.arange(n)) - 1
    return np.where(root < n, rank[np.minimum(root, n - 1)], NOISE)


def dbscan(xy: np.ndarray, eps: float, min_pts: int, *, mode: str = "grid") -> np.ndarray:
    """Exact DBSCAN labels for one snapshot.

    Returns an int array: ``NOISE`` (-1) for noise, else a cluster id
    (0-based, ordered by discovery). Border points join the cluster of
    the first core point that reaches them, as in classic DBSCAN.
    ``mode="naive"`` takes the neighbour pairs from the distance matrix
    at every size; ``"grid"`` only up to ``MATRIX_MAX_N`` points.
    """
    check_params(eps, min_pts)
    if mode not in ("grid", "naive"):
        raise ValueError(f"mode must be 'grid' or 'naive' (got {mode!r})")
    xy = np.asarray(xy, dtype=np.float64)
    eps2 = eps * eps
    if mode == "naive" or len(xy) <= MATRIX_MAX_N:
        i, j = _matrix_pairs(xy, eps2)
    else:
        i, j = _grid_pairs(xy, eps, eps2)
    return _label(len(xy), i, j, min_pts)


def meps_clusters(
    oids: np.ndarray, xy: np.ndarray, m: int, eps: float, *, mode: str = "grid"
) -> list[frozenset[int]]:
    """(m,eps)-clusters of one snapshot: DBSCAN(minPts=m) clusters with
    size >= m, returned as frozensets of object ids.

    Clusters at a single timestamp are pairwise disjoint (every point
    gets at most one label), which `candidate_clusters` relies on.
    """
    labels = dbscan(xy, eps, m, mode=mode)
    out: list[frozenset[int]] = []
    for c in range(labels.max() + 1 if len(labels) else 0):
        members = oids[labels == c]
        if len(members) >= m:
            out.append(frozenset(members.tolist()))
    return out
