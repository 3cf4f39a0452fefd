"""Multicast trees (paper Fig. 18, right).

A tile multicasting a value to many destinations sends it once down a
tree embedded in the torus: each tree edge is a single link traversal,
and forking happens at intermediate tiles.  This avoids both redundant
link traffic and the serialization of issuing hundreds of point-to-point
sends from one PE (Sec. IV-D).

Because X-then-Y routing gives each destination a unique path from the
root, the union of the paths to all destinations is a tree; shared
prefixes are traversed once (e.g. one east-west message forwarded north
and south, Fig. 18).  :func:`build_multicast_forest` builds all of a
kernel's trees in one batched call; the compiler, the simulator and the
static traffic analysis all read its output.  The per-tree loop it must
match edge for edge is kept as a test oracle (``tests/oracles/trees.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.routing import route_edges_batch
from repro.comm.torus import TorusGeometry


@dataclass
class MulticastForest:
    """Many multicast trees in flat-array form (one batched build).

    Tree ``t`` is rooted at ``roots[t]`` with sorted ``(parent,
    child)`` edges ``(parents[e], children[e])`` for ``e`` in
    ``edge_ptr[t]:edge_ptr[t+1]``: the union of the dimension-order
    paths from the root to each destination, each edge once.
    """

    roots: np.ndarray
    edge_ptr: np.ndarray
    parents: np.ndarray
    children: np.ndarray

    @property
    def n_trees(self) -> int:
        return len(self.roots)


def build_multicast_forest(geometry: TorusGeometry, roots,
                           dst_ptr, destinations) -> MulticastForest:
    """Build all of a kernel's multicast trees in one batched call.

    ``roots[t]`` and ``destinations[dst_ptr[t]:dst_ptr[t+1]]`` define
    tree ``t`` (destinations sorted, deduplicated, root excluded —
    the canonical form the lowering supplies).  Two levels of
    memoization exploit the heavy structural sharing across a kernel's
    columns/rows: whole trees are cached on ``(root, destinations)``
    (many columns share one home/tile-set pattern) and dimension-order
    route paths on ``(root, dst)``, so each distinct path is computed
    once per kernel instead of once per column.

    The per-tree edge lists are bit-identical to merging the routes
    one destination at a time.
    """
    roots_arr = np.asarray(roots, dtype=np.int64)
    ptr = np.asarray(dst_ptr, dtype=np.int64)
    dsts_arr = np.asarray(destinations, dtype=np.int64)
    n_trees = len(roots_arr)
    # Canonicalize every destination group at once: per-tree sorted,
    # deduplicated, root excluded.
    tree_id = np.repeat(np.arange(n_trees, dtype=np.int64), np.diff(ptr))
    order = np.lexsort((dsts_arr, tree_id))
    tid = tree_id[order]
    dst_sorted = dsts_arr[order]
    keep = dst_sorted != roots_arr[tid]
    if len(tid):
        first = np.ones(len(tid), dtype=bool)
        first[1:] = (tid[1:] != tid[:-1]) | (dst_sorted[1:] != dst_sorted[:-1])
        keep &= first
    counts = np.bincount(tid[keep], minlength=n_trees)
    norm_ptr = np.zeros(n_trees + 1, dtype=np.int64)
    np.cumsum(counts, out=norm_ptr[1:])
    # Deduplicate whole trees vectorized: fingerprint every tree as a
    # fixed-width (root, padded destinations) row so the path-merging
    # loop below runs once per *distinct* tree (many columns share one
    # home/tile-set pattern).
    width = int(counts.max()) if n_trees else 0
    dst_norm = dst_sorted[keep]
    padded = np.full((max(n_trees, 1), width + 1), -1, dtype=np.int64)
    padded[:n_trees, 0] = roots_arr
    if len(dst_norm):
        col = np.arange(len(dst_norm), dtype=np.int64) - norm_ptr[tid[keep]]
        padded[tid[keep], col + 1] = dst_norm
    rows = np.ascontiguousarray(padded[:n_trees])
    view = rows.view([("", rows.dtype)] * (width + 1)).ravel()
    _, rep_index, inverse = np.unique(
        view, return_index=True, return_inverse=True
    )
    n_unique = len(rep_index)
    # Gather the (root, dst) pairs of the unique trees (CSR gather).
    u_len = counts[rep_index]
    u_ptr = np.zeros(n_unique + 1, dtype=np.int64)
    np.cumsum(u_len, out=u_ptr[1:])
    n_pairs = int(u_ptr[-1])
    u_tree = np.repeat(np.arange(n_unique, dtype=np.int64), u_len)
    within = np.arange(n_pairs, dtype=np.int64) - u_ptr[u_tree]
    gather = norm_ptr[rep_index][u_tree] + within
    pair_dst = dst_norm[gather]
    pair_root = roots_arr[rep_index][u_tree]
    # One batched route computation per *distinct* (root, dst) pair.
    span = int(max(pair_dst.max(), pair_root.max())) + 1 if n_pairs else 1
    pair_key, pair_inv = np.unique(
        pair_root * span + pair_dst, return_inverse=True
    )
    path_ptr, path_parent, path_child = route_edges_batch(
        geometry, pair_key // span, pair_key % span
    )
    # Expand every pair's path edges, tagged with its unique-tree id.
    path_len = np.diff(path_ptr)
    pair_len = path_len[pair_inv]
    pair_off = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(pair_len, out=pair_off[1:])
    n_raw = int(pair_off[-1])
    raw_pair = np.repeat(np.arange(n_pairs, dtype=np.int64), pair_len)
    raw_within = np.arange(n_raw, dtype=np.int64) - pair_off[raw_pair]
    raw_src = path_ptr[pair_inv][raw_pair] + raw_within
    raw_parent = path_parent[raw_src]
    raw_child = path_child[raw_src]
    raw_tree = u_tree[raw_pair]
    # Canonical per-tree form: sorted (parent, child), shared-prefix
    # edges deduplicated.
    order = np.lexsort((raw_child, raw_parent, raw_tree))
    e_tree = raw_tree[order]
    e_parent = raw_parent[order]
    e_child = raw_child[order]
    if n_raw:
        first = np.ones(n_raw, dtype=bool)
        first[1:] = (
            (e_tree[1:] != e_tree[:-1])
            | (e_parent[1:] != e_parent[:-1])
            | (e_child[1:] != e_child[:-1])
        )
        e_tree = e_tree[first]
        e_parent = e_parent[first]
        e_child = e_child[first]
    u_edge_len = np.bincount(e_tree, minlength=n_unique)
    u_edge_ptr = np.zeros(n_unique + 1, dtype=np.int64)
    np.cumsum(u_edge_len, out=u_edge_ptr[1:])
    # Expand the unique trees back to every requested tree.
    out_len = u_edge_len[inverse]
    edge_ptr = np.zeros(n_trees + 1, dtype=np.int64)
    np.cumsum(out_len, out=edge_ptr[1:])
    n_out = int(edge_ptr[-1])
    out_tree = np.repeat(np.arange(n_trees, dtype=np.int64), out_len)
    out_within = np.arange(n_out, dtype=np.int64) - edge_ptr[out_tree]
    out_src = u_edge_ptr[inverse][out_tree] + out_within
    return MulticastForest(
        roots=roots_arr,
        edge_ptr=edge_ptr,
        parents=e_parent[out_src],
        children=e_child[out_src],
    )
