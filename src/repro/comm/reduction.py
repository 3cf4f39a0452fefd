"""Reduction trees (Sec. IV-D: "the above also applies to reductions").

Partial sums produced on many tiles flow *up* a tree toward the home
tile of the output element; junction tiles add incoming partials before
forwarding, so each link carries a single combined value.  A reduction
tree is the multicast tree from the home to the sources, reversed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.multicast import build_multicast_forest
from repro.comm.torus import TorusGeometry


@dataclass
class ReductionForest:
    """Many reduction trees in flat-array form (one batched build).

    Tree ``t`` reduces into ``roots[t]`` along sorted ``(child,
    parent)`` edges ``(children[e], parents[e])`` for ``e`` in
    ``edge_ptr[t]:edge_ptr[t+1]``: the edges of the multicast tree
    from the root to the same sources, each reversed.
    ``remote_inputs[t]`` counts the tree children delivering merged
    partial streams directly into the root.
    """

    roots: np.ndarray
    edge_ptr: np.ndarray
    children: np.ndarray
    parents: np.ndarray
    remote_inputs: np.ndarray

    @property
    def n_trees(self) -> int:
        return len(self.roots)


def build_reduction_forest(geometry: TorusGeometry, roots,
                           src_ptr, sources) -> ReductionForest:
    """Build all of a kernel's reduction trees in one batched call.

    Each tree is the reverse of the multicast tree from its root to
    its sources; the whole batch shares
    :func:`~repro.comm.multicast.build_multicast_forest`'s tree and
    route-path memoization.  Per-tree edges come back sorted by
    ``(child, parent)``.
    """
    forest = build_multicast_forest(geometry, roots, src_ptr, sources)
    n_edges = len(forest.parents)
    n_trees = forest.n_trees
    edge_tree = np.repeat(
        np.arange(n_trees, dtype=np.int64), np.diff(forest.edge_ptr)
    )
    # Reverse each multicast edge (parent, child) -> (child, parent)
    # and re-sort within each tree by the reversed orientation.
    children = forest.children
    parents = forest.parents
    order = np.lexsort((parents, children, edge_tree))
    remote_inputs = np.zeros(n_trees, dtype=np.int64)
    if n_edges:
        at_root = parents == forest.roots[edge_tree]
        np.add.at(remote_inputs, edge_tree[at_root], 1)
    return ReductionForest(
        roots=forest.roots,
        edge_ptr=forest.edge_ptr,
        children=children[order],
        parents=parents[order],
        remote_inputs=remote_inputs,
    )
