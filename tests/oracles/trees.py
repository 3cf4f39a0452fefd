"""Per-pair routing and per-tree construction: the golden model of the
communication forests.

One dimension-order path at a time (:func:`route_path`), merged into
one multicast tree at a time (:func:`build_multicast_tree`) and
reversed into one reduction tree at a time
(:func:`build_reduction_tree`).  The production code builds a whole
kernel's trees in one batched call
(:func:`repro.comm.multicast.build_multicast_forest`,
:func:`repro.comm.reduction.build_reduction_forest`) over vectorized
routes (:func:`repro.comm.routing.route_edges_batch`); each must
return exactly the edges these loops return.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.mesh import MeshGeometry


def axis_steps(geometry, src: int, dst: int, length: int) -> list:
    """Signed unit steps from ``src`` to ``dst`` along one axis.

    A torus takes the shorter wrap direction, ties going forward; a
    mesh never wraps.
    """
    if isinstance(geometry, MeshGeometry):
        return [1 if dst >= src else -1] * abs(dst - src)
    forward = (dst - src) % length
    backward = (src - dst) % length
    if forward <= backward:
        return [1] * forward
    return [-1] * backward


def route_path(torus, src: int, dst: int) -> list:
    """The tile sequence from ``src`` to ``dst`` (inclusive of both).

    Routes along X (columns) first, then Y (rows), taking the shorter
    wrap direction on each axis of a torus.
    """
    path = [src]
    row, col = torus.coords(src)
    dst_row, dst_col = torus.coords(dst)
    for step in axis_steps(torus, col, dst_col, torus.cols):
        col += step
        path.append(torus.tile_id(row, col))
    for step in axis_steps(torus, row, dst_row, torus.rows):
        row += step
        path.append(torus.tile_id(row, col))
    return path


def grid_neighbors(geometry, tile: int) -> set:
    """The tiles one link away from ``tile`` (wrapping on a torus)."""
    row, col = geometry.coords(tile)
    candidates = ((row - 1, col), (row + 1, col), (row, col - 1),
                  (row, col + 1))
    if isinstance(geometry, MeshGeometry):
        return {geometry.tile_id(r, c) for r, c in candidates
                if 0 <= r < geometry.rows and 0 <= c < geometry.cols}
    return {geometry.tile_id(r, c) for r, c in candidates}


@dataclass
class MulticastTree:
    """A multicast tree rooted at ``root`` covering ``destinations``.

    ``children[tile]`` lists the tiles a node forwards to, and
    ``edges`` every ``(parent, child)`` link traversal, sorted.
    """

    root: int
    destinations: tuple
    children: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)

    @property
    def n_link_activations(self) -> int:
        """Link traversals used by one multicast down this tree."""
        return len(self.edges)

    def depth(self) -> int:
        """Longest root-to-leaf hop count."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            for child in self.children.get(node, ()):
                stack.append((child, d + 1))
        return best

    def fanout(self, tile: int) -> int:
        """Number of children a tile forwards to."""
        return len(self.children.get(tile, ()))


def build_multicast_tree(torus, root: int, destinations) -> MulticastTree:
    """Merge the dimension-order paths to all destinations into a tree.

    Because X-then-Y routing gives each destination a unique path from
    the root, the union of paths is a tree; shared prefixes are
    traversed once (Fig. 18).
    """
    destinations = tuple(sorted({int(d) for d in destinations} - {int(root)}))
    children: dict = {}
    edge_set = set()
    for dst in destinations:
        path = route_path(torus, root, dst)
        for parent, child in zip(path, path[1:]):
            if (parent, child) not in edge_set:
                edge_set.add((parent, child))
                children.setdefault(parent, []).append(child)
    return MulticastTree(
        root=int(root),
        destinations=destinations,
        children=children,
        edges=sorted(edge_set),
    )


@dataclass
class ReductionTree:
    """A reduction tree collecting values from ``sources`` into ``root``.

    ``parent[tile]`` is the next hop toward the root, ``edges`` every
    ``(child, parent)`` link traversal, sorted, and ``combine_tiles``
    the tiles where two or more partials meet and are added before
    forwarding.
    """

    root: int
    sources: tuple
    parent: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)
    combine_tiles: tuple = ()

    @property
    def n_link_activations(self) -> int:
        """Link traversals used by one full reduction up this tree."""
        return len(self.edges)

    def depth(self) -> int:
        """Longest source-to-root hop count."""
        best = 0
        for source in self.sources:
            hops = 0
            node = source
            while node != self.root:
                node = self.parent[node]
                hops += 1
            best = max(best, hops)
        return best


def build_reduction_tree(torus, root: int, sources) -> ReductionTree:
    """The multicast tree from the root to all sources, reversed."""
    multicast = build_multicast_tree(torus, root, sources)
    parent = {}
    incoming: dict = {}
    for p, c in multicast.edges:
        parent[c] = p
        incoming[p] = incoming.get(p, 0) + 1
    # A tile combines when it merges more than one incoming partial, or
    # merges an incoming partial with one it produced locally.
    combine = tuple(
        sorted(
            tile for tile, count in incoming.items()
            if count >= 2 or tile in multicast.destinations or tile == root
        )
    )
    return ReductionTree(
        root=int(root),
        sources=multicast.destinations,
        parent=parent,
        edges=sorted((c, p) for p, c in multicast.edges),
        combine_tiles=combine,
    )
