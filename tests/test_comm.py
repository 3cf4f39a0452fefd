"""Tests for torus geometry, routing, and communication trees.

Production routing (:func:`repro.comm.routing.route_edges_batch`) is
checked against the per-pair oracle walk on every pair of every small
torus and mesh; the oracle walk and the per-tree builders
(:mod:`tests.oracles.trees`) carry the path and tree properties the
forests are held to.
"""

import numpy as np
import pytest

from repro.comm import MeshGeometry, TorusGeometry
from repro.comm.routing import route_edges_batch
from tests.oracles.trees import (
    build_multicast_tree,
    build_reduction_tree,
    grid_neighbors,
    route_path,
)


@pytest.fixture
def torus8():
    return TorusGeometry(8, 8)


class TestTorus:
    def test_coords_roundtrip(self, torus8):
        for tile in range(torus8.n_tiles):
            r, c = torus8.coords(tile)
            assert torus8.tile_id(r, c) == tile

    def test_hop_distance_uses_wraparound(self, torus8):
        # Corner to corner is 2 hops on a torus, not 14.
        assert torus8.hop_distance(0, torus8.tile_id(7, 7)) == 2

    def test_hop_distance_symmetric(self, torus8, rng):
        for _ in range(20):
            a, b = rng.integers(0, torus8.n_tiles, 2)
            assert torus8.hop_distance(int(a), int(b)) == torus8.hop_distance(
                int(b), int(a)
            )

    def test_max_distance(self, torus8):
        max_hops = max(
            torus8.hop_distance(0, t) for t in range(torus8.n_tiles)
        )
        assert max_hops == 8  # rows/2 + cols/2

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            TorusGeometry(0, 4)


class TestRouting:
    def test_path_endpoints(self, torus8, rng):
        for _ in range(20):
            src, dst = (int(v) for v in rng.integers(0, torus8.n_tiles, 2))
            path = route_path(torus8, src, dst)
            assert path[0] == src
            assert path[-1] == dst

    def test_path_length_is_minimal(self, torus8, rng):
        for _ in range(20):
            src, dst = (int(v) for v in rng.integers(0, torus8.n_tiles, 2))
            path = route_path(torus8, src, dst)
            assert len(path) - 1 == torus8.hop_distance(src, dst)

    def test_path_steps_are_links(self, torus8, rng):
        for _ in range(10):
            src, dst = (int(v) for v in rng.integers(0, torus8.n_tiles, 2))
            path = route_path(torus8, src, dst)
            for a, b in zip(path, path[1:]):
                assert b in grid_neighbors(torus8, a)

    def test_self_route(self, torus8):
        assert route_path(torus8, 5, 5) == [5]

    def test_x_before_y(self, torus8):
        """Dimension order: the column must be fixed before rows change."""
        src = torus8.tile_id(1, 1)
        dst = torus8.tile_id(4, 4)
        path = route_path(torus8, src, dst)
        cols = [torus8.coords(t)[1] for t in path]
        rows = [torus8.coords(t)[0] for t in path]
        # Once a row change happens, column stays fixed.
        first_row_change = next(
            (i for i in range(1, len(path)) if rows[i] != rows[i - 1]),
            len(path),
        )
        assert all(c == cols[-1] for c in cols[first_row_change:])


class TestRouteEdgesBatch:
    """The vectorized router against the per-pair oracle walk."""

    @pytest.mark.parametrize("geometry_cls", [TorusGeometry, MeshGeometry])
    @pytest.mark.parametrize("rows", range(1, 9))
    def test_every_pair_matches_oracle(self, geometry_cls, rows):
        for cols in range(1, 9):
            geometry = geometry_cls(rows, cols)
            tiles = np.arange(geometry.n_tiles)
            srcs = np.repeat(tiles, geometry.n_tiles)
            dsts = np.tile(tiles, geometry.n_tiles)
            edge_ptr, parents, children = route_edges_batch(
                geometry, srcs, dsts
            )
            assert edge_ptr[0] == 0 and edge_ptr[-1] == len(parents)
            for p, (src, dst) in enumerate(zip(srcs.tolist(),
                                               dsts.tolist())):
                path = route_path(geometry, src, dst)
                lo, hi = edge_ptr[p], edge_ptr[p + 1]
                assert parents[lo:hi].tolist() == path[:-1]
                assert children[lo:hi].tolist() == path[1:]

    def test_empty_batch(self, torus8):
        edge_ptr, parents, children = route_edges_batch(torus8, [], [])
        assert edge_ptr.tolist() == [0]
        assert len(parents) == len(children) == 0

    def test_unknown_geometry_rejected(self):
        with pytest.raises(TypeError):
            route_edges_batch(object(), [0], [1])


class TestMulticastTree:
    def test_single_destination_is_path(self, torus8):
        tree = build_multicast_tree(torus8, 0, [9])
        assert tree.n_link_activations == torus8.hop_distance(0, 9)

    def test_shared_prefix_traversed_once(self, torus8):
        """Fig. 18: destinations in the same direction share links."""
        root = torus8.tile_id(3, 3)
        dests = [
            torus8.tile_id(1, 1),
            torus8.tile_id(3, 1),
            torus8.tile_id(6, 1),
        ]
        tree = build_multicast_tree(torus8, root, dests)
        naive = sum(torus8.hop_distance(root, d) for d in dests)
        assert tree.n_link_activations < naive
        # All three share the westward path to column 1 (2 links), then
        # fan out north/south.
        assert tree.n_link_activations == 2 + 2 + 3

    def test_all_destinations_reachable(self, torus8, rng):
        root = 0
        dests = sorted(set(int(v) for v in rng.integers(1, 64, 12)))
        tree = build_multicast_tree(torus8, root, dests)
        reached = {root}
        stack = [root]
        while stack:
            node = stack.pop()
            for child in tree.children.get(node, ()):
                reached.add(child)
                stack.append(child)
        assert set(dests) <= reached

    def test_root_excluded_from_destinations(self, torus8):
        tree = build_multicast_tree(torus8, 5, [5, 6])
        assert tree.destinations == (6,)

    def test_empty_destinations(self, torus8):
        tree = build_multicast_tree(torus8, 5, [])
        assert tree.n_link_activations == 0
        assert tree.depth() == 0

    def test_fanout(self, torus8):
        root = torus8.tile_id(3, 3)
        dests = [torus8.tile_id(3, 2), torus8.tile_id(3, 4)]
        tree = build_multicast_tree(torus8, root, dests)
        assert tree.fanout(root) == 2


class TestReductionTree:
    def test_edges_reverse_multicast(self, torus8, rng):
        root = 10
        sources = sorted(set(int(v) for v in rng.integers(0, 64, 10)) - {root})
        mcast = build_multicast_tree(torus8, root, sources)
        reduction = build_reduction_tree(torus8, root, sources)
        assert reduction.n_link_activations == mcast.n_link_activations
        assert sorted((p, c) for c, p in reduction.edges) == mcast.edges

    def test_parents_lead_to_root(self, torus8, rng):
        root = 3
        sources = sorted(set(int(v) for v in rng.integers(0, 64, 8)) - {root})
        tree = build_reduction_tree(torus8, root, sources)
        for source in sources:
            node = source
            hops = 0
            while node != root:
                node = tree.parent[node]
                hops += 1
                assert hops <= torus8.n_tiles
        assert tree.depth() > 0

    def test_combine_tiles_present_for_fan_in(self, torus8):
        root = torus8.tile_id(3, 3)
        # Two sources whose paths merge at the root's column.
        sources = [torus8.tile_id(1, 3), torus8.tile_id(5, 3)]
        tree = build_reduction_tree(torus8, root, sources)
        assert root in tree.combine_tiles
