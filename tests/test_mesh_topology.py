"""Tests for the mesh NoC geometry and topology selection."""

import numpy as np
import pytest

from repro.comm import MeshGeometry, TorusGeometry, make_geometry
from repro.config import AzulConfig
from tests.oracles.trees import (
    build_multicast_tree,
    grid_neighbors,
    route_path,
)


class TestMeshGeometry:
    def test_no_wraparound(self):
        mesh = MeshGeometry(4, 4)
        top_left = 0
        bottom_right = mesh.tile_id(3, 3)
        # Manhattan distance, not the torus's 2 hops.
        assert mesh.hop_distance(top_left, bottom_right) == 6

    def test_out_of_range_coords_rejected(self):
        mesh = MeshGeometry(3, 3)
        with pytest.raises(ValueError):
            mesh.tile_id(3, 0)

    def test_routing_stays_in_grid(self, rng):
        mesh = MeshGeometry(5, 5)
        for _ in range(20):
            src, dst = (int(v) for v in rng.integers(0, 25, 2))
            path = route_path(mesh, src, dst)
            assert path[0] == src and path[-1] == dst
            assert len(path) - 1 == mesh.hop_distance(src, dst)
            for a, b in zip(path, path[1:]):
                assert b in grid_neighbors(mesh, a)

    def test_multicast_tree_on_mesh(self, rng):
        mesh = MeshGeometry(4, 4)
        dests = sorted(set(int(v) for v in rng.integers(1, 16, 6)))
        tree = build_multicast_tree(mesh, 0, dests)
        reached = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for child in tree.children.get(node, ()):
                reached.add(child)
                stack.append(child)
        assert set(dests) <= reached

    def test_mesh_reduction_deeper_than_torus(self):
        torus = TorusGeometry(8, 8)
        mesh = MeshGeometry(8, 8)
        assert mesh.reduction_depth() >= torus.reduction_depth()


class TestTopologySelection:
    def test_factory(self):
        assert isinstance(
            make_geometry(AzulConfig(topology="torus")), TorusGeometry
        )
        assert isinstance(
            make_geometry(AzulConfig(topology="mesh")), MeshGeometry
        )

    def test_invalid_topology_rejected(self):
        with pytest.raises(ValueError):
            AzulConfig(topology="hypercube")

    def test_mesh_machine_is_functionally_correct(self):
        """The simulator computes identical numerics on either NoC."""
        from repro.core import map_block
        from repro.precond import ic0
        from repro.sim import AzulMachine
        from repro.sparse import generators as gen

        matrix = gen.random_spd(40, nnz_per_row=4, seed=9)
        lower = ic0(matrix)
        b = gen.make_rhs(matrix, seed=10)
        placement = map_block(matrix, lower, 16)
        for topology in ("torus", "mesh"):
            config = AzulConfig(mesh_rows=4, mesh_cols=4,
                                topology=topology)
            # simulate_pcg verifies numeric equality with the reference.
            AzulMachine(config).simulate_pcg(matrix, lower, placement, b)
