"""Tests for the data-mapping strategies and traffic analysis."""

import numpy as np
import pytest

from repro.comm import TorusGeometry
from repro.config import AzulConfig
from repro.core import (
    MAPPERS,
    Placement,
    analyze_traffic,
    build_pcg_hypergraph,
    depth_quantile_weights,
    get_mapper,
    map_azul,
    map_block,
    map_round_robin,
    map_sparsep,
    placement_stats,
)
from repro.core.placement import pin_diagonals
from repro.errors import CapacityError, MappingError
from repro.hypergraph import Hypergraph, PartitionerOptions
from repro.precond import ic0
from repro.sparse import generators as gen
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="module")
def pcg_operands():
    """A small mesh matrix with its IC(0) factor."""
    matrix = gen.random_geometric_fem(60, avg_degree=6, dofs_per_node=1, seed=1)
    lower = ic0(matrix)
    return matrix, lower


N_TILES = 16
TORUS = TorusGeometry(4, 4)


class TestPlacement:
    def test_rejects_out_of_range_tiles(self, pcg_operands):
        matrix, lower = pcg_operands
        with pytest.raises(MappingError):
            Placement(
                n_tiles=4,
                a_tile=np.full(matrix.nnz, 99),
                l_tile=np.zeros(lower.nnz, dtype=int),
                vec_tile=np.zeros(matrix.n_rows, dtype=int),
            )

    def test_capacity_validation(self, pcg_operands):
        matrix, lower = pcg_operands
        placement = map_round_robin(matrix, lower, N_TILES)
        placement.validate_capacity(AzulConfig())  # plenty of room
        tiny = AzulConfig().with_(data_sram_bytes=64)
        with pytest.raises(CapacityError):
            placement.validate_capacity(tiny)

    def test_pin_diagonals(self, pcg_operands):
        matrix, lower = pcg_operands
        placement = map_block(matrix, lower, N_TILES)
        indptr, indices = lower.indptr, lower.indices
        for i in range(lower.n_rows):
            for k in range(indptr[i], indptr[i + 1]):
                if indices[k] == i:
                    assert placement.l_tile[k] == placement.vec_tile[i]

    def test_stats(self, pcg_operands):
        matrix, lower = pcg_operands
        stats = placement_stats(map_round_robin(matrix, lower, N_TILES))
        assert stats["n_tiles"] == N_TILES
        assert stats["nnz_imbalance"] >= 1.0


class TestPositionBasedMappers:
    def test_round_robin_balances_perfectly(self, pcg_operands):
        matrix, lower = pcg_operands
        placement = map_round_robin(matrix, lower, N_TILES)
        counts = np.bincount(placement.a_tile, minlength=N_TILES)
        assert counts.max() - counts.min() <= 1

    def test_block_is_contiguous(self, pcg_operands):
        matrix, lower = pcg_operands
        placement = map_block(matrix, lower, N_TILES)
        assert np.all(np.diff(placement.a_tile) >= 0)

    def test_block_balances(self, pcg_operands):
        matrix, lower = pcg_operands
        placement = map_block(matrix, lower, N_TILES)
        counts = np.bincount(placement.a_tile, minlength=N_TILES)
        assert counts.max() <= -(-matrix.nnz // N_TILES)

    def test_sparsep_balances_nnz(self, pcg_operands):
        matrix, lower = pcg_operands
        placement = map_sparsep(matrix, lower, N_TILES)
        counts = np.bincount(placement.a_tile, minlength=N_TILES)
        # Coordinate chunking is approximately balanced.
        assert counts.max() < 3 * matrix.nnz / N_TILES

    def test_sparsep_chunks_are_coordinate_rectangles(self, pcg_operands):
        matrix, lower = pcg_operands
        placement = map_sparsep(matrix, lower, N_TILES)
        rows = np.repeat(np.arange(matrix.n_rows), matrix.row_nnz())
        cols = matrix.indices
        # Each partition's columns must be contiguous.
        for tile in range(N_TILES):
            members = placement.a_tile == tile
            if not members.any():
                continue
            tile_cols = np.unique(cols[members])
            tile_rows = np.unique(rows[members])
            # Contiguity in coordinate space: the span equals the count
            # only if no other tile's chunk interleaves. Columns of one
            # chunk come from one contiguous column range.
            assert tile_cols[-1] - tile_cols[0] < matrix.n_cols


class TestQuantiles:
    def test_one_hot_partition(self):
        depths = np.array([0, 0, 1, 2, 3, 4, 5, 9, 9, 10])
        weights = depth_quantile_weights(depths, q=5)
        assert weights.shape == (10, 5)
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert np.allclose(weights.sum(axis=0), 2.0)  # equal-count buckets

    def test_ordering_respected(self):
        depths = np.array([5, 1, 3, 0, 4, 2])
        weights = depth_quantile_weights(depths, q=3)
        buckets = weights.argmax(axis=1)
        # Deeper vertices land in later buckets.
        assert buckets[np.argsort(depths)].tolist() == [0, 0, 1, 1, 2, 2]

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            depth_quantile_weights(np.array([1.0]), q=0)


class TestAzulHypergraph:
    def test_vertex_count(self, pcg_operands):
        matrix, lower = pcg_operands
        hg = build_pcg_hypergraph(matrix, lower)
        assert hg.n_vertices == matrix.nnz + lower.nnz + matrix.n_rows

    def test_constraint_columns(self, pcg_operands):
        matrix, lower = pcg_operands
        hg = build_pcg_hypergraph(matrix, lower, q=5)
        assert hg.n_constraints == 6  # bytes + 5 quantiles
        hg_plain = build_pcg_hypergraph(matrix, lower, q=0)
        assert hg_plain.n_constraints == 1

    def test_row_edges_weighted_higher(self, pcg_operands):
        matrix, lower = pcg_operands
        hg = build_pcg_hypergraph(matrix, lower, row_weight=2.0)
        weights = np.unique(hg.edge_weights)
        assert set(weights) == {1.0, 2.0}

    def test_edges_connect_nnz_to_vec_slots(self, pcg_operands):
        matrix, lower = pcg_operands
        hg = build_pcg_hypergraph(matrix, lower)
        vec_offset = matrix.nnz + lower.nnz
        # Every edge must include exactly one vector slot.
        for e in range(hg.n_edges):
            pins = hg.edge_pins(e)
            assert int((pins >= vec_offset).sum()) == 1


    @pytest.mark.parametrize("row_weight", [2.0, 3.5])
    def test_flat_build_matches_per_edge_construction(self, pcg_operands,
                                                      row_weight):
        matrix, _ = pcg_operands
        # Empty out row/column 3 of A, so empty rows and columns of A
        # and L are skipped.
        dense = matrix.to_dense()
        dense[3, :] = dense[:, 3] = 0.0
        rows, cols = np.nonzero(dense)
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=len(dense))))
        )
        sparse = CSRMatrix(indptr, cols, dense[rows, cols], dense.shape)
        lower = sparse.lower_triangle()
        hg = build_pcg_hypergraph(sparse, lower, row_weight=row_weight)

        # Reference: one edge list per set, normalized by Hypergraph().
        vec_offset = sparse.nnz + lower.nnz
        edges, weights = [], []
        for m, offset in ((sparse, 0), (lower, sparse.nnz)):
            m_rows = np.repeat(np.arange(m.n_rows), m.row_nnz())
            for groups, weight in ((m_rows, row_weight), (m.indices, 1.0)):
                for g in range(m.n_rows):
                    members = np.flatnonzero(groups == g) + offset
                    if len(members):
                        edges.append(np.append(members, vec_offset + g))
                        weights.append(weight)
        ref = Hypergraph(hg.n_vertices, edges, np.array(weights),
                         hg.vertex_weights)
        assert hg.n_edges == ref.n_edges
        for name in ("pins", "edge_ptr", "edge_weights", "vertex_weights"):
            got, want = getattr(hg, name), getattr(ref, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestAzulMapping:
    def test_produces_valid_placement(self, pcg_operands):
        matrix, lower = pcg_operands
        placement = map_azul(
            matrix, lower, N_TILES,
            options=PartitionerOptions.speed(seed=2),
        )
        assert placement.mapper == "azul"
        assert placement.a_tile.max() < N_TILES
        placement.validate_capacity(AzulConfig())

    def test_beats_position_mappers_on_traffic(self, pcg_operands):
        """The headline claim (Fig. 11): Azul mapping slashes NoC traffic."""
        matrix, lower = pcg_operands
        azul = map_azul(
            matrix, lower, N_TILES,
            options=PartitionerOptions.speed(seed=3),
        )
        rr = map_round_robin(matrix, lower, N_TILES)
        azul_traffic = analyze_traffic(azul, matrix, lower, TORUS)
        rr_traffic = analyze_traffic(rr, matrix, lower, TORUS)
        assert (
            azul_traffic.total_link_activations
            < 0.5 * rr_traffic.total_link_activations
        )

    def test_q0_disables_time_balancing(self, pcg_operands):
        matrix, lower = pcg_operands
        placement = map_azul(
            matrix, lower, N_TILES, q=0,
            options=PartitionerOptions.speed(seed=4),
        )
        assert placement.mapper == "azul_nnz_balanced"


class TestTrafficAnalysis:
    def test_single_tile_has_no_traffic(self, pcg_operands):
        matrix, lower = pcg_operands
        placement = map_round_robin(matrix, lower, 1)
        report = analyze_traffic(placement, matrix, lower, TorusGeometry(1, 1))
        assert report.total_messages == 0
        assert report.total_link_activations == 0

    def test_three_kernels_reported(self, pcg_operands):
        matrix, lower = pcg_operands
        report = analyze_traffic(
            map_block(matrix, lower, N_TILES), matrix, lower, TORUS
        )
        assert [k.name for k in report.kernels] == [
            "spmv", "sptrsv_lower", "sptrsv_upper",
        ]

    def test_messages_bounded_by_set_sizes(self, pcg_operands):
        """A communication set on N tiles induces at most N-1 messages."""
        matrix, lower = pcg_operands
        placement = map_round_robin(matrix, lower, N_TILES)
        report = analyze_traffic(placement, matrix, lower, TORUS)
        spmv = report.kernels[0]
        # Upper bound: every nonzero on a foreign tile.
        assert spmv.multicast_messages <= matrix.nnz
        assert spmv.reduction_messages <= matrix.nnz

    def test_max_link_load_positive(self, pcg_operands):
        matrix, lower = pcg_operands
        report = analyze_traffic(
            map_round_robin(matrix, lower, N_TILES), matrix, lower, TORUS
        )
        assert report.max_link_load() > 0


class TestRegistry:
    def test_all_mappers_registered(self):
        assert set(MAPPERS) == {"round_robin", "block", "sparsep", "azul"}

    def test_get_mapper(self):
        assert get_mapper("block") is map_block
        with pytest.raises(KeyError):
            get_mapper("magic")
