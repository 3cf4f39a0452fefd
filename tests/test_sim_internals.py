"""White-box tests of simulator internals: link serialization, spills,
determinism, and tree forwarding costs."""

import numpy as np
import pytest

from repro.comm import TorusGeometry
from repro.config import AzulConfig
from repro.core import map_block, map_round_robin
from repro.dataflow import build_spmv_program, build_sptrsv_program
from repro.precond import ic0
from repro.sim import AZUL_PE, IDEAL_PE, KernelSimulator
from repro.sparse import COOMatrix, coo_to_csr
from repro.sparse import generators as gen
from tests.oracles.trees import grid_neighbors


def _dense_column_matrix(n):
    """One dense column: every row depends on v_0 (a big multicast)."""
    rows = list(range(n)) + list(range(n))
    cols = [0] * n + list(range(n))
    vals = [1.0] * n + [2.0] * n
    return coo_to_csr(COOMatrix(rows, cols, vals, (n, n))).sort_indices()


class TestLinkSerialization:
    def test_per_link_counts_sum_to_total(self):
        matrix = gen.random_spd(40, nnz_per_row=4, seed=1)
        lower = ic0(matrix)
        placement = map_round_robin(matrix, lower, 16)
        torus = TorusGeometry(4, 4)
        config = AzulConfig(mesh_rows=4, mesh_cols=4)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, torus
        )
        result = KernelSimulator(program, torus, config, AZUL_PE).run(
            x=np.ones(40)
        )
        assert result.link_counts.sum() == result.link_activations
        assert np.all(np.diff(result.link_ids) > 0)  # sorted, unique
        # Every recorded link must be a real torus link.
        for src, dst in zip(*np.divmod(result.link_ids, torus.n_tiles)):
            assert dst in grid_neighbors(torus, src)

    def test_one_flit_per_link_per_cycle(self):
        """The busiest link cannot carry more flits than elapsed cycles."""
        matrix = gen.random_spd(60, nnz_per_row=6, seed=2)
        lower = ic0(matrix)
        placement = map_round_robin(matrix, lower, 16)
        torus = TorusGeometry(4, 4)
        config = AzulConfig(mesh_rows=4, mesh_cols=4)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, torus
        )
        result = KernelSimulator(program, torus, config, AZUL_PE).run(
            x=np.ones(60)
        )
        busiest = result.link_counts.max()
        assert busiest <= result.cycles


class TestQueueDelay:
    def test_congested_mapping_has_more_queueing(self):
        matrix = gen.random_spd(80, nnz_per_row=6, seed=74)
        lower = ic0(matrix)
        torus = TorusGeometry(4, 4)
        config = AzulConfig(mesh_rows=4, mesh_cols=4)
        rr = map_round_robin(matrix, lower, 16)
        program = build_spmv_program(
            matrix, rr.a_tile, rr.vec_tile, torus
        )
        result = KernelSimulator(program, torus, config, AZUL_PE).run(
            x=np.ones(80)
        )
        assert result.link_queue_delay >= 0
        # One-tile machines never queue.
        one = map_round_robin(matrix, lower, 1)
        program1 = build_spmv_program(
            matrix, one.a_tile, one.vec_tile, TorusGeometry(1, 1)
        )
        local = KernelSimulator(
            program1, TorusGeometry(1, 1),
            AzulConfig(mesh_rows=1, mesh_cols=1), AZUL_PE,
        ).run(x=np.ones(80))
        assert local.link_queue_delay == 0


class TestSpills:
    def test_small_buffer_spills_more(self):
        matrix = _dense_column_matrix(64)
        lower = matrix.lower_triangle()
        placement = map_round_robin(matrix, lower, 16)
        torus = TorusGeometry(4, 4)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, torus
        )
        x = np.ones(64)
        big = KernelSimulator(
            program, torus,
            AzulConfig(mesh_rows=4, mesh_cols=4, msg_buffer_entries=4096),
            AZUL_PE,
        ).run(x=x)
        small = KernelSimulator(
            program, torus,
            AzulConfig(mesh_rows=4, mesh_cols=4, msg_buffer_entries=1),
            AZUL_PE,
        ).run(x=x)
        assert big.spills == 0
        assert small.spills > 0
        # Spilling adds SRAM round-trips: never faster.
        assert small.cycles >= big.cycles
        # And never changes the numbers.
        assert np.allclose(small.output, big.output)


class TestDeterminism:
    def test_identical_runs_are_bitwise_identical(self):
        matrix = gen.random_geometric_fem(50, avg_degree=5, seed=3)
        lower = ic0(matrix)
        placement = map_block(matrix, lower, 16)
        torus = TorusGeometry(4, 4)
        config = AzulConfig(mesh_rows=4, mesh_cols=4)
        program = build_sptrsv_program(
            lower, placement.l_tile, placement.vec_tile, torus
        )
        b = gen.make_rhs(matrix, seed=4)
        first = KernelSimulator(program, torus, config, AZUL_PE).run(b=b)
        second = KernelSimulator(program, torus, config, AZUL_PE).run(b=b)
        assert first.cycles == second.cycles
        assert first.op_counts == second.op_counts
        assert np.array_equal(first.output, second.output)

    def test_finished_simulator_freed_without_gc(self):
        """No reference cycle keeps a run simulator (and its per-run
        state) alive until the cyclic collector happens to run."""
        import gc
        import weakref

        matrix = gen.random_spd(30, nnz_per_row=4, seed=5)
        placement = map_block(matrix, ic0(matrix), 16)
        torus = TorusGeometry(4, 4)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, torus
        )
        simulator = KernelSimulator(
            program, torus, AzulConfig(mesh_rows=4, mesh_cols=4), AZUL_PE
        )
        enabled = gc.isenabled()
        gc.disable()
        try:
            simulator.run(x=np.ones(30))
            ref = weakref.ref(simulator)
            del simulator
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestMulticastCost:
    def test_tree_beats_point_to_point_serialization(self):
        """One dense column multicast: with a tree, the root issues one
        Send; the value fans out in the routers."""
        n = 64
        matrix = _dense_column_matrix(n)
        lower = matrix.lower_triangle()
        placement = map_round_robin(matrix, lower, 16)
        torus = TorusGeometry(4, 4)
        config = AzulConfig(mesh_rows=4, mesh_cols=4)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, torus
        )
        result = KernelSimulator(program, torus, config, IDEAL_PE).run(
            x=np.ones(n)
        )
        # Tree edges bound: a spanning tree of <= 16 tiles has <= 15
        # edges, so the column-0 multicast costs at most 15 link
        # activations rather than ~16 unicast paths' worth.
        tree = program.mcast_first[0]
        edges = program.mcast_edge_ptr[tree + 1] - program.mcast_edge_ptr[tree]
        assert tree >= 0 and edges <= 15

    def test_issue_trace_records_all_ops(self):
        matrix = gen.random_spd(30, nnz_per_row=4, seed=5)
        lower = ic0(matrix)
        placement = map_block(matrix, lower, 16)
        torus = TorusGeometry(4, 4)
        config = AzulConfig(mesh_rows=4, mesh_cols=4)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, torus
        )
        result = KernelSimulator(
            program, torus, config, AZUL_PE, record_issue_trace=True
        ).run(x=np.ones(30))
        assert len(result.issue_trace) == sum(result.op_counts.values())
        assert max(entry[0] for entry in result.issue_trace) <= result.cycles
        tiles = {entry[1] for entry in result.issue_trace}
        assert tiles <= set(range(16))


class TestReductionSemantics:
    def test_adds_only_for_remote_partials(self):
        """A fully-local mapping needs no reduction Adds at all."""
        matrix = gen.random_spd(30, nnz_per_row=4, seed=6)
        lower = ic0(matrix)
        placement = map_round_robin(matrix, lower, 1)
        torus = TorusGeometry(1, 1)
        config = AzulConfig(mesh_rows=1, mesh_cols=1)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, torus
        )
        result = KernelSimulator(program, torus, config, AZUL_PE).run(
            x=np.ones(30)
        )
        assert result.op_counts["add"] == 0
        assert result.op_counts["send"] == 0
        assert result.link_activations == 0

    def test_remote_rows_produce_adds(self):
        matrix = gen.random_spd(40, nnz_per_row=5, seed=7)
        lower = ic0(matrix)
        placement = map_round_robin(matrix, lower, 16)
        torus = TorusGeometry(4, 4)
        config = AzulConfig(mesh_rows=4, mesh_cols=4)
        program = build_spmv_program(
            matrix, placement.a_tile, placement.vec_tile, torus
        )
        result = KernelSimulator(program, torus, config, AZUL_PE).run(
            x=np.ones(40)
        )
        assert result.op_counts["add"] > 0
        assert result.op_counts["send"] > 0
