"""Simulator issue equivalence suite (the bit-exactness guarantee).

The simulator (:class:`KernelSimulator`: horizon-bounded inline issue
on the calendar queue, flat routing tables) must reproduce the per-op oracle
(:class:`tests.oracles.sim.PerOpKernelSimulator`: one op per pump on
the ``(time, seq)`` heap) *exactly* — same cycles, op counts, issue
slots, link statistics, spills, queue delay, numeric output (IEEE
bit-identical) and issue-trace multiset — across matrices, meshes, PE
models and kernels, fixed and generated.  Any event-ordering or
hazard-modelling drift in the inline pump shows up here first.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.comm import MeshGeometry, TorusGeometry, make_geometry
from repro.config import AzulConfig
from repro.core import map_block
from repro.core.placement import Placement, pin_diagonals
from repro.dataflow import build_spmv_program, build_sptrsv_program
from repro.precond import ic0
from repro.sim import KernelSimulator
from repro.sim.pe import (
    AZUL_PE,
    AZUL_PE_SINGLE_THREADED,
    DALOREX_PE,
    IDEAL_PE,
)
from repro.sparse import generators as gen
from tests.oracles.sim import (
    PerOpKernelSimulator,
    flatten_multicast_forest,
    tuple_keyed_tables,
)
from tests.test_properties import spd_like_matrices

PES = {
    "azul": AZUL_PE,
    "azul_single": AZUL_PE_SINGLE_THREADED,
    "dalorex": DALOREX_PE,
    "ideal": IDEAL_PE,
}

_MATRICES = {}


def _matrix(kind):
    if kind not in _MATRICES:
        if kind == "fem":
            matrix = gen.random_geometric_fem(
                120, avg_degree=7, dofs_per_node=2, seed=21
            )
        elif kind == "spd":
            matrix = gen.random_spd(120, nnz_per_row=6, seed=5)
        else:
            matrix = gen.grid_laplacian_2d(12, 12)
        _MATRICES[kind] = (matrix, ic0(matrix))
    return _MATRICES[kind]


def _programs(kind, rows, cols, topology="torus", multicast="tree"):
    matrix, lower = _matrix(kind)
    config = AzulConfig(mesh_rows=rows, mesh_cols=cols, topology=topology)
    torus = make_geometry(config)
    assert isinstance(
        torus, TorusGeometry if topology == "torus" else MeshGeometry
    )
    placement = map_block(matrix, lower, rows * cols)
    spmv = build_spmv_program(matrix, placement.a_tile, placement.vec_tile,
                              torus, multicast=multicast)
    sptrsv = build_sptrsv_program(lower, placement.l_tile,
                                  placement.vec_tile, torus,
                                  multicast=multicast)
    return matrix, torus, config, spmv, sptrsv


def _assert_equivalent(program, torus, config, pe, x=None, b=None):
    reference = PerOpKernelSimulator(
        program, torus, config, pe, record_issue_trace=True
    ).run(x, b)
    simulated = KernelSimulator(
        program, torus, config, pe, record_issue_trace=True
    ).run(x, b)
    assert simulated.cycles == reference.cycles
    assert simulated.op_counts == reference.op_counts
    assert simulated.busy_slots == reference.busy_slots
    assert simulated.link_activations == reference.link_activations
    assert np.array_equal(simulated.link_ids, reference.link_ids)
    assert np.array_equal(simulated.link_counts, reference.link_counts)
    assert simulated.spills == reference.spills
    assert simulated.link_queue_delay == reference.link_queue_delay
    # IEEE bit identity, not tolerance: the simulator must apply
    # ops in the exact reference order.
    assert np.array_equal(simulated.output, reference.output)
    assert sorted(map(tuple, simulated.issue_trace)) \
        == sorted(map(tuple, reference.issue_trace))


@pytest.mark.parametrize("topology", ["torus", "mesh"])
@pytest.mark.parametrize("pe_name", sorted(PES))
@pytest.mark.parametrize("kind,rows,cols", [
    ("fem", 4, 4),
    ("fem", 2, 2),    # whole columns per tile: long column-segment runs
    ("spd", 4, 4),
    ("grid", 2, 2),   # tiny mesh: heavy window competition per tile
])
@pytest.mark.parametrize("kernel", ["spmv", "sptrsv"])
def test_engine_equivalence(kind, rows, cols, pe_name, kernel, topology):
    """Bit-identity must hold on both geometries the fabric supports."""
    matrix, torus, config, spmv, sptrsv = _programs(kind, rows, cols,
                                                    topology)
    rng = np.random.default_rng(99)
    if kernel == "spmv":
        _assert_equivalent(spmv, torus, config, PES[pe_name],
                           x=rng.standard_normal(matrix.shape[0]))
    else:
        _assert_equivalent(sptrsv, torus, config, PES[pe_name],
                           b=rng.standard_normal(matrix.shape[0]))


def test_mesh_and_torus_timing_differ():
    """Sanity: the mesh geometry actually changes NoC timing (so the
    mesh arm of the equivalence matrix is not vacuously identical)."""
    matrix, torus, config, spmv_t, _ = _programs("fem", 4, 4, "torus")
    _, mesh, mconfig, spmv_m, _ = _programs("fem", 4, 4, "mesh")
    x = np.ones(matrix.shape[0])
    torus_cycles = KernelSimulator(
        spmv_t, torus, config, AZUL_PE).run(x=x).cycles
    mesh_cycles = KernelSimulator(
        spmv_m, mesh, mconfig, AZUL_PE).run(x=x).cycles
    assert torus_cycles != mesh_cycles


# ---------------------------------------------------------------------------
# Flat routing tables against the dict-building oracles
# ---------------------------------------------------------------------------
def _triggered(sim, lo, hi):
    """The ``(rows, vals)`` segment a table entry triggers, or None."""
    return (sim._rows[lo:hi], sim._vals[lo:hi]) if lo >= 0 else None


def _assert_tables_match_dicts(program, geometry, config):
    """Every (tree, node) forks to the same children in the same order
    and triggers the same segment; input counts and reduction parents
    agree key for key."""
    sim = KernelSimulator(program, geometry, config, AZUL_PE)
    n_tiles = geometry.n_tiles
    rows = program.rows.tolist()
    vals = program.values.tolist()
    seg_ptr = program.seg_ptr.tolist()
    by_tile_col = {
        (tile, col): (rows[lo:hi], vals[lo:hi])
        for tile, col, lo, hi in zip(program.seg_tile.tolist(),
                                     program.seg_col.tolist(),
                                     seg_ptr, seg_ptr[1:])
    }
    plan, send_plan = flatten_multicast_forest(
        program, lambda node, j: by_tile_col.get((node, j)),
    )
    col = program.mcast_col.tolist()
    first = program.mcast_first.tolist()
    parent = program.mcast_parent.tolist()
    child = program.mcast_child.tolist()
    edge_tree = np.repeat(np.arange(program.n_mcast_trees),
                          np.diff(program.mcast_edge_ptr)).tolist()
    covered = set()
    for t, root in enumerate(program.mcast_root.tolist()):
        key = (col[t], t - first[col[t]])
        lo, hi = sim.root_lo[t], sim.root_hi[t]
        assert send_plan[key] == (root, tuple(child[lo:hi]))
        assert plan[key + (root,)] == (tuple(child[lo:hi]), None)
        covered.add(key + (root,))
    for e, t in enumerate(edge_tree):
        key = (col[t], t - first[col[t]], child[e])
        children, payload = plan[key]
        assert tuple(child[sim._fork_lo[e]:sim._fork_hi[e]]) == children
        assert _triggered(sim, sim._edge_lo[e], sim._edge_hi[e]) == payload
        assert sim.mcast_link[e] == parent[e] * n_tiles + child[e]
        covered.add(key)
    assert covered == set(plan)
    node_remaining, red_parent = tuple_keyed_tables(program)
    assert {divmod(k, n_tiles): v for k, v in sim._input_counts.items()} \
        == node_remaining
    assert {divmod(k, n_tiles): v for k, v in sim._red_parent.items()} \
        == red_parent
    vec_tile = program.vec_tile.tolist()
    for j in range(program.n):
        assert _triggered(sim, sim._home_lo[j], sim._home_hi[j]) \
            == by_tile_col.get((vec_tile[j], j))


@pytest.mark.parametrize("multicast", ["tree", "unicast"])
@pytest.mark.parametrize("topology", ["torus", "mesh"])
@pytest.mark.parametrize("kind,rows,cols", [
    ("fem", 4, 4), ("spd", 4, 4), ("grid", 2, 2),
])
def test_flat_tables_match_dict_plan(kind, rows, cols, topology, multicast):
    _, geometry, config, spmv, sptrsv = _programs(kind, rows, cols,
                                                  topology, multicast)
    assert spmv.n_mcast_trees and sptrsv.n_red_trees
    for program in (spmv, sptrsv):
        _assert_tables_match_dicts(program, geometry, config)


# ---------------------------------------------------------------------------
# Generated differential test: production against the per-op oracle
# ---------------------------------------------------------------------------
@st.composite
def mapped_kernels(draw):
    """A small SPD system, a random placement and machine, one kernel."""
    matrix = draw(spd_like_matrices(max_dim=24))
    lower = ic0(matrix)
    mesh_rows = draw(st.integers(2, 4))
    mesh_cols = draw(st.integers(2, 4))
    config = AzulConfig(
        mesh_rows=mesh_rows, mesh_cols=mesh_cols,
        topology=draw(st.sampled_from(["torus", "mesh"])),
        hop_cycles=draw(st.integers(1, 4)),
        sram_access_cycles=draw(st.integers(1, 4)),
        msg_buffer_entries=draw(st.sampled_from([1, 2, 16])),
    )
    geometry = make_geometry(config)
    n_tiles = mesh_rows * mesh_cols
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = matrix.n_rows
    placement = pin_diagonals(Placement(
        n_tiles=n_tiles,
        a_tile=rng.integers(0, n_tiles, matrix.nnz),
        l_tile=rng.integers(0, n_tiles, lower.nnz),
        vec_tile=rng.integers(0, n_tiles, n),
    ), lower)
    multicast = draw(st.sampled_from(["tree", "unicast"]))
    kernel = draw(st.sampled_from(["spmv", "lower", "upper"]))
    if kernel == "spmv":
        program = build_spmv_program(matrix, placement.a_tile,
                                     placement.vec_tile, geometry,
                                     multicast=multicast)
    else:
        program = build_sptrsv_program(lower, placement.l_tile,
                                       placement.vec_tile, geometry,
                                       transpose=kernel == "upper",
                                       multicast=multicast)
    vector = rng.standard_normal(n)
    pe = PES[draw(st.sampled_from(sorted(PES)))]
    return program, geometry, config, pe, vector


@seed(2024)
@settings(max_examples=300, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow])
@given(mapped_kernels())
def test_generated_kernels_match_per_op_oracle(case):
    program, geometry, config, pe, vector = case
    if program.dependent:
        _assert_equivalent(program, geometry, config, pe, b=vector)
    else:
        _assert_equivalent(program, geometry, config, pe, x=vector)
