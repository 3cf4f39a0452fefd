"""Simulator issue equivalence suite (the bit-exactness guarantee).

The simulator (:class:`KernelSimulator`, batched issue) must reproduce
the per-op oracle (:class:`tests.oracles.sim.PerOpKernelSimulator`)
*exactly* — same cycles, op counts, issue slots, link statistics,
spills, queue delay, numeric output (IEEE bit-identical) and
issue-trace multiset — across matrices, meshes, PE models and kernels.
Any event-ordering or hazard-modelling drift in the batched path shows
up here first.
"""

import numpy as np
import pytest

from repro.comm import MeshGeometry, TorusGeometry, make_geometry
from repro.config import AzulConfig
from repro.core import map_block
from repro.dataflow import build_spmv_program, build_sptrsv_program
from repro.precond import ic0
from repro.sim import KernelSimulator
from repro.sim.issue import VEC_THRESHOLD
from repro.sim.pe import (
    AZUL_PE,
    AZUL_PE_SINGLE_THREADED,
    DALOREX_PE,
    IDEAL_PE,
)
from repro.sparse import generators as gen
from tests.oracles.sim import PerOpKernelSimulator

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


def _programs(kind, rows, cols, topology="torus"):
    matrix, lower = _matrix(kind)
    config = AzulConfig(mesh_rows=rows, mesh_cols=cols, topology=topology)
    torus = make_geometry(config)
    assert isinstance(
        torus, TorusGeometry if topology == "torus" else MeshGeometry
    )
    placement = map_block(matrix, lower, rows * cols)
    spmv = build_spmv_program(matrix, placement.a_tile, placement.vec_tile,
                              torus)
    sptrsv = build_sptrsv_program(lower, placement.l_tile,
                                  placement.vec_tile, torus)
    return matrix, torus, config, spmv, sptrsv


def _assert_equivalent(program, torus, config, pe, x=None, b=None):
    reference = PerOpKernelSimulator(
        program, torus, config, pe, record_issue_trace=True
    ).run(x, b)
    batched = KernelSimulator(
        program, torus, config, pe, record_issue_trace=True
    ).run(x, b)
    assert batched.cycles == reference.cycles
    assert batched.op_counts == reference.op_counts
    assert batched.busy_slots == reference.busy_slots
    assert batched.link_activations == reference.link_activations
    assert batched.per_link == reference.per_link
    assert batched.spills == reference.spills
    assert batched.link_queue_delay == reference.link_queue_delay
    # IEEE bit identity, not tolerance: the batched accumulation must
    # apply ops in the exact reference order.
    assert np.array_equal(batched.output, reference.output)
    assert sorted(map(tuple, batched.issue_trace)) \
        == sorted(map(tuple, reference.issue_trace))


@pytest.mark.parametrize("topology", ["torus", "mesh"])
@pytest.mark.parametrize("pe_name", sorted(PES))
@pytest.mark.parametrize("kind,rows,cols", [
    ("fem", 4, 4),
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


def test_equivalence_exercises_vectorized_batches():
    """The fem case must actually hit the numpy batch path.

    A 2x2 mesh concentrates whole matrix columns on each tile, so at
    least one column-segment run must exceed ``VEC_THRESHOLD`` — the
    analytic completion-time kernel (not just the scalar fast-forward)
    is therefore covered by the equivalence assertion below.
    """
    matrix, torus, config, spmv, _ = _programs("fem", 2, 2)
    longest = int(np.diff(spmv.seg_ptr).max())
    assert longest >= VEC_THRESHOLD
    x = np.ones(matrix.shape[0])
    _assert_equivalent(spmv, torus, config, AZUL_PE, x=x)
