"""Benchmarks for dataflow program compilation (lowering).

The ``compile_program``-marked benchmark tracks the lowering in
``BENCH_compile.json`` (see ``benchmarks/emit_bench.py --suite
compile``): the full PCG program triple — SpMV plus both SpTRSV
kernels, multicast/reduction forests included — on the largest
solver-suite matrix (BenElechi1 at suite scale 4) mapped onto the
paper's 64-tile torus.

Sweep-scale runs compile each (matrix, placement) point once and fan
out over simulator knobs via the program cache, but cold compiles
still bound how fast a new sweep starts.
"""

import pytest

from repro.comm.torus import TorusGeometry
from repro.core.block import map_block
from repro.dataflow.program import build_pcg_program
from repro.precond.ic0 import ic0
from repro.sparse.suite import get_suite_matrix

#: Largest solver-suite benchmark matrix (n=4480, ~108k nonzeros).
COMPILE_MATRIX = "BenElechi1"
COMPILE_SCALE = 4
#: The paper's 64-tile machine (8x8 torus).
MESH_ROWS = 8
MESH_COLS = 8


@pytest.fixture(scope="module")
def compile_inputs():
    """Matrix, IC(0) factor, placement, and geometry (built once)."""
    matrix, _ = get_suite_matrix(COMPILE_MATRIX, scale=COMPILE_SCALE)
    lower = ic0(matrix)
    placement = map_block(matrix, lower, MESH_ROWS * MESH_COLS)
    geometry = TorusGeometry(MESH_ROWS, MESH_COLS)
    return matrix, lower, placement, geometry


def _compile(inputs):
    matrix, lower, placement, geometry = inputs
    return build_pcg_program(
        matrix, lower, placement, geometry, multicast="tree",
    )


@pytest.mark.compile_program
def test_compile_vectorized(benchmark, compile_inputs):
    program = benchmark.pedantic(
        lambda: _compile(compile_inputs),
        rounds=10, iterations=1, warmup_rounds=1,
    )
    assert program.spmv.total_fmacs > 0
