"""Functional (timing-free) execution of kernel programs.

Executes the same compiled dataflow structures as the cycle simulator
but with no notion of time, giving an independent check that program
*construction* is correct (segments, trees, counters) separate from the
timing engine (``tests/test_dataflow.py``).
"""

from __future__ import annotations

import numpy as np

from repro.dataflow.ir import CompiledKernel
from repro.errors import SimulationError
from tests.oracles.lowering import dense_local_counts


def functional_spmv(program: CompiledKernel, x: np.ndarray) -> np.ndarray:
    """Execute a compiled SpMV program: scale segments, reduce partials."""
    x = np.asarray(x, dtype=np.float64)
    y = np.zeros(program.n)
    seg_ptr = program.seg_ptr
    for s in range(program.n_segments):
        lo, hi = seg_ptr[s], seg_ptr[s + 1]
        np.add.at(
            y, program.rows[lo:hi],
            program.values[lo:hi] * x[program.seg_col[s]],
        )
    return y


def functional_sptrsv(program: CompiledKernel, b: np.ndarray) -> np.ndarray:
    """Execute a compiled SpTRSV program in dependence order.

    Rows are solved as their pending contribution counters drain,
    exactly as the hardware would, but eagerly (no timing).
    """
    b = np.asarray(b, dtype=np.float64)
    n = program.n
    acc = np.zeros(n)
    x = np.zeros(n)
    # Pending off-diagonal contributions per row, over all tiles.
    pending = dense_local_counts(program).sum(axis=0)
    ready = [i for i in range(n) if pending[i] == 0]
    # Per-column global segments (merged over tiles, segment order).
    columns = {}
    seg_ptr = program.seg_ptr
    for s in range(program.n_segments):
        lo, hi = seg_ptr[s], seg_ptr[s + 1]
        columns.setdefault(int(program.seg_col[s]), []).append(
            (program.rows[lo:hi], program.values[lo:hi])
        )
    solved = 0
    while ready:
        i = ready.pop()
        x[i] = (b[i] - acc[i]) * program.inv_diag[i]
        solved += 1
        for rows, values in columns.get(i, ()):
            for row, value in zip(rows, values):
                acc[row] += value * x[i]
                pending[row] -= 1
                if pending[row] == 0:
                    ready.append(int(row))
    if solved != n:
        raise SimulationError(
            f"functional SpTRSV deadlock: {solved}/{n} rows solved"
        )
    return x
