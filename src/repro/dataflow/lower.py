"""Lowering: triplets + placement -> :class:`CompiledKernel`.

Compiling a kernel means grouping nonzeros into per-(tile, column)
segments, counting local FMACs per distinct (tile, row) pair, and
building the multicast/reduction forests — the map -> **compile** ->
simulate middle stage of the pipeline.  :func:`lower_kernel` does it in
batched numpy: ``lexsort`` segment grouping, one ``unique`` over
(tile, row) keys for the local counters (whose pairs, re-sorted by
row, are also the reduction sources), and one forest build per kernel
through
:func:`repro.comm.multicast.build_multicast_forest` /
:func:`repro.comm.reduction.build_reduction_forest` (which memoize
shared trees and route paths across columns/rows).  Its programs are
bit-identical to a per-element loop that builds one tree per column
and per row; that loop defines the canonical form and is kept as a
test oracle (``tests/oracles/lowering.py``, checked by
``tests/test_dataflow_equivalence.py``).

The program builders (:mod:`repro.dataflow.program`) call it once per
kernel.  Layer contract: ``lower`` sits directly above ``ir`` and may
import :mod:`repro.comm`, never :mod:`repro.sim`.
"""

from __future__ import annotations

import numpy as np

from repro.comm.multicast import build_multicast_forest
from repro.comm.reduction import build_reduction_forest
from repro.dataflow.ir import CompiledKernel


def _as_int64(array) -> np.ndarray:
    return np.asarray(array, dtype=np.int64)


def _initial_rows(n: int, rows: np.ndarray,
                  dependent: bool) -> np.ndarray:
    """SpTRSV rows with no off-diagonal dependences (solvable at t=0)."""
    if not dependent:
        return np.empty(0, dtype=np.int64)
    has_offdiag = np.zeros(n, dtype=bool)
    has_offdiag[np.unique(rows)] = True
    return np.nonzero(~has_offdiag)[0]


def lower_kernel(name: str, n: int, rows: np.ndarray, cols: np.ndarray,
                 values: np.ndarray, nnz_tile: np.ndarray,
                 vec_tile: np.ndarray, geometry, inv_diag=None,
                 dependent: bool = False,
                 multicast: str = "tree") -> CompiledKernel:
    """Compile nonzero triplets + placement into a :class:`CompiledKernel`.

    ``rows``/``cols``/``values``/``nnz_tile`` must exclude diagonal
    entries when ``dependent`` (SpTRSV); the diagonal is represented by
    ``inv_diag`` at each row's home tile.  ``multicast`` selects value
    distribution: ``"tree"`` (merged multicast trees, Fig. 18 right) or
    ``"unicast"`` (separate point-to-point sends, Fig. 18 left).
    """
    if multicast not in ("tree", "unicast"):
        raise ValueError(f"unknown multicast mode {multicast!r}")
    rows = _as_int64(rows)
    cols = _as_int64(cols)
    values = np.asarray(values, dtype=np.float64)
    nnz_tile = _as_int64(nnz_tile)
    vec_tile = _as_int64(vec_tile)
    nnz = len(rows)

    # -- segments: stable sort by (tile, col), group boundaries ---
    order = np.lexsort((cols, nnz_tile))
    sorted_tile = nnz_tile[order]
    sorted_col = cols[order]
    flat_rows = rows[order]
    flat_vals = values[order]
    if nnz:
        new_group = np.empty(nnz, dtype=bool)
        new_group[0] = True
        new_group[1:] = (
            (sorted_tile[1:] != sorted_tile[:-1])
            | (sorted_col[1:] != sorted_col[:-1])
        )
        starts = np.nonzero(new_group)[0]
        seg_tile = sorted_tile[starts]
        seg_col = sorted_col[starts]
        seg_ptr = np.concatenate(
            (starts, np.array([nnz], dtype=np.int64))
        ).astype(np.int64)
    else:
        seg_tile = np.empty(0, dtype=np.int64)
        seg_col = np.empty(0, dtype=np.int64)
        seg_ptr = np.zeros(1, dtype=np.int64)

    # -- local counters: one entry per distinct (tile, row) pair,
    #    sorted by (tile, row) --------------------------------------
    pair_key, local_counts = np.unique(nnz_tile * n + rows,
                                       return_counts=True)
    pair_tile, local_rows = np.divmod(pair_key, n)
    local_tiles, tile_starts = np.unique(pair_tile, return_index=True)
    local_ptr = np.append(tile_starts, len(pair_key))

    # -- remote destinations per column (from the unique segment
    #    pairs, re-grouped by column) -----------------------------
    col_order = np.lexsort((seg_tile, seg_col))
    group_col = seg_col[col_order]
    group_tile = seg_tile[col_order]
    remote = group_tile != vec_tile[group_col]
    dst_col = group_col[remote]
    dst_tile = group_tile[remote]
    unique_cols, col_counts = np.unique(dst_col, return_counts=True)
    col_starts = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(col_counts))
    )
    mcast_first = np.full(n, -1, dtype=np.int64)
    mcast_count = np.zeros(n, dtype=np.int64)
    if multicast == "tree":
        mcast_col = unique_cols
        roots = vec_tile[unique_cols]
        dst_ptr = col_starts
        mcast_first[unique_cols] = np.arange(
            len(unique_cols), dtype=np.int64
        )
        mcast_count[unique_cols] = 1
    else:
        # One single-destination tree per receiver, in (col, dst)
        # order — one tree per (column, destination) pair.
        mcast_col = dst_col
        roots = vec_tile[dst_col]
        dst_ptr = np.arange(len(dst_col) + 1, dtype=np.int64)
        mcast_first[unique_cols] = col_starts[:-1]
        mcast_count[unique_cols] = col_counts
    forest = build_multicast_forest(geometry, roots, dst_ptr, dst_tile)

    # -- remote sources per row (the unique pairs, by (row, tile)) -
    row_order = np.argsort(local_rows, kind="stable")
    pair_row = local_rows[row_order]
    pair_tile = pair_tile[row_order]
    src_remote = pair_tile != vec_tile[pair_row]
    src_row = pair_row[src_remote]
    src_tile = pair_tile[src_remote]
    red_row, row_counts = np.unique(src_row, return_counts=True)
    src_ptr = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(row_counts))
    )
    red_forest = build_reduction_forest(
        geometry, vec_tile[red_row], src_ptr, src_tile
    )
    red_index = np.full(n, -1, dtype=np.int64)
    red_index[red_row] = np.arange(len(red_row), dtype=np.int64)
    row_remote_inputs = np.zeros(n, dtype=np.int64)
    row_remote_inputs[red_row] = red_forest.remote_inputs

    return CompiledKernel(
        name=name,
        n=n,
        vec_tile=vec_tile,
        seg_tile=seg_tile,
        seg_col=seg_col,
        seg_ptr=seg_ptr,
        rows=flat_rows,
        values=flat_vals,
        mcast_col=_as_int64(mcast_col),
        mcast_root=_as_int64(roots),
        mcast_edge_ptr=forest.edge_ptr,
        mcast_parent=forest.parents,
        mcast_child=forest.children,
        mcast_dst_ptr=_as_int64(dst_ptr),
        mcast_dst=_as_int64(dst_tile),
        mcast_first=mcast_first,
        mcast_count=mcast_count,
        red_row=red_row,
        red_edge_ptr=red_forest.edge_ptr,
        red_child=red_forest.children,
        red_parent=red_forest.parents,
        red_index=red_index,
        row_remote_inputs=row_remote_inputs,
        local_tiles=local_tiles,
        local_ptr=_as_int64(local_ptr),
        local_rows=local_rows,
        local_counts=_as_int64(local_counts),
        total_fmacs=nnz,
        inv_diag=(None if inv_diag is None
                  else np.asarray(inv_diag, dtype=np.float64)),
        dependent=dependent,
        initial_rows=_initial_rows(n, rows, dependent),
    )
