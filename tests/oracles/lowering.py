"""Per-element lowering: the golden model of dataflow compilation.

An O(nnz) Python loop of dict/set mutations plus one tree build per
column and per row.  Every array it packs defines the canonical
:class:`~repro.dataflow.ir.CompiledKernel` form that
:func:`repro.dataflow.lower.lower_kernel` must reproduce bit for bit
(``tests/test_dataflow_equivalence.py``).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.dataflow.ir import CompiledKernel
from repro.dataflow.lower import _as_int64, _initial_rows
from tests.oracles.trees import build_multicast_tree, build_reduction_tree


def lower_kernel_oracle(name: str, n: int, rows: np.ndarray,
                        cols: np.ndarray, values: np.ndarray,
                        nnz_tile: np.ndarray, vec_tile: np.ndarray,
                        geometry, inv_diag=None, dependent: bool = False,
                        multicast: str = "tree") -> CompiledKernel:
    """Drop-in for :func:`repro.dataflow.lower.lower_kernel`.

    The local FMAC counters are built as a dense tiles × rows matrix
    and packed row-major, so the compact counters of the production
    lowering are checked against the dense form.
    """
    rows = _as_int64(rows)
    vec_tile = _as_int64(vec_tile)
    col_segments: Dict[int, Dict[int, Tuple[List[int],
                                            List[float]]]] = {}
    local: Dict[Tuple[int, int], int] = {}
    tiles_per_col: Dict[int, Set[int]] = {}
    tiles_per_row: Dict[int, Set[int]] = {}
    for k in range(len(rows)):
        tile = int(nnz_tile[k])
        i, j, v = int(rows[k]), int(cols[k]), float(values[k])
        segments = col_segments.setdefault(tile, {})
        entry = segments.setdefault(j, ([], []))
        entry[0].append(i)
        entry[1].append(v)
        local[(tile, i)] = local.get((tile, i), 0) + 1
        tiles_per_col.setdefault(j, set()).add(tile)
        tiles_per_row.setdefault(i, set()).add(tile)

    # -- pack segments in canonical (tile, col) order -------------
    seg_tile: List[int] = []
    seg_col: List[int] = []
    seg_ptr: List[int] = [0]
    flat_rows: List[int] = []
    flat_vals: List[float] = []
    for tile in sorted(col_segments):
        segments = col_segments[tile]
        for j in sorted(segments):
            row_list, val_list = segments[j]
            seg_tile.append(tile)
            seg_col.append(j)
            flat_rows.extend(row_list)
            flat_vals.extend(val_list)
            seg_ptr.append(len(flat_rows))

    # -- dense local counters, packed tile by tile ----------------
    local_tiles = sorted(col_segments)
    tile_pos = {tile: p for p, tile in enumerate(local_tiles)}
    dense = np.zeros((len(local_tiles), n), dtype=np.int64)
    for (tile, i), count in local.items():
        dense[tile_pos[tile], i] = count
    local_ptr = [0]
    local_rows: List[int] = []
    for tile_counts in dense:
        local_rows.extend(np.flatnonzero(tile_counts).tolist())
        local_ptr.append(len(local_rows))

    # -- multicast trees, per column, via the single-tree builder -
    mcast_col: List[int] = []
    mcast_root: List[int] = []
    mcast_edge_ptr: List[int] = [0]
    mcast_parent: List[int] = []
    mcast_child: List[int] = []
    mcast_dst_ptr: List[int] = [0]
    mcast_dst: List[int] = []
    mcast_first = np.full(n, -1, dtype=np.int64)
    mcast_count = np.zeros(n, dtype=np.int64)
    for j in sorted(tiles_per_col):
        home = int(vec_tile[j])
        destinations = sorted(tiles_per_col[j] - {home})
        if not destinations:
            continue
        if multicast == "tree":
            trees = [build_multicast_tree(geometry, home, destinations)]
        else:
            trees = [
                build_multicast_tree(geometry, home, [dst])
                for dst in destinations
            ]
        mcast_first[j] = len(mcast_col)
        mcast_count[j] = len(trees)
        for tree in trees:
            mcast_col.append(j)
            mcast_root.append(tree.root)
            for parent, child in tree.edges:
                mcast_parent.append(parent)
                mcast_child.append(child)
            mcast_edge_ptr.append(len(mcast_parent))
            mcast_dst.extend(tree.destinations)
            mcast_dst_ptr.append(len(mcast_dst))

    # -- reduction trees, per row ---------------------------------
    red_row: List[int] = []
    red_edge_ptr: List[int] = [0]
    red_child: List[int] = []
    red_parent: List[int] = []
    red_index = np.full(n, -1, dtype=np.int64)
    row_remote_inputs = np.zeros(n, dtype=np.int64)
    for i in sorted(tiles_per_row):
        home = int(vec_tile[i])
        sources = sorted(tiles_per_row[i] - {home})
        if not sources:
            continue
        tree = build_reduction_tree(geometry, home, sources)
        red_index[i] = len(red_row)
        red_row.append(i)
        for child, parent in tree.edges:
            red_child.append(child)
            red_parent.append(parent)
        red_edge_ptr.append(len(red_child))
        # Children of the root deliver the merged partial streams.
        row_remote_inputs[i] = sum(
            1 for child, parent in tree.edges if parent == home
        )

    return CompiledKernel(
        name=name,
        n=n,
        vec_tile=vec_tile,
        seg_tile=_as_int64(seg_tile),
        seg_col=_as_int64(seg_col),
        seg_ptr=_as_int64(seg_ptr),
        rows=_as_int64(flat_rows),
        values=np.asarray(flat_vals, dtype=np.float64),
        mcast_col=_as_int64(mcast_col),
        mcast_root=_as_int64(mcast_root),
        mcast_edge_ptr=_as_int64(mcast_edge_ptr),
        mcast_parent=_as_int64(mcast_parent),
        mcast_child=_as_int64(mcast_child),
        mcast_dst_ptr=_as_int64(mcast_dst_ptr),
        mcast_dst=_as_int64(mcast_dst),
        mcast_first=mcast_first,
        mcast_count=mcast_count,
        red_row=_as_int64(red_row),
        red_edge_ptr=_as_int64(red_edge_ptr),
        red_child=_as_int64(red_child),
        red_parent=_as_int64(red_parent),
        red_index=red_index,
        row_remote_inputs=row_remote_inputs,
        local_tiles=_as_int64(local_tiles),
        local_ptr=_as_int64(local_ptr),
        local_rows=_as_int64(local_rows),
        local_counts=dense[dense > 0],
        total_fmacs=len(rows),
        inv_diag=(None if inv_diag is None
                  else np.asarray(inv_diag, dtype=np.float64)),
        dependent=dependent,
        initial_rows=_initial_rows(n, rows, dependent),
    )


def dense_local_counts(program: CompiledKernel) -> np.ndarray:
    """A program's local FMAC counters as a dense tiles × rows matrix.

    Row ``p`` holds tile ``program.local_tiles[p]``'s count per row.
    """
    dense = np.zeros((len(program.local_tiles), program.n), dtype=np.int64)
    pos = np.repeat(np.arange(len(program.local_tiles)),
                    np.diff(program.local_ptr))
    dense[pos, program.local_rows] = program.local_counts
    return dense
