"""Dimension-order (X-then-Y) routing on the torus or mesh.

Deterministic dimension-order routing is deadlock-free on a per-
dimension basis and, crucially for multicast trees, gives every
(root, destination) pair a unique path: merging the paths of all
destinations of one multicast yields a tree (Sec. IV-D).
:func:`route_edges_batch` routes a whole kernel's pairs in one
vectorized call; the per-pair walk it must match is kept as a test
oracle (``tests/oracles/trees.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.comm.mesh import MeshGeometry
from repro.comm.torus import TorusGeometry


def route_edges_batch(geometry, srcs,
                      dsts) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dimension-order path edges of many ``(src, dst)`` pairs at once.

    Returns ``(edge_ptr, parents, children)``: pair ``p``'s path is the
    ``(parents[e], children[e])`` link sequence for ``e`` in
    ``edge_ptr[p]:edge_ptr[p+1]``, routed along X (columns) first and
    then Y (rows).  On a torus each axis takes the shorter wrap
    direction, ties going forward (east/south); a mesh never wraps.
    """
    if not isinstance(geometry, (TorusGeometry, MeshGeometry)):
        raise TypeError(f"cannot route on {type(geometry).__name__}")
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    n_rows, n_cols = geometry.rows, geometry.cols
    src_row, src_col = np.divmod(srcs, n_cols)
    dst_row, dst_col = np.divmod(dsts, n_cols)
    if isinstance(geometry, TorusGeometry):
        # Shorter wrap direction per axis; ties go forward (east/south).
        forward = (dst_col - src_col) % n_cols
        backward = (src_col - dst_col) % n_cols
        n_x = np.minimum(forward, backward)
        step_x = np.where(forward <= backward, 1, -1)
        forward = (dst_row - src_row) % n_rows
        backward = (src_row - dst_row) % n_rows
        n_y = np.minimum(forward, backward)
        step_y = np.where(forward <= backward, 1, -1)
    else:
        n_x = np.abs(dst_col - src_col)
        step_x = np.where(dst_col >= src_col, 1, -1)
        n_y = np.abs(dst_row - src_row)
        step_y = np.where(dst_row >= src_row, 1, -1)
    hops = n_x + n_y
    edge_ptr = np.zeros(len(srcs) + 1, dtype=np.int64)
    np.cumsum(hops, out=edge_ptr[1:])
    n_edges = int(edge_ptr[-1])
    pair = np.repeat(np.arange(len(srcs), dtype=np.int64), hops)
    step = np.arange(n_edges, dtype=np.int64) - edge_ptr[pair]

    def _tile_after(steps_taken):
        x_taken = np.minimum(steps_taken, n_x[pair])
        y_taken = steps_taken - x_taken
        col = (src_col[pair] + step_x[pair] * x_taken) % n_cols
        row = (src_row[pair] + step_y[pair] * y_taken) % n_rows
        return row * n_cols + col

    return edge_ptr, _tile_after(step), _tile_after(step + 1)
