"""Array-backed compiled-kernel IR (structure-of-arrays).

A :class:`CompiledKernel` is everything the simulator needs to execute
one SpMV or SpTRSV under a given placement, stored as flat numpy
arrays instead of an object graph:

* **Column segments** — CSR-style grouping: segment ``s`` covers
  ``rows[seg_ptr[s]:seg_ptr[s+1]]`` / ``values[...]``, the local
  nonzeros of column ``seg_col[s]`` on tile ``seg_tile[s]``.  Segments
  are sorted by ``(tile, col)``; within a segment the original
  nonzero order is preserved, so each FMAC stream follows the input
  triplet order.
* **Multicast forest** — all of the kernel's multicast trees
  concatenated, ordered by ``(col, per-col tree index)``: tree ``t``
  distributes column ``mcast_col[t]`` from root ``mcast_root[t]``
  along edges ``(mcast_parent[e], mcast_child[e])`` for ``e`` in
  ``mcast_edge_ptr[t]:mcast_edge_ptr[t+1]`` to destinations
  ``mcast_dst[mcast_dst_ptr[t]:mcast_dst_ptr[t+1]]``.  Edge lists and
  destination lists are sorted (the canonical form
  :func:`repro.comm.multicast.build_multicast_forest` produces).
  ``mcast_first``/``mcast_count`` give O(1) per-column lookup.
* **Reduction forest** — one tree per row with remote partials,
  ordered by row: reduction edges are ``(child, parent)`` pairs,
  sorted per tree; ``red_index[i]`` maps a row to its tree (or -1).
* **Local counters** — one entry per distinct (tile, row) pair,
  grouped by tile: tile ``local_tiles[p]`` must apply
  ``local_counts[k]`` FMACs to its row-``local_rows[k]`` partial for
  ``k`` in ``local_ptr[p]:local_ptr[p+1]`` (tiles without nonzeros
  and rows a tile does not touch take no entry), so the counters grow
  with the nonzeros, not with tiles × rows; ``row_remote_inputs[i]``
  the number of tree children delivering partials into row ``i``'s
  home.

The simulator executes these arrays and the static traffic analysis
(:mod:`repro.core.traffic`) counts them, so both see the same trees.

Layer contract: ``ir`` is the package's bottom layer and imports
nothing from :mod:`repro.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


def _empty_int() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass(eq=False)
class CompiledKernel:
    """The mapped dataflow of one kernel, in flat-array form.

    Attributes
    ----------
    name:
        ``"spmv"``, ``"sptrsv_lower"`` or ``"sptrsv_upper"``.
    n:
        Vector length (matrix dimension).
    vec_tile:
        Home tile of each vector index.
    seg_tile, seg_col, seg_ptr, rows, values:
        Column segments: segment ``s`` holds the row indices
        ``rows[seg_ptr[s]:seg_ptr[s+1]]`` and coefficients
        ``values[...]`` of column ``seg_col[s]``'s nonzeros on tile
        ``seg_tile[s]`` (off-diagonal only for SpTRSV).  Sorted by
        ``(tile, col)``.
    mcast_col, mcast_root, mcast_edge_ptr, mcast_parent, mcast_child:
        Multicast forest: per-tree root and column, plus the
        concatenated sorted ``(parent, child)`` edge lists.
    mcast_dst_ptr, mcast_dst:
        Concatenated sorted destination lists per tree.
    mcast_first, mcast_count:
        Per-column tree lookup: column ``j`` owns trees
        ``mcast_first[j] : mcast_first[j] + mcast_count[j]`` (count 0
        when the column has no remote destinations).  Tree mode uses
        one merged tree per column; unicast mode one
        single-destination tree per receiver.
    red_row, red_edge_ptr, red_child, red_parent, red_index:
        Reduction forest: tree ``t`` reduces row ``red_row[t]``'s
        partials along sorted ``(child, parent)`` edges;
        ``red_index[i]`` is row ``i``'s tree index or -1.
    row_remote_inputs:
        Number of tree children delivering partials into each row's
        home (0 for home-only rows).
    local_tiles, local_ptr, local_rows, local_counts:
        Local FMAC counters, one entry per distinct (tile, row) pair:
        for ``k`` in ``local_ptr[p]:local_ptr[p+1]``, tile
        ``local_tiles[p]`` must apply ``local_counts[k]`` (> 0) FMACs
        to its row-``local_rows[k]`` partial before the partial
        completes.  ``local_tiles`` is sorted and holds only tiles with
        nonzeros; each tile's rows are sorted.
    total_fmacs:
        Static FMAC count across all tiles, computed once at lowering
        time (``len(rows)``).
    inv_diag:
        Reciprocal diagonal per row (SpTRSV only; the paper stores
        ``1/d`` to avoid divisions, Sec. VI-A).
    dependent:
        True for SpTRSV: value ``j`` is only produced by solving row
        ``j``; False for SpMV where all values multicast at time 0.
    initial_rows:
        SpTRSV rows with no off-diagonal dependences (solvable at t=0).
    """

    name: str
    n: int
    vec_tile: np.ndarray
    # -- column segments ----------------------------------------------
    seg_tile: np.ndarray
    seg_col: np.ndarray
    seg_ptr: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    # -- multicast forest ---------------------------------------------
    mcast_col: np.ndarray
    mcast_root: np.ndarray
    mcast_edge_ptr: np.ndarray
    mcast_parent: np.ndarray
    mcast_child: np.ndarray
    mcast_dst_ptr: np.ndarray
    mcast_dst: np.ndarray
    mcast_first: np.ndarray
    mcast_count: np.ndarray
    # -- reduction forest ---------------------------------------------
    red_row: np.ndarray
    red_edge_ptr: np.ndarray
    red_child: np.ndarray
    red_parent: np.ndarray
    red_index: np.ndarray
    row_remote_inputs: np.ndarray
    # -- local-FMAC counters, grouped by tile --------------------------
    local_tiles: np.ndarray
    local_ptr: np.ndarray
    local_rows: np.ndarray
    local_counts: np.ndarray
    # -- scalars / optionals ------------------------------------------
    total_fmacs: int = 0
    inv_diag: Optional[np.ndarray] = None
    dependent: bool = False
    initial_rows: np.ndarray = field(default_factory=_empty_int)

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def n_segments(self) -> int:
        """Number of (tile, column) segments."""
        return len(self.seg_tile)

    @property
    def n_mcast_trees(self) -> int:
        """Number of multicast trees in the forest."""
        return len(self.mcast_col)

    @property
    def n_red_trees(self) -> int:
        """Number of reduction trees in the forest."""
        return len(self.red_row)

    def flops(self) -> int:
        """Useful FLOPs of one kernel execution (FMAC = 2)."""
        fmacs = 2 * self.total_fmacs
        if self.dependent:
            fmacs += self.n  # one reciprocal-diagonal multiply per row
        return fmacs

    # ------------------------------------------------------------------
    # Exact structural equality (tests / lowering parity)
    # ------------------------------------------------------------------
    _ARRAY_FIELDS: Tuple[str, ...] = (
        "vec_tile", "seg_tile", "seg_col", "seg_ptr", "rows", "values",
        "mcast_col", "mcast_root", "mcast_edge_ptr", "mcast_parent",
        "mcast_child", "mcast_dst_ptr", "mcast_dst", "mcast_first",
        "mcast_count", "red_row", "red_edge_ptr", "red_child",
        "red_parent", "red_index", "row_remote_inputs", "local_tiles",
        "local_ptr", "local_rows", "local_counts", "initial_rows",
    )

    def same_program(self, other: "CompiledKernel") -> bool:
        """Bit-exact structural equality with another compiled kernel.

        Every flat array (including ``values``, compared bit-for-bit)
        plus the scalar fields must match.  This is the property the
        lowering-equivalence suite asserts against the per-element
        oracle.
        """
        if (self.name != other.name or self.n != other.n
                or self.dependent != other.dependent
                or self.total_fmacs != other.total_fmacs):
            return False
        for attr in self._ARRAY_FIELDS:
            if not np.array_equal(getattr(self, attr), getattr(other, attr)):
                return False
        if (self.inv_diag is None) != (other.inv_diag is None):
            return False
        if self.inv_diag is not None and not np.array_equal(
                self.inv_diag, other.inv_diag):
            return False
        return True
