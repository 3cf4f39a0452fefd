"""2D-mesh tile geometry (no wraparound links).

A design-space alternative to the paper's 2D torus (Table III): meshes
have shorter physical links and simpler layout but roughly double the
average hop distance and halve the bisection bandwidth.  The topology
ablation (``abl_topology``) quantifies what the torus buys Azul.

Implements the same interface as :class:`~repro.comm.torus
.TorusGeometry`, so routing, tree construction, and the simulator work
unchanged.
"""

from __future__ import annotations


class MeshGeometry:
    """Coordinates and hop distances of a ``rows x cols`` 2D mesh."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("mesh dimensions must be positive")
        self.rows = rows
        self.cols = cols

    @property
    def n_tiles(self) -> int:
        return self.rows * self.cols

    # ------------------------------------------------------------------
    def coords(self, tile: int):
        """``(row, col)`` of a tile id."""
        return divmod(tile, self.cols)

    def tile_id(self, row: int, col: int) -> int:
        """Tile id of in-grid coordinates (no wrapping)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"({row}, {col}) outside the mesh")
        return row * self.cols + col

    def hop_distance(self, src: int, dst: int) -> int:
        """Manhattan distance (no wraparound shortcuts)."""
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        return abs(dr - sr) + abs(dc - sc)

    def reduction_depth(self) -> int:
        """Hop depth of a global reduction to the mesh center."""
        return (self.rows - 1 + 1) // 2 + (self.cols - 1 + 1) // 2
