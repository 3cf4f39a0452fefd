"""2D-torus tile geometry.

Tiles are numbered row-major; the torus wraps in both dimensions, so
every link is between grid neighbors (the paper notes torus links span
only two tile lengths when folded, Sec. VI-E).
"""

from __future__ import annotations


class TorusGeometry:
    """Coordinates and hop distances of a ``rows x cols`` 2D torus."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("torus dimensions must be positive")
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
        """Tile id of (possibly wrapped) coordinates."""
        return (row % self.rows) * self.cols + (col % self.cols)

    def hop_distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two tiles on the torus."""
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        dx = min((dc - sc) % self.cols, (sc - dc) % self.cols)
        dy = min((dr - sr) % self.rows, (sr - dr) % self.rows)
        return dx + dy

    def reduction_depth(self) -> int:
        """Hop depth of a global reduction tree to the torus center."""
        return self.rows // 2 + self.cols // 2
