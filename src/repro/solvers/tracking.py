"""Convergence tracking for iterative solvers."""

from __future__ import annotations


class ConvergenceHistory:
    """Records the residual norm at each iteration of a solve."""

    def __init__(self):
        self._residuals = []

    def record(self, residual_norm: float):
        """Append one iteration's residual norm."""
        self._residuals.append(float(residual_norm))

    @property
    def residuals(self) -> list:
        """Residual norms, one per recorded iteration."""
        return list(self._residuals)

    def __len__(self):
        return len(self._residuals)
