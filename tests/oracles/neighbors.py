"""k-nearest-neighbour query through ``scipy.spatial.cKDTree``.

:func:`kdtree_neighbors` is the query the FEM mesh generator made
before it dropped scipy.  The production
:func:`repro.sparse.generators._nearest_neighbors` brute force must
return the same neighbour order wherever no two distances tie; on ties
it orders by lower index, which cKDTree does not promise.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree


def kdtree_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` nearest points to each point, as ``(n, k)``."""
    _, neighbors = cKDTree(points).query(points, k=k)
    # cKDTree returns a 1-D array for k=1.
    return np.asarray(neighbors).reshape(len(points), k)
