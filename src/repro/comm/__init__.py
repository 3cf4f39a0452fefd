"""On-chip communication: torus geometry, routing, and message trees.

Azul's tiles communicate over a 2D-torus NoC with dimension-order
routing.  Multicasts (distributing vector values down matrix columns)
and reductions (collecting partial row sums) are implemented as trees
rather than point-to-point message fans, avoiding redundant link traffic
and serialization (Sec. IV-D, Fig. 18).  A kernel's trees are built in
one batched call per kind (:func:`build_multicast_forest`,
:func:`build_reduction_forest`).
"""

from repro.comm.torus import TorusGeometry
from repro.comm.mesh import MeshGeometry
from repro.comm.multicast import MulticastForest, build_multicast_forest
from repro.comm.reduction import ReductionForest, build_reduction_forest

def make_geometry(config):
    """Build the NoC geometry a config describes (torus or mesh)."""
    cls = TorusGeometry if config.topology == "torus" else MeshGeometry
    return cls(config.mesh_rows, config.mesh_cols)


__all__ = [
    "TorusGeometry",
    "MeshGeometry",
    "make_geometry",
    "MulticastForest",
    "build_multicast_forest",
    "ReductionForest",
    "build_reduction_forest",
]
