"""Per-edge connectivity count: the golden ``_edge_lambdas`` model.

:func:`edge_lambdas_oracle` counts the distinct parts of each hyperedge
with one ``np.unique`` per edge.  The production
:func:`repro.hypergraph.metrics._edge_lambdas` counts first occurrences
in one sort over all (edge, part) pin pairs and must agree exactly.
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph.hgraph import Hypergraph


def edge_lambdas_oracle(hgraph: Hypergraph,
                        assignment: np.ndarray) -> np.ndarray:
    """Number of distinct parts spanned by each hyperedge."""
    lambdas = np.empty(hgraph.n_edges, dtype=np.int64)
    pin_parts = assignment[hgraph.pins]
    for e in range(hgraph.n_edges):
        start, end = hgraph.edge_ptr[e], hgraph.edge_ptr[e + 1]
        lambdas[e] = len(np.unique(pin_parts[start:end])) if end > start else 0
    return lambdas
