"""Partition-quality metrics.

``connectivity_cut`` is the objective the paper minimizes: placing a
communication set across ``N`` tiles induces ``N - 1`` messages
(Sec. IV-B), so each hyperedge costs ``(lambda_e - 1) * w_e`` where
``lambda_e`` is the number of parts it spans.
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph.hgraph import Hypergraph


def _edge_lambdas(hgraph: Hypergraph, assignment: np.ndarray) -> np.ndarray:
    """Number of distinct parts spanned by each hyperedge."""
    pin_edge = hgraph.pin_edge_ids()
    pin_parts = assignment[hgraph.pins]
    order = np.lexsort((pin_parts, pin_edge))
    edge, part = pin_edge[order], pin_parts[order]
    # Count each (edge, part) pair at its first occurrence.
    first = np.ones(len(edge), dtype=bool)
    first[1:] = (edge[1:] != edge[:-1]) | (part[1:] != part[:-1])
    return np.bincount(edge[first], minlength=hgraph.n_edges)


def cut_weight(hgraph: Hypergraph, assignment: np.ndarray) -> float:
    """Total weight of hyperedges spanning more than one part."""
    lambdas = _edge_lambdas(hgraph, assignment)
    return float(hgraph.edge_weights[lambdas > 1].sum())


def connectivity_cut(hgraph: Hypergraph, assignment: np.ndarray) -> float:
    """The (lambda - 1) connectivity metric: total induced messages."""
    lambdas = _edge_lambdas(hgraph, assignment)
    excess = np.maximum(lambdas - 1, 0)
    return float((excess * hgraph.edge_weights).sum())


def part_weights(hgraph: Hypergraph, assignment: np.ndarray,
                 n_parts: int) -> np.ndarray:
    """Per-part, per-constraint weight totals, shape ``(n_parts, c)``."""
    weights = np.zeros((n_parts, hgraph.n_constraints))
    for c in range(hgraph.n_constraints):
        np.add.at(weights[:, c], assignment, hgraph.vertex_weights[:, c])
    return weights


def balance_ratios(hgraph: Hypergraph, assignment: np.ndarray,
                   n_parts: int) -> np.ndarray:
    """Max part weight over ideal weight, per constraint.

    1.0 is perfect balance; the partitioner targets
    ``<= 1 + epsilon`` for every constraint.
    """
    weights = part_weights(hgraph, assignment, n_parts)
    totals = hgraph.total_weights()
    ratios = np.zeros(hgraph.n_constraints)
    for c in range(hgraph.n_constraints):
        ideal = totals[c] / n_parts if totals[c] > 0 else 1.0
        ratios[c] = weights[:, c].max() / ideal if ideal > 0 else 0.0
    return ratios


def is_balanced(hgraph: Hypergraph, assignment: np.ndarray, n_parts: int,
                epsilon: float, slack: float = 0.0) -> bool:
    """Whether every constraint is within ``1 + epsilon`` of ideal.

    ``slack`` adds an absolute per-part allowance (needed when a
    constraint's total is small relative to single-vertex weights).
    """
    weights = part_weights(hgraph, assignment, n_parts)
    totals = hgraph.total_weights()
    for c in range(hgraph.n_constraints):
        cap = totals[c] / n_parts * (1.0 + epsilon) + slack
        if weights[:, c].max() > cap:
            return False
    return True
