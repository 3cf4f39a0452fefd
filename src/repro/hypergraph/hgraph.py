"""Hypergraph data structure.

A hypergraph generalizes a graph: each hyperedge connects a *set* of
vertices (Sec. IV-B).  Vertices carry one weight per balance constraint;
hyperedges carry a scalar weight.  Storage is CSR-like for both
directions (edge -> pins and vertex -> incident edges) so partitioning
inner loops touch flat arrays.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import PartitionError


def ragged_take(values: np.ndarray, starts: np.ndarray,
                lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``values[starts[i]:starts[i]+lengths[i]]`` vectorized.

    The workhorse gather of the partitioner hot path: one call replaces
    a Python loop over CSR segments (incident edges of a vertex, pins
    of an edge batch) with two ``repeat``/``cumsum`` passes.
    """
    total = int(lengths.sum())
    if total == 0:
        return values[:0]
    offsets = np.concatenate(([0], np.cumsum(lengths[:-1])))
    index = np.arange(total) + np.repeat(starts - offsets, lengths)
    return values[index]


class Hypergraph:
    """An undirected hypergraph with multi-constraint vertex weights.

    Parameters
    ----------
    n_vertices:
        Number of vertices, identified as ``0 .. n_vertices-1``.
    edges:
        Iterable of vertex-index sequences, one per hyperedge.  Edges
        with fewer than two distinct pins are kept but contribute no cut.
    edge_weights:
        Optional per-edge weights (default 1).
    vertex_weights:
        Optional ``(n_vertices, n_constraints)`` array (default: a single
        all-ones constraint).
    """

    def __init__(self, n_vertices, edges, edge_weights=None,
                 vertex_weights=None):
        self.n_vertices = int(n_vertices)
        pin_lists = [np.unique(np.asarray(e, dtype=np.int64)) for e in edges]
        for pins in pin_lists:
            if len(pins) and (pins[0] < 0 or pins[-1] >= self.n_vertices):
                raise PartitionError("hyperedge pin out of range")
        self.n_edges = len(pin_lists)
        sizes = np.array([len(p) for p in pin_lists], dtype=np.int64)
        self.edge_ptr = np.concatenate(([0], np.cumsum(sizes)))
        self.pins = (
            np.concatenate(pin_lists) if pin_lists
            else np.empty(0, dtype=np.int64)
        )
        self._set_weights(edge_weights, vertex_weights)
        self._vertex_edge_ptr: Optional[np.ndarray] = None
        self._vertex_edge_ids: Optional[np.ndarray] = None
        self._pin_edge_ids: Optional[np.ndarray] = None
        self._csr_lists: Optional[Tuple[List[int], ...]] = None

    def _set_weights(self, edge_weights, vertex_weights):
        if edge_weights is None:
            self.edge_weights = np.ones(self.n_edges, dtype=np.float64)
        else:
            self.edge_weights = np.asarray(edge_weights, dtype=np.float64)
            if len(self.edge_weights) != self.n_edges:
                raise PartitionError("edge_weights length mismatch")
        if vertex_weights is None:
            self.vertex_weights = np.ones((self.n_vertices, 1), dtype=np.float64)
        else:
            vw = np.asarray(vertex_weights, dtype=np.float64)
            if vw.ndim == 1:
                vw = vw[:, None]
            if vw.shape[0] != self.n_vertices:
                raise PartitionError("vertex_weights length mismatch")
            self.vertex_weights = vw

    @classmethod
    def from_flat(cls, n_vertices, pins, edge_ptr, edge_weights=None,
                  vertex_weights=None) -> "Hypergraph":
        """Construct from already-normalized flat pin/offset arrays.

        The caller guarantees each edge's pins are sorted, unique, and
        in range, so the per-edge normalization of ``__init__`` (one
        ``np.unique`` per edge — the dominant cost when sub-hypergraphs
        are induced during recursive bisection) is skipped entirely.
        """
        self = object.__new__(cls)
        self.n_vertices = int(n_vertices)
        self.pins = np.ascontiguousarray(pins, dtype=np.int64)
        self.edge_ptr = np.ascontiguousarray(edge_ptr, dtype=np.int64)
        if len(self.edge_ptr) == 0 or self.edge_ptr[0] != 0 \
                or self.edge_ptr[-1] != len(self.pins):
            raise PartitionError("edge_ptr does not span the pin array")
        self.n_edges = len(self.edge_ptr) - 1
        self._set_weights(edge_weights, vertex_weights)
        self._vertex_edge_ptr = None
        self._vertex_edge_ids = None
        self._pin_edge_ids = None
        self._csr_lists = None
        return self

    # ------------------------------------------------------------------
    @property
    def n_constraints(self) -> int:
        """Number of balance constraints (vertex-weight columns)."""
        return self.vertex_weights.shape[1]

    @property
    def n_pins(self) -> int:
        """Total number of (edge, vertex) incidences."""
        return len(self.pins)

    def edge_pins(self, e: int) -> np.ndarray:
        """Vertices of hyperedge ``e`` (a view)."""
        return self.pins[self.edge_ptr[e]:self.edge_ptr[e + 1]]

    def edge_sizes(self) -> np.ndarray:
        """Number of pins per edge."""
        return np.diff(self.edge_ptr)

    def __repr__(self):
        return (
            f"Hypergraph(vertices={self.n_vertices}, edges={self.n_edges}, "
            f"pins={self.n_pins}, constraints={self.n_constraints})"
        )

    # ------------------------------------------------------------------
    def _build_incidence(self):
        """Build the vertex -> incident-edges CSR arrays.

        One sort of ``(pin, edge)`` keys packed into int64: an edge
        holds a vertex once, so the keys are unique and list each
        vertex's edges in id order, as a stable sort of the pins would.
        """
        edge_bits = (self.n_edges - 1).bit_length()
        if (self.n_vertices - 1).bit_length() + edge_bits > 63:
            raise PartitionError("hypergraph too large for int64 pin keys")
        key = np.sort((self.pins << edge_bits) | self.pin_edge_ids())
        counts = np.bincount(key >> edge_bits, minlength=self.n_vertices)
        self._vertex_edge_ptr = np.concatenate(([0], np.cumsum(counts)))
        self._vertex_edge_ids = key & ((1 << edge_bits) - 1)

    def vertex_edges(self, v: int) -> np.ndarray:
        """Hyperedges incident to vertex ``v`` (a view)."""
        if self._vertex_edge_ptr is None:
            self._build_incidence()
        return self._vertex_edge_ids[
            self._vertex_edge_ptr[v]:self._vertex_edge_ptr[v + 1]
        ]

    def incidence_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The flat ``(vertex_edge_ptr, vertex_edge_ids)`` CSR arrays."""
        if self._vertex_edge_ptr is None:
            self._build_incidence()
        assert self._vertex_edge_ptr is not None
        assert self._vertex_edge_ids is not None
        return self._vertex_edge_ptr, self._vertex_edge_ids

    def csr_lists(self) -> Tuple[List[int], ...]:
        """``(pins, edge_ptr, vertex_edge_ptr, vertex_edge_ids)`` as lists.

        Cached Python-list mirrors for the scalar inner loops of region
        growing and FM, which touch a few dozen elements per step —
        too few to amortize a numpy call.
        """
        if self._csr_lists is None:
            ve_ptr, ve_ids = self.incidence_arrays()
            self._csr_lists = (self.pins.tolist(), self.edge_ptr.tolist(),
                               ve_ptr.tolist(), ve_ids.tolist())
        return self._csr_lists

    def pin_edge_ids(self) -> np.ndarray:
        """Edge id of every flat pin slot (cached).

        ``pin_edge_ids()[k]`` is the hyperedge that ``pins[k]`` belongs
        to — the companion array that lets per-pin computations (cut
        masks, gain contributions) run as one vectorized pass.
        """
        if self._pin_edge_ids is None:
            self._pin_edge_ids = np.repeat(
                np.arange(self.n_edges), self.edge_sizes()
            )
        return self._pin_edge_ids

    def total_weights(self) -> np.ndarray:
        """Per-constraint sums of vertex weights."""
        return self.vertex_weights.sum(axis=0)
