"""Per-column and per-row traffic analysis: the golden model of
:func:`repro.core.traffic.analyze_traffic`.

Re-derives each column's and each row's tile set from the placement
and builds its multicast or reduction tree one at a time
(:mod:`tests.oracles.trees`), independently of the compiler.  The
production analysis counts the forests of the compiled kernels
instead, and must return the same report, field for field.
"""

from __future__ import annotations

import numpy as np

from repro.core.traffic import KernelTraffic, TrafficReport
from tests.oracles.trees import build_multicast_tree, build_reduction_tree


def _tiles_by_group(group_ids: np.ndarray, tiles: np.ndarray, n_groups: int):
    """For each group id, the sorted unique tiles holding its members."""
    order = np.argsort(group_ids, kind="stable")
    sorted_groups = group_ids[order]
    sorted_tiles = tiles[order]
    starts = np.searchsorted(sorted_groups, np.arange(n_groups + 1))
    return [
        np.unique(sorted_tiles[starts[g]:starts[g + 1]])
        for g in range(n_groups)
    ]


def _kernel_traffic(name: str, geometry, col_tiles: list, row_tiles: list,
                    vec_tile: np.ndarray) -> KernelTraffic:
    """Traffic of one kernel given per-column and per-row tile sets."""
    traffic = KernelTraffic(name)
    per_link: dict = {}
    for j, tiles in enumerate(col_tiles):
        home = int(vec_tile[j])
        destinations = [t for t in tiles if t != home]
        if not destinations:
            continue
        traffic.multicast_messages += len(destinations)
        tree = build_multicast_tree(geometry, home, destinations)
        traffic.link_activations += tree.n_link_activations
        for edge in tree.edges:
            per_link[edge] = per_link.get(edge, 0) + 1
    for i, tiles in enumerate(row_tiles):
        home = int(vec_tile[i])
        sources = [t for t in tiles if t != home]
        if not sources:
            continue
        traffic.reduction_messages += len(sources)
        tree = build_reduction_tree(geometry, home, sources)
        traffic.link_activations += tree.n_link_activations
        for edge in tree.edges:
            per_link[edge] = per_link.get(edge, 0) + 1
    keyed = sorted((src * geometry.n_tiles + dst, count)
                   for (src, dst), count in per_link.items())
    traffic.link_ids = np.array([link for link, _ in keyed], dtype=np.int32)
    traffic.link_counts = np.array([count for _, count in keyed],
                                   dtype=np.int32)
    return traffic


def analyze_traffic_oracle(placement, matrix, lower,
                           geometry) -> TrafficReport:
    """Drop-in for :func:`repro.core.traffic.analyze_traffic`."""
    n = matrix.n_rows
    a_rows = np.repeat(np.arange(n), matrix.row_nnz())
    a_cols = matrix.indices
    l_rows = np.repeat(np.arange(n), lower.row_nnz())
    l_cols = lower.indices
    # Off-diagonal entries only: diagonal work is local to the home tile.
    l_off = l_rows != l_cols

    spmv = _kernel_traffic(
        "spmv", geometry,
        _tiles_by_group(a_cols, placement.a_tile, n),
        _tiles_by_group(a_rows, placement.a_tile, n),
        placement.vec_tile,
    )
    forward = _kernel_traffic(
        "sptrsv_lower", geometry,
        _tiles_by_group(l_cols[l_off], placement.l_tile[l_off], n),
        _tiles_by_group(l_rows[l_off], placement.l_tile[l_off], n),
        placement.vec_tile,
    )
    # L^T solve: L's rows become columns and vice versa.
    backward = _kernel_traffic(
        "sptrsv_upper", geometry,
        _tiles_by_group(l_rows[l_off], placement.l_tile[l_off], n),
        _tiles_by_group(l_cols[l_off], placement.l_tile[l_off], n),
        placement.vec_tile,
    )
    return TrafficReport(
        mapper=placement.mapper,
        kernels=[spmv, forward, backward],
    )
