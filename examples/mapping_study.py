"""Data-mapping deep dive on one suite matrix.

Reproduces the Sec. IV/VI-C analysis for a single matrix end to end:
builds the PCG hypergraph, partitions it, and compares all four mapping
strategies on NoC messages, link activations, load balance, simulated
cycles, and mapping cost — a miniature of Figs. 10/11/23 plus the
Sec. VI-D cost table, for interactive exploration.

Run:  python examples/mapping_study.py [matrix-name]
"""

import sys
import time

from repro import AzulConfig, AzulMachine, analyze_traffic
from repro.comm import TorusGeometry
from repro.core import build_pcg_hypergraph, get_mapper, placement_stats
from repro.graph import color_and_permute
from repro.hypergraph import PartitionerOptions
from repro.precond import ic0
from repro.sparse.suite import get_suite_matrix, suite_names


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "shipsec1"
    if name not in suite_names("all"):
        raise SystemExit(
            f"unknown matrix {name!r}; choices: {suite_names('all')}"
        )
    matrix, b = get_suite_matrix(name)
    matrix, b, _ = color_and_permute(matrix, b)
    lower = ic0(matrix)
    config = AzulConfig(mesh_rows=8, mesh_cols=8)
    torus = TorusGeometry(config.mesh_rows, config.mesh_cols)
    machine = AzulMachine(config)

    hypergraph = build_pcg_hypergraph(matrix, lower)
    print(f"matrix {name}: n={matrix.n_rows}, nnz(A)={matrix.nnz}, "
          f"nnz(L)={lower.nnz}")
    print(f"PCG hypergraph: {hypergraph.n_vertices} vertices, "
          f"{hypergraph.n_edges} hyperedges, "
          f"{hypergraph.n_constraints} balance constraints\n")

    header = (
        f"{'mapping':12s} {'map_s':>7s} {'messages':>9s} {'links':>8s} "
        f"{'imbalance':>9s} {'cycles':>8s} {'GFLOP/s':>8s}"
    )
    print(header)
    print("-" * len(header))
    for mapping in ("round_robin", "block", "sparsep", "azul"):
        mapper = get_mapper(mapping)
        start = time.perf_counter()
        if mapping == "azul":
            placement = mapper(
                matrix, lower, config.num_tiles,
                options=PartitionerOptions.speed(seed=0),
            )
        else:
            placement = mapper(matrix, lower, config.num_tiles)
        map_seconds = time.perf_counter() - start
        traffic = analyze_traffic(placement, matrix, lower, torus)
        stats = placement_stats(placement)
        timing = machine.simulate_pcg(matrix, lower, placement, b)
        print(
            f"{mapping:12s} {map_seconds:7.2f} "
            f"{traffic.total_messages:9d} "
            f"{traffic.total_link_activations:8d} "
            f"{stats['nnz_imbalance']:9.2f} "
            f"{timing.total_cycles:8d} {timing.gflops():8.1f}"
        )
    print(
        "\nAzul's mapping costs the most to compute but minimizes "
        "communication — the paper's amortization argument (Sec. VI-D)."
    )


if __name__ == "__main__":
    main()
