"""Tests for the multilevel hypergraph partitioner."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.hypergraph import (
    Hypergraph,
    PartitionerOptions,
    balance_ratios,
    connectivity_cut,
    cut_weight,
    is_balanced,
    partition,
)
from repro.hypergraph.coarsen import coarsen, contract, match_vertices
from repro.hypergraph.refine import fm_refine


def two_cliques(clique_size=8, bridge_edges=1):
    """Two groups heavily intra-connected, weakly bridged.

    The optimal bisection separates the cliques, cutting only the
    bridges — a canonical partitioning sanity check.
    """
    edges = []
    n = 2 * clique_size
    for base in (0, clique_size):
        members = list(range(base, base + clique_size))
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append([members[i], members[j]])
    for k in range(bridge_edges):
        edges.append([k, clique_size + k])
    return Hypergraph(n, edges)


class TestHypergraph:
    def test_construction(self):
        hg = Hypergraph(4, [[0, 1], [1, 2, 3]])
        assert hg.n_vertices == 4
        assert hg.n_edges == 2
        assert hg.n_pins == 5
        assert hg.n_constraints == 1

    def test_duplicate_pins_removed(self):
        hg = Hypergraph(3, [[0, 0, 1]])
        assert list(hg.edge_pins(0)) == [0, 1]

    def test_out_of_range_pin_rejected(self):
        with pytest.raises(PartitionError):
            Hypergraph(2, [[0, 5]])

    def test_vertex_edges(self):
        hg = Hypergraph(4, [[0, 1], [1, 2], [2, 3]])
        assert list(hg.vertex_edges(1)) == [0, 1]
        assert list(hg.vertex_edges(3)) == [2]

    def test_multi_constraint_weights(self):
        weights = np.array([[1.0, 0.0], [1.0, 2.0], [1.0, 0.0]])
        hg = Hypergraph(3, [[0, 1, 2]], vertex_weights=weights)
        assert hg.n_constraints == 2
        assert np.allclose(hg.total_weights(), [3.0, 2.0])


class TestMetrics:
    def test_uncut_hypergraph(self):
        hg = Hypergraph(4, [[0, 1], [2, 3]])
        assignment = np.array([0, 0, 1, 1])
        assert cut_weight(hg, assignment) == 0.0
        assert connectivity_cut(hg, assignment) == 0.0

    def test_cut_counts_spanned_parts(self):
        hg = Hypergraph(3, [[0, 1, 2]], edge_weights=[2.0])
        spanning_two = np.array([0, 0, 1])
        spanning_three = np.array([0, 1, 2])
        assert cut_weight(hg, spanning_two) == 2.0
        assert connectivity_cut(hg, spanning_two) == 2.0
        # Connectivity (lambda - 1) distinguishes 3-way spanning.
        assert connectivity_cut(hg, spanning_three) == 4.0
        assert cut_weight(hg, spanning_three) == 2.0

    def test_balance_ratios(self):
        hg = Hypergraph(4, [])
        perfect = np.array([0, 0, 1, 1])
        skewed = np.array([0, 0, 0, 1])
        assert np.allclose(balance_ratios(hg, perfect, 2), 1.0)
        assert np.allclose(balance_ratios(hg, skewed, 2), 1.5)
        assert is_balanced(hg, perfect, 2, epsilon=0.05)
        assert not is_balanced(hg, skewed, 2, epsilon=0.05)


class TestCoarsening:
    def test_matching_respects_weight_cap(self):
        hg = Hypergraph(
            4, [[0, 1], [2, 3]],
            vertex_weights=np.array([[10.0], [10.0], [1.0], [1.0]]),
        )
        rng = np.random.default_rng(0)
        mapping = match_vertices(hg, rng, max_vertex_weight=np.array([5.0]))
        # Heavy vertices cannot merge; light ones can.
        assert mapping[0] != mapping[1]
        assert mapping[2] == mapping[3]

    def test_contract_preserves_total_weight(self):
        hg = two_cliques(6)
        rng = np.random.default_rng(1)
        mapping = match_vertices(hg, rng, np.array([100.0]))
        coarse = contract(hg, mapping)
        assert np.allclose(coarse.total_weights(), hg.total_weights())

    def test_coarsen_shrinks(self):
        hg = two_cliques(12)
        levels, mappings = coarsen(hg, np.random.default_rng(2), stop_at=8)
        assert levels[-1].n_vertices < hg.n_vertices
        assert len(levels) == len(mappings) + 1

    def test_contract_drops_internal_edges(self):
        hg = Hypergraph(2, [[0, 1]])
        coarse = contract(hg, np.array([0, 0]))
        assert coarse.n_edges == 0


class TestRefinement:
    def test_fm_recovers_clique_split(self):
        """FM must fix a deliberately-scrambled bisection."""
        hg = two_cliques(8, bridge_edges=1)
        rng = np.random.default_rng(3)
        side = rng.integers(0, 2, hg.n_vertices).astype(np.int8)
        totals = hg.total_weights()
        caps = np.tile(totals * 0.5 * 1.3 + 1, (2, 1))
        before = connectivity_cut(hg, side.astype(np.int64))
        fm_refine(hg, side, caps, passes=6, stall_limit=200)
        after = connectivity_cut(hg, side.astype(np.int64))
        assert after < before
        assert after <= 3.0  # near-optimal: only bridges cut


class TestPartition:
    def test_bisection_separates_cliques(self):
        hg = two_cliques(10, bridge_edges=1)
        assignment = partition(hg, 2, PartitionerOptions(seed=4))
        assert connectivity_cut(hg, assignment) <= 2.0
        assert is_balanced(hg, assignment, 2, epsilon=0.10, slack=1.0)

    def test_four_way_partition(self):
        rng = np.random.default_rng(5)
        # Four clusters of 12, ring-bridged.
        edges = []
        for c in range(4):
            base = 12 * c
            for _ in range(60):
                i, j = rng.integers(0, 12, 2)
                if i != j:
                    edges.append([base + i, base + j])
            edges.append([base, (base + 12) % 48])
        hg = Hypergraph(48, edges)
        assignment = partition(hg, 4, PartitionerOptions(seed=6))
        assert len(np.unique(assignment)) == 4
        assert is_balanced(hg, assignment, 4, epsilon=0.25, slack=2.0)
        # Each cluster should be (mostly) in a single part.
        cut = connectivity_cut(hg, assignment)
        total = hg.edge_weights.sum()
        assert cut < 0.25 * total

    def test_single_part(self):
        hg = two_cliques(4)
        assert np.all(partition(hg, 1) == 0)

    def test_more_parts_than_vertices(self):
        hg = Hypergraph(3, [[0, 1, 2]])
        assignment = partition(hg, 8)
        assert assignment.max() < 8

    def test_invalid_part_count(self):
        with pytest.raises(PartitionError):
            partition(two_cliques(4), 0)

    def test_deterministic_for_seed(self):
        hg = two_cliques(10)
        a = partition(hg, 4, PartitionerOptions(seed=7))
        b = partition(hg, 4, PartitionerOptions(seed=7))
        assert np.array_equal(a, b)

    def test_multi_constraint_balance(self):
        """The time-balancing use case: balance each quantile separately."""
        rng = np.random.default_rng(8)
        n = 64
        # Constraint 0: uniform count. Constraint 1: only the first 16
        # vertices carry weight (e.g. early-level SpTRSV work).
        weights = np.ones((n, 2))
        weights[:, 1] = 0.0
        weights[:16, 1] = 1.0
        edges = [[int(rng.integers(n)), int(rng.integers(n))] for _ in range(150)]
        edges = [e for e in edges if e[0] != e[1]]
        hg = Hypergraph(n, edges, vertex_weights=weights)
        assignment = partition(hg, 4, PartitionerOptions(seed=9))
        ratios = balance_ratios(hg, assignment, 4)
        # Every part must receive a fair share of the scarce constraint.
        per_part = np.zeros(4)
        np.add.at(per_part, assignment, weights[:, 1])
        assert per_part.min() >= 1  # no part starved of early work
        assert ratios[0] < 1.6

    def test_quality_presets(self):
        fast = PartitionerOptions.speed()
        good = PartitionerOptions.quality()
        assert fast.fm_passes < good.fm_passes
        hg = two_cliques(10)
        for options in (fast, good):
            assignment = partition(hg, 2, options)
            assert set(np.unique(assignment)) == {0, 1}
