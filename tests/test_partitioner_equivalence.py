"""Partitioner invariants and FM-refinement equivalence.

The CSR FM bookkeeping of :mod:`repro.hypergraph.refine` must be
*bit-identical* to the gain-recomputing oracle
(:mod:`tests.oracles.refine`) on dyadic-weight hypergraphs — both drive
the :func:`repro.hypergraph.refine._fm_pass` selection loop and differ
only in bookkeeping (see ``refine.py``'s module docstring for the
exactness argument).  On arbitrary float weights gain sums may round
differently, so there the contract weakens to cut-quality parity
(gmean within 2%).

Also covered: FM never increases the connectivity cut, per-constraint
caps hold after every refine when the input satisfies them, same-seed
determinism across presets, and ``jobs=N`` bit-identity with the
serial path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hypergraph import Hypergraph, PartitionerOptions, partition
from repro.hypergraph import partitioner
from repro.hypergraph.metrics import connectivity_cut, cut_weight
from repro.hypergraph.refine import fm_refine
from tests.oracles.refine import fm_refine_oracle

#: FM implementations under test, by parametrize id.
REFINES = {"reference": fm_refine_oracle, "vectorized": fm_refine}


def random_hypergraph(rng, n=None, n_edges=None, weight_pool=(1.0, 2.0),
                      n_constraints=2, min_pins=1, max_pins=8):
    """A random hypergraph with weights drawn from ``weight_pool``."""
    n = int(rng.integers(12, 120)) if n is None else n
    n_edges = int(rng.integers(8, 220)) if n_edges is None else n_edges
    edges = [
        rng.integers(0, n, size=int(rng.integers(min_pins, max_pins + 1)))
        for _ in range(n_edges)
    ]
    edge_weights = rng.choice(weight_pool, size=n_edges)
    vertex_weights = rng.integers(1, 4, size=(n, n_constraints)).astype(float)
    return Hypergraph(n, edges, edge_weights, vertex_weights)


def loose_caps(hgraph, fraction=0.5, epsilon=0.10):
    totals = hgraph.total_weights()
    slack = hgraph.vertex_weights.max(axis=0)
    caps = np.empty((2, hgraph.n_constraints))
    caps[0] = totals * fraction * (1.0 + epsilon) + slack
    caps[1] = totals * (1.0 - fraction) * (1.0 + epsilon) + slack
    return caps


def random_side(hgraph, rng):
    return (rng.random(hgraph.n_vertices) < 0.5).astype(np.int8)


class TestFMInvariants:
    @pytest.mark.parametrize("refine", sorted(REFINES))
    def test_fm_never_increases_cut(self, refine):
        rng = np.random.default_rng(11)
        for _ in range(12):
            hg = random_hypergraph(rng)
            side = random_side(hg, rng)
            before = connectivity_cut(hg, side.astype(np.int64))
            refined = REFINES[refine](
                hg, side.copy(), loose_caps(hg), passes=3
            )
            after = connectivity_cut(hg, refined.astype(np.int64))
            assert after <= before + 1e-9

    @pytest.mark.parametrize("refine", sorted(REFINES))
    def test_caps_respected_after_every_refine(self, refine):
        rng = np.random.default_rng(23)
        for _ in range(12):
            hg = random_hypergraph(rng)
            side = random_side(hg, rng)
            # Caps that the *input* side satisfies: FM must keep them.
            weights = np.stack([
                hg.vertex_weights[side == s].sum(axis=0) for s in (0, 1)
            ])
            caps = np.maximum(loose_caps(hg), weights)
            for _ in range(3):  # every refine call, not just the first
                side = REFINES[refine](hg, side, caps, passes=1)
                held = np.stack([
                    hg.vertex_weights[side == s].sum(axis=0) for s in (0, 1)
                ])
                assert (held <= caps + 1e-9).all()


class TestStrategyParity:
    def test_refine_bit_identical_on_dyadic_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            hg = random_hypergraph(rng, weight_pool=(1.0, 2.0, 4.0))
            side = random_side(hg, rng)
            ref = fm_refine_oracle(hg, side.copy(), loose_caps(hg), passes=3)
            vec = fm_refine(hg, side.copy(), loose_caps(hg), passes=3)
            assert np.array_equal(ref, vec)

    def test_partition_bit_identical_on_dyadic_weights(self, monkeypatch):
        rng = np.random.default_rng(17)
        for n_parts in (2, 5, 16):
            hg = random_hypergraph(rng, n=150, n_edges=400)
            vec = partition(hg, n_parts, PartitionerOptions(seed=1))
            with monkeypatch.context() as patch:
                patch.setattr(partitioner, "fm_refine", fm_refine_oracle)
                ref = partition(hg, n_parts, PartitionerOptions(seed=1))
            assert np.array_equal(ref, vec)

    def test_cut_quality_parity_on_float_weights(self, monkeypatch):
        # Non-dyadic weights: gain sums may round differently between
        # bookkeeping schemes, so exact equality is not guaranteed —
        # but cut quality must agree (gmean within 2%).
        rng = np.random.default_rng(29)
        ratios = []
        for _ in range(10):
            n_edges = int(rng.integers(40, 200))
            hg = random_hypergraph(rng, n_edges=n_edges)
            hg.edge_weights = rng.random(hg.n_edges) + 0.25
            vec = partition(hg, 4, PartitionerOptions(seed=2))
            with monkeypatch.context() as patch:
                patch.setattr(partitioner, "fm_refine", fm_refine_oracle)
                ref = partition(hg, 4, PartitionerOptions(seed=2))
            cut_ref = connectivity_cut(hg, ref) + 1.0
            cut_vec = connectivity_cut(hg, vec) + 1.0
            ratios.append(cut_vec / cut_ref)
        gmean = float(np.exp(np.mean(np.log(ratios))))
        assert 0.98 <= gmean <= 1.02


class TestDeterminism:
    @pytest.mark.parametrize("preset", ["speed", "default", "quality"])
    def test_same_seed_same_assignment(self, preset):
        rng = np.random.default_rng(31)
        hg = random_hypergraph(rng, n=140, n_edges=350)
        make = {
            "speed": PartitionerOptions.speed,
            "quality": PartitionerOptions.quality,
            "default": PartitionerOptions,
        }[preset]
        first = partition(hg, 8, make(seed=9))
        second = partition(hg, 8, make(seed=9))
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(37)
        hg = random_hypergraph(rng, n=200, n_edges=500)
        a = partition(hg, 8, PartitionerOptions(seed=0))
        b = partition(hg, 8, PartitionerOptions(seed=1))
        assert not np.array_equal(a, b)

    def test_jobs_bit_identical_to_serial(self):
        rng = np.random.default_rng(41)
        hg = random_hypergraph(rng, n=300, n_edges=700)
        options = PartitionerOptions(seed=4)
        serial = partition(hg, 8, options)
        pooled = partition(hg, 8, options, jobs=2)
        assert np.array_equal(serial, pooled)

    def test_presets_cover_edge_size_knobs(self):
        speed = PartitionerOptions.speed()
        default = PartitionerOptions()
        quality = PartitionerOptions.quality()
        assert (speed.matching_edge_size_limit
                < default.matching_edge_size_limit
                < quality.matching_edge_size_limit)
        assert (speed.growth_edge_size_limit
                < default.growth_edge_size_limit
                < quality.growth_edge_size_limit)


class TestCutMetricsAgree:
    def test_cut_weight_lower_bounds_connectivity(self):
        rng = np.random.default_rng(43)
        hg = random_hypergraph(rng)
        assignment = partition(hg, 4, PartitionerOptions(seed=0))
        assert cut_weight(hg, assignment) <= connectivity_cut(hg, assignment)
