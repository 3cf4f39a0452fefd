"""Partitioner invariants and FM-refinement equivalence.

Production FM (:func:`repro.hypergraph.refine.fm_refine`) must be
*bit-identical* to the classic selection loop of
:mod:`tests.oracles.refine` driving the production
:class:`~repro.hypergraph.refine._BisectionState`, on any weights: the
two differ only in which duplicate heap entries they push and in how
the last pass rolls back (see ``refine.py``'s module docstring for the
exactness argument).  Against the gain-recomputing oracle state the
contract is bit-identity on dyadic-weight hypergraphs; on arbitrary
float weights gain sums may round differently, so there it weakens to
cut-quality parity (gmean within 2%).

The scalar region growing of :mod:`repro.hypergraph.initial`, the
sort-based ``_edge_lambdas`` of :mod:`repro.hypergraph.metrics` and the
matcher and contraction of :mod:`repro.hypergraph.coarsen` are held to
their oracles (:mod:`tests.oracles.initial`, :mod:`tests.oracles.metrics`,
:mod:`tests.oracles.coarsen`) exactly, on arbitrary float weights, and
growth's bisection cut to ``connectivity_cut``.  The matcher is checked
at several candidate-pair budgets, which must not change a mapping,
and one call's traced memory must stay within a bound that holding a
whole batch's pairs exceeds.  FM and growth are also checked on
generated inputs (zero-weight edges, zero vertex weights, tight caps).
On a real PCG hypergraph mapped by ``map_azul``, the FM and growth
oracles patched in together, and the coarsening oracles at the
production batch size, must give the same placement.

Also covered: FM never increases the connectivity cut, per-constraint
caps hold after every refine when the input satisfies them, the
maintained gains track recomputed ones after every move, and same-seed
determinism across presets.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis import seed as hypothesis_seed

from repro.hypergraph import Hypergraph, PartitionerOptions, partition
from repro.hypergraph import coarsen as coarsen_mod
from repro.hypergraph import partitioner
from repro.hypergraph.coarsen import coarsen, contract, match_vertices
from repro.hypergraph.initial import (
    _bisection_cut,
    _grow_once,
    _growth_tables,
)
from repro.hypergraph.metrics import _edge_lambdas, connectivity_cut, cut_weight
from repro.hypergraph.refine import _BisectionState, fm_refine
from tests.oracles.coarsen import contract_oracle, match_vertices_oracle
from tests.oracles.initial import greedy_bisect_oracle, grow_once_oracle
from tests.oracles.metrics import edge_lambdas_oracle
from tests.oracles.refine import RecomputingBisectionState, fm_refine_oracle

#: FM implementations under test, by parametrize id.
REFINES = {"reference": fm_refine_oracle, "production": fm_refine}


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


def float_hypergraph(rng, n, n_edges, n_constraints, max_pins=8):
    """Non-dyadic float edge and vertex weights."""
    edges = [rng.integers(0, n, size=int(rng.integers(1, max_pins + 1)))
             for _ in range(n_edges)]
    return Hypergraph(n, edges, rng.random(n_edges) * 3 + 0.1,
                      rng.random((n, n_constraints)) + 0.05)


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

    def test_refine_leaves_result_in_callers_side(self):
        rng = np.random.default_rng(5)
        hg = random_hypergraph(rng, n=80, n_edges=200)
        side = random_side(hg, rng)
        start = side.copy()
        expected = fm_refine_oracle(hg, side.copy(), loose_caps(hg), passes=3)
        refined = fm_refine(hg, side, loose_caps(hg), passes=3)
        assert refined is side
        assert np.array_equal(side, expected)
        assert not np.array_equal(side, start)

    def test_gains_track_recomputed_gains_after_every_move(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            hg = float_hypergraph(rng, 60, 150, n_constraints=3)
            side = random_side(hg, rng)
            state = _BisectionState(hg, side.copy())
            oracle = RecomputingBisectionState(hg, side.copy())
            for v in rng.integers(0, hg.n_vertices, size=40).tolist():
                state.move(v)
                oracle.move(v)
                recomputed = [oracle.gain(u) for u in range(hg.n_vertices)]
                np.testing.assert_allclose(state.gains, recomputed,
                                           rtol=0, atol=1e-12)
                assert state.side == oracle.side.tolist()
                assert state.count0 == oracle.count0.tolist()
                np.testing.assert_allclose(state.part_weights,
                                           oracle.part_weights,
                                           rtol=0, atol=1e-12)


def assert_growth_matches_oracle(hg, fraction, caps0, seed, limit):
    """Production and oracle growth from identically seeded generators."""
    rng_prod, rng_oracle = (np.random.default_rng(seed) for _ in range(2))
    got = _grow_once(_growth_tables(hg, fraction, caps0, limit), rng_prod)
    want = grow_once_oracle(hg, fraction, caps0, rng_oracle, limit)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    # Both consumed the same draws.
    assert rng_prod.integers(2**62) == rng_oracle.integers(2**62)
    return got


class TestGrowthParity:
    def test_float_weights_and_constraints(self):
        rng = np.random.default_rng(47)
        for trial in range(24):
            c = int(rng.integers(2, 7))
            hg = float_hypergraph(rng, int(rng.integers(20, 150)),
                                  int(rng.integers(20, 300)), c)
            if trial % 2 == 0:
                # Few distinct non-dyadic weights: equal scores reached
                # by different float sums, where rounding decides ties.
                hg.edge_weights = rng.choice([0.1, 0.2, 0.3], hg.n_edges)
            if trial % 3 == 0:
                hg.vertex_weights[:, -1] = 0.0  # a constraint with no weight
            fraction = float(rng.choice([0.5, 0.375, 3 / 7]))
            # Some caps bind below the growth target, so fits() rejects.
            tightness = float(rng.choice([0.9, 1.0, 1.1]))
            caps0 = (hg.total_weights() * fraction * tightness
                     + hg.vertex_weights.max(axis=0))
            assert_growth_matches_oracle(hg, fraction, caps0, trial, 256)

    def test_disconnected_hypergraph_restarts(self):
        # Disjoint pairs plus isolated vertices: the heap runs dry right
        # after each component is absorbed, so growth must restart.
        rng = np.random.default_rng(59)
        pairs = 20
        edges = [[2 * b, 2 * b + 1] for b in range(pairs)]
        n = 2 * pairs + 6
        hg = Hypergraph(n, edges, rng.random(pairs) + 0.3,
                        rng.random((n, 2)) + 0.1)
        caps0 = hg.total_weights() * 0.55 + hg.vertex_weights.max(axis=0)
        for seed in range(6):
            side = assert_growth_matches_oracle(hg, 0.5, caps0, seed, 256)
            assert (side == 0).sum() > 2  # more than one component grown

    @pytest.mark.parametrize("preset", ["speed", "default", "quality"])
    def test_preset_growth_edge_limits(self, preset):
        limit = {
            "speed": PartitionerOptions.speed,
            "default": PartitionerOptions,
            "quality": PartitionerOptions.quality,
        }[preset]().growth_edge_size_limit
        rng = np.random.default_rng(61)
        n = 2 * limit + 50
        edges = [rng.integers(0, n, size=int(rng.integers(2, 9)))
                 for _ in range(3 * n)]
        # Edges just inside and just beyond the growth limit.
        edges += [rng.choice(n, size=s, replace=False)
                  for s in (limit - 1, limit, limit + 1, limit + 40)]
        hg = Hypergraph(n, edges, rng.random(len(edges)) + 0.2,
                        rng.random((n, 3)) + 0.1)
        caps0 = hg.total_weights() * 0.55 + hg.vertex_weights.max(axis=0)
        for seed in range(3):
            assert_growth_matches_oracle(hg, 0.5, caps0, seed, limit)


#: The classic FM loop of the oracle driving the production bookkeeping:
#: production FM must equal it on any weights.
classic_refine = functools.partial(fm_refine_oracle, state=_BisectionState)


def generated_hypergraph(draw, rng):
    """Float weights, with zero-weight edges and zero vertex weights."""
    hg = float_hypergraph(
        rng, draw(st.integers(2, 90)), draw(st.integers(1, 240)),
        draw(st.integers(1, 6)), max_pins=draw(st.integers(2, 10)),
    )
    if draw(st.booleans()):
        # Few distinct non-dyadic weights: equal gains and scores
        # reached by different float sums, where rounding decides ties.
        hg.edge_weights = rng.choice([0.1, 0.2, 0.3], hg.n_edges)
    zero_edges = draw(st.sampled_from([0.0, 0.2, 0.6]))
    hg.edge_weights[rng.random(hg.n_edges) < zero_edges] = 0.0
    zero_weights = draw(st.sampled_from([0.0, 0.4]))
    hg.vertex_weights[rng.random(hg.vertex_weights.shape) < zero_weights] = 0.0
    return hg


@st.composite
def refine_cases(draw):
    """A generated bisection, tight caps, passes and a stall limit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hg = generated_hypergraph(draw, rng)
    fraction = draw(st.sampled_from([0.5, 0.375, 3 / 7]))
    epsilon = draw(st.sampled_from([0.0, 0.03, 0.1]))
    slack = draw(st.sampled_from([0.0, 0.5, 1.0]))
    totals = hg.total_weights()
    caps = np.stack([totals * fraction, totals * (1.0 - fraction)])
    caps = caps * (1.0 + epsilon) + slack * hg.vertex_weights.max(axis=0)
    return (hg, random_side(hg, rng), caps, draw(st.integers(1, 4)),
            draw(st.integers(1, 128)))


@st.composite
def growth_cases(draw):
    """A generated hypergraph, a target, tight caps, a seed and a limit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hg = generated_hypergraph(draw, rng)
    fraction = draw(st.sampled_from([0.5, 0.375, 3 / 7]))
    tightness = draw(st.sampled_from([0.9, 1.0, 1.1]))
    slack = draw(st.sampled_from([0.0, 1.0]))
    caps0 = (hg.total_weights() * fraction * tightness
             + slack * hg.vertex_weights.max(axis=0))
    return (hg, fraction, caps0, draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from([2, 4, 256])))


class TestGeneratedParity:
    @hypothesis_seed(2026)
    @settings(max_examples=400, deadline=2000,
              suppress_health_check=[HealthCheck.too_slow])
    @given(refine_cases())
    def test_fm_equals_classic_loop(self, case):
        hg, side, caps, passes, stall_limit = case
        want = classic_refine(hg, side.copy(), caps, passes, stall_limit)
        got = fm_refine(hg, side.copy(), caps, passes, stall_limit)
        assert np.array_equal(got, want)

    @hypothesis_seed(2026)
    @settings(max_examples=200, deadline=2000,
              suppress_health_check=[HealthCheck.too_slow])
    @given(growth_cases())
    def test_growth_equals_oracle(self, case):
        hg, fraction, caps0, seed, limit = case
        assert_growth_matches_oracle(hg, fraction, caps0, seed, limit)


def place_tmt_sym(preset, n_tiles):
    """``map_azul`` of the suite matrix tmt_sym at q = 5."""
    from repro.core import map_azul
    from repro.experiments.common import ExperimentSession

    prepared = ExperimentSession().prepare("tmt_sym")
    return map_azul(prepared.matrix, prepared.lower, n_tiles, q=5,
                    options=getattr(PartitionerOptions, preset)(seed=0))


def assert_same_placement(got, want):
    for field in ("a_tile", "l_tile", "vec_tile"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


class TestPCGMappingParity:
    @pytest.mark.parametrize("preset, n_tiles", [("speed", 64),
                                                 ("quality", 16)])
    def test_tight_caps_on_a_suite_matrix(self, monkeypatch, preset,
                                          n_tiles):
        # q = 5 gives every vertex six weights under the partitioner's
        # own caps, where most cap checks reject.
        want = place_tmt_sym(preset, n_tiles)
        monkeypatch.setattr(partitioner, "fm_refine", classic_refine)
        monkeypatch.setattr(partitioner, "greedy_bisect",
                            greedy_bisect_oracle)
        assert_same_placement(place_tmt_sym(preset, n_tiles), want)

    def test_coarsening_oracles_at_production_constants(self, monkeypatch):
        # tmt_sym's hypergraph has more than two batches of vertices, so
        # the first bisection's matcher filters the second and third
        # batches by the matches made before them.
        want = place_tmt_sym("speed", 64)
        sizes = []

        def matcher(hg, *args, edge_size_limit):
            sizes.append(hg.n_vertices)
            return match_vertices_oracle(
                hg, *args, edge_size_limit,
                batch_size=coarsen_mod._MATCH_BATCH)

        monkeypatch.setattr(coarsen_mod, "match_vertices", matcher)
        monkeypatch.setattr(coarsen_mod, "contract", contract_oracle)
        assert_same_placement(place_tmt_sym("speed", 64), want)
        assert max(sizes) > 2 * coarsen_mod._MATCH_BATCH


def assert_same_hypergraph(got, want):
    assert got.n_vertices == want.n_vertices
    for name in ("pins", "edge_ptr", "edge_weights", "vertex_weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


#: Candidate-pair budgets of the chunked matcher: 1 gives every seed
#: with an eligible edge a chunk of its own, 7 and 64 a few seeds per
#: chunk, and the default one chunk per batch on these inputs.
PAIR_BUDGETS = (1, 7, 64, coarsen_mod._PAIR_BUDGET)


def assert_coarsening_matches_oracle(hg, cap, seed, limit,
                                     budgets=(coarsen_mod._PAIR_BUDGET,)):
    """Production matching at each pair budget, and contraction, equal
    the oracle's bit for bit."""
    rng_oracle = np.random.default_rng(seed)
    want = match_vertices_oracle(hg, rng_oracle, cap, limit,
                                 batch_size=coarsen_mod._MATCH_BATCH)
    draw = rng_oracle.integers(2**62)
    for budget in budgets:
        rng_prod = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coarsen_mod, "_PAIR_BUDGET", budget)
            got = match_vertices(hg, rng_prod, cap, edge_size_limit=limit)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), budget
        assert rng_prod.integers(2**62) == draw
    assert_same_hypergraph(contract(hg, got), contract_oracle(hg, want))
    return got


def coarsening_hypergraph(rng, n, n_edges, n_constraints, max_pins=8):
    """Float weights plus duplicate, single-pin and empty edges."""
    hg = float_hypergraph(rng, n, n_edges, n_constraints, max_pins)
    edges = [hg.edge_pins(e) for e in range(hg.n_edges)]
    edges += [edges[int(i)][::-1] for i in rng.integers(0, n_edges, 6)]
    edges += [[int(rng.integers(n))], [], []]
    return Hypergraph(n, edges, rng.random(len(edges)) * 3 + 0.1,
                      hg.vertex_weights)


def coarsening_cap(hg):
    """The cap of :func:`coarsen`: 1/8 of each constraint's total."""
    return np.maximum(hg.total_weights() / 8.0,
                      hg.vertex_weights.max(axis=0))


@st.composite
def matching_cases(draw):
    """A float-weight hypergraph, a cap, an edge limit, and the batch
    size and pair budget to match it with."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hg = coarsening_hypergraph(
        rng, draw(st.integers(2, 90)), draw(st.integers(1, 240)),
        draw(st.integers(1, 4)), max_pins=draw(st.integers(2, 12)),
    )
    if draw(st.booleans()):
        # Few distinct non-dyadic weights: equal scores reached by
        # different float sums, where rounding decides ties.
        hg.edge_weights = rng.choice([0.1, 0.2, 0.3], hg.n_edges)
    scale = draw(st.floats(0.35, 1.0))
    cap = np.maximum(coarsening_cap(hg) * scale,
                     hg.vertex_weights.max(axis=0))
    return (hg, cap, draw(st.sampled_from([4, 8, 64])),
            draw(st.integers(1, 100)), draw(st.integers(1, 400)))


class TestCoarseningParity:
    def test_float_weights_and_constraints(self):
        rng = np.random.default_rng(67)
        for trial in range(30):
            c = int(rng.integers(1, 7))
            hg = coarsening_hypergraph(rng, int(rng.integers(10, 160)),
                                       int(rng.integers(5, 320)), c)
            if trial % 2 == 0:
                # Few distinct non-dyadic weights: equal scores reached
                # by different float sums, where rounding decides ties.
                hg.edge_weights = rng.choice([0.1, 0.2, 0.3], hg.n_edges)
            # Caps from coarsen()'s own down to ones most pairs exceed.
            cap = coarsening_cap(hg) * float(rng.choice([1.0, 0.6, 0.35]))
            cap = np.maximum(cap, hg.vertex_weights.max(axis=0))
            assert_coarsening_matches_oracle(hg, cap, trial, 64,
                                             PAIR_BUDGETS)

    def test_weights_at_and_just_above_half_the_cap(self, monkeypatch):
        rng = np.random.default_rng(71)
        n, c = 90, 3
        cap = rng.random(c) + 0.7
        half = 0.5 * cap
        above = np.nextafter(half, np.inf)
        weights = rng.random((n, c)) * half
        weights[0:30] = half  # exactly half in every constraint
        weights[30:50] = above  # just above half in every constraint
        weights[50:65, 1] = above[1]  # heavy in one constraint only
        weights[65:75, 1] = cap[1] - above[1]  # fills the cap exactly
        edges = [rng.choice(n, size=int(rng.integers(2, 6)), replace=False)
                 for _ in range(300)]
        hg = Hypergraph(n, edges, rng.choice([0.1, 0.3], len(edges)),
                        weights)
        lights = []

        def spy(*args):
            lights.append(args[-1])
            return batch_candidates(*args)

        batch_candidates = coarsen_mod._batch_candidates
        monkeypatch.setattr(coarsen_mod, "_batch_candidates", spy)
        for seed in range(8):
            mapping = assert_coarsening_matches_oracle(hg, cap, seed, 64)
            merged = np.zeros((mapping.max() + 1, c))
            np.add.at(merged, mapping, weights)
            assert (merged <= cap).all()
        # Exactly half the cap is light (never summed); above it is not.
        light = lights[0]
        assert light[:30].all() and not light[30:65].any()

    @pytest.mark.parametrize("preset", ["speed", "default", "quality"])
    def test_preset_matching_edge_limits(self, preset):
        limit = {
            "speed": PartitionerOptions.speed,
            "default": PartitionerOptions,
            "quality": PartitionerOptions.quality,
        }[preset]().matching_edge_size_limit
        rng = np.random.default_rng(73)
        n = 2 * limit + 40
        edges = [rng.integers(0, n, size=int(rng.integers(2, 9)))
                 for _ in range(3 * n)]
        # Edges just inside and just beyond the matching limit.
        edges += [rng.choice(n, size=s, replace=False)
                  for s in (limit - 1, limit, limit + 1, limit + 30)]
        hg = Hypergraph(n, edges, rng.random(len(edges)) + 0.2,
                        rng.random((n, 4)) + 0.1)
        for seed in range(3):
            assert_coarsening_matches_oracle(hg, coarsening_cap(hg), seed,
                                             limit)

    def test_multi_batch(self, monkeypatch):
        # Small batches: later batches see earlier matches, and each
        # batch's scores come from its own running cumsum, whatever
        # the chunks it is split into.
        rng = np.random.default_rng(79)
        for batch in (1, 5, 23):
            monkeypatch.setattr(coarsen_mod, "_MATCH_BATCH", batch)
            for seed in range(4):
                hg = coarsening_hypergraph(rng, 120, 260, 2)
                hg.edge_weights = rng.choice([0.1, 0.2, 0.3], hg.n_edges)
                assert_coarsening_matches_oracle(hg, coarsening_cap(hg),
                                                 seed, 64, PAIR_BUDGETS)

    @pytest.mark.parametrize("batch", [coarsen_mod._MATCH_BATCH, 16])
    def test_coarsen_levels_and_mappings(self, monkeypatch, batch):
        rng = np.random.default_rng(83)
        hg = coarsening_hypergraph(rng, 600, 1500, 3, max_pins=12)
        monkeypatch.setattr(coarsen_mod, "_MATCH_BATCH", batch)
        with monkeypatch.context() as patch:
            patch.setattr(coarsen_mod, "contract", contract_oracle)
            patch.setattr(
                coarsen_mod, "match_vertices",
                lambda *args, edge_size_limit: match_vertices_oracle(
                    *args, edge_size_limit, batch_size=batch),
            )
            ref_levels, ref_mappings = coarsen(
                hg, np.random.default_rng(5), stop_at=20
            )
        assert len(ref_levels) > 3
        for budget in PAIR_BUDGETS:
            monkeypatch.setattr(coarsen_mod, "_PAIR_BUDGET", budget)
            levels, mappings = coarsen(hg, np.random.default_rng(5),
                                       stop_at=20)
            assert len(levels) == len(ref_levels)
            for got, want in zip(levels, ref_levels):
                assert_same_hypergraph(got, want)
            for got, want in zip(mappings, ref_mappings):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @hypothesis_seed(2026)
    @settings(max_examples=150, deadline=2000,
              suppress_health_check=[HealthCheck.too_slow])
    @given(matching_cases())
    def test_generated_batches_and_budgets(self, case):
        hg, cap, limit, batch, budget = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coarsen_mod, "_MATCH_BATCH", batch)
            patch.setattr(coarsen_mod, "_PAIR_BUDGET", budget)
            got = match_vertices(hg, np.random.default_rng(0), cap,
                                 edge_size_limit=limit)
        want = match_vertices_oracle(hg, np.random.default_rng(0), cap,
                                     limit, batch_size=batch)
        assert np.array_equal(got, want)


class TestMatcherMemory:
    def test_batch_pairs_stream_in_bounded_chunks(self, monkeypatch):
        # One batch of 600 seeds holds 128,000 candidate incidences,
        # 125 budgets' worth; a matcher holding them all at once peaks
        # at about 10 MB.
        rng = np.random.default_rng(89)
        n = 600
        edges = [rng.choice(n, size=40, replace=False) for _ in range(80)]
        hg = Hypergraph(n, edges, rng.random(80) + 0.1,
                        rng.random((n, 2)) + 0.1)
        hg.incidence_arrays()  # cached CSR, not part of the matcher
        monkeypatch.setattr(coarsen_mod, "_PAIR_BUDGET", 1024)
        tracemalloc.start()
        try:
            match_vertices(hg, np.random.default_rng(0), coarsening_cap(hg))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestEdgeLambdas:
    def test_matches_per_edge_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(5, 80))
            edges = [rng.integers(0, n, size=int(rng.integers(0, 10)))
                     for _ in range(int(rng.integers(0, 120)))]
            edges += [[], [int(rng.integers(n))]]  # empty and single-pin
            hg = Hypergraph(n, edges, rng.random(len(edges)) + 0.1)
            assignment = rng.integers(0, int(rng.integers(1, 9)), size=n)
            got = _edge_lambdas(hg, assignment)
            want = edge_lambdas_oracle(hg, assignment)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            excess = np.maximum(want - 1, 0)
            assert connectivity_cut(hg, assignment) == float(
                (excess * hg.edge_weights).sum()
            )
            assert cut_weight(hg, assignment) == float(
                hg.edge_weights[want > 1].sum()
            )

    def test_no_edges(self):
        hg = Hypergraph(4, [])
        assert len(_edge_lambdas(hg, np.zeros(4, dtype=np.int64))) == 0

    def test_bisection_cut_equals_connectivity_cut(self):
        # Growth scores its tries by side-0 pin counts; the kept try
        # depends on the two cuts agreeing bit for bit.
        rng = np.random.default_rng(97)
        for trial in range(40):
            hg = coarsening_hypergraph(rng, int(rng.integers(2, 90)),
                                       int(rng.integers(1, 240)), 1)
            side = random_side(hg, rng)
            if trial < 2:
                side[:] = trial  # one side holds every vertex
            assert _bisection_cut(hg, side) == connectivity_cut(
                hg, side.astype(np.int64))


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
