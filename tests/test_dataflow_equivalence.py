"""Equivalence contract of the dataflow lowering.

:func:`repro.dataflow.lower.lower_kernel` must be an *exact* drop-in
for the per-element oracle (:mod:`tests.oracles.lowering`):
bit-identical compiled programs on real suite matrices across
geometries and multicast modes, and identical end-to-end simulated
cycles.  Also covers the content-addressed program cache built on that
guarantee: sweep points differing only in simulator knobs reuse one
compilation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro import obs
from repro.cache import ArtifactCache
from repro.comm import MeshGeometry, TorusGeometry
from repro.config import AzulConfig
from repro.core import map_block
from repro.dataflow import build_pcg_program
from repro.dataflow import program as dataflow_program
from repro.dataflow.lower import lower_kernel
from repro.precond import ic0
from repro.sparse.suite import get_suite_matrix
from tests.oracles.lowering import dense_local_counts, lower_kernel_oracle

CONFIG = AzulConfig(mesh_rows=4, mesh_cols=4)
N_TILES = 16


@pytest.fixture(scope="module")
def mapped(request):
    """Suite matrix + IC(0) factor + 16-tile block placement (memoized)."""
    built = {}

    def get(name):
        if name not in built:
            matrix, b = get_suite_matrix(name, scale=1)
            lower = ic0(matrix)
            built[name] = (matrix, lower, map_block(matrix, lower, N_TILES), b)
        return built[name]

    return get


def _build_pair(monkeypatch, matrix, lower, placement, geometry, multicast):
    """The PCG program lowered by production code and by the oracle."""
    vectorized = build_pcg_program(
        matrix, lower, placement, geometry, multicast=multicast,
    )
    with monkeypatch.context() as patch:
        patch.setattr(dataflow_program, "lower_kernel", lower_kernel_oracle)
        reference = build_pcg_program(
            matrix, lower, placement, geometry, multicast=multicast,
        )
    return vectorized, reference


class TestBitParity:
    """Production and oracle lowering emit byte-identical programs."""

    @pytest.mark.parametrize("name", ["tmt_sym", "offshore", "cant"])
    @pytest.mark.parametrize("geometry", [
        TorusGeometry(4, 4), MeshGeometry(4, 4),
    ], ids=["torus", "mesh"])
    @pytest.mark.parametrize("multicast", ["tree", "unicast"])
    def test_programs_bit_identical(self, monkeypatch, mapped, name,
                                    geometry, multicast):
        matrix, lower, placement, _ = mapped(name)
        vectorized, reference = _build_pair(
            monkeypatch, matrix, lower, placement, geometry, multicast,
        )
        for kernel in ("spmv", "sptrsv_lower", "sptrsv_upper"):
            kv = getattr(vectorized, kernel)
            kr = getattr(reference, kernel)
            assert kv.same_program(kr), (name, kernel, multicast)
            assert kv.total_fmacs == kr.total_fmacs

    def test_identical_end_to_end_cycles(self, monkeypatch, mapped):
        from repro.sim.machine import AzulMachine, verify_iteration

        matrix, lower, placement, b = mapped("tmt_sym")
        machine = AzulMachine(CONFIG)
        vectorized, reference = _build_pair(
            monkeypatch, matrix, lower, placement, machine.torus, "tree",
        )
        result_v = machine.simulate_iteration(vectorized, p=b, r=b)
        result_r = machine.simulate_iteration(reference, p=b, r=b)
        assert result_v.total_cycles == result_r.total_cycles
        assert result_v.vector_cycles == result_r.vector_cycles
        for kv, kr in zip(result_v.kernel_results, result_r.kernel_results):
            assert kv.cycles == kr.cycles
            assert kv.op_counts == kr.op_counts
        verify_iteration(result_v, matrix, lower, b)


@st.composite
def kernel_inputs(draw):
    """Triplets of a small kernel, scattered over a 3x3 torus."""
    n = draw(st.integers(1, 20))
    entries = sorted(draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=60,
    )))
    tiles = draw(st.lists(st.integers(0, 8), min_size=len(entries),
                          max_size=len(entries)))
    vec_tile = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    rows = np.array([i for i, _ in entries], dtype=np.int64)
    cols = np.array([j for _, j in entries], dtype=np.int64)
    return (n, rows, cols, np.arange(1.0, len(entries) + 1.0),
            np.array(tiles, dtype=np.int64), np.array(vec_tile))


class TestCompactCounters:
    """The local FMAC counters grow with the nonzeros, not tiles × rows."""

    @seed(29)
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kernel_inputs(), st.sampled_from(["tree", "unicast"]))
    def test_one_entry_per_tile_row_pair(self, inputs, multicast):
        n, rows, cols, values, tiles, vec_tile = inputs
        geometry = TorusGeometry(3, 3)
        program = lower_kernel("spmv", n, rows, cols, values, tiles,
                               vec_tile, geometry, multicast=multicast)
        pair_tiles = np.repeat(program.local_tiles,
                               np.diff(program.local_ptr))
        pairs = list(zip(pair_tiles.tolist(), program.local_rows.tolist()))
        assert pairs == sorted(set(zip(tiles.tolist(), rows.tolist())))
        assert np.all(program.local_counts > 0)
        assert program.local_counts.sum() == len(rows) == program.total_fmacs
        dense = np.zeros((9, n), dtype=np.int64)
        np.add.at(dense, (tiles, rows), 1)
        assert np.array_equal(dense_local_counts(program),
                              dense[program.local_tiles])
        assert program.same_program(lower_kernel_oracle(
            "spmv", n, rows, cols, values, tiles, vec_tile, geometry,
            multicast=multicast,
        ))


class TestProgramCache:
    """Compiled programs are content-addressed across sweep points."""

    @pytest.fixture(autouse=True)
    def _metrics(self):
        obs.reset()
        obs.enable(metrics=True, tracing=False)
        yield
        obs.disable()
        obs.reset()

    @pytest.fixture()
    def session(self, tmp_path):
        from repro.experiments.common import ExperimentSession

        cache = ArtifactCache(tmp_path / "cache")
        return ExperimentSession(CONFIG, cache=cache)

    @staticmethod
    def _compile_counters():
        counters = obs.snapshot()["counters"]
        return (
            counters.get("compile.requests", 0.0),
            counters.get("compile.builds", 0.0),
            counters.get("compile.cache_hits", 0.0),
        )

    def test_sim_knob_variations_compile_once(self, session):
        for pe in ("azul", "ideal", "dalorex"):
            session.simulate("tmt_sym", mapper="block", pe=pe)
        requests, builds, hits = self._compile_counters()
        assert (requests, builds, hits) == (3.0, 1.0, 2.0)

    def test_compiled_program_roundtrip(self, session):
        placement = session.placement("tmt_sym", "block")
        first = session.compiled_program("tmt_sym", placement)
        second = session.compiled_program("tmt_sym", placement)
        requests, builds, hits = self._compile_counters()
        assert (requests, builds, hits) == (2.0, 1.0, 1.0)
        for kernel in ("spmv", "sptrsv_lower", "sptrsv_upper"):
            assert getattr(second, kernel).same_program(
                getattr(first, kernel)
            )

    def test_multicast_mode_partitions_cache(self, session):
        placement = session.placement("tmt_sym", "block")
        session.compiled_program("tmt_sym", placement, multicast="tree")
        session.compiled_program("tmt_sym", placement, multicast="unicast")
        requests, builds, hits = self._compile_counters()
        assert (requests, builds, hits) == (2.0, 2.0, 0.0)

    def test_disabled_cache_always_builds(self, session, tmp_path):
        from repro.experiments.common import ExperimentSession

        placement = session.placement("tmt_sym", "block")
        uncached = ExperimentSession(
            CONFIG, cache=ArtifactCache(tmp_path / "off", enabled=False),
        )
        uncached.compiled_program("tmt_sym", placement)
        uncached.compiled_program("tmt_sym", placement)
        requests, builds, hits = self._compile_counters()
        assert (requests, builds, hits) == (2.0, 2.0, 0.0)
