"""Static traffic counted from compiled programs.

:func:`repro.core.traffic.analyze_traffic` counts the forests of the
compiled kernels; the oracle (:mod:`tests.oracles.traffic`) re-derives
every column's and row's tile set and builds one tree at a time.  The
two must agree field for field on generated systems, every mapper and
every small torus and mesh.  The experiments count over the program
the session's ``programs`` cache holds, so a rerun compiles nothing.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro import obs
from repro.cache import ArtifactCache
from repro.comm import MeshGeometry, TorusGeometry
from repro.config import AzulConfig
from repro.core import analyze_traffic, get_mapper
from repro.core.traffic import kernel_traffic
from repro.dataflow import build_pcg_program
from repro.errors import MatrixFormatError, SingularMatrixError
from repro.hypergraph import PartitionerOptions
from repro.precond import ic0
from repro.sim import AzulMachine
from repro.sparse import generators as gen
from repro.sparse.csr import CSRMatrix
from tests.oracles.traffic import analyze_traffic_oracle
from tests.test_properties import spd_like_matrices

MAPPERS = ("round_robin", "block", "sparsep", "azul")


def _place(mapper: str, matrix, lower, n_tiles: int):
    if mapper == "azul":
        return get_mapper(mapper)(
            matrix, lower, n_tiles,
            options=PartitionerOptions.speed(seed=0),
        )
    return get_mapper(mapper)(matrix, lower, n_tiles)


def _assert_same_report(report, expected):
    assert report.mapper == expected.mapper
    assert len(report.kernels) == len(expected.kernels)
    for got, want in zip(report.kernels, expected.kernels):
        assert got.name == want.name
        assert got.multicast_messages == want.multicast_messages
        assert got.reduction_messages == want.reduction_messages
        assert got.link_activations == want.link_activations
        assert np.array_equal(got.link_ids, want.link_ids)
        assert np.array_equal(got.link_counts, want.link_counts)
        assert got.link_ids.dtype == got.link_counts.dtype == np.int32


@st.composite
def mapped_systems(draw):
    """A small SPD system mapped by one mapper onto a small NoC."""
    matrix = draw(spd_like_matrices(max_dim=30))
    lower = ic0(matrix)
    geometry_cls = draw(st.sampled_from([TorusGeometry, MeshGeometry]))
    geometry = geometry_cls(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    mapper = draw(st.sampled_from(MAPPERS))
    placement = _place(mapper, matrix, lower, geometry.n_tiles)
    return placement, matrix, lower, geometry


@seed(2028)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mapped_systems())
def test_generated_traffic_matches_oracle(case):
    placement, matrix, lower, geometry = case
    _assert_same_report(
        analyze_traffic(placement, matrix, lower, geometry),
        analyze_traffic_oracle(placement, matrix, lower, geometry),
    )


@pytest.mark.parametrize("geometry", [
    TorusGeometry(1, 1), TorusGeometry(2, 2), MeshGeometry(3, 2),
    TorusGeometry(8, 8), MeshGeometry(8, 8),
], ids=["torus1x1", "torus2x2", "mesh3x2", "torus8x8", "mesh8x8"])
@pytest.mark.parametrize("mapper", MAPPERS)
def test_grid_traffic_matches_oracle(mapper, geometry):
    matrix = gen.grid_laplacian_2d(12, 12)
    lower = ic0(matrix)
    placement = _place(mapper, matrix, lower, geometry.n_tiles)
    _assert_same_report(
        analyze_traffic(placement, matrix, lower, geometry),
        analyze_traffic_oracle(placement, matrix, lower, geometry),
    )


def test_rejects_a_factor_the_solve_rejects():
    """The analysis compiles L, so it takes only what SpTRSV takes."""
    matrix = gen.grid_laplacian_2d(4, 4)
    lower = ic0(matrix)
    placement = _place("block", matrix, lower, 4)
    geometry = TorusGeometry(2, 2)
    with pytest.raises(MatrixFormatError):
        analyze_traffic(placement, matrix, lower.transpose(), geometry)
    rows = np.repeat(np.arange(lower.n_rows), lower.row_nnz())
    data = lower.data.copy()
    data[np.flatnonzero(lower.indices == rows)[0]] = 0.0
    singular = CSRMatrix(lower.indptr, lower.indices, data, lower.shape)
    with pytest.raises(SingularMatrixError):
        analyze_traffic(placement, matrix, singular, geometry)


@pytest.mark.parametrize("multicast", ["tree", "unicast"])
def test_simulated_links_are_the_static_count(multicast):
    """Each tree edge carries one flit per kernel run, so the simulator's
    per-link arrays equal the static count, id for id."""
    matrix = gen.grid_laplacian_2d(8, 8)
    lower = ic0(matrix)
    machine = AzulMachine(AzulConfig(mesh_rows=4, mesh_cols=4))
    placement = _place("round_robin", matrix, lower, 16)
    program = build_pcg_program(matrix, lower, placement, machine.torus,
                                multicast=multicast)
    b = np.ones(matrix.n_rows)
    result = machine.simulate_iteration(program, p=b, r=b)
    for kernel, simulated in zip(program.kernels, result.kernel_results):
        static = kernel_traffic(kernel, 16)
        assert np.array_equal(simulated.link_ids, static.link_ids)
        assert np.array_equal(simulated.link_counts, static.link_counts)
        assert simulated.link_ids.dtype == static.link_ids.dtype
        assert simulated.link_counts.dtype == static.link_counts.dtype
        assert simulated.link_activations == static.link_activations


# ----------------------------------------------------------------------
# The experiments' path: counted over the cached program
# ----------------------------------------------------------------------
@pytest.fixture()
def metrics():
    obs.reset()
    obs.enable(metrics=True, tracing=False)
    yield lambda: obs.snapshot()
    obs.disable()
    obs.reset()


def test_session_traffic_counts_the_cached_program(tmp_path, metrics):
    from repro.experiments.common import ExperimentSession

    config = AzulConfig(mesh_rows=4, mesh_cols=4)
    session = ExperimentSession(
        config, cache=ArtifactCache(tmp_path / "cache"),
    )
    prepared = session.prepare("tmt_sym")
    placement = session.placement("tmt_sym", "block", 16)
    session.simulate("tmt_sym", mapper="block")
    report = session.traffic("tmt_sym", placement)
    expected = analyze_traffic_oracle(
        placement, prepared.matrix, prepared.lower,
        TorusGeometry(4, 4),
    )
    _assert_same_report(report, expected)
    counters = metrics()["counters"]
    # The simulation compiled the program; the analysis reused it.
    assert counters["compile.requests"] == 2
    assert counters["compile.builds"] == 1
    assert counters["compile.cache_hits"] == 1
