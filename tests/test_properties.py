"""Property-based tests (hypothesis) for core data structures and
invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.comm import MeshGeometry, TorusGeometry
from repro.comm.routing import route_edges_batch
from repro.core.quantiles import depth_quantile_weights
from repro.graph import greedy_coloring, inverse_permutation, symmetric_permute
from repro.graph.coloring import validate_coloring
from repro.hypergraph import Hypergraph, connectivity_cut, partition
from repro.hypergraph import PartitionerOptions
from repro.perf import gmean
from repro.sparse import COOMatrix, coo_to_csc, coo_to_csr, csr_to_csc
from repro.sparse.ops import level_sptrsv_lower
from tests.oracles.trees import build_multicast_tree, grid_neighbors


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def coo_matrices(draw, max_dim=12, max_nnz=40):
    """Random COO matrices (possibly with duplicate coordinates)."""
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(st.lists(st.integers(0, n_rows - 1),
                         min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n_cols - 1),
                         min_size=nnz, max_size=nnz))
    data = draw(st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=nnz, max_size=nnz,
    ))
    return COOMatrix(rows, cols, data, (n_rows, n_cols))


@st.composite
def spd_like_matrices(draw, max_dim=10):
    """Small symmetric diagonally-dominant matrices (SPD)."""
    n = draw(st.integers(2, max_dim))
    density = draw(st.floats(0.1, 0.6))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    values = rng.standard_normal((n, n)) * mask
    sym = (values + values.T) / 2
    np.fill_diagonal(sym, np.abs(sym).sum(axis=1) + 1.0)
    return coo_to_csr(COOMatrix.from_dense(sym))


# ----------------------------------------------------------------------
# Sparse formats
# ----------------------------------------------------------------------
class TestSparseProperties:
    @given(coo_matrices())
    @settings(max_examples=50, deadline=None)
    def test_csr_roundtrip_preserves_dense(self, coo):
        assert np.allclose(coo_to_csr(coo).to_dense(), coo.to_dense())

    @given(coo_matrices())
    @settings(max_examples=50, deadline=None)
    def test_csc_equals_csr(self, coo):
        assert np.allclose(
            coo_to_csc(coo).to_dense(), coo_to_csr(coo).to_dense()
        )

    @given(coo_matrices(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_spmv_matches_dense(self, coo, seed):
        csr = coo_to_csr(coo)
        x = np.random.default_rng(seed).standard_normal(csr.n_cols)
        assert np.allclose(csr.spmv(x), csr.to_dense() @ x)

    @given(coo_matrices())
    @settings(max_examples=50, deadline=None)
    def test_transpose_involution(self, coo):
        csr = coo_to_csr(coo)
        assert csr.transpose().transpose().allclose(csr)

    @given(coo_matrices())
    @settings(max_examples=50, deadline=None)
    def test_csr_csc_spmv_agree(self, coo):
        csr = coo_to_csr(coo)
        csc = csr_to_csc(csr)
        x = np.ones(csr.n_cols)
        assert np.allclose(csr.spmv(x), csc.spmv(x))


class TestTriangularSolveProperties:
    @given(spd_like_matrices(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sptrsv_inverts_lower_product(self, matrix, seed):
        """For any SPD-like matrix: L @ level_sptrsv_lower(L, b) == b."""
        lower = matrix.lower_triangle()
        b = np.random.default_rng(seed).standard_normal(lower.n_rows)
        x = level_sptrsv_lower(lower, b)
        assert np.allclose(lower.to_dense() @ x, b, atol=1e-8)


# ----------------------------------------------------------------------
# Graph preprocessing
# ----------------------------------------------------------------------
class TestGraphProperties:
    @given(spd_like_matrices())
    @settings(max_examples=30, deadline=None)
    def test_coloring_always_valid(self, matrix):
        colors = greedy_coloring(matrix)
        assert validate_coloring(matrix, colors)
        assert colors.min() >= 0

    @given(spd_like_matrices(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_permutation_preserves_spectrum_proxy(
        self, matrix, seed
    ):
        """P A P^T has the same multiset of diagonal + row sums."""
        rng = np.random.default_rng(seed)
        perm = rng.permutation(matrix.n_rows)
        permuted = symmetric_permute(matrix, perm)
        assert np.allclose(
            np.sort(permuted.diagonal()), np.sort(matrix.diagonal())
        )
        assert permuted.nnz == matrix.nnz

    @given(st.integers(2, 50), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_inverse_permutation_property(self, n, seed):
        perm = np.random.default_rng(seed).permutation(n)
        inv = inverse_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(n))


# ----------------------------------------------------------------------
# Communication
# ----------------------------------------------------------------------
class TestCommProperties:
    @given(st.sampled_from([TorusGeometry, MeshGeometry]),
           st.integers(1, 8), st.integers(1, 8),
           st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                    min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_route_is_minimal(self, geometry_cls, rows, cols, pairs):
        """Every routed path is a minimal walk over grid links."""
        geometry = geometry_cls(rows, cols)
        srcs = [a % geometry.n_tiles for a, _ in pairs]
        dsts = [b % geometry.n_tiles for _, b in pairs]
        edge_ptr, parents, children = route_edges_batch(geometry, srcs,
                                                        dsts)
        for p, (src, dst) in enumerate(zip(srcs, dsts)):
            lo, hi = edge_ptr[p], edge_ptr[p + 1]
            assert hi - lo == geometry.hop_distance(src, dst)
            walk = [src] + children[lo:hi].tolist()
            assert parents[lo:hi].tolist() == walk[:-1]
            assert walk[-1] == dst
            for a, b in zip(walk, walk[1:]):
                assert b in grid_neighbors(geometry, a)

    @given(st.integers(3, 8), st.integers(3, 8),
           st.lists(st.integers(0, 63), min_size=1, max_size=10),
           st.integers(0, 63))
    @settings(max_examples=50, deadline=None)
    def test_multicast_tree_is_a_tree(self, rows, cols, dests, root):
        """Tree property: edge count == node count - 1, all dests reached."""
        torus = TorusGeometry(rows, cols)
        root = root % torus.n_tiles
        dests = sorted({d % torus.n_tiles for d in dests} - {root})
        tree = build_multicast_tree(torus, root, dests)
        nodes = {root}
        for parent, child in tree.edges:
            nodes.add(parent)
            nodes.add(child)
        if dests:
            assert len(tree.edges) == len(nodes) - 1
            assert set(dests) <= nodes
        else:
            assert not tree.edges


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartitionProperties:
    @given(st.integers(8, 30), st.integers(1, 8),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_partition_assignment_in_range(self, n, parts, seed):
        rng = np.random.default_rng(seed)
        edges = [
            [int(rng.integers(n)), int(rng.integers(n))] for _ in range(2 * n)
        ]
        edges = [e for e in edges if e[0] != e[1]]
        hg = Hypergraph(n, edges)
        assignment = partition(
            hg, parts, PartitionerOptions.speed(seed=seed % 1000)
        )
        assert len(assignment) == n
        assert assignment.min() >= 0
        assert assignment.max() < parts

    @given(st.integers(10, 25), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_connectivity_cut_bounds(self, n, seed):
        """0 <= cut(assignment) <= sum((|e|-1) * w_e)."""
        rng = np.random.default_rng(seed)
        edges = [
            list(rng.integers(0, n, rng.integers(2, 5))) for _ in range(n)
        ]
        hg = Hypergraph(n, edges)
        assignment = rng.integers(0, 4, n)
        cut = connectivity_cut(hg, assignment)
        upper = sum(
            (len(np.unique(hg.edge_pins(e))) - 1) * hg.edge_weights[e]
            for e in range(hg.n_edges)
        )
        assert 0 <= cut <= upper + 1e-9


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetricProperties:
    @given(st.lists(st.floats(0.1, 100), min_size=1, max_size=20),
           st.floats(0.1, 10))
    @settings(max_examples=50, deadline=None)
    def test_gmean_scaling(self, values, c):
        assert np.isclose(gmean([c * v for v in values]), c * gmean(values))

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200),
           st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_quantile_weights_are_one_hot_and_balanced(self, depths, q):
        weights = depth_quantile_weights(np.array(depths), q=q)
        assert np.allclose(weights.sum(axis=1), 1.0)
        counts = weights.sum(axis=0)
        assert counts.max() - counts.min() <= np.ceil(len(depths) / q)


# ----------------------------------------------------------------------
# Simulator end-to-end invariants
# ----------------------------------------------------------------------
class TestSimulatorProperties:
    @given(spd_like_matrices(max_dim=8), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_placements_never_change_spmv(self, matrix, seed):
        """For ANY placement of ANY matrix, the simulated SpMV equals
        the reference — the placement only affects timing."""
        from repro.comm import TorusGeometry
        from repro.config import AzulConfig
        from repro.dataflow import build_spmv_program
        from repro.sim import AZUL_PE, KernelSimulator

        rng = np.random.default_rng(seed)
        n_tiles = 4
        torus = TorusGeometry(2, 2)
        config = AzulConfig(mesh_rows=2, mesh_cols=2)
        a_tile = rng.integers(0, n_tiles, matrix.nnz)
        vec_tile = rng.integers(0, n_tiles, matrix.n_rows)
        program = build_spmv_program(matrix, a_tile, vec_tile, torus)
        x = rng.standard_normal(matrix.n_rows)
        result = KernelSimulator(program, torus, config, AZUL_PE).run(x=x)
        assert np.allclose(result.output, matrix.spmv(x), atol=1e-10)

    @given(spd_like_matrices(max_dim=8), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_placements_never_change_sptrsv(self, matrix, seed):
        from repro.comm import TorusGeometry
        from repro.config import AzulConfig
        from repro.core.placement import Placement, pin_diagonals
        from repro.dataflow import build_sptrsv_program
        from repro.sim import AZUL_PE, KernelSimulator

        rng = np.random.default_rng(seed)
        lower = matrix.lower_triangle()
        torus = TorusGeometry(2, 2)
        config = AzulConfig(mesh_rows=2, mesh_cols=2)
        placement = pin_diagonals(
            Placement(
                n_tiles=4,
                a_tile=rng.integers(0, 4, matrix.nnz),
                l_tile=rng.integers(0, 4, lower.nnz),
                vec_tile=rng.integers(0, 4, matrix.n_rows),
            ),
            lower,
        )
        program = build_sptrsv_program(
            lower, placement.l_tile, placement.vec_tile, torus
        )
        b = rng.standard_normal(matrix.n_rows)
        result = KernelSimulator(program, torus, config, AZUL_PE).run(b=b)
        assert np.allclose(result.output, level_sptrsv_lower(lower, b),
                           atol=1e-8)
