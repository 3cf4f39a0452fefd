"""Tests for the analytic Azul performance model."""

import numpy as np
import pytest

from repro.comm import TorusGeometry
from repro.config import AzulConfig
from repro.core import analyze_traffic, map_azul, map_round_robin
from repro.hypergraph import PartitionerOptions
from repro.models.azul_analytic import (
    KernelPrediction,
    predict_iteration,
    predict_spmv,
    predict_sptrsv,
)
from repro.precond import ic0
from repro.sim import AzulMachine
from repro.sparse import generators as gen


@pytest.fixture(scope="module")
def operands():
    matrix = gen.random_geometric_fem(70, avg_degree=6, dofs_per_node=1,
                                      seed=31)
    lower = ic0(matrix)
    b = gen.make_rhs(matrix, seed=32)
    return matrix, lower, b


CONFIG = AzulConfig(mesh_rows=4, mesh_cols=4)
TORUS = TorusGeometry(4, 4)


def _predict(matrix, lower, placement):
    traffic = analyze_traffic(placement, matrix, lower, TORUS)
    return predict_iteration(matrix, lower, placement, CONFIG, traffic)


class TestKernelPrediction:
    def test_cycles_is_max_of_bounds_plus_startup(self):
        prediction = KernelPrediction(
            name="spmv", compute_bound=100, network_bound=250,
            critical_path=80, startup=10,
        )
        assert prediction.cycles == 260
        assert prediction.dominant_bound() == "network"

    def test_dominant_bound_labels(self):
        assert KernelPrediction("k", 10, 1, 1, 0).dominant_bound() == \
            "compute"
        assert KernelPrediction("k", 1, 1, 10, 0).dominant_bound() == \
            "dependences"


class TestPredictions:
    def test_spmv_prediction_is_lower_bound_ish(self, operands):
        """The bound model must not exceed ~the simulator and must be
        positive."""
        matrix, lower, b = operands
        placement = map_round_robin(matrix, lower, 16)
        traffic = analyze_traffic(placement, matrix, lower, TORUS)
        prediction = predict_spmv(matrix, placement, TORUS, CONFIG,
                                  kernel_traffic=traffic.kernels[0])
        assert prediction.network_bound == \
            traffic.kernels[0].link_counts.max()
        assert prediction.cycles > 0
        simulated = AzulMachine(CONFIG).simulate_pcg(
            matrix, lower, placement, b
        )
        spmv_sim = simulated.kernel_results[0].cycles
        assert prediction.cycles <= 2.0 * spmv_sim

    def test_sptrsv_has_dependence_bound(self, operands):
        matrix, lower, _ = operands
        placement = map_round_robin(matrix, lower, 16)
        prediction = predict_sptrsv(lower, placement, TORUS, CONFIG)
        assert prediction.critical_path > 0

    def test_iteration_prediction_ranks_mappings(self, operands):
        """The model's purpose: rank mappings without simulating."""
        matrix, lower, _ = operands
        rr = map_round_robin(matrix, lower, 16)
        azul = map_azul(
            matrix, lower, 16, options=PartitionerOptions.speed(seed=7)
        )
        rr_prediction = _predict(matrix, lower, rr)
        azul_prediction = _predict(matrix, lower, azul)
        assert azul_prediction.total_cycles < rr_prediction.total_cycles
        assert azul_prediction.gflops() > rr_prediction.gflops()

    def test_prediction_correlates_with_simulation(self, operands):
        matrix, lower, b = operands
        machine = AzulMachine(CONFIG)
        predicted = []
        simulated = []
        for mapper in (map_round_robin,):
            placement = mapper(matrix, lower, 16)
            predicted.append(_predict(matrix, lower, placement).total_cycles)
            simulated.append(
                machine.simulate_pcg(matrix, lower, placement,
                                     b).total_cycles
            )
        # Single-point sanity: prediction within a small factor.
        assert 0.2 * simulated[0] < predicted[0] < 2.0 * simulated[0]

    def test_flops_match_algorithm(self, operands):
        matrix, lower, _ = operands
        placement = map_round_robin(matrix, lower, 16)
        prediction = _predict(matrix, lower, placement)
        from repro.sparse.ops import spmv_flops, sptrsv_flops

        expected = (
            spmv_flops(matrix) + 2 * sptrsv_flops(lower)
            + 2 * matrix.n_rows * 6
        )
        assert prediction.flops == expected
