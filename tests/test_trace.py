"""Tests for the Chrome-trace export of simulator issue traces."""

import dataclasses

import numpy as np
import pytest

from repro.comm import TorusGeometry
from repro.config import AzulConfig
from repro.core import map_round_robin
from repro.dataflow import build_spmv_program
from repro.precond import ic0
from repro.sim import AZUL_PE, KernelSimulator
from repro.sim.trace import chrome_trace_events
from repro.sparse import generators as gen


@pytest.fixture(scope="module")
def traced_result():
    matrix = gen.random_spd(50, nnz_per_row=5, seed=41)
    lower = ic0(matrix)
    placement = map_round_robin(matrix, lower, 16)
    torus = TorusGeometry(4, 4)
    config = AzulConfig(mesh_rows=4, mesh_cols=4)
    program = build_spmv_program(
        matrix, placement.a_tile, placement.vec_tile, torus
    )
    return KernelSimulator(
        program, torus, config, AZUL_PE, record_issue_trace=True
    ).run(x=np.ones(50))


class TestChromeTraceEvents:
    def test_events_schema(self, traced_result):
        result = traced_result
        events = chrome_trace_events(result, pid=7)
        summary, ops = events[0], events[1:]
        assert summary["ph"] == "X"
        assert summary["pid"] == 7
        assert summary["args"]["kernel"] == result.name
        assert summary["args"]["cycles"] == result.cycles
        assert ops
        for event in ops:
            assert event["ph"] == "X"
            assert event["cat"] == "issue"
            assert event["pid"] == 7
            assert 0 <= event["tid"] < 16
            assert 0 <= event["ts"] <= result.cycles

    def test_event_cap_downsamples(self, traced_result):
        capped = chrome_trace_events(traced_result, pid=1, cap=10)
        assert len(capped) - 1 <= 10
        assert capped[0]["args"]["issue_events_dropped"] > 0

    def test_requires_trace(self, traced_result):
        untraced = dataclasses.replace(traced_result, issue_trace=None)
        with pytest.raises(ValueError):
            chrome_trace_events(untraced, pid=1)

    def test_requires_n_tiles(self, traced_result):
        unsized = dataclasses.replace(traced_result, n_tiles=None)
        with pytest.raises(ValueError, match="n_tiles"):
            chrome_trace_events(unsized, pid=1)
