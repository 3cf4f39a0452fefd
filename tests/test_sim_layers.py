"""Unit tests for the layered simulator core and its contracts.

Covers each layer in isolation — event queue determinism (against the
heap oracle, on generated schedules), link serialization, numeric state
bookkeeping — plus the two cross-cutting guarantees:

* the import-layer contract (``tools/check_layers.py``) holds over the
  whole tree, its runtime-dependency rule flags a stray scipy import,
  and its process-pool rule flags a pool outside ``repro.parallel``;
* geometry construction is routed through
  :func:`repro.comm.make_geometry` everywhere, so
  ``AzulConfig(topology="mesh")`` is honored by the CLI, the
  experiments, and the machine (the regression behind the satellite
  bugfix: fig11/abl_quantiles/cli used to hard-code ``TorusGeometry``).
"""

import ast
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import given, seed, settings, strategies as st

from repro.comm import MeshGeometry, TorusGeometry, make_geometry
from repro.config import AzulConfig
from repro.sim.events import (
    EV_MCAST,
    EV_PARTIAL,
    EV_PUMP,
    NEVER,
    EventQueue,
)
from repro.sim.fabric import LinkFabric
from repro.sim.state import KernelState, TileState
from tests.oracles.sim import HeapEventQueue

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------
class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(5, EV_PUMP, "late")
        queue.push(1, EV_PUMP, "early")
        queue.push(3, EV_PUMP, "mid")
        assert [queue.pop()[2] for _ in range(3)] == ["early", "mid", "late"]

    def test_ties_pop_in_push_order(self):
        queue = EventQueue()
        for i in range(10):
            queue.push(7, EV_PUMP, i)
        assert [queue.pop()[2] for _ in range(10)] == list(range(10))

    def test_next_time_and_never(self):
        queue = EventQueue()
        assert queue.next_time() == NEVER
        assert queue.next_time(default=-1) == -1
        queue.push(42, EV_MCAST, None)
        assert queue.next_time() == 42
        assert len(queue) == 1 and bool(queue)

    def test_drain_dispatches_by_kind(self):
        queue = EventQueue()
        queue.push(2, EV_MCAST, "m")
        queue.push(1, EV_PUMP, "p")
        queue.push(3, EV_PARTIAL, "r")
        seen = []
        queue.drain(
            on_pump=lambda payload, t: seen.append(("pump", payload, t)),
            on_mcast=lambda payload, t: seen.append(("mcast", payload, t)),
            on_partial=lambda payload, t: seen.append(("part", payload, t)),
        )
        assert seen == [("pump", "p", 1), ("mcast", "m", 2),
                        ("part", "r", 3)]
        assert not queue

    def test_drain_handlers_may_push(self):
        """Events scheduled by handlers are drained too (cascade)."""
        queue = EventQueue()
        queue.push(0, EV_PUMP, 3)
        fired = []

        def on_pump(payload, time):
            fired.append(time)
            if payload:
                queue.push(time + 1, EV_PUMP, payload - 1)

        queue.drain(on_pump, lambda p, t: None, lambda p, t: None)
        assert fired == [0, 1, 2, 3]

    def test_horizon_while_draining(self):
        """Inside a handler the horizon is the current cycle while its
        bucket still holds events, else the next pending cycle."""
        queue = EventQueue()
        queue.push(4, EV_PUMP, "a")
        queue.push(4, EV_PUMP, "b")
        queue.push(9, EV_PUMP, "c")
        horizons = []

        def on_pump(payload, time):
            horizons.append((payload, queue.next_time()))
            if payload == "b":
                queue.push(4, EV_PUMP, "d")  # same cycle, after "b"
                horizons.append(("b+d", queue.next_time()))

        queue.drain(on_pump, lambda p, t: None, lambda p, t: None)
        assert horizons == [("a", 4), ("b", 9), ("b+d", 4), ("d", 9),
                            ("c", NEVER)]


@st.composite
def cascading_schedules(draw):
    """Initial events plus, per event id, the pushes its handler makes.

    Each push is ``(delay, kind)``: the handler schedules a fresh event
    ``delay`` cycles after the one it handles (``delay = 0`` lands in
    the bucket being drained).  Ids are assigned in push order.
    """
    initial = draw(st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 2)),
        min_size=1, max_size=12,
    ))
    reactions = draw(st.lists(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                 max_size=3),
        min_size=1, max_size=40,
    ))
    return initial, reactions


def _dispatch_order(queue, schedule):
    """Replay ``schedule`` on ``queue``; the ``(kind, id, time)`` log."""
    initial, reactions = schedule
    log = []
    next_id = [0]

    def push(time, kind):
        queue.push(time, kind, next_id[0])
        next_id[0] += 1

    def handler(kind):
        def handle(event_id, time):
            log.append((kind, event_id, time))
            if event_id < len(reactions):
                for delay, push_kind in reactions[event_id]:
                    push(time + delay, push_kind)
        return handle

    for time, kind in initial:
        push(time, kind)
    queue.drain(handler(EV_PUMP), handler(EV_MCAST), handler(EV_PARTIAL))
    return log


@seed(1988)
@settings(max_examples=200, deadline=1000)
@given(cascading_schedules())
def test_calendar_matches_heap_on_cascades(schedule):
    """The calendar queue dispatches in the heap's ``(time, seq)`` order,
    including same-cycle pushes made while a bucket drains."""
    assert _dispatch_order(EventQueue(), schedule) \
        == _dispatch_order(HeapEventQueue(), schedule)


# ---------------------------------------------------------------------------
# fabric
# ---------------------------------------------------------------------------
class TestLinkFabric:
    def test_serializes_one_flit_per_cycle(self):
        events = EventQueue()
        fabric = LinkFabric(events, hop_cycles=2, n_tiles=4)
        # Three flits on the same link at the same cycle: departures
        # serialize at t=0,1,2 so arrivals land at 2,3,4.
        for i in range(3):
            fabric.traverse(0 * 4 + 1, 0, EV_MCAST, i)
        arrivals = sorted(events.pop()[0] for _ in range(3))
        assert arrivals == [2, 3, 4]
        assert fabric.queue_delay == 0 + 1 + 2
        assert fabric.link_count() == 3
        ids, counts = fabric.link_arrays()
        assert ids.tolist() == [0 * 4 + 1] and counts.tolist() == [3]
        assert fabric.last_arrival() == 4

    def test_distinct_links_do_not_contend(self):
        events = EventQueue()
        fabric = LinkFabric(events, hop_cycles=1, n_tiles=4)
        fabric.traverse(0 * 4 + 1, 5, EV_PARTIAL, "a")
        fabric.traverse(1 * 4 + 0, 5, EV_PARTIAL, "b")  # opposite direction
        times = sorted(events.pop()[0] for _ in range(2))
        assert times == [6, 6]
        assert fabric.queue_delay == 0
        ids, counts = fabric.link_arrays()
        assert ids.tolist() == [0 * 4 + 1, 1 * 4 + 0]  # sorted by id
        assert counts.tolist() == [1, 1]


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------
def _counters(n, tiles=(), ptr=(0,), rows=(), counts=()):
    """The fields of a compiled kernel that :class:`KernelState` reads."""
    return SimpleNamespace(
        n=n, local_tiles=np.array(tiles, dtype=np.int64),
        local_ptr=np.array(ptr, dtype=np.int64),
        local_rows=np.array(rows, dtype=np.int64),
        local_counts=np.array(counts, dtype=np.int64),
    )


class TestKernelState:
    def test_tile_created_on_first_touch(self):
        state = KernelState(_counters(4), msg_buffer_entries=8,
                            spill_penalty=6)
        assert state.tiles == {}
        tile = state.tile(2)
        assert state.tile(2) is tile
        assert isinstance(tile, TileState)
        # Dummy hazard row: one extra accumulator slot, never written.
        assert len(tile.acc_ready) == 5
        assert tile.local_rem is None

    def test_local_rem_densified_per_tile(self):
        state = KernelState(
            _counters(3, tiles=[1], ptr=[0, 2], rows=[0, 2], counts=[2, 1]),
            8, 6,
        )
        assert state.tile(1).local_rem == [2, 0, 1]
        assert state.tile(0).local_rem is None

    def test_enqueue_spills_after_buffer_fills(self):
        state = KernelState(_counters(2), msg_buffer_entries=2,
                            spill_penalty=6)
        t0 = [10, 3, "p", 0, 0, 0, 2]
        state.enqueue(0, t0)
        state.enqueue(0, [10, 3, "q", 0, 0, 0, 2])
        overflow = [10, 3, "r", 0, 0, 0, 2]
        state.enqueue(0, overflow)
        assert state.spills == 1
        assert t0[0] == 10           # in-buffer task untouched
        assert overflow[0] == 16     # delayed by one SRAM round trip

    def test_op_totals_sums_tiles(self):
        state = KernelState(_counters(2), 8, 6)
        state.tile(0).op_counts = [1, 2, 3, 4]
        state.tile(0).busy = 5
        state.tile(1).op_counts = [10, 0, 0, 1]
        state.tile(1).busy = 7
        totals, busy = state.op_totals()
        assert totals == [11, 2, 3, 5]
        assert busy == 12


# ---------------------------------------------------------------------------
# cross-cutting contracts
# ---------------------------------------------------------------------------
def _check_layers():
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import check_layers
    finally:
        sys.path.pop(0)
    return check_layers


def test_layer_contract_holds():
    """The AST layer checker reports clean."""
    assert _check_layers().check() == []


def test_runtime_imports_no_third_party_but_numpy(tmp_path):
    """scipy is allowed in ``repro.sparse.convert`` and nowhere else."""
    package = tmp_path / "repro" / "sparse"
    package.mkdir(parents=True)
    (package / "convert.py").write_text(
        "import json\nimport numpy as np\nimport scipy.sparse as sps\n")
    (package / "generators.py").write_text(
        "from scipy.spatial import cKDTree\n")
    violations = _check_layers().check(src=tmp_path)
    assert len(violations) == 1
    assert "repro.sparse.generators imports scipy.spatial" in violations[0]


def test_process_pools_only_in_parallel(tmp_path):
    """Only ``repro.parallel`` may import a process pool, even locally."""
    package = tmp_path / "repro" / "hypergraph"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "parallel.py").write_text(
        "from concurrent.futures import ProcessPoolExecutor\n")
    (package / "partitioner.py").write_text(
        "def f():\n"
        "    from concurrent.futures import ProcessPoolExecutor\n")
    violations = _check_layers().check(src=tmp_path)
    assert len(violations) == 1
    assert ("repro.hypergraph.partitioner imports concurrent.futures"
            in violations[0])


def test_core_never_imports_sim(tmp_path):
    """The mapping core, traffic analysis included, sits below ``sim``."""
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "placement.py").write_text(
        "from repro.sparse.csr import CSRMatrix\n")
    (package / "traffic.py").write_text(
        "from repro.dataflow.ir import CompiledKernel\n"
        "def f():\n"
        "    from repro.sim.fabric import LinkFabric\n")
    violations = _check_layers().check(src=tmp_path)
    assert len(violations) == 1
    assert "repro.core.traffic imports repro.sim.fabric" in violations[0]


def test_no_direct_geometry_construction_outside_comm():
    """Everything builds geometries via ``make_geometry(config)``.

    Regression guard for the satellite bugfix: the CLI and several
    experiment modules used to call ``TorusGeometry(rows, cols)``
    directly, silently ignoring ``AzulConfig.topology == "mesh"``.
    """
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[:2] == ("repro", "comm"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", ""))
                if name in ("TorusGeometry", "MeshGeometry"):
                    offenders.append(f"{rel}:{node.lineno}")
    assert offenders == [], (
        "geometry constructed directly (use repro.comm.make_geometry): "
        + ", ".join(offenders)
    )


def test_make_geometry_respects_topology():
    base = dict(mesh_rows=4, mesh_cols=4)
    torus = make_geometry(AzulConfig(**base))
    mesh = make_geometry(AzulConfig(topology="mesh", **base))
    assert isinstance(torus, TorusGeometry)
    assert isinstance(mesh, MeshGeometry)
    # The mesh has no wraparound: corner-to-corner costs more hops.
    assert mesh.hop_distance(0, 15) > torus.hop_distance(0, 15)


def test_machine_fabric_follows_config_topology():
    """The machine compiles and times over the configured geometry."""
    from repro.sim import AzulMachine

    base = dict(mesh_rows=4, mesh_cols=4)
    machine = AzulMachine(AzulConfig(topology="mesh", **base))
    assert isinstance(machine.torus, MeshGeometry)
    assert (machine.torus.rows, machine.torus.cols) == (4, 4)
    assert not hasattr(machine, "fabric")


def test_traffic_analysis_follows_geometry():
    from repro.core import analyze_traffic, map_block
    from repro.precond import ic0
    from repro.sparse import generators as gen

    matrix = gen.grid_laplacian_2d(6, 6)
    lower = ic0(matrix)
    placement = map_block(matrix, lower, 4)
    torus_report = analyze_traffic(placement, matrix, lower,
                                   TorusGeometry(2, 2))
    # The topology changes the routes, not the messages (the bug this
    # guards against silently produced torus numbers for mesh configs).
    mesh_report = analyze_traffic(placement, matrix, lower,
                                  MeshGeometry(2, 2))
    assert mesh_report.total_messages == torus_report.total_messages
    assert mesh_report.kernels[0].name == "spmv"
