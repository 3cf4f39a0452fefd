"""Ablation: incoming-message buffer size (Sec. V-A, last paragraph).

"Each tile contains a small register-based buffer for storing incoming
messages.  To avoid deadlocks, if the buffer becomes full, additional
incoming messages are spilled to the Data SRAM."  This ablation sweeps
the buffer size, reporting spill counts and the cycle cost of the
spill round-trips.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession
from repro.experiments.spec import ExperimentPlan, register
from repro.parallel import SimPoint
from repro.perf import ExperimentResult


@register("abl_buffer", title="Incoming-message buffer size sweep",
          tags=("extension", "ablation", "sim", "sweep"))
def spec(matrix: str = "consph", config: Optional[AzulConfig] = None,
         scale: int = 1, buffer_sizes=(2, 4, 16, 64, 256)) -> ExperimentPlan:
    """Sweep the per-tile message-buffer capacity on one matrix."""
    session = ExperimentSession(config, scale=scale)
    config = session.config

    sizes = list(reversed(sorted(buffer_sizes)))
    points = {
        f"buf{entries}": SimPoint(
            matrix, config=config.with_(msg_buffer_entries=entries),
        )
        for entries in sizes
    }

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="abl_buffer",
            title=f"Message-buffer size sweep on {matrix}",
            columns=["buffer_entries", "spills", "cycles", "slowdown"],
        )
        baseline = None
        for entries in sizes:
            timing = sims[f"buf{entries}"]
            spills = sum(k.spills for k in timing.kernel_results)
            if baseline is None:
                baseline = timing.total_cycles
            result.add_row(
                buffer_entries=entries,
                spills=spills,
                cycles=timing.total_cycles,
                slowdown=timing.total_cycles / baseline,
            )
        result.extras = {
            "max_slowdown": max(result.column("slowdown")),
            "max_spills": max(result.column("spills")),
        }
        result.notes = (
            "Tiny buffers spill heavily to the Data SRAM but degrade "
            "gracefully (no deadlock) — the paper's overflow design "
            "point."
        )
        return result

    return ExperimentPlan(session=session, points=points, reduce=reduce)
