"""Fig. 17 analog: temporal load balancing of SpTRSV.

The paper shows that balancing only nonzeros leaves some tiles loaded
with late-dataflow work, creating a long serial tail in the consph
SpTRSV; adding depth-quantile balance constraints (q=5) removes the
tail and yields a 3.5x kernel speedup.  This experiment simulates the
forward SpTRSV of the consph analog with q=0 and q=5 mappings and
reports the issue-timeline plus the speedup.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.comm import make_geometry
from repro.config import AzulConfig
from repro.core.azul_mapping import map_azul
from repro.dataflow import build_sptrsv_program
from repro.experiments.common import ExperimentSession, mapper_options
from repro.experiments.spec import ExperimentPlan, register
from repro.perf import ExperimentResult
from repro.sim.engine import KernelSimulator
from repro.sim.pe import AZUL_PE


def _simulate_sptrsv(prepared, placement, config, torus):
    program = build_sptrsv_program(
        prepared.lower, placement.l_tile, placement.vec_tile, torus
    )
    simulator = KernelSimulator(
        program, torus, config, AZUL_PE, record_issue_trace=True
    )
    return simulator.run(b=prepared.b)


@register("fig17", title="Temporal load balancing of SpTRSV",
          tags=("paper", "figure", "sim"))
def spec(matrix: str = "consph", config: Optional[AzulConfig] = None,
         scale: int = 1, n_buckets: int = 10, q: int = 5,
         jobs: Optional[int] = None) -> ExperimentPlan:
    """Compare nonzero-balanced (q=0) vs time-balanced (q) mappings."""
    session = ExperimentSession(config, scale=scale)

    def reduce(sims) -> ExperimentResult:
        config = session.config
        torus = make_geometry(config)
        prepared = session.prepare(matrix)
        options = mapper_options("speed")

        results = {}
        for label, quantiles in (("nonzero_balanced", 0),
                                 ("time_balanced", q)):
            placement = map_azul(
                prepared.matrix, prepared.lower, config.num_tiles,
                q=quantiles, options=options,
            )
            results[label] = _simulate_sptrsv(
                prepared, placement, config, torus
            )

        result = ExperimentResult(
            experiment="fig17",
            title=(f"SpTRSV issue timeline on {matrix}: "
                   "nonzero vs time balancing"),
            columns=["cycle_bucket", "nonzero_balanced", "time_balanced"],
        )
        horizon = max(r.cycles for r in results.values())
        edges = np.linspace(0, horizon, n_buckets + 1)
        histograms = {
            label: np.histogram(
                np.array([entry[0] for entry in r.issue_trace]), bins=edges
            )[0]
            for label, r in results.items()
        }
        for bucket in range(n_buckets):
            result.add_row(
                cycle_bucket=(
                    f"{int(edges[bucket])}-{int(edges[bucket + 1])}"
                ),
                nonzero_balanced=int(
                    histograms["nonzero_balanced"][bucket]
                ),
                time_balanced=int(histograms["time_balanced"][bucket]),
            )
        speedup = (
            results["nonzero_balanced"].cycles
            / max(results["time_balanced"].cycles, 1)
        )
        result.extras = {
            "speedup": speedup,
            "nonzero_balanced_cycles": results["nonzero_balanced"].cycles,
            "time_balanced_cycles": results["time_balanced"].cycles,
        }
        result.notes = (
            f"Time balancing (q={q}) speeds up this SpTRSV by "
            f"{speedup:.2f}x (paper: 3.5x on consph, Fig. 17); the "
            "timeline shows the long tail of late issues shrinking."
        )
        return result

    return ExperimentPlan(session=session, reduce=reduce)


def run(matrix: str = "consph", config: Optional[AzulConfig] = None,
        scale: int = 1, n_buckets: int = 10, q: int = 5,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Compare nonzero-balanced (q=0) vs time-balanced (q) mappings."""
    return spec.run(jobs=jobs, matrix=matrix, config=config, scale=scale,
                    n_buckets=n_buckets, q=q)


def main():
    print(run())


if __name__ == "__main__":
    main()
