"""Extension: spatial correlation vs position-based mapping quality.

Tests Sec. VI-C's explanatory claim directly: position-based mappings
(Block) approach Azul's traffic only on spatially correlated patterns;
on uncorrelated patterns their traffic blows up.  Reports, per matrix,
the spatial-correlation metric and the Block/Azul traffic ratio, and
their rank correlation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.comm import make_geometry
from repro.config import AzulConfig
from repro.core.traffic import analyze_traffic
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.perf import ExperimentResult
from repro.sparse.analysis import spatial_correlation


@register("corr_study", title="Spatial correlation vs Block mapping",
          tags=("extension", "study", "analytic"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1, jobs: Optional[int] = None) -> ExperimentPlan:
    """Correlate pattern structure with Block-mapping effectiveness."""
    matrices = list(
        matrices or (default_matrices() + ["G3_circuit", "tmt_sym"])
    )
    session = ExperimentSession(config, scale=scale)

    def reduce(sims) -> ExperimentResult:
        config = session.config
        torus = make_geometry(config)
        result = ExperimentResult(
            experiment="corr_study",
            title="Spatial correlation vs Block-mapping traffic penalty",
            columns=["matrix", "correlation", "block_vs_azul_traffic"],
        )
        for name in matrices:
            prepared = session.prepare(name)
            correlation = spatial_correlation(prepared.matrix)
            block = session.placement(name, "block")
            azul = session.placement(name, "azul")
            block_traffic = analyze_traffic(
                block, prepared.matrix, prepared.lower, torus
            ).total_link_activations
            azul_traffic = analyze_traffic(
                azul, prepared.matrix, prepared.lower, torus
            ).total_link_activations
            result.add_row(
                matrix=name,
                correlation=correlation,
                block_vs_azul_traffic=(
                    block_traffic / max(azul_traffic, 1)
                ),
            )
        correlations = np.array(result.column("correlation"))
        penalties = np.array(result.column("block_vs_azul_traffic"))
        # Spearman rank correlation between structure and Block's penalty.
        rank_a = np.argsort(np.argsort(correlations)).astype(float)
        rank_b = np.argsort(np.argsort(-penalties)).astype(float)
        if np.std(rank_a) > 0 and np.std(rank_b) > 0:
            spearman = float(np.corrcoef(rank_a, rank_b)[0, 1])
        else:
            spearman = 0.0
        result.extras = {"spearman": spearman}
        result.notes = (
            f"Rank correlation between spatial correlation and Block's "
            f"traffic penalty: {spearman:+.2f} (positive = more "
            "correlated patterns suffer less from position-based "
            "mapping, Sec. VI-C's claim). Note: the coloring permutation "
            "itself scrambles correlation, which is partly why Azul's "
            "pattern-aware mapping is needed after the parallelism "
            "preprocessing."
        )
        return result

    return ExperimentPlan(session=session, reduce=reduce)


def run(matrices=None, config: Optional[AzulConfig] = None,
        scale: int = 1, jobs: Optional[int] = None) -> ExperimentResult:
    """Correlate pattern structure with Block-mapping effectiveness."""
    return spec.run(jobs=jobs, matrices=matrices, config=config,
                    scale=scale)


def main():
    print(run())


if __name__ == "__main__":
    main()
