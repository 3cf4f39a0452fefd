"""Workload table and seeded input generation of the pipeline benchmark.

A workload is one runner invocation (experiment ids, ``--jobs``) plus
the cache state it starts from.  Every workload of one seed runs on the
same six matrices.  They are scaled-down analogs of the paper's six
``REPRESENTATIVE`` suite matrices, built with the same generators and
families: a band, two 3-DOF meshes, a 2-DOF mesh, a 2D grid and a 3D
grid.  Seed 0 reuses the suite's own generator seeds, so it is the
miniature of ``REPRESENTATIVE``.  Every other seed draws fresh
generator seeds and grid shapes from ``numpy.random.default_rng(seed)``;
these are held-out inputs.  The sizes are fixed, so the work of a run
is nearly the same for every seed (see README.md, "Inputs").

The matrices are registered in ``repro.sparse.suite`` of the child
process (see ``child.py``) and reach the runner by name through
``--matrices``, like any suite matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Environment variable carrying the workload seed into child processes.
SEED_ENV = "PIPELINE_BENCH_SEED"

#: (analog of, generator, fixed keyword arguments, suite generator seed).
#: Grids take no seed; their shape is drawn instead (see ``draw``).
RECIPES: Tuple[Tuple[str, str, dict, Optional[int]], ...] = (
    ("crankseg_1", "banded_spd",
     {"n": 130, "half_bandwidth": 8, "density": 0.7}, 4),
    ("m_t1", "random_geometric_fem",
     {"n_points": 24, "avg_degree": 8, "dim": 3, "dofs_per_node": 3}, 5),
    ("shipsec1", "random_geometric_fem",
     {"n_points": 24, "avg_degree": 7, "dim": 3, "dofs_per_node": 3}, 6),
    ("consph", "random_geometric_fem",
     {"n_points": 50, "avg_degree": 9, "dim": 3, "dofs_per_node": 2}, 10),
    ("thermal2", "grid_laplacian_2d", {}, None),
    ("apache2", "grid_laplacian_3d", {}, None),
)

#: Grid sizes (rows) the drawn shapes approximate, and the seed-0 shapes.
GRID_2D_ROWS, GRID_2D_SEED0 = 400, (20, 20)
GRID_3D_ROWS, GRID_3D_SEED0 = 343, (7, 7, 7)


@dataclass(frozen=True)
class MatrixSpec:
    """One generated input matrix: its suite name and generator call."""

    name: str
    analog: str
    generator: str
    kwargs: Dict[str, object]

    def build(self):
        from repro.sparse import generators

        return getattr(generators, self.generator)(**self.kwargs)


def draw(seed: int) -> List[MatrixSpec]:
    """The six input matrices of ``seed`` (deterministic)."""
    rng = np.random.default_rng(seed)
    specs = []
    for analog, generator, fixed, suite_seed in RECIPES:
        kwargs = dict(fixed)
        if generator == "grid_laplacian_2d":
            if seed == 0:
                nx, ny = GRID_2D_SEED0
            else:
                nx = int(rng.integers(16, 26))
                ny = round(GRID_2D_ROWS / nx)
            kwargs.update(nx=nx, ny=ny)
        elif generator == "grid_laplacian_3d":
            if seed == 0:
                nx, ny, nz = GRID_3D_SEED0
            else:
                nx, ny = (int(v) for v in rng.integers(6, 9, size=2))
                nz = round(GRID_3D_ROWS / (nx * ny))
            kwargs.update(nx=nx, ny=ny, nz=nz)
        else:
            kwargs["seed"] = (suite_seed if seed == 0
                              else int(rng.integers(1, 2**31)))
        specs.append(MatrixSpec(f"{analog}.s{seed}", analog, generator,
                                kwargs))
    return specs


def matrix_names(seed: int) -> List[str]:
    return [spec.name for spec in draw(seed)]


def register(seed: int) -> None:
    """Add the seed's matrices to this process's suite registry.

    The runner accepts only suite names, and the suite has no public
    registration call, so the entries go into its two private tables.
    """
    from repro.sparse import suite

    for spec in draw(seed):
        if spec.name in suite._BY_NAME:
            continue
        entry = suite.SuiteMatrix(
            spec.name, spec.analog, f"benchmark analog of {spec.analog}",
            "small", lambda scale, spec=spec: spec.build(),
        )
        suite._SUITE.append(entry)
        suite._BY_NAME[spec.name] = entry


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (why each exists: README.md, BENCHMARK.json).

    ``setup`` names how the cache is prepared before each timed rep:
    ``plan`` (an empty cache; the set-up is the ``--plan`` dry run that
    confirms the point counts), ``placements`` (a cache holding only
    the Azul placements) or ``warm`` (a cache filled by one cold serial
    run of the same experiments).
    """

    name: str
    experiments: Tuple[str, ...]
    jobs: int
    setup: str
    #: Expected ``--plan`` totals: (points, globally unique points).
    plan_points: Optional[Tuple[int, int]] = None


CORE_SET = ("fig21", "fig22")
SWEEP_SET = ("fig25", "fig26", "fig27")

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("cold_map", CORE_SET, 1, "plan", plan_points=(12, 6)),
        Workload("cold_parallel", CORE_SET, 2, "plan", plan_points=(12, 6)),
        Workload("sim_sweep", SWEEP_SET, 1, "placements"),
        Workload("warm_replay", CORE_SET + SWEEP_SET, 1, "warm"),
    )
}
