"""Shared benchmark configuration.

Each benchmark regenerates one paper artifact (see DESIGN.md's
experiment index) and asserts its qualitative shape.  Simulation-heavy
benchmarks run on a reduced matrix subset; expensive placements are
cached on disk (``.cache/placements``), so the first run pays the
mapping cost and later runs are fast.

Run:  pytest benchmarks/ --benchmark-only
"""

import pytest

#: Reduced subset spanning the parallelism spectrum: low (crankseg_1),
#: medium (consph), high (thermal2).
SMALL_SUBSET = ["crankseg_1", "consph", "thermal2"]


@pytest.fixture(scope="session")
def subset():
    return list(SMALL_SUBSET)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
