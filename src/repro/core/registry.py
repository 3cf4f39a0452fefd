"""Mapper registry: the four strategies compared in Sec. VI-C.

Names and the Azul mapper's defaults are known without importing the
mappers, so validating a mapper name or keying a placement does not
load the hypergraph partitioner behind ``azul``.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict

#: Mapper name -> module defining ``map_<name>``.
_MODULES = {
    "round_robin": "repro.core.round_robin",
    "block": "repro.core.block",
    "sparsep": "repro.core.sparsep",
    "azul": "repro.core.azul_mapping",
}

#: The ``azul`` mapper's knobs and their defaults: the partitioner
#: seed, the temporal balance quantiles (Sec. IV-C uses q = 5) and the
#: weight of row (reduction) edges relative to column edges.
AZUL_DEFAULTS: Dict[str, Any] = {"seed": 0, "q": 5, "row_weight": 2.0}

#: Name -> mapper callable ``(matrix, lower, n_tiles, **kwargs) -> Placement``.
#: It imports every mapper, so :func:`__getattr__` builds it on first use.
MAPPERS: Dict[str, Callable]


def mapper_names() -> list:
    """Names of all registered mappers."""
    return sorted(_MODULES)


def get_mapper(name: str) -> Callable:
    """Look up a mapper by name, importing its module on first use."""
    try:
        module = _MODULES[name]
    except KeyError:
        raise KeyError(
            f"unknown mapper {name!r}; choices: {mapper_names()}"
        ) from None
    return getattr(importlib.import_module(module), f"map_{name}")


def __getattr__(name: str):
    if name != "MAPPERS":
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    global MAPPERS
    MAPPERS = {key: get_mapper(key) for key in _MODULES}
    return MAPPERS
