"""Mapper registry: the four strategies compared in Sec. VI-C.

Names are known without importing the mappers, so validating a mapper
name does not load the hypergraph partitioner behind ``azul``.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict

#: Mapper name -> module defining ``map_<name>``.
_MODULES = {
    "round_robin": "repro.core.round_robin",
    "block": "repro.core.block",
    "sparsep": "repro.core.sparsep",
    "azul": "repro.core.azul_mapping",
}

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
