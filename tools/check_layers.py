#!/usr/bin/env python
"""Enforce the repo's layer contracts without third-party tools.

The repo's single layer enforcer: it runs in the test suite
(``tests/test_sim_layers.py``) and from the command line with nothing
but the standard library, and checks:

1. **Simulator-core layering** — within ``repro.sim`` the layers
   ``events <- state <- fabric <- issue <- engine`` may only depend
   downward (``engine`` sees everything, ``events`` sees nothing).
2. **Hypergraph layering** — within ``repro.hypergraph`` the layers
   ``hgraph <- metrics <- coarsen <- initial <- refine <- partitioner``
   may only depend downward.
3. **comm independence** — ``repro.comm`` never imports ``repro.sim``
   or ``repro.dataflow`` (geometries, trees, and forests stay
   simulator- and program-agnostic).
4. **dataflow independence** — ``repro.dataflow`` never imports
   ``repro.sim`` (programs are engine-neutral artifacts the simulator
   consumes), and within the package the layers ``ir <- lower <-
   vector_ops <- program`` may only depend downward: ``program`` is
   the one module that builds programs.
5. **hypergraph independence** — ``repro.hypergraph`` never imports
   the simulator, mapping core, experiments, or CLI: the partitioner
   is a leaf library, callers pass options down explicitly.  The
   mapping core (``repro.core``) never imports the simulator either:
   its traffic analysis counts compiled programs, not simulator
   objects.
6. **obs is a leaf** — ``repro.obs`` imports nothing from ``repro``
   outside itself (standard library only), so every layer may
   instrument itself through it without creating cycles.
7. **Sparse-kernel layering** — within ``repro.sparse`` the numeric
   stack layers ``csr <- schedule <- ops`` may only depend downward
   (schedules are built over CSR structure; the level-scheduled
   kernels consume schedules).
8. **Solver-stack layering** — ``sparse <- precond <- solvers``:
   preconditioners sit on the sparse kernels, solvers on both; none of
   the three may import the simulator or the experiment pipeline (the
   functional solver layer is the simulator's validation oracle, so it
   must stay simulator-free).
9. **Experiments layering** — within ``repro.experiments`` the layers
   ``spec <- common <- executor <- [experiment modules] <- runner``
   may only depend downward.  The experiment modules form a *sibling
   group*: they share one layer and none may import another, so every
   experiment stays independently loadable and the executor can plan
   any subset.  The experiments package also never imports the CLI.
10. **Runtime dependencies** — ``repro`` imports nothing outside the
    standard library and itself except numpy, the one entry of
    ``dependencies`` in ``pyproject.toml``.  The sole exception is
    scipy inside ``repro.sparse.convert``, whose ``to_scipy`` /
    ``from_scipy`` interop helpers serve callers that have it.
11. **Process pools live in one module** — no ``repro`` module but
    ``repro.parallel`` imports ``concurrent.futures`` or
    ``multiprocessing``: sweeps spread whole placements and
    simulations over worker processes there, and nothing else starts
    a process.

The scan is purely static (``ast`` over every ``repro`` module);
``from x import y`` and ``import x`` are both resolved, including
relative imports and function-local imports.  Package ``__init__``
modules are exempt from the intra-package layering rule (they are the
public facade and may re-export any layer).  Exit code 0 = contract
holds.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

SRC = Path(__file__).resolve().parent.parent / "src"

#: One layer: a module name, or a list of module names forming a
#: *sibling group* — same rank, mutually independent (no member may
#: import another member).
Layer = Union[str, List[str]]

#: Bottom-up layer order per layered package.  Within a package a
#: module may import only itself and strictly lower layers.
LAYERED_PACKAGES: Dict[str, List[Layer]] = {
    "repro.sim": ["events", "state", "fabric", "issue", "engine"],
    "repro.dataflow": ["ir", "lower", "vector_ops", "program"],
    "repro.hypergraph": [
        "hgraph", "metrics", "coarsen", "initial", "refine",
        "partitioner",
    ],
    "repro.sparse": ["csr", "schedule", "ops"],
    "repro.experiments": [
        "spec",
        "common",
        "executor",
        [  # sibling group: one spec module per experiment id
            "tab4", "fig01", "fig02", "fig03", "tab1", "fig07", "tab2",
            "fig09", "fig10", "fig11", "fig17", "fig20", "fig21",
            "fig22", "fig23", "tabD", "tab5", "fig24", "fig25",
            "fig26", "fig27", "fig28", "tab_fill", "abl_row_weight",
            "abl_quantiles", "abl_partitioner", "abl_threads",
            "abl_buffer", "abl_trees", "tab2_sim", "corr_study",
            "ord_study", "abl_topology", "abl_seed",
            "model_validation", "eff_study",
        ],
        "runner",
    ],
}

#: Leaf packages: their modules may import nothing from ``repro``
#: outside the package itself (standard library / third-party only).
LEAF_PACKAGES: Dict[str, str] = {
    "repro.obs": "obs is the observability leaf every layer may import; "
                 "it must not import any repro layer back",
}

#: Third-party packages every ``repro`` module may import at runtime.
RUNTIME_DEPENDENCIES = ("numpy",)

#: (module, package): the only imports of other third-party packages.
OPTIONAL_IMPORTS = {
    ("repro.sparse.convert", "scipy"),
}

#: Standard-library packages that start worker processes, and the one
#: module that may import them.
POOL_PACKAGES = ("concurrent", "multiprocessing")
POOL_MODULE = "repro.parallel"

#: (importer-prefix, forbidden-import-prefix, reason)
FORBIDDEN: List[Tuple[str, str, str]] = [
    ("repro.comm", "repro.sim",
     "comm is the geometry/tree layer; it must not know the simulator"),
    ("repro.comm", "repro.dataflow",
     "comm sits below dataflow; trees and forests stay program-agnostic"),
    ("repro.dataflow", "repro.sim",
     "dataflow programs are engine-neutral artifacts; the simulator "
     "consumes them, never the reverse"),
    ("repro.sim", "repro.cli",
     "the simulator never reaches into the CLI"),
    ("repro.hypergraph", "repro.sim",
     "the partitioner is a leaf library; it must not know the "
     "simulator"),
    ("repro.hypergraph", "repro.core",
     "the partitioner is below the mapping core, not above it"),
    ("repro.hypergraph", "repro.experiments",
     "the partitioner never reaches into the experiment pipeline"),
    ("repro.hypergraph", "repro.cli",
     "the partitioner never reaches into the CLI"),
    ("repro.core", "repro.sim",
     "the mapping core and its traffic analysis sit below the "
     "simulator"),
    ("repro.sparse", "repro.precond",
     "the sparse substrate sits below the preconditioners"),
    ("repro.sparse", "repro.solvers",
     "the sparse substrate sits below the solvers"),
    ("repro.precond", "repro.solvers",
     "preconditioners are consumed by solvers, never the reverse"),
    ("repro.sparse", "repro.sim",
     "the functional kernels are the simulator's validation oracle; "
     "they must stay simulator-free"),
    ("repro.precond", "repro.sim",
     "preconditioners must stay simulator-free"),
    ("repro.solvers", "repro.sim",
     "the functional solvers are the simulator's validation oracle; "
     "they must stay simulator-free"),
    ("repro.sparse", "repro.experiments",
     "the solver stack never reaches into the experiment pipeline"),
    ("repro.precond", "repro.experiments",
     "the solver stack never reaches into the experiment pipeline"),
    ("repro.solvers", "repro.experiments",
     "the solver stack never reaches into the experiment pipeline"),
    ("repro.experiments", "repro.cli",
     "experiments are a library the CLI drives, never the reverse"),
]


def _module_name(path: Path, src: Path = SRC) -> str:
    rel = path.relative_to(src).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imports(path: Path, module: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, imported_module)`` for every import in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    package_parts = module.split(".")
    if path.name != "__init__.py":
        package_parts = package_parts[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import
                base = package_parts[: len(package_parts) - node.level + 1]
                prefix = ".".join(base)
                target = (
                    f"{prefix}.{node.module}" if node.module else prefix
                )
            else:
                target = node.module or ""
            if target:
                yield node.lineno, target


def _layer_index(layers: List[Layer]) -> Dict[str, int]:
    """Flatten a layer spec into ``module-segment -> rank``."""
    index: Dict[str, int] = {}
    for rank, layer in enumerate(layers):
        for name in ([layer] if isinstance(layer, str) else layer):
            index[name] = rank
    return index


_LAYER_INDEX: Dict[str, Dict[str, int]] = {
    package: _layer_index(layers)
    for package, layers in LAYERED_PACKAGES.items()
}


def _layer(module: str) -> Optional[Tuple[str, int, str]]:
    """``(package, rank, segment)`` of a layered-package module, else None."""
    parts = module.split(".")
    for package, index in _LAYER_INDEX.items():
        package_parts = package.split(".")
        depth = len(package_parts)
        if len(parts) >= depth + 1 and parts[:depth] == package_parts:
            segment = parts[depth]
            rank = index.get(segment)
            return None if rank is None else (package, rank, segment)
    return None


def check(src: Path = SRC) -> List[str]:
    """All layer-contract violations in the tree (empty = clean)."""
    violations: List[str] = []
    for path in sorted(src.rglob("*.py")):
        module = _module_name(path, src)
        importer = None if path.name == "__init__.py" else _layer(module)
        for lineno, target in _imports(path, module):
            where = f"{path.relative_to(src.parent)}:{lineno}"
            # Rule 1/2/9: strict layering inside each layered package.
            target_layer = _layer(target)
            if (importer is not None and target_layer is not None
                    and importer[0] == target_layer[0]):
                package = importer[0]
                if target_layer[1] > importer[1]:
                    violations.append(
                        f"{where}: {module} (layer "
                        f"'{importer[2]}') imports {target} "
                        f"(higher {package} layer "
                        f"'{target_layer[2]}')"
                    )
                elif (target_layer[1] == importer[1]
                        and target_layer[2] != importer[2]):
                    violations.append(
                        f"{where}: {module} imports sibling {target} "
                        f"(same-rank {package} modules must stay "
                        f"independent)"
                    )
            # Rule 3+: forbidden cross-package edges.
            for src_prefix, bad_prefix, reason in FORBIDDEN:
                if (module == src_prefix
                        or module.startswith(src_prefix + ".")) and (
                        target == bad_prefix
                        or target.startswith(bad_prefix + ".")):
                    violations.append(
                        f"{where}: {module} imports {target} ({reason})"
                    )
            # Rule 10: numpy is the only third-party runtime import.
            top = target.split(".")[0]
            if (top != "repro" and top not in sys.stdlib_module_names
                    and top not in RUNTIME_DEPENDENCIES
                    and (module, top) not in OPTIONAL_IMPORTS):
                violations.append(
                    f"{where}: {module} imports {target} (a third-party "
                    f"package outside the runtime dependencies: "
                    f"{', '.join(RUNTIME_DEPENDENCIES)})"
                )
            # Rule 11: only repro.parallel starts worker processes.
            if top in POOL_PACKAGES and module != POOL_MODULE:
                violations.append(
                    f"{where}: {module} imports {target} (process pools "
                    f"live only in {POOL_MODULE})"
                )
            # Leaf packages: no repro import outside the package.
            for package, reason in LEAF_PACKAGES.items():
                if (module == package
                        or module.startswith(package + ".")) and (
                        target.split(".")[0] == "repro"
                        and target != package
                        and not target.startswith(package + ".")):
                    violations.append(
                        f"{where}: {module} imports {target} ({reason})"
                    )
    return violations


def main() -> int:
    violations = check()
    if violations:
        print("layer-contract violations:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    def _render(layer: Layer) -> str:
        if isinstance(layer, str):
            return layer
        return f"[{len(layer)} siblings]"

    summaries = "; ".join(
        f"{package}: {' <- '.join(_render(layer) for layer in layers)}"
        for package, layers in LAYERED_PACKAGES.items()
    )
    print(f"layer contract OK ({summaries}; "
          f"{len(FORBIDDEN)} cross-package rules; "
          f"runtime imports: {', '.join(RUNTIME_DEPENDENCIES)}; "
          f"process pools: {POOL_MODULE}; "
          f"{len(LEAF_PACKAGES)} leaf package(s): "
          f"{', '.join(LEAF_PACKAGES)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
