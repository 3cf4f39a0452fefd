"""Import-time contracts of the package facades.

``repro``, ``repro.sim``, ``repro.sparse`` and ``repro.core`` resolve
their public names on first use (PEP 562), so plan and warm runs load
only the stages they execute.  These tests pin both halves of that:

* **Parity.**  Every ``__all__`` name of ``repro`` and of each
  subpackage is the very object its defining module holds, in a fresh
  interpreter and in one that imported every submodule first.  The
  second case catches the trap that keeps ``repro.precond``,
  ``repro.solvers`` and ``repro.hypergraph`` eager: importing a
  submodule that shares a public name (``repro.precond.ic0``) binds the
  module over the package attribute.
* **Start-up.**  ``import repro`` loads nothing else, a ``--plan``
  dry run or a warm replay loads none of the compute stages, and a cold
  ``--jobs 1`` run loads no process pool.

Each check runs in a subprocess, so no module this test session already
imported can hide a regression.  Run as a script, this file prints the
parity mismatches as JSON (``--import-all`` imports every submodule
first).
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages (and one module) a plan or warm run must not load.
STAGES = (
    "repro.hypergraph", "repro.sim.engine", "repro.sim.machine",
    "repro.dataflow", "repro.comm", "repro.graph", "repro.precond",
    "repro.solvers", "repro.models", "concurrent.futures.process",
)

#: Prints the ``repro`` modules a runner invocation loaded, as JSON.
RUNNER_SCRIPT = r"""
import json, sys
from repro.experiments.runner import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


# ----------------------------------------------------------------------
# Parity (runs in the subprocess)
# ----------------------------------------------------------------------
def _origins(package) -> dict:
    """Public name -> module the facade takes it from.

    A lazy facade declares this in ``_EXPORTS``; an eager one in its
    ``from … import …`` lines.  A name with neither is defined in the
    package itself.
    """
    exports = vars(package).get("_EXPORTS")
    if exports is not None:
        return {name: module for module, names in exports.items()
                for name in names}
    tree = ast.parse(inspect.getsource(package))
    return {alias.asname or alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if node.level == 0}


def _defining_object(package_name: str, name: str):
    """What the module that defines ``package_name.name`` holds."""
    package = importlib.import_module(package_name)
    origin = _origins(package).get(name, package_name)
    if origin == package_name:
        if name in vars(package) and not inspect.ismodule(
                vars(package)[name]):
            return vars(package)[name]
        return importlib.import_module(f"{package_name}.{name}")
    module = importlib.import_module(origin)
    if hasattr(module, "__path__"):  # another facade: follow it
        return _defining_object(origin, name)
    return getattr(module, name)


def _packages() -> list:
    import repro

    return ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    )


def facade_mismatches(import_all: bool) -> list:
    """Every way a facade's public surface differs from its modules."""
    import repro

    if import_all:
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
    problems = []
    for package_name in _packages():
        package = importlib.import_module(package_name)
        public = list(package.__all__)
        for name in public:
            value = getattr(package, name)
            if value is not _defining_object(package_name, name):
                problems.append(f"{package_name}.{name} is {value!r}")
        missing = set(public) - set(dir(package))
        if missing:
            problems.append(f"dir({package_name}) lacks {sorted(missing)}")
        namespace: dict = {}
        exec(f"from {package_name} import *", namespace)
        if set(public) - set(namespace):
            problems.append(f"from {package_name} import * lacks "
                            f"{sorted(set(public) - set(namespace))}")
        try:
            getattr(package, "no_such_name")
        except AttributeError as exc:
            if package_name not in str(exc):
                problems.append(f"{package_name}: unnamed error {exc}")
        else:
            problems.append(f"{package_name}.no_such_name resolved")
    return problems


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def _env(cache_dir=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _python(args, cache_dir=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=_env(cache_dir), check=True,
    )


def _run(runner_args, cache_dir) -> list:
    """Run the experiment runner in a fresh interpreter; its modules."""
    proc = _python(["-c", RUNNER_SCRIPT, *runner_args], cache_dir)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["code"] == 0, proc.stdout + proc.stderr
    return report["modules"]


def _stages(modules) -> list:
    return [module for module in modules
            if any(module == stage or module.startswith(stage + ".")
                   for stage in STAGES)]


@pytest.mark.parametrize("import_all", [False, True],
                         ids=["fresh", "after-every-submodule"])
def test_facades_export_their_defining_objects(import_all):
    args = [__file__] + (["--import-all"] if import_all else [])
    assert json.loads(_python(args).stdout) == []


def test_import_repro_loads_nothing_else():
    # ``-S``: no site ``.pth`` hook may import a module (``importlib``,
    # say) before the check and so hide it; a plain install has none.
    proc = _python(["-S", "-c", (
        "import sys; before = set(sys.modules); import repro; "
        "print(sorted(set(sys.modules) - before))"
    )])
    assert proc.stdout.strip() == "['repro']"


def test_plan_loads_no_stage(tmp_path):
    modules = _run(["fig21", "fig22", "--plan"], tmp_path / "cache")
    assert _stages(modules) == []


def test_warm_replay_loads_no_stage(tmp_path):
    ids = ["fig21", "fig22", "fig25", "fig26", "fig27",
           "--matrices", "tmt_sym", "offshore"]
    cache = tmp_path / "cache"
    cold = _run(ids + ["--jobs", "1"], cache)
    assert "repro.sim.engine" in cold  # the cold run did simulate
    # Serial partitioning never loads the process pool.
    assert "repro.hypergraph.partitioner" in cold
    assert "concurrent.futures.process" not in cold
    assert _stages(_run(ids, cache)) == []


if __name__ == "__main__":
    print(json.dumps(facade_mismatches("--import-all" in sys.argv)))
