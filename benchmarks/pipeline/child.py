"""One child process of the pipeline benchmark.

    python3 child.py run <runner arguments>   # repro.experiments.runner
    python3 child.py place                    # set-up: Azul placements

The harness (``run.py``) starts every timed rep and set-up step as a
fresh child with its own ``REPRO_CACHE_DIR``.  The seed's matrices are
registered at import time, outside the ``__main__`` block, so worker
processes started with ``spawn`` (which re-import this file) see them
too.  With ``PIPELINE_BENCH_TRACE`` set, the child wraps each layer's
entry point (``layers.install``) before handing over to the program.
"""

import os
import sys

import layers
import workloads

SEED = int(os.environ[workloads.SEED_ENV])
workloads.register(SEED)


def place() -> int:
    from repro.experiments.common import ExperimentSession

    session = ExperimentSession()
    for name in workloads.matrix_names(SEED):
        session.placement(name, "azul")
    return 0


def main(argv) -> int:
    mode, args = argv[0], argv[1:]
    from repro.experiments import runner

    recorder = None
    trace_dir = os.environ.get(layers.TRACE_ENV)
    if trace_dir:
        # Import the selected experiments first, so that install()
        # rebinds the names they imported.
        ids = [arg for arg in args if arg in runner.EXPERIMENTS]
        if ids:
            runner.load_specs(ids)
        import_s = layers.since_launch()
        recorder = layers.install(trace_dir)
    if mode == "run":
        code = runner.main(args)
    elif mode == "place":
        code = place()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if recorder is not None:
        recorder.flush(import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
