"""Serving-process launcher:
``python3 perfbench/worker.py DUMP PROC serve ...``.

Runs the shipped ``repro serve`` (``repro.cli.main``) unchanged, for the
fleet workers and for the durable ingest service.  When
``PERFBENCH_TRACE=1`` it first wraps the layers' public entry points,
so the worker's spans come from inside the worker, and ``SIGUSR1``
toggles the wrappers off and on (the benchmark's untraced half runs
without them).  On exit it writes its spans, its peak RSS and its
implication-cache counters to ``DUMP`` as JSON.
"""

import os
import resource
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.tracing import Recorder, install_engine_probes  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.engine.decider import shared_cache  # noqa: E402


def run(argv) -> int:
    dump_path, proc, serve_argv = argv[0], argv[1], argv[2:]
    recorder = Recorder(proc=proc)
    state = {"patches": None, "cache_on": shared_cache().stats()}

    def toggle(*_):
        if state["patches"] is None:
            state["patches"] = install_engine_probes(recorder)
            state["cache_on"] = shared_cache().stats()
        else:
            state["patches"].restore()
            state["patches"] = None

    if os.environ.get("PERFBENCH_TRACE") == "1":
        toggle()
        signal.signal(signal.SIGUSR1, toggle)
    try:
        code = main(serve_argv)
    finally:
        if state["patches"] is not None:
            state["patches"].restore()
        recorder.dump(dump_path, extra={
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "cache_on": state["cache_on"],
            "cache_exit": shared_cache().stats(),
        })
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
