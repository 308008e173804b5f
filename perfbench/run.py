"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload query-serial --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` drives half the time untraced and half traced and prints
every per-layer metric.  Human-readable lines (each metric by name with
its unit, the stamps, the checks) come first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--workload
all`` runs every declared workload in turn and prints only the
readable lines.

The program is built from ``src/`` of the checkout; without it (or
without a valid ``BENCHMARK.json``) the runner exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SWITCH_INTERVAL = 0.0005


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _bootstrap():
    """Import the program from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        _fail("no src/repro in the current directory: run from the root "
              "of a checkout")
    if os.path.dirname(HERE) != ROOT:
        _fail("run from the root of the checkout holding perfbench/")
    sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
        p for p in sys.path if os.path.abspath(p or ".") != HERE]
    # the stock cost model: no host profile is read or written
    os.environ.pop("REPRO_CALIBRATION", None)


def _stamp(args, outcome) -> dict:
    import numpy

    from repro.engine.calibrate import effective_cpus

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "plan": outcome.stamp.get("plan", {}),
        "effective_cpus": effective_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration": "off",
    }


def run_one(args, spec) -> dict:
    from perfbench import harness, hygiene
    from perfbench.spec import metric_names, units
    from perfbench.workloads import WORKLOADS, Context

    rundir = hygiene.RunDir(ROOT)
    try:
        ctx = Context(ROOT, args.seed, args.seconds, bool(args.trace), spec,
                      rundir)
        outcome = harness.measure(WORKLOADS[args.workload], ctx)
    finally:
        problems = rundir.remove()
    outcome.problems += problems
    unit_of = units(spec)
    print(f"# stamp {json.dumps(_stamp(args, outcome), sort_keys=True)}")
    for line in outcome.report:
        print(line)
    for name, value in outcome.e2e.items():
        print(f"{name} {value:.6g} {unit_of.get(name, '')}")
    for name, (value, unit) in outcome.extras.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in outcome.per_layer.items():
        print(f"{name} {value:.6g} {unit_of.get(name, '')}")
    for note in outcome.notes:
        print(f"# note: {note}")
    for problem in outcome.problems:
        print(f"# CHECK FAILED: {problem}")
    section = "per_layer" if args.trace else "end_to_end"
    values = outcome.per_layer if args.trace else outcome.e2e
    missing = [n for n in metric_names(spec, section) if n not in values]
    if missing:
        raise RuntimeError(f"workload did not produce {missing}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit_of[name]}
            for name in metric_names(spec, section)
        },
    }


def _terminated(signum, frame):
    # unwind through the finally blocks that stop serving processes and
    # remove the run directory
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    args = _parse(argv)
    # client threads share this interpreter with the in-thread service
    # and router; a short switch interval keeps GIL hand-offs from adding
    # the 5 ms convoy stalls a service in its own process would not see
    sys.setswitchinterval(SWITCH_INTERVAL)
    _bootstrap()
    from perfbench import spec as spec_mod
    from perfbench.workloads import WORKLOADS

    try:
        spec = spec_mod.load(os.path.join(ROOT, "BENCHMARK.json"))
    except (OSError, spec_mod.SpecError) as err:
        _fail(f"BENCHMARK.json: {err}")
    declared = [w["name"] for w in spec["workloads"]]
    unknown = [name for name in declared if name not in WORKLOADS]
    if unknown:
        _fail(f"BENCHMARK.json declares {unknown}, which the runner lacks")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if args.workload == "all":
        for name in declared:
            print(f"## workload {name}")
            args.workload = name
            run_one(args, spec)
        return 0
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)} or 'all'")
    result = run_one(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
