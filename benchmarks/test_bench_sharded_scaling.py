"""E17 -- sharded scaling: parallel per-shard evaluation vs single-shard.

The workload is ingest-to-answer evaluation of a partitioned instance at
``|S| = 16``: each shard's resident rows are aggregated into a sparse
density (row-linear), scattered into a dense table (nnz-linear), support
-transformed, and the shard answers constraint verdicts plus support
probes; the master merges by ``any`` / scalar sum (exact under mask
routing).  The single-shard baseline runs the identical pipeline inline
on the whole instance (``K = 1``, no pool, no pickling).  Cold rounds
bump the shard version (full per-shard recompute); warm rounds hit the
workers' version-keyed table caches (the per-shard reuse fast path).

Acceptance floors: ``>= 2x`` cold speedup at 4 workers on the float
backend, and ``>= 1x`` (non-regression: sharding must not *lose* to a
single shard) on the vectorized exact backend, whose per-shard table
rebuilds are fast enough that the fan-out overhead no longer drowns the
parallelism the way it does for the list-exact backend.  A parallel
speedup needs parallel hardware, so both floors are asserted when the
host has at least 4 CPUs; on smaller hosts the rows are still
regenerated and the merged answers are still asserted equal to the
serial ones, and the host stamp in the result file records why the
floors were not asserted (the stamp exists precisely so that E17
numbers are comparable across machines).
"""

import os
import random
import time

from repro.core import GroundSet
from repro.engine import (
    EvalRequest,
    ParallelExecutor,
    ShardPlan,
    recompute_tables,
)
from repro.engine.backends import backend_by_name
from repro.instances import random_constraint

from _harness import format_table, report

N = 16
N_SHARDS = 4
N_WORKERS = 4
N_CONSTRAINTS = 4
N_PROBES = 8
#: Row counts per backend: float cost is row/nnz-dominated; list-exact
#: cost is butterfly-dominated, so fewer rows keep the bench affordable.
#: exact-vec runs the same workload as exact so its row is directly
#: comparable.
ROWS = {"float": 400_000, "exact": 60_000, "exact-vec": 60_000}
COLD_ROUNDS = {"float": 3, "exact": 2, "exact-vec": 3}
WARM_ROUNDS = 3

#: Cold-speedup floors asserted on >= 4-CPU hosts: float must win
#: outright; exact-vec must at least not regress vs a single shard.
FLOORS = {"float": 2.0, "exact-vec": 1.0}


def _instance(n_rows: int):
    rng = random.Random(1700)
    ground = GroundSet([f"x{i}" for i in range(N)])
    constraints = [
        random_constraint(rng, ground, max_members=2, min_members=1)
        for _ in range(N_CONSTRAINTS)
    ]
    specs = tuple((c.lhs, tuple(c.family.members)) for c in constraints)
    rows = [rng.randrange(1 << N) for _ in range(n_rows)]
    probes = tuple(rng.randrange(1 << N) for _ in range(N_PROBES))
    return ground, rows, specs, probes


def _requests(shard_ids, version, specs, probes, backend_name):
    return [
        EvalRequest(
            shard_id=k,
            version=version,
            n=N,
            backend=backend_name,
            tol=1e-9,
            constraints=specs,
            probes=probes,
            families=(),
            return_tables=False,
        )
        for k in shard_ids
    ]


def _merge(answers, specs, probes):
    verdicts = tuple(
        any(a.verdicts[i] for a in answers) for i in range(len(specs))
    )
    support = tuple(
        sum(a.probes[i] for a in answers) for i in range(len(probes))
    )
    return verdicts, support


def _time_system(executor, parts, specs, probes, backend_name, cold_rounds):
    """Best-of cold (version bumped per round) and warm wall times."""
    answers = None
    cold = []
    version = 0
    for version in range(cold_rounds):
        for shard_id, rows in parts.items():  # resync: invalidates caches
            executor.load_rows(shard_id, version, rows)
        requests = _requests(parts, version, specs, probes, backend_name)
        t0 = time.perf_counter()
        answers = executor.evaluate(requests)
        cold.append(time.perf_counter() - t0)
    warm = []
    for _ in range(WARM_ROUNDS):
        requests = _requests(parts, version, specs, probes, backend_name)
        t0 = time.perf_counter()
        answers = executor.evaluate(requests)
        warm.append(time.perf_counter() - t0)
    return min(cold), min(warm), _merge(answers, specs, probes)


class TestShardedScaling:
    def test_parallel_speedup_over_single_shard(self, benchmark):
        cpus = os.cpu_count() or 1
        plan = ShardPlan(N_SHARDS)
        rows_out = []
        speedups = {}
        for backend_name in ("float", "exact", "exact-vec"):
            ground, rows, specs, probes = _instance(ROWS[backend_name])
            parts = {
                k: part for k, part in enumerate(plan.partition_rows(rows))
            }
            with ParallelExecutor(workers=1) as serial, ParallelExecutor(
                workers=N_WORKERS
            ) as pool:
                t_serial, t_serial_warm, serial_answers = _time_system(
                    serial, {0: rows}, specs, probes, backend_name,
                    COLD_ROUNDS[backend_name],
                )
                t_par, t_par_warm, par_answers = _time_system(
                    pool, parts, specs, probes, backend_name,
                    COLD_ROUNDS[backend_name],
                )
                # noisy-neighbor guard (shared CI runners): a miss of
                # the asserted floor gets one clean re-measurement
                if (
                    backend_name in FLOORS
                    and cpus >= N_WORKERS
                    and t_serial / t_par < FLOORS[backend_name]
                ):
                    t_serial, t_serial_warm, serial_answers = _time_system(
                        serial, {0: rows}, specs, probes, backend_name,
                        COLD_ROUNDS[backend_name],
                    )
                    t_par, t_par_warm, par_answers = _time_system(
                        pool, parts, specs, probes, backend_name,
                        COLD_ROUNDS[backend_name],
                    )
            # sharded answers merge exactly to the single-shard ones
            assert par_answers == serial_answers
            speedup = t_serial / t_par
            speedups[backend_name] = speedup
            rows_out.append(
                (
                    backend_name,
                    len(rows),
                    f"{t_serial * 1e3:.1f}",
                    f"{t_par * 1e3:.1f}",
                    f"{speedup:.2f}x",
                    f"{t_serial_warm * 1e3:.2f}",
                    f"{t_par_warm * 1e3:.2f}",
                )
            )
        lines = format_table(
            [
                "backend",
                "rows",
                "1 shard (ms)",
                f"{N_SHARDS} shards/{N_WORKERS} workers (ms)",
                "cold speedup",
                "warm 1-shard (ms)",
                "warm sharded (ms)",
            ],
            rows_out,
        )
        lines.append(
            f"workload: |S|={N}, {N_CONSTRAINTS} constraint checks + "
            f"{N_PROBES} support probes per round; cold = shard version "
            "bumped, warm = worker table caches hit"
        )
        if cpus >= N_WORKERS:
            lines.append(
                f"acceptance floor (float, cold): >= 2x at {N_WORKERS} "
                f"workers -- measured {speedups['float']:.2f}x"
            )
            lines.append(
                "acceptance floor (exact-vec, cold): >= 1x (sharding "
                "must not regress vs single-shard) -- measured "
                f"{speedups['exact-vec']:.2f}x"
            )
        else:
            lines.append(
                f"acceptance floors (float >= 2x, exact-vec >= 1x at "
                f"{N_WORKERS} workers) not asserted: host has {cpus} "
                f"CPU(s) < {N_WORKERS}; merged answers still asserted "
                "equal to single-shard"
            )
        report(
            "E17_sharded_scaling",
            "sharded parallel evaluation vs single-shard",
            lines,
        )
        if cpus >= N_WORKERS:
            assert speedups["float"] >= 2.0
            # non-regression: the vectorized exact backend must make
            # sharding at worst free (list-exact famously loses here)
            assert speedups["exact-vec"] >= 1.0

        # pytest-benchmark row: the warm inline evaluate hot path
        ground, rows, specs, probes = _instance(20_000)
        with ParallelExecutor(workers=1) as ex:
            ex.load_rows(0, 0, rows)
            requests = _requests({0: rows}, 0, specs, probes, "float")
            benchmark(lambda: ex.evaluate(requests))

    def test_merge_exactness_at_scale(self):
        """|S| = 16 shard merge is exact on the exact backends: per-shard
        tables routed by the plan sum to a from-scratch recompute of the
        whole instance, entry for entry."""
        ground, rows, specs, probes = _instance(2_000)
        plan = ShardPlan(N_SHARDS)
        density = {}
        for mask in rows:
            density[mask] = density.get(mask, 0) + 1
        parts = plan.partition_density(density)
        want_density, want_support, _ = recompute_tables(
            N, density.items(), [], backend_by_name("exact")
        )
        # the vectorized exact backend merges to the same entries
        for name in ("exact", "exact-vec"):
            backend = backend_by_name(name)
            shard_tables = [
                recompute_tables(N, part.items(), [], backend)
                for part in parts
            ]
            merged_density = backend.sum_tables([t[0] for t in shard_tables])
            merged_support = backend.sum_tables([t[1] for t in shard_tables])
            assert list(merged_density) == list(want_density)
            assert list(merged_support) == list(want_support)
