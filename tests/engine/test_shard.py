"""Unit tests for mask routing and the parallel executor.

The property suite (tests/properties/test_shard_equivalence.py) carries
the exhaustive merge-equivalence guarantees; these tests pin the
mechanics: plan routing, the elementwise table merge, and the
executor's pinning/caching/fallback behavior, including pickling exact
tables across real worker processes.
"""

import os
from fractions import Fraction

import pytest

from repro.core import ConstraintSet, GroundSet
from repro.engine import (
    EvalRequest,
    IncrementalEvalContext,
    ParallelExecutor,
    ShardPlan,
    ShmTable,
    WorkerCrashError,
    attach_shm_table,
    default_workers,
)
from repro.engine.backends import EXACT, FLOAT


def _die() -> None:  # must be module-level: shipped to a pool worker
    os._exit(13)


def request(shard_id, version, n, probes=(), constraints=(), **kwargs):
    """An exact-backend evaluation order with the common defaults."""
    fields = dict(
        backend="exact", tol=1e-9, families=(), return_tables=False
    )
    fields.update(kwargs)
    return EvalRequest(
        shard_id=shard_id,
        version=version,
        n=n,
        constraints=tuple(constraints),
        probes=tuple(probes),
        **fields,
    )


@pytest.fixture
def ground() -> GroundSet:
    return GroundSet("ABCD")


@pytest.fixture
def cset(ground) -> ConstraintSet:
    return ConstraintSet.of(ground, "A -> B", "B -> C, D")


class TestShardPlan:
    def test_routing_is_deterministic_and_in_range(self):
        plan = ShardPlan(3)
        for mask in range(64):
            k = plan.shard_of(mask)
            assert 0 <= k < 3
            assert plan.shard_of(mask) == k

    def test_partition_density_covers_every_entry_once(self):
        plan = ShardPlan(3)
        density = {m: m + 1 for m in range(16)}
        parts = plan.partition_density(density)
        assert len(parts) == 3
        merged = {}
        for part in parts:
            for mask, value in part.items():
                assert mask not in merged  # disjoint supports
                merged[mask] = value
        assert merged == density

    def test_partition_rows_preserves_multiplicity(self):
        plan = ShardPlan(2)
        rows = [3, 3, 5, 7, 3]
        parts = plan.partition_rows(rows)
        assert sorted(parts[0] + parts[1]) == sorted(rows)
        # all copies of one mask land on one shard
        assert all(3 not in part or part.count(3) == 3 for part in parts)

    def test_custom_route_and_empty_shards(self):
        plan = ShardPlan(4, route=lambda mask: 0)
        parts = plan.partition_density({1: 1, 2: 2})
        assert parts[0] == {1: 1, 2: 2}
        assert parts[1] == parts[2] == parts[3] == {}

    def test_bad_route_rejected(self):
        plan = ShardPlan(2, route=lambda mask: 5)
        with pytest.raises(ValueError):
            plan.shard_of(0)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(0)


class TestSumTables:
    def test_exact_elementwise(self):
        assert EXACT.sum_tables([[1, 2], [3, 4], [0, -4]]) == [4, 2]

    def test_float_vectorized(self):
        out = FLOAT.sum_tables([FLOAT.copy([1, 2]), FLOAT.copy([3, 4])])
        assert list(out) == [4.0, 6.0]

    def test_fractions_survive(self):
        out = EXACT.sum_tables([[Fraction(1, 3)], [Fraction(1, 6)]])
        assert out == [Fraction(1, 2)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EXACT.sum_tables([])

    def test_inputs_not_mutated(self):
        first = [1, 2]
        EXACT.sum_tables([first, [3, 4]])
        assert first == [1, 2]


class TestParallelExecutor:
    def test_default_workers_sane(self):
        assert default_workers() >= 1
        assert default_workers(shards=1) == 1
        assert default_workers(shards=10**6) >= 1

    def test_single_worker_is_inline(self):
        ex = ParallelExecutor(workers=1)
        assert ex.inline
        assert ParallelExecutor(workers=2).inline is False

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)

    def test_inline_executors_are_isolated(self):
        a, b = ParallelExecutor(workers=1), ParallelExecutor(workers=1)
        a.load_density(0, 0, [(1, 1)])
        b.load_density(0, 0, [(1, 7)])
        req = EvalRequest(
            shard_id=0, version=0, n=2, backend="exact", tol=1e-9,
            constraints=(), probes=(0,), families=(), return_tables=False,
        )
        assert a.evaluate([req])[0].probes == (1,)
        assert b.evaluate([req])[0].probes == (7,)

    def test_stale_version_is_an_error(self):
        ex = ParallelExecutor(workers=1)
        ex.load_density(0, 3, [(0, 1)])
        req = EvalRequest(
            shard_id=0, version=4, n=1, backend="exact", tol=1e-9,
            constraints=(), probes=(), families=(), return_tables=False,
        )
        with pytest.raises(RuntimeError, match="sync before evaluating"):
            ex.evaluate([req])

    def test_rows_payload_aggregates_to_density(self):
        ex = ParallelExecutor(workers=1)
        ex.load_rows(0, 0, [3, 3, 1])
        req = EvalRequest(
            shard_id=0, version=0, n=2, backend="exact", tol=1e-9,
            constraints=(), probes=(3, 1, 0), families=(),
            return_tables=True,
        )
        answer = ex.evaluate([req])[0]
        assert answer.nnz == 2
        assert answer.probes == (2, 3, 3)  # supports of {AB}, {A}, {}
        assert answer.density_table == [0, 1, 0, 2]

    def test_process_pool_roundtrips_exact_fractions(self, ground, cset):
        plan = ShardPlan(4)
        density = {
            ground.parse("AB"): Fraction(1, 3),
            ground.parse("CD"): Fraction(2, 3),
        }
        specs = [(c.lhs, tuple(c.family.members)) for c in cset.constraints]
        with ParallelExecutor(workers=2) as ex:
            ex.load_density_many(
                [
                    (k, 0, list(part.items()))
                    for k, part in enumerate(plan.partition_density(density))
                ]
            )
            answers = ex.evaluate(
                [
                    request(k, 0, ground.size, probes=(0,),
                            constraints=specs, return_tables=True)
                    for k in range(plan.shards)
                ]
            )
        oracle = IncrementalEvalContext(
            ground, density=density, constraints=cset.constraints
        )
        assert sum(a.probes[0] for a in answers) == Fraction(1, 1)
        merged = EXACT.sum_tables([a.density_table for a in answers])
        assert merged == list(oracle.density_table())
        assert tuple(
            any(a.verdicts[i] for a in answers) for i in range(len(specs))
        ) == tuple(oracle.is_violated(c) for c in cset.constraints)

    def test_pool_reuses_cached_tables_per_version(self, ground):
        with ParallelExecutor(workers=2) as ex:
            ex.load_density(0, 1, [(1, 1)])
            first = ex.evaluate([request(0, 1, ground.size, probes=(0,))])
            second = ex.evaluate([request(0, 1, ground.size, probes=(0,))])
            assert first[0].probes == second[0].probes == (1,)
            assert ex.apply_deltas_many([(0, 1, 2, [(2, 1)])], "exact") == [True]
            third = ex.evaluate([request(0, 2, ground.size, probes=(0,))])
            assert third[0].probes == (2,)

    def test_shutdown_then_use_raises(self):
        ex = ParallelExecutor(workers=2)
        ex.shutdown()
        with pytest.raises(RuntimeError):
            ex.load_density(0, 0, [])

    def test_clear_drops_state(self):
        ex = ParallelExecutor(workers=1)
        ex.load_density(0, 0, [(0, 1)])
        epoch = ex.epoch
        ex.clear()
        assert ex.epoch == epoch + 1
        req = EvalRequest(
            shard_id=0, version=0, n=1, backend="exact", tol=1e-9,
            constraints=(), probes=(), families=(), return_tables=False,
        )
        with pytest.raises(RuntimeError):
            ex.evaluate([req])

    def test_clear_is_scoped_to_one_executor(self):
        a, b = ParallelExecutor(workers=1), ParallelExecutor(workers=1)
        a.load_density(0, 0, [(0, 1)])
        b.load_density(0, 0, [(0, 2)])
        a.clear()
        req = EvalRequest(
            shard_id=0, version=0, n=1, backend="exact", tol=1e-9,
            constraints=(), probes=(0,), families=(), return_tables=False,
        )
        assert b.evaluate([req])[0].probes == (2,)

    def test_shutdown_reclaims_inline_state(self):
        from repro.engine import parallel as par

        ex = ParallelExecutor(workers=1)
        ex.load_density(0, 0, [(0, 1)])
        ns = ex._ns
        assert any(key[0] == ns for key in par._SHARD_DATA)
        ex.shutdown()
        assert not any(key[0] == ns for key in par._SHARD_DATA)
        assert not any(key[0] == ns for key in par._TABLE_CACHE)

    def test_scopes_sharing_one_executor_are_isolated(self):
        """Two callers on one executor must never serve each other's
        tables, even with identical shard ids and version counters."""
        ex = ParallelExecutor(workers=1)
        ex.load_density(0, 0, [(1, 5)], scope="first")
        ex.load_density(0, 0, [(1, 7)], scope="second")
        first = request(0, 0, 2, probes=(1,), scope="first")
        second = request(0, 0, 2, probes=(1,), scope="second")
        assert ex.evaluate([first])[0].probes == (5,)
        assert ex.evaluate([second])[0].probes == (7,)
        assert ex.evaluate([first])[0].probes == (5,)

    def test_shm_returns_and_crash_cleanup(self, ground):
        """Shared-memory table returns attach to the worker's values,
        and a worker crash unlinks every published segment."""
        with ParallelExecutor(workers=2) as ex:
            items = [(m, (m % 3) + 1) for m in range(0, 16, 2)]
            ex.load_density(0, 0, items)
            answer = ex.evaluate(
                [
                    request(0, 0, ground.size, backend="exact-vec",
                            return_tables=True, shm_tables=True)
                ]
            )[0]
            assert isinstance(answer.density_table, ShmTable)
            view, segment = attach_shm_table(answer.density_table)
            expected = IncrementalEvalContext(ground, density=dict(items))
            assert list(view) == list(expected.density_table())
            del view
            segment.close()
            names = [n for group in ex._segments.values() for n in group]
            assert names
            epoch = ex.epoch
            with pytest.raises(WorkerCrashError):
                ex._run([(0, _die, ())])
            assert ex.epoch == epoch + 1
            for name in names:
                assert not os.path.exists(f"/dev/shm/{name}")

    def test_dropped_inline_executor_is_garbage_collected(self):
        import gc

        from repro.engine import parallel as par

        ex = ParallelExecutor(workers=1)
        ex.load_density(0, 0, [(0, 1)])
        ns = ex._ns
        del ex
        gc.collect()
        assert not any(key[0] == ns for key in par._SHARD_DATA)
