"""Unit tests for the sharded evaluation subsystem.

The property suite (tests/properties/test_shard_equivalence.py) carries
the exhaustive merge-equivalence guarantees; these tests pin the
mechanics: plan routing, dirty-shard versioning, empty shards, the
executor's pinning/caching/fallback behavior, and pickling exact tables
across real worker processes.
"""

from fractions import Fraction

import pytest

from repro.core import ConstraintSet, GroundSet
from repro.engine import (
    EngineConfig,
    EvalRequest,
    IncrementalEvalContext,
    ParallelExecutor,
    ShardPlan,
    ShardedEvalContext,
    StreamSession,
    default_workers,
    sum_tables,
)
from repro.engine.backends import EXACT, FLOAT
from repro.errors import PlanError


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
        assert sum_tables([[1, 2], [3, 4], [0, -4]], EXACT) == [4, 2]

    def test_float_vectorized(self):
        out = sum_tables([FLOAT.copy([1, 2]), FLOAT.copy([3, 4])], FLOAT)
        assert list(out) == [4.0, 6.0]

    def test_fractions_survive(self):
        out = sum_tables([[Fraction(1, 3)], [Fraction(1, 6)]], EXACT)
        assert out == [Fraction(1, 2)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sum_tables([], EXACT)

    def test_inputs_not_mutated(self):
        first = [1, 2]
        sum_tables([first, [3, 4]], EXACT)
        assert first == [1, 2]


class TestShardedEvalContext:
    def test_deltas_dirty_exactly_the_owning_shard(self, ground, cset):
        ctx = ShardedEvalContext(ground, constraints=cset.constraints, shards=3)
        before = ctx.shard_versions
        mask = ground.parse("AB")
        ctx.apply_delta(mask, 1)
        owner = ctx.plan.shard_of(mask)
        after = ctx.shard_versions
        assert after[owner] == before[owner] + 1
        assert all(
            after[k] == before[k] for k in range(3) if k != owner
        )

    def test_zero_delta_does_not_dirty(self, ground):
        ctx = ShardedEvalContext(ground, shards=2)
        ctx.apply_delta(1, 0)
        assert ctx.shard_versions == (0, 0)
        assert ctx.shard_sizes() == (0, 0)

    def test_cancelled_entry_leaves_shard_density(self, ground):
        ctx = ShardedEvalContext(ground, shards=2)
        ctx.apply_delta(3, 2)
        ctx.apply_delta(3, -2)
        assert ctx.shard_sizes() == (0, 0)
        assert list(ctx.merged_density_table()) == [0] * 16

    def test_more_shards_than_masks(self):
        small = GroundSet("A")
        ctx = ShardedEvalContext(small, shards=7, density={1: 2})
        assert sum(ctx.shard_sizes()) == 1
        assert list(ctx.merged_support_table()) == [2, 2]

    def test_empty_ground_set(self):
        ctx = ShardedEvalContext(GroundSet(""), shards=3, density={0: 5})
        assert list(ctx.merged_density_table()) == [5]
        assert ctx.value(0) == 5

    def test_seed_density_is_partitioned(self, ground, cset):
        density = {ground.parse("AB"): 2, ground.parse("ACD"): 1}
        ctx = ShardedEvalContext(
            ground, density=density, constraints=cset.constraints, shards=2
        )
        merged = {}
        for k in range(2):
            merged.update(dict(ctx.shard_density_items(k)))
        assert merged == density
        # seeding is not a stream event (mirrors the incremental engine)
        assert ctx.theory_version == 0 and ctx.zero_version == 0

    def test_violation_tracking_matches_unsharded(self, ground, cset):
        sharded = ShardedEvalContext(
            ground, constraints=cset.constraints, shards=3
        )
        plain = IncrementalEvalContext(ground, constraints=cset.constraints)
        for mask, delta in [(3, 1), (5, 2), (5, -2), (12, 1)]:
            assert sharded.apply_delta(mask, delta) == plain.apply_delta(
                mask, delta
            )
        assert sharded.violated_constraints() == plain.violated_constraints()

    def test_float_backend_merges_exactly_on_integer_deltas(self, ground):
        ctx = ShardedEvalContext(ground, shards=3, backend="float")
        for mask in range(16):
            ctx.apply_delta(mask, mask % 3 - 1)
        assert list(ctx.merged_density_table()) == list(ctx.density_table())
        assert list(ctx.merged_support_table()) == list(ctx.support_table())

    def test_evaluate_defaults_to_tracked_constraints(self, ground, cset):
        ctx = ShardedEvalContext(
            ground, constraints=cset.constraints, shards=2
        )
        ctx.apply_delta(ground.parse("AC"), 1)  # violates A -> B
        result = ctx.evaluate(probes=["A"])
        assert result.violated == tuple(
            ctx.is_violated(c) for c in ctx.constraints
        )
        assert result.support[ground.parse("A")] == ctx.value(
            ground.parse("A")
        )

    def test_evaluate_label_probes_and_tables(self, ground, cset):
        fam = cset.constraints[1].family
        ctx = ShardedEvalContext(ground, constraints=cset.constraints, shards=2)
        ctx.apply_delta(ground.parse("ABD"), 3)
        result = ctx.evaluate(
            probes=["AB", ""], families=[fam], return_tables=True
        )
        assert list(result.density_table) == list(ctx.density_table())
        assert list(result.support_table) == list(ctx.support_table())
        want = ctx.differential_table(fam)
        assert list(result.differential_tables[tuple(fam.members)]) == list(want)

    def test_sync_only_ships_dirty_shards(self, ground):
        ctx = ShardedEvalContext(ground, shards=3)
        ctx.apply_delta(1, 1)
        first = ctx.sync_executor()
        assert set(first) == set(range(3))  # initial sync ships everyone
        assert ctx.sync_executor() == ()  # clean: nothing to ship
        ctx.apply_delta(1, 1)
        again = ctx.sync_executor()
        assert again == (ctx.plan.shard_of(1),)


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
        with ParallelExecutor(workers=2) as ex:
            ctx = ShardedEvalContext(
                ground,
                constraints=cset.constraints,
                shards=4,
                executor=ex,
            )
            ctx.apply_delta(ground.parse("AB"), Fraction(1, 3))
            ctx.apply_delta(ground.parse("CD"), Fraction(2, 3))
            result = ctx.evaluate(probes=["", "C"], return_tables=True)
            assert result.support[0] == Fraction(1, 1)
            assert list(result.density_table) == list(ctx.density_table())
            assert result.violated == tuple(
                ctx.is_violated(c) for c in ctx.constraints
            )

    def test_pool_reuses_cached_tables_per_version(self, ground):
        with ParallelExecutor(workers=2) as ex:
            ctx = ShardedEvalContext(ground, shards=2, executor=ex)
            ctx.apply_delta(1, 1)
            first = ctx.evaluate(probes=[""])
            second = ctx.evaluate(probes=[""])  # no dirty shards
            assert first.support == second.support
            ctx.apply_delta(2, 1)
            third = ctx.evaluate(probes=[""])
            assert third.support[0] == 2

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

    def test_context_resyncs_after_executor_clear(self, ground):
        """clear() must not strand attached contexts: the epoch bump
        voids their sync bookkeeping, so the next fan-out reships."""
        ctx = ShardedEvalContext(ground, density={3: 2}, shards=2)
        assert ctx.evaluate(probes=[0]).support[0] == 2
        ctx.executor.clear()
        assert ctx.evaluate(probes=[0]).support[0] == 2

    def test_shutdown_reclaims_inline_state(self):
        from repro.engine import parallel as par

        ex = ParallelExecutor(workers=1)
        ex.load_density(0, 0, [(0, 1)])
        ns = ex._ns
        assert any(key[0] == ns for key in par._SHARD_DATA)
        ex.shutdown()
        assert not any(key[0] == ns for key in par._SHARD_DATA)
        assert not any(key[0] == ns for key in par._TABLE_CACHE)

    def test_contexts_sharing_one_executor_are_isolated(self, ground):
        """Two contexts on one executor must never serve each other's
        tables, even with identical shard ids and version counters."""
        ex = ParallelExecutor(workers=1)
        ctx1 = ShardedEvalContext(ground, density={1: 5}, shards=2, executor=ex)
        ctx2 = ShardedEvalContext(ground, density={1: 7}, shards=2, executor=ex)
        assert ctx1.shard_versions == ctx2.shard_versions  # colliding keys
        assert ctx1.evaluate(probes=[1]).support[1] == 5
        assert ctx2.evaluate(probes=[1]).support[1] == 7
        assert ctx1.evaluate(probes=[1]).support[1] == 5

    def test_owned_executor_shut_down_by_close(self, ground):
        ctx = ShardedEvalContext(ground, density={1: 1}, shards=2, workers=2)
        assert ctx.evaluate(probes=[1]).support[1] == 1
        owned = ctx.executor
        ctx.close()
        with pytest.raises(RuntimeError):
            owned.load_density(0, 0, [])

    def test_close_leaves_shared_executor_running(self, ground):
        with ParallelExecutor(workers=1) as ex:
            with ShardedEvalContext(
                ground, density={1: 1}, shards=2, executor=ex
            ) as ctx:
                assert ctx.evaluate(probes=[1]).support[1] == 1
            # the context exit must not have shut the shared executor down
            ex.load_density(0, 0, [(0, 1)])

    def test_dropped_context_reclaims_owned_executor(self, ground):
        import gc

        ctx = ShardedEvalContext(ground, density={1: 1}, shards=2, workers=2)
        ctx.evaluate(probes=[1])
        finalizer = ctx._executor_finalizer
        del ctx
        gc.collect()
        assert not finalizer.alive  # ran: the worker pools were shut down

    def test_dropped_inline_executor_is_garbage_collected(self):
        import gc

        from repro.engine import parallel as par

        ex = ParallelExecutor(workers=1)
        ex.load_density(0, 0, [(0, 1)])
        ns = ex._ns
        del ex
        gc.collect()
        assert not any(key[0] == ns for key in par._SHARD_DATA)


class TestStreamSessionSharding:
    def test_sharded_session_matches_plain(self, ground, cset):
        plain = cset.stream_session()
        sharded = cset.stream_session(
            config=EngineConfig(engine="sharded", backend="exact", shards=3)
        )
        for session in (plain, sharded):
            session.insert("AC", 2)
            session.delete("AC")
            session.insert("ABD")
        assert plain.violated_constraints() == sharded.violated_constraints()
        assert plain.support("A") == sharded.support("A")
        assert isinstance(sharded.context, ShardedEvalContext)
        assert not isinstance(plain.context, ShardedEvalContext)

    def test_shard_plan_needs_a_sharded_config(self, ground, cset):
        routing = ShardPlan(2, route=lambda mask: 0)
        session = cset.stream_session(
            config=EngineConfig(engine="sharded", backend="exact", shards=2),
            shard_plan=routing,
        )
        session.insert("AC")
        session.insert("ABD")
        assert session.context.shard_sizes() == (2, 0)
        # a shard_plan never picks the tier: without a sharded config
        # it is refused instead of silently dropped
        for config in (None, EngineConfig(engine="incremental")):
            with pytest.raises(PlanError, match="shard_plan"):
                StreamSession(ground, config=config, shard_plan=routing)

    def test_basket_database_sharded_context(self):
        from repro.fis import BasketDatabase
        from repro.fis.discovery import discover_cover, theory_of

        S = GroundSet("ABC")
        db = BasketDatabase.of(S, "AB", "AB", "ABC", "C")
        ctx = db.sharded_context(
            config=EngineConfig(engine="sharded", backend="exact", shards=2)
        )
        assert sum(ctx.shard_sizes()) == 3
        assert ctx.value(S.parse("AB")) == db.support(S.parse("AB"))
        # discovery consumes the sharded context directly
        assert theory_of(ctx).equivalent_to(theory_of(db))
        cover = discover_cover(ctx)
        assert cover.equivalent_to(discover_cover(db))

    def test_streaming_fd_checker_sharded(self):
        from repro.relational.fd import FunctionalDependency, StreamingFDChecker

        S = GroundSet("ABC")
        fds = [FunctionalDependency.of(S, "A", "B")]
        plain = StreamingFDChecker(S, fds)
        sharded = StreamingFDChecker(
            S,
            fds,
            config=EngineConfig(engine="sharded", backend="exact", shards=2),
        )
        rows = [(1, 1, 0), (1, 2, 0), (2, 1, 1)]
        for row in rows:
            plain.insert(row)
            sharded.insert(row)
        assert plain.violated_fds() == sharded.violated_fds() == tuple(fds)
        plain.delete(rows[1])
        sharded.delete(rows[1])
        assert plain.violated_fds() == sharded.violated_fds() == ()
