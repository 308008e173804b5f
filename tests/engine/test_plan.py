"""The engine planner: tier boundaries, the config surface and the
factory.

Every cost-model threshold is crossed from both sides, degenerate hosts
(1 CPU) and ground sets (``|S| in {0, 1}``) are pinned, and so is what
each entry point resolves to when it is built without ``config=``.
"""

from __future__ import annotations

import pytest

from repro.core import ConstraintSet, GroundSet
from repro.core.ground import MAX_DENSE_SIZE
from repro.engine import (
    EngineConfig,
    EvalContext,
    IncrementalEvalContext,
    Planner,
    ReproService,
    ShardedEvalContext,
    StreamSession,
    Workload,
    build_context,
    default_planner,
    plan_of_context,
)
from repro.engine.plan import DENSE_LIMIT, LIVE_TIERS, TIERS
from repro.errors import NotApplicableError, PlanError
from repro.fis import BasketDatabase
from repro.relational import StreamingFDChecker


def plan_for(planner=None, config=None, **workload):
    planner = planner or default_planner()
    return planner.plan(Workload(**workload), config)


class TestCostModelBoundaries:
    def test_dense_limit_matches_core(self):
        # one constant, two layers: the planner's cutoff must be the
        # ground set's own dense capability bound
        assert DENSE_LIMIT == MAX_DENSE_SIZE

    def test_one_shot_workloads_are_batched(self):
        plan = plan_for(n=8, constraints=4, queries=10)
        assert plan.tier == "batched"
        assert plan.shards == 1 and plan.effective_workers == 1

    def test_degenerate_ground_sets_stay_scalar(self):
        for n in (0, 1):
            assert plan_for(n=n, queries=1).tier == "scalar"
        assert plan_for(n=2, queries=1).tier == "batched"

    def test_past_dense_limit_is_scalar(self):
        assert plan_for(n=DENSE_LIMIT, queries=1).tier == "batched"
        assert plan_for(n=DENSE_LIMIT + 1, queries=1).tier == "scalar"

    def test_streaming_is_incremental(self):
        plan = plan_for(n=8, constraints=2, streaming=True)
        assert plan.tier == "incremental"
        # live entry points built without config= pin their own default
        ground = GroundSet("ABC")
        cset = ConstraintSet.of(ground, "A -> B")
        db = BasketDatabase.of(ground, "AB", "C")
        unconfigured = [
            StreamSession(ground),
            cset.stream_session(),
            db.stream_session(),
            StreamingFDChecker(ground, []).session,
            ReproService(cset).session,
        ]
        for session in unconfigured:
            assert session.config == EngineConfig(
                engine="incremental", backend="exact"
            )
            assert session.plan.stamp() == (
                "tier=incremental, backend=exact, shards=1, workers=1"
            )
        sharded = plan_of_context(db.sharded_context())
        assert (sharded.tier, sharded.backend) == ("sharded", "exact")

    def test_streaming_degenerate_ground_sets_stay_incremental(self):
        # a live session needs live tables even over |S| <= 1
        for n in (0, 1):
            assert plan_for(n=n, streaming=True).tier == "incremental"

    def test_backend_crossover(self):
        planner = default_planner()
        vec, flt = planner.VEC_MIN_N, planner.FLOAT_MIN_N
        assert plan_for(n=vec - 1, queries=1).backend == "exact"
        assert plan_for(n=vec, queries=1).backend == "exact-vec"
        assert plan_for(n=flt - 1, queries=1).backend == "exact-vec"
        assert plan_for(n=flt, queries=1).backend == "float"

    def test_incremental_tier_raises_the_vectorization_bar(self):
        planner = default_planner()
        vec, stream_vec = planner.VEC_MIN_N, planner.VEC_STREAM_MIN_N
        # per-delta maintenance keeps python lists ahead of numpy
        # gather/scatter until tables are much larger (E20)
        assert plan_for(n=vec, streaming=True).backend == "exact"
        # with a nonzero tol the float bar takes over at the same size
        assert plan_for(n=stream_vec, streaming=True).backend == "float"
        # tol=0 streaming at scale gets vectorized exactness
        plan = plan_for(
            n=stream_vec, streaming=True, config=EngineConfig(tol=0.0)
        )
        assert plan.tier == "incremental" and plan.backend == "exact-vec"
        # the sharded tier is rebuild-dominated: low bar applies
        plan = plan_for(
            n=planner.SHARD_MIN_N,
            streaming=True,
            density_size=planner.SHARD_MIN_DENSITY,
            cpus=planner.SHARD_MIN_CPUS,
        )
        assert plan.tier == "sharded" and plan.backend == "exact-vec"

    def test_zero_tolerance_forces_exact(self):
        planner = default_planner()
        # past the float bar, tol=0 still demands exactness: the
        # vectorized exact backend keeps both
        plan = plan_for(
            n=planner.FLOAT_MIN_N + 2,
            queries=1,
            config=EngineConfig(tol=0.0),
        )
        assert plan.backend == "exact-vec"
        # below the vectorization bar it stays on plain python lists
        plan = plan_for(
            n=planner.VEC_MIN_N - 1,
            queries=1,
            config=EngineConfig(tol=0.0),
        )
        assert plan.backend == "exact"

    def test_pinned_backend_wins(self):
        plan = plan_for(n=4, queries=1, config=EngineConfig(backend="float"))
        assert plan.backend == "float"

    def test_shard_bar_needs_cpus_n_and_load(self):
        planner = default_planner()
        base = dict(
            n=planner.SHARD_MIN_N,
            streaming=True,
            density_size=planner.SHARD_MIN_DENSITY,
            cpus=planner.SHARD_MIN_CPUS,
        )
        assert plan_for(**base).tier == "sharded"
        # drop each leg below its threshold: the bar is conjunctive
        assert (
            plan_for(**{**base, "cpus": planner.SHARD_MIN_CPUS - 1}).tier
            == "incremental"
        )
        assert (
            plan_for(**{**base, "n": planner.SHARD_MIN_N - 1}).tier
            == "incremental"
        )
        assert (
            plan_for(
                **{**base, "density_size": planner.SHARD_MIN_DENSITY - 1}
            ).tier
            == "incremental"
        )

    def test_delta_rate_alone_clears_the_load_leg(self):
        planner = default_planner()
        plan = plan_for(
            n=planner.SHARD_MIN_N,
            streaming=True,
            density_size=0,
            delta_rate=planner.SHARD_MIN_DELTA_RATE,
            cpus=planner.SHARD_MIN_CPUS,
        )
        assert plan.tier == "sharded"

    def test_single_cpu_host_never_shards(self):
        plan = plan_for(
            n=16, streaming=True, density_size=10**6, delta_rate=1e6, cpus=1
        )
        assert plan.tier == "incremental"

    def test_sharded_resolution_of_shards_and_workers(self):
        planner = default_planner()
        plan = plan_for(
            n=16, streaming=True, density_size=10**6, cpus=6
        )
        assert plan.tier == "sharded"
        assert plan.shards == min(6, planner.MAX_SHARDS)
        assert plan.workers == min(6, plan.shards)
        capped = plan_for(n=16, streaming=True, density_size=10**6, cpus=64)
        assert capped.shards == planner.MAX_SHARDS

    def test_pinned_workers_capped_by_shards(self):
        plan = plan_for(
            n=16,
            streaming=True,
            config=EngineConfig(engine="sharded", shards=2, workers=16),
        )
        assert plan.workers == 2

    def test_plan_overhead_reasons_and_stamp(self):
        plan = plan_for(n=8, queries=1)
        assert plan.reasons  # --explain has something to print
        assert "tier=batched" in plan.stamp()
        assert plan.as_dict()["tier"] == "batched"
        assert "tier=batched" in plan.explain()


class TestForcedTiersAndValidation:
    def test_every_tier_can_be_forced(self):
        for tier in TIERS:
            plan = plan_for(
                n=6, streaming=True, config=EngineConfig(engine=tier)
            )
            assert plan.tier == tier

    def test_forced_live_tier_past_dense_limit_is_loud(self):
        with pytest.raises(PlanError, match="dense limit"):
            plan_for(
                n=DENSE_LIMIT + 1,
                streaming=True,
                config=EngineConfig(engine="incremental"),
            )

    def test_shards_pinned_on_unsharded_tier_is_loud(self):
        with pytest.raises(PlanError, match="unsharded tier"):
            plan_for(
                n=6,
                streaming=True,
                config=EngineConfig(engine="incremental", shards=3),
            )

    def test_config_validation(self):
        with pytest.raises(PlanError):
            EngineConfig(engine="warp")
        with pytest.raises(PlanError):
            EngineConfig(backend="decimal")
        for ok in ("exact", "exact-vec", "float"):
            assert EngineConfig(backend=ok).backend == ok
        with pytest.raises(PlanError):
            EngineConfig(shards=0)
        with pytest.raises(PlanError):
            EngineConfig(workers=0)
        with pytest.raises(PlanError):
            EngineConfig(fsync="sometimes")
        with pytest.raises(PlanError):
            EngineConfig(snapshot_every=0)
        with pytest.raises(PlanError):
            EngineConfig(cache_size=0)
        with pytest.raises(PlanError):
            Workload(n=-1)
        with pytest.raises(PlanError):
            Workload(n=4, cpus=0)
        with pytest.raises(PlanError):
            Planner(NO_SUCH_THRESHOLD=1)


class TestBuildContext:
    def test_factory_returns_the_plan_tier(self):
        ground = GroundSet("ABCD")
        by_tier = {
            "scalar": EvalContext,
            "batched": EvalContext,
            "incremental": IncrementalEvalContext,
            "sharded": ShardedEvalContext,
        }
        for tier, cls in by_tier.items():
            plan = plan_for(
                n=4, streaming=tier in LIVE_TIERS,
                config=EngineConfig(engine=tier),
            )
            ctx = build_context(plan, ground)
            assert type(ctx) is cls
            # sharded subclasses incremental subclasses EvalContext:
            # assert the exact class, then the tier's distinguishing API
            if tier == "sharded":
                assert ctx.shards == plan.shards
            if tier == "scalar":
                assert ctx.backend is None  # operands keep their storage
            if tier == "batched":
                assert ctx.backend is not None

    def test_live_state_rejected_on_stateless_tiers(self):
        ground = GroundSet("AB")
        plan = plan_for(n=2, queries=1)
        assert plan.tier == "batched"
        with pytest.raises(PlanError, match="stateless"):
            build_context(plan, ground, density={1: 1})

    def test_plan_of_context_round_trips(self):
        ground = GroundSet("ABC")
        for tier in LIVE_TIERS:
            plan = plan_for(
                n=3, streaming=True, config=EngineConfig(engine=tier)
            )
            described = plan_of_context(build_context(plan, ground))
            assert described.tier == tier
            assert described.shards == plan.shards
        assert plan_of_context(EvalContext(backend="exact")).tier == "batched"
        assert plan_of_context(EvalContext()).tier == "scalar"


class TestDecideMethod:
    def test_one_brain_with_the_implication_decider(self):
        planner = default_planner()
        assert planner.decide_method(4, fd_fragment=True)[0] == "fd"
        assert planner.decide_method(4, fd_fragment=False)[0] == "engine"
        assert planner.decide_method(DENSE_LIMIT, False)[0] == "engine"
        assert planner.decide_method(DENSE_LIMIT + 1, False)[0] == "sat"
        # the fd fragment stays P-time past the dense limit
        assert planner.decide_method(DENSE_LIMIT + 1, True)[0] == "fd"

    def test_engine_refusal_names_the_suggested_plan(self):
        from repro.core.implication import find_uncovered_engine

        ground = GroundSet([f"x{i}" for i in range(DENSE_LIMIT + 1)])
        cset = ConstraintSet.of(ground, "x0 -> x1, x2")
        target = cset.constraints[0]
        with pytest.raises(NotApplicableError, match="method='sat'"):
            find_uncovered_engine(cset, target)


class TestDurableReopen:
    def test_auto_reopen_inherits_the_recorded_backend(self, tmp_path):
        ground = GroundSet("ABC")
        data = str(tmp_path / "data")
        first = StreamSession(
            ground,
            config=EngineConfig(
                engine="incremental", backend="float", durable=data
            ),
        )
        first.insert("AB")
        first.close()
        reopened = StreamSession(ground, config=EngineConfig(durable=data))
        # the plan AND the reported config describe the running backend
        assert reopened.plan.backend == "float"
        assert reopened.config.backend == "float"
        assert reopened.context.backend.name == "float"
        reopened.close()


class TestOnlinePromotion:
    def promoting_planner(self, replan_every=2):
        return Planner(
            SHARD_MIN_CPUS=1,
            SHARD_MIN_N=2,
            SHARD_MIN_DENSITY=3,
            SHARD_MIN_DELTA_RATE=10**9,
            REPLAN_EVERY=replan_every,
        )

    def test_auto_session_promotes_and_state_survives(self):
        ground = GroundSet("ABCD")
        cset = ConstraintSet.of(ground, "A -> B", "C -> D")
        session = StreamSession(
            ground,
            cset.constraints,
            config=EngineConfig(engine="auto"),
            planner=self.promoting_planner(),
        )
        assert session.plan.tier == "incremental"
        before_versions = None
        for subset in ("AB", "AC", "BD", "CD", "A"):
            session.insert(subset)
            if session.promotions == 0:
                before_versions = (
                    session.context.theory_version,
                    session.context.zero_version,
                )
        assert session.promotions == 1
        assert session.plan.tier == "sharded"
        assert isinstance(session.context, ShardedEvalContext)
        # exact handoff: live values and statuses match an unpromoted
        # oracle session fed the identical stream
        oracle = StreamSession(
            ground, cset.constraints,
            config=EngineConfig(engine="incremental"),
        )
        for subset in ("AB", "AC", "BD", "CD", "A"):
            oracle.insert(subset)
        assert session.support("A") == oracle.support("A")
        assert (
            session.violated_constraints() == oracle.violated_constraints()
        )
        # version counters carried over (monotonic for downstream caches)
        assert session.context.theory_version >= before_versions[0]
        assert session.context.zero_version >= before_versions[1]

    def test_pinned_tier_never_promotes(self):
        ground = GroundSet("ABC")
        session = StreamSession(
            ground,
            config=EngineConfig(engine="incremental"),
            planner=self.promoting_planner(),
        )
        for subset in ("A", "B", "C", "AB", "BC", "AC"):
            session.insert(subset)
        assert session.promotions == 0
        assert session.plan.tier == "incremental"

    def test_promotion_pins_the_running_backend(self):
        ground = GroundSet("ABCD")
        session = StreamSession(
            ground,
            config=EngineConfig(engine="auto", backend="float"),
            planner=self.promoting_planner(),
        )
        for subset in ("AB", "AC", "BD", "CD"):
            session.insert(subset)
        assert session.promotions == 1
        assert session.plan.backend == "float"
        assert session.context.backend.name == "float"

    def test_forced_replan_promotes_immediately(self):
        ground = GroundSet("ABC")
        session = StreamSession(
            ground,
            config=EngineConfig(engine="auto"),
            planner=self.promoting_planner(replan_every=10**6),
        )
        for subset in ("A", "B", "C"):
            session.insert(subset)
        assert session.promotions == 0
        session.replan()
        assert session.promotions == 1
        assert session.plan.tier == "sharded"


class TestAffinityAwareCpuDetection:
    """The host-CPU probe must see what the *process* may use, not what
    the box has: ``os.cpu_count()`` overstates parallelism under CPU
    pinning and container quotas, which used to route constrained hosts
    onto the strictly-slower sharded tier (PR 6's 0.33x cold case)."""

    LOADED = dict(
        n=14, streaming=True, density_size=10**6, delta_rate=5000.0
    )

    def test_effective_cpus_prefers_affinity(self, monkeypatch):
        from repro.engine import calibrate

        monkeypatch.setattr(
            calibrate.os, "sched_getaffinity", lambda pid: {0, 1},
            raising=False,
        )
        monkeypatch.setattr(calibrate.os, "cpu_count", lambda: 16)
        assert calibrate.effective_cpus() == 2

    def test_effective_cpus_falls_back_to_cpu_count(self, monkeypatch):
        from repro.engine import calibrate

        def unavailable(pid):
            raise OSError("no affinity syscall on this platform")

        monkeypatch.setattr(
            calibrate.os, "sched_getaffinity", unavailable, raising=False
        )
        monkeypatch.setattr(calibrate.os, "cpu_count", lambda: 3)
        assert calibrate.effective_cpus() == 3

    def test_constrained_host_never_shards(self, monkeypatch):
        # a 16-core box pinned to 2 CPUs must plan like a 2-CPU box:
        # the loaded workload stays incremental and the default worker
        # pool matches the quota, not the core count
        from repro.engine import calibrate
        from repro.engine.parallel import default_workers

        monkeypatch.setattr(
            calibrate.os, "sched_getaffinity", lambda pid: {0, 1},
            raising=False,
        )
        monkeypatch.setattr(calibrate.os, "cpu_count", lambda: 16)
        workload = Workload(**self.LOADED)
        assert workload.host_cpus == 2
        assert default_planner().plan(workload).tier == "incremental"
        assert default_workers() == 2
        assert default_workers(shards=8) == 2

    def test_cpus_pinned_below_the_bar_never_shard(self):
        # the acceptance bar: with cpus pinned below SHARD_MIN_CPUS, no
        # workload -- even maximally loaded -- resolves to sharded
        for cpus in (1, 2, 3):
            plan = plan_for(cpus=cpus, **self.LOADED)
            assert plan.tier == "incremental"
        assert plan_for(cpus=4, **self.LOADED).tier == "sharded"
