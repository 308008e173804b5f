"""The engine planner: one :class:`EngineConfig`, one cost model, one factory.

Four PRs grew five evaluation tiers -- scalar deciders, the batched
:class:`~repro.engine.context.EvalContext`, the delta-maintained
:class:`~repro.engine.incremental.IncrementalEvalContext`, the
horizontally partitioned :class:`~repro.engine.shard.ShardedEvalContext`
(optionally fanned out over a
:class:`~repro.engine.parallel.ParallelExecutor`), and the durable
:class:`~repro.engine.net.ReproService` -- and tier choice used to be
hand-plumbed per call site through ``backend=``/``shards=``/``workers=``
kwargs chains.  This module inverts that layering: policy lives in one
place and flows *down*.

* :class:`EngineConfig` is the single user-facing configuration object:
  a tier request (``engine="auto"`` or a pinned tier) plus optional
  pinned knobs (backend, shards, workers, durability, cache budgets).
  Everything left ``None`` is resolved by the planner.
* :class:`Workload` describes the job: ground-set size ``n``, constraint
  count, expected delta rate, live-density size, query count, and the
  host CPU budget.
* :class:`Planner` maps ``(Workload, EngineConfig)`` to a :class:`Plan`
  through an explicit, documented cost model (thresholds are instance
  attributes, overridable for tests and unusual hosts).
* :func:`build_context` is the **only** place evaluation contexts are
  constructed from a plan; every consumer (CLI, stream sessions, basket
  databases, FD checkers, the network service) routes through it.

The cost model
--------------

Tier (cheapest adequate tier wins; ``engine=`` pins it):

========== ==========================================================
scalar      ``n > DENSE_LIMIT`` (dense ``2^n`` tables impossible) or a
            degenerate ground set (``n <= SCALAR_MAX_N``: at most two
            subsets, table machinery cannot pay for itself).
batched     One-shot questions (no deltas expected): build tables once
            through the batched engine, memoize by fingerprint.
incremental Streaming instances (``streaming`` or a nonzero
            ``delta_rate``): ``O(2^n)`` per delta beats ``O(n * 2^n)``
            rebuilds as soon as anything changes twice.
sharded     Streaming *and* worth fanning out: at least
            ``SHARD_MIN_CPUS`` CPUs, per-shard table work big enough to
            amortize the fan-out (``n >= SHARD_MIN_N``), and a live
            instance that is actually loaded (``density_size >=
            SHARD_MIN_DENSITY`` or ``delta_rate >=
            SHARD_MIN_DELTA_RATE``).
========== ==========================================================

Backend (``backend=`` pins it) -- a three-rung ladder: ``exact``
(python lists) for tiny tables (``n < VEC_MIN_N`` -- python numbers
are cheap at this size and numpy call overhead is not); ``exact-vec``
(int64 ndarrays with overflow-checked promotion to object dtype) from
``VEC_MIN_N`` up, where the vectorized butterflies win *without*
giving up exactness -- it is also what ``tol == 0`` resolves to at
those sizes, since its zero tests are exact; ``float`` once ``n >=
FLOAT_MIN_N`` with a nonzero tolerance, where float64 butterflies are
marginally leaner (no promotion checks) and the default tolerance
absorbs representation error.  The bar is tier-aware: the incremental
tier is per-delta dominated (``2^|mask|`` subset gather/scatters,
where python lists beat numpy call overhead), so its vectorization
bar is the higher ``VEC_STREAM_MIN_N``; batched and sharded work is
rebuild-dominated, where the butterflies win from ``VEC_MIN_N`` up
(E20 measures both crossovers).

Shards/workers (``shards=``/``workers=`` pin them): ``shards =
min(cpus, MAX_SHARDS)`` and ``workers = min(cpus, shards)`` -- workers
beyond the shard count idle, shards beyond the CPU count just queue.

Implication methods reuse the same brain: :meth:`Planner.decide_method`
resolves ``method="auto"`` for :func:`repro.core.implication.decide`
(``fd`` fragment -> attribute closure, dense-capable -> batched engine,
otherwise -> SAT refutation), so the decider and the context factory can
never disagree about the dense limit again.

Like the rest of the engine this module imports nothing from
:mod:`repro.core`; ground sets are duck-typed (``.size``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.engine.calibrate import effective_cpus
from repro.engine.context import EvalContext
from repro.engine.incremental import DEFAULT_TOLERANCE
from repro.errors import PlanError

__all__ = [
    "EngineConfig",
    "Workload",
    "Plan",
    "Planner",
    "TIERS",
    "build_context",
    "default_fleet_workers",
    "default_planner",
    "plan_of_context",
]

#: The tiers, cheapest first.  ``auto`` is a request, not a tier.
TIERS = ("scalar", "batched", "incremental", "sharded")

#: Tiers that own live delta-maintained state (accept density/constraints).
LIVE_TIERS = ("incremental", "sharded")

#: Mirrors ``repro.core.ground.MAX_DENSE_SIZE`` (engine layering keeps
#: this module from importing core; the test suite asserts agreement).
DENSE_LIMIT = 22


@dataclass(frozen=True)
class EngineConfig:
    """One configuration object for the whole engine stack.

    ``engine`` requests a tier (``"auto"`` lets the planner choose);
    every other evaluation knob is either pinned here or left ``None``
    for the planner to resolve.  Durability (``durable`` /
    ``snapshot_every`` / ``fsync``) and cache budgets ride along so a
    service boots from exactly one object.
    """

    engine: str = "auto"
    backend: Optional[str] = None
    shards: Optional[int] = None
    workers: Optional[int] = None
    durable: Optional[str] = None
    snapshot_every: Optional[int] = None
    fsync: str = "always"
    tol: float = DEFAULT_TOLERANCE
    #: LRU budget for memoized server answers (ConstraintServer).
    cache_size: int = 4096
    #: Use a private ImplicationCache instead of the process-wide one.
    private_cache: bool = False

    def __post_init__(self):
        if self.engine not in ("auto",) + TIERS:
            raise PlanError(
                f"unknown engine tier {self.engine!r}; expected 'auto' "
                f"or one of {', '.join(TIERS)}"
            )
        if self.backend is not None and self.backend not in (
            "exact",
            "exact-vec",
            "float",
        ):
            raise PlanError(
                f"unknown backend {self.backend!r}; expected 'exact', "
                "'exact-vec' or 'float'"
            )
        if self.shards is not None and self.shards < 1:
            raise PlanError(f"shards must be >= 1, got {self.shards}")
        if self.workers is not None and self.workers < 1:
            raise PlanError(f"workers must be >= 1, got {self.workers}")
        if self.fsync not in ("always", "never"):
            raise PlanError(
                f"unknown fsync policy {self.fsync!r}; "
                "expected 'always' or 'never'"
            )
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise PlanError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if self.cache_size < 1:
            raise PlanError(f"cache_size must be >= 1, got {self.cache_size}")

    def replace(self, **changes) -> "EngineConfig":
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class Workload:
    """What the planner knows about the job.

    ``delta_rate`` is the expected density deltas per committed
    transaction (live sessions measure it online and re-plan);
    ``density_size`` the number of distinct nonzero density masks;
    ``queries`` the expected implication/check query volume.  ``cpus``
    defaults to the host CPU count.
    """

    n: int
    constraints: int = 0
    delta_rate: float = 0.0
    density_size: int = 0
    queries: int = 0
    streaming: bool = False
    cpus: Optional[int] = None

    def __post_init__(self):
        if self.n < 0:
            raise PlanError(f"ground-set size must be >= 0, got {self.n}")
        if self.cpus is not None and self.cpus < 1:
            raise PlanError(f"cpus must be >= 1, got {self.cpus}")

    @property
    def host_cpus(self) -> int:
        """The CPU budget the cost model sees: an explicit ``cpus`` pin,
        else the affinity-aware :func:`~repro.engine.calibrate.effective_cpus`
        (``os.cpu_count()`` overstates parallelism under CPU pinning and
        container quotas, which used to route constrained hosts onto the
        strictly-slower sharded tier)."""
        return self.cpus if self.cpus is not None else effective_cpus()


@dataclass(frozen=True)
class Plan:
    """A fully resolved evaluation plan (every knob concrete except
    ``workers``, whose ``None`` means "inline until fanned out" --
    :func:`build_context` then defers executor creation).
    """

    tier: str
    backend: str
    shards: int
    workers: Optional[int]
    config: EngineConfig
    reasons: Tuple[str, ...] = ()
    #: Sharded-tier transport knobs (``None`` on unsharded plans and on
    #: plans built before the transport term existed): the executor
    #: sync strategy (``"delta"``/``"reship"``), the per-shard delta
    #: journal capacity, and whether table returns ride shared memory.
    sync: Optional[str] = None
    journal_bound: Optional[int] = None
    shm: Optional[bool] = None

    @property
    def effective_workers(self) -> int:
        """The worker count the plan will actually run with (``None``
        workers fall back to single-process inline execution)."""
        return self.workers if self.workers is not None else 1

    def stamp(self) -> str:
        """The one-line configuration stamp (CLI output, /stats)."""
        return (
            f"tier={self.tier}, backend={self.backend}, "
            f"shards={self.shards}, workers={self.effective_workers}"
        )

    def as_dict(self) -> dict:
        """JSON-friendly form (the service's ``/stats`` block)."""
        out = {
            "tier": self.tier,
            "backend": self.backend,
            "shards": self.shards,
            "workers": self.effective_workers,
            "durable": bool(self.config.durable),
        }
        if self.sync is not None:
            out["sync"] = self.sync
            out["journal_bound"] = self.journal_bound
            out["shm"] = self.shm
        return out

    def explain(self) -> str:
        """Multi-line cost-model reasoning (``repro plan --explain``)."""
        lines = [f"plan: {self.stamp()}"]
        lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


class Planner:
    """The cost model.  Thresholds are instance attributes so tests (and
    unusual deployments) can move every boundary; the defaults encode
    the measured crossovers from the E5/E16/E17 benchmarks.
    """

    #: Ground sets this small have at most two subsets: stay scalar.
    SCALAR_MAX_N = 1
    #: From here up, the vectorized exact backend's int64 butterflies
    #: beat python-list loops (below, numpy call overhead dominates).
    VEC_MIN_N = 8
    #: The incremental tier's higher vectorization bar: per-delta
    #: maintenance is 2^|mask| gather/scatter-dominated, where python
    #: lists stay ahead until tables reach this size (the E20 per-delta
    #: rows measure the crossover at |S| = 16: ~1.1x for exact-vec).
    VEC_STREAM_MIN_N = 14
    #: From here up, float64 tables edge out int64+promotion checks
    #: whenever a nonzero tolerance licenses lossy storage.
    FLOAT_MIN_N = 14
    #: Fanning out needs parallel hardware...
    SHARD_MIN_CPUS = 4
    #: ...and per-shard tables big enough to amortize the fan-out...
    SHARD_MIN_N = 12
    #: ...and an instance that is actually loaded:
    SHARD_MIN_DENSITY = 50_000
    SHARD_MIN_DELTA_RATE = 2_000.0
    #: Shards beyond this just queue behind the worker pools.
    MAX_SHARDS = 8
    #: Shared-memory table returns pay a flat publish+attach cost per
    #: segment; below this table size a pickle is smaller than the
    #: setup, so returns stay pickled.  Calibration moves the bar from
    #: the measured pickle-bytes vs shm-roundtrip race.
    SHM_MIN_N = 15
    #: Clamps on the planner-chosen delta-journal capacity: one noisy
    #: transport measurement must not produce a journal that is useless
    #: (every sync overflows) or unbounded (the parent hoards records).
    JOURNAL_MIN = 256
    JOURNAL_MAX = 65_536
    #: Fleet workers beyond this just multiply idle event loops: each
    #: worker process pins (at most) one core, so the fleet size is
    #: CPU-bound the same way the shard worker pool is.
    FLEET_MAX_WORKERS = 8
    #: Live auto sessions re-consult the planner this often (in
    #: committed transactions).
    REPLAN_EVERY = 64

    def __init__(self, profile=None, **overrides):
        #: The measured :class:`~repro.engine.calibrate.HostProfile`
        #: behind this planner's thresholds, or ``None`` for the stock
        #: (assumed) cost model.  Plans built with a profile carry
        #: measured-vs-assumed reason lines; without one the output is
        #: byte-identical to the uncalibrated planner's.
        self.profile = profile
        for name, value in overrides.items():
            if not hasattr(type(self), name) or name.startswith("_"):
                raise PlanError(f"unknown planner threshold {name!r}")
            setattr(self, name, value)

    @classmethod
    def calibrated(cls, profile) -> "Planner":
        """A planner whose thresholds come from a measured
        :class:`~repro.engine.calibrate.HostProfile` (bars the profile
        cannot derive keep the class defaults)."""
        return cls(profile=profile, **profile.thresholds())

    # ------------------------------------------------------------------
    def plan(self, workload: Workload, config: Optional[EngineConfig] = None) -> Plan:
        """Resolve a :class:`Plan` for ``workload`` under ``config``."""
        if config is None:
            config = EngineConfig()
        n = workload.n
        cpus = workload.host_cpus
        reasons = []

        tier = self._resolve_tier(workload, config, cpus, reasons)
        self._check_tier(tier, workload, config)

        # the vectorization bar is tier-aware: incremental sessions are
        # per-delta dominated (2^|mask| gather/scatters, where python
        # lists beat numpy call overhead), so their bar sits higher than
        # the rebuild-dominated batched/sharded tiers'
        vec_min = (
            self.VEC_STREAM_MIN_N if tier == "incremental" else self.VEC_MIN_N
        )
        bar = (
            f"the incremental tier's per-delta vectorization bar {vec_min}"
            if tier == "incremental"
            else f"the vectorization bar {vec_min}"
        )
        backend = config.backend
        if backend is not None:
            reasons.append(f"backend={backend}: pinned by config")
        elif config.tol == 0:
            if n >= vec_min:
                backend = "exact-vec"
                reasons.append(
                    "backend=exact-vec: tol=0 demands exact zero tests; "
                    f"|S|={n} >= {vec_min}, int64 butterflies with "
                    "overflow-checked promotion keep them exact and fast"
                )
            else:
                backend = "exact"
                reasons.append(
                    "backend=exact: tol=0 demands exact zero tests and "
                    f"|S|={n} is below {bar}"
                )
        elif n >= self.FLOAT_MIN_N:
            backend = "float"
            reasons.append(
                f"backend=float: |S|={n} >= {self.FLOAT_MIN_N}, vectorized "
                f"2^n tables win and tol={config.tol:g} absorbs fp error"
            )
        elif n >= vec_min:
            backend = "exact-vec"
            reasons.append(
                f"backend=exact-vec: {vec_min} <= |S|={n} < "
                f"{self.FLOAT_MIN_N}, vectorized int64 butterflies win "
                "while staying exact (object-dtype promotion on overflow)"
            )
        else:
            backend = "exact"
            reasons.append(
                f"backend=exact: |S|={n} is below {bar}; python numbers "
                "are cheap and lossless at this size"
            )

        sync = journal_bound = shm = None
        if tier == "sharded":
            shards = config.shards
            if shards is None:
                shards = max(2, min(cpus, self.MAX_SHARDS))
                reasons.append(
                    f"shards={shards}: min(cpus={cpus}, "
                    f"max_shards={self.MAX_SHARDS})"
                )
            else:
                reasons.append(f"shards={shards}: pinned by config")
            workers = config.workers
            if workers is None and config.shards is None:
                # a planner-chosen fan-out resolves its worker pool too
                workers = min(cpus, shards)
                reasons.append(f"workers={workers}: min(cpus={cpus}, shards)")
            elif workers is None:
                reasons.append(
                    "workers=inline: unpinned on a pinned shard count -- "
                    "single-process until an executor is attached"
                )
            else:
                workers = min(workers, max(1, shards))
                reasons.append(
                    f"workers={workers}: pinned by config, capped by shards"
                )
            sync, journal_bound, shm = self._transport_term(
                workload, n, shards, reasons
            )
        else:
            shards, workers = 1, 1
            reasons.append(f"shards=1, workers=1: {tier} tier is unsharded")

        if self.profile is not None:
            reasons.extend(self._calibration_reasons())

        return Plan(
            tier=tier,
            backend=backend,
            shards=shards,
            workers=workers,
            config=config,
            reasons=tuple(reasons),
            sync=sync,
            journal_bound=journal_bound,
            shm=shm,
        )

    def _transport_term(self, workload, n, shards, reasons):
        """The sharded tier's transport decision: sync strategy, delta
        journal capacity and shared-memory table returns.

        With a measured profile the journal bound is the gap at which
        shipping journal records costs as much as the full reship it
        replaces (payload pickle at ``pickle_item_s`` per item plus one
        table rebuild at ``predict_vec_s``), clamped to
        [:attr:`JOURNAL_MIN`, :attr:`JOURNAL_MAX`]; a host whose
        records cost more than whole reships (never seen in practice,
        but measurable) falls back to ``sync="reship"``.  Without a
        profile the bound stays on the assumed
        :data:`~repro.engine.shard.DEFAULT_JOURNAL_BOUND` so CI plans
        remain deterministic.
        """
        from repro.engine.shard import DEFAULT_JOURNAL_BOUND

        profile = self.profile
        measured = (
            profile is not None
            and profile.pickle_item_s is not None
            and profile.delta_record_s is not None
        )
        sync = "delta"
        if measured:
            per_shard_nnz = max(1, workload.density_size // max(shards, 1))
            reship_s = (
                per_shard_nnz * profile.pickle_item_s
                + profile.predict_vec_s(n)
            )
            raw_bound = int(reship_s / profile.delta_record_s)
            if raw_bound < 1:
                sync = "reship"
                journal_bound = self.JOURNAL_MIN
                reasons.append(
                    "transport: sync=reship measured -- one journal record "
                    f"({profile.delta_record_s:.2e}s) costs more than a "
                    f"full payload reship ({reship_s:.2e}s)"
                )
            else:
                journal_bound = max(
                    self.JOURNAL_MIN, min(self.JOURNAL_MAX, raw_bound)
                )
                reasons.append(
                    f"transport: sync=delta, journal_bound={journal_bound} "
                    f"measured (reship {reship_s:.2e}s / record "
                    f"{profile.delta_record_s:.2e}s, clamped to "
                    f"[{self.JOURNAL_MIN}, {self.JOURNAL_MAX}])"
                )
        else:
            journal_bound = DEFAULT_JOURNAL_BOUND
            reasons.append(
                f"transport: sync=delta, journal_bound={journal_bound} "
                "assumed (no transport calibration)"
            )
        shm = n >= self.SHM_MIN_N
        bar_kind = (
            "measured"
            if profile is not None and "SHM_MIN_N" in profile.thresholds()
            else "assumed"
        )
        if shm:
            reasons.append(
                f"transport: shm table returns -- |S|={n} >= shm bar "
                f"{self.SHM_MIN_N} {bar_kind} (pickling 2^{n} entries "
                "dwarfs a segment publish+attach)"
            )
        else:
            reasons.append(
                f"transport: pickled table returns -- |S|={n} < shm bar "
                f"{self.SHM_MIN_N} {bar_kind}"
            )
        return sync, journal_bound, shm

    def _calibration_reasons(self):
        """The measured-vs-assumed lines ``plan --explain`` prints when
        the planner runs on a :class:`~repro.engine.calibrate.HostProfile`:
        which bars the host measurement moved (and from where), which
        still ride on the stock constants."""
        defaults = type(self)
        measured = set(self.profile.thresholds())

        def bar(name: str) -> str:
            value = getattr(self, name)
            if name in measured:
                return (
                    f"{name.lower()}={value} measured "
                    f"(assumed {getattr(defaults, name)})"
                )
            return f"{name.lower()}={value} assumed"

        names = (
            "VEC_MIN_N",
            "VEC_STREAM_MIN_N",
            "FLOAT_MIN_N",
            "SHARD_MIN_N",
            "SHM_MIN_N",
        )
        return [
            f"calibration: {self.profile.describe()}",
            "calibration: " + ", ".join(bar(name) for name in names),
        ]

    def _resolve_tier(self, workload, config, cpus, reasons) -> str:
        n = workload.n
        if config.engine != "auto":
            reasons.append(f"tier={config.engine}: pinned by config")
            return config.engine
        live = workload.streaming or workload.delta_rate > 0
        if n > DENSE_LIMIT:
            reasons.append(
                f"tier=scalar: |S|={n} > dense limit {DENSE_LIMIT}, "
                "2^n tables are impossible (scalar/SAT paths only)"
            )
            return "scalar"
        if not live:
            if n <= self.SCALAR_MAX_N:
                reasons.append(
                    f"tier=scalar: |S|={n} <= {self.SCALAR_MAX_N}, the "
                    "table machinery cannot pay for itself"
                )
                return "scalar"
            reasons.append(
                "tier=batched: one-shot workload (no deltas expected); "
                "build tables once, memoize by fingerprint"
            )
            return "batched"
        loaded = (
            workload.density_size >= self.SHARD_MIN_DENSITY
            or workload.delta_rate >= self.SHARD_MIN_DELTA_RATE
        )
        if cpus >= self.SHARD_MIN_CPUS and n >= self.SHARD_MIN_N and loaded:
            reasons.append(
                f"tier=sharded: streaming with cpus={cpus} >= "
                f"{self.SHARD_MIN_CPUS}, |S|={n} >= {self.SHARD_MIN_N} and "
                f"load (density={workload.density_size}, "
                f"delta_rate={workload.delta_rate:g}) past the fan-out bar"
            )
            return "sharded"
        reasons.append(
            "tier=incremental: streaming workload below the fan-out bar "
            f"(cpus={cpus}, |S|={n}, density={workload.density_size}, "
            f"delta_rate={workload.delta_rate:g})"
        )
        return "incremental"

    @staticmethod
    def _check_tier(tier, workload, config) -> None:
        if tier in ("batched",) + tuple(LIVE_TIERS) and workload.n > DENSE_LIMIT:
            raise PlanError(
                f"tier {tier!r} builds dense 2^|S| tables; |S| = "
                f"{workload.n} exceeds the dense limit {DENSE_LIMIT} "
                "(use engine='scalar' / method='sat')"
            )
        if tier != "sharded" and config.shards is not None and config.shards > 1:
            raise PlanError(
                f"shards={config.shards} pinned on the unsharded tier "
                f"{tier!r}; pin engine='sharded' (or leave it auto)"
            )

    # ------------------------------------------------------------------
    def decide_method(
        self, n: int, fd_fragment: bool = False
    ) -> Tuple[str, str]:
        """Resolve ``method="auto"`` for the implication decider.

        Returns ``(method, reason)``.  One brain for the whole stack:
        the dense cutoff here is the same :data:`DENSE_LIMIT` the tier
        model uses, so the decider and the context factory cannot
        disagree.
        """
        if fd_fragment:
            return (
                "fd",
                "every family is a singleton: the P-time FD fragment "
                "(attribute closure)",
            )
        if n <= DENSE_LIMIT:
            return (
                "engine",
                f"|S|={n} <= dense limit {DENSE_LIMIT}: batched "
                "fingerprint-memoized table containment",
            )
        return (
            "sat",
            f"|S|={n} > dense limit {DENSE_LIMIT}: DPLL refutation "
            "(Prop 5.4) scales past dense tables",
        )

    def replan_due(self, transactions: int) -> bool:
        """Whether a live auto session should re-consult the planner."""
        return transactions > 0 and transactions % self.REPLAN_EVERY == 0

    def __repr__(self) -> str:
        return (
            f"Planner(vec>={self.VEC_MIN_N} "
            f"(stream>={self.VEC_STREAM_MIN_N}), "
            f"float>={self.FLOAT_MIN_N}, "
            f"shard>=({self.SHARD_MIN_CPUS}cpu,{self.SHARD_MIN_N}n,"
            f"{self.SHARD_MIN_DENSITY}nnz|{self.SHARD_MIN_DELTA_RATE:g}/tx))"
        )


_DEFAULT_PLANNER = Planner()

#: Calibrated planners cached per resolved profile path, so flipping
#: ``REPRO_CALIBRATION`` between values (hermetic tests do) cannot
#: leak one host profile into another's planner.
_CALIBRATED_PLANNERS: dict = {}


def default_planner() -> Planner:
    """The process-wide planner.

    With calibration disabled (``REPRO_CALIBRATION`` unset/off -- the
    default, and what CI runs with) this is the stock cost model and
    plans are fully deterministic.  With it enabled, the per-host
    profile is loaded (measured on first use) and the returned planner
    carries thresholds fitted to this machine; a failed calibration
    warns and falls back to the stock planner.
    """
    from repro.engine import calibrate

    key = calibrate.calibration_mode()
    if key is None:
        return _DEFAULT_PLANNER
    planner = _CALIBRATED_PLANNERS.get(key)
    if planner is None:
        profile = calibrate.active_profile()
        planner = (
            _DEFAULT_PLANNER if profile is None else Planner.calibrated(profile)
        )
        _CALIBRATED_PLANNERS[key] = planner
    return planner


def default_fleet_workers(cpus: Optional[int] = None) -> int:
    """The worker-process count ``repro fleet`` defaults to.

    One :class:`~repro.engine.net.ReproService` event loop saturates
    one core, so the natural fleet size is the affinity-aware
    :func:`~repro.engine.calibrate.effective_cpus` count, capped at
    :attr:`Planner.FLEET_MAX_WORKERS` (past the cap extra processes
    only add restart surface and memory).  Pass ``cpus`` to plan for a
    different host.
    """
    if cpus is None:
        cpus = effective_cpus()
    return max(1, min(cpus, Planner.FLEET_MAX_WORKERS))


def build_context(
    plan: Plan,
    ground,
    density=None,
    constraints=(),
    cache=None,
    executor=None,
    shard_plan=None,
):
    """The one context factory: a resolved :class:`Plan` becomes the
    matching evaluation context.  Nothing else in the library (CLI,
    sessions, databases, checkers, services) constructs contexts.

    ``scalar``/``batched`` plans yield a stateless
    :class:`~repro.engine.context.EvalContext` (scalar plans force no
    backend so operands keep their own storage); live plans yield an
    :class:`~repro.engine.incremental.IncrementalEvalContext` or
    :class:`~repro.engine.shard.ShardedEvalContext` seeded with
    ``density``/``constraints``.  ``shard_plan`` passes a custom
    :class:`~repro.engine.shard.ShardPlan` (mask routing) through and
    is refused by any tier but ``sharded``;
    ``executor`` a shared :class:`~repro.engine.parallel.ParallelExecutor`.
    """
    config = plan.config
    if plan.tier not in TIERS:
        raise PlanError(f"unknown plan tier {plan.tier!r}")
    if shard_plan is not None and plan.tier != "sharded":
        raise PlanError(
            f"a shard_plan needs the sharded tier, but the plan resolved "
            f"{plan.tier!r}; pass config=EngineConfig(engine='sharded')"
        )
    if plan.tier not in LIVE_TIERS:
        if density or tuple(constraints):
            raise PlanError(
                f"plan tier {plan.tier!r} builds a stateless context; "
                "live density/constraints need the incremental or "
                "sharded tier"
            )
        return EvalContext(
            backend=None if plan.tier == "scalar" else plan.backend,
            cache=cache,
            private_cache=config.private_cache,
        )
    common = dict(
        density=density,
        constraints=constraints,
        backend=plan.backend,
        tol=config.tol,
        cache=cache,
        private_cache=config.private_cache,
    )
    if plan.tier == "sharded":
        from repro.engine.shard import ShardedEvalContext

        transport = {}
        if plan.sync is not None:
            transport["sync"] = plan.sync
        if plan.journal_bound is not None:
            transport["journal_bound"] = plan.journal_bound
        if plan.shm is not None:
            transport["shm_tables"] = plan.shm
        return ShardedEvalContext(
            ground,
            shards=plan.shards,
            plan=shard_plan,
            workers=plan.workers,
            executor=executor,
            **transport,
            **common,
        )
    from repro.engine.incremental import IncrementalEvalContext

    return IncrementalEvalContext(ground, **common)


def plan_of_context(context, config: Optional[EngineConfig] = None) -> Plan:
    """Describe an existing context as a :class:`Plan` (for stamping a
    context that was built outside a session, e.g. by
    :meth:`repro.fis.BasketDatabase.sharded_context`)."""
    from repro.engine.incremental import IncrementalEvalContext
    from repro.engine.shard import ShardedEvalContext

    backend = context.backend.name if context.backend is not None else "inherit"
    if isinstance(context, ShardedEvalContext):
        executor = context.executor
        workers = executor.workers if executor is not None else None
        tier, shards = "sharded", context.shards
    elif isinstance(context, IncrementalEvalContext):
        tier, shards, workers = "incremental", 1, 1
    else:
        tier = "batched" if context.backend is not None else "scalar"
        shards, workers = 1, 1
    if config is None:
        config = EngineConfig(
            engine=tier,
            backend=None if backend == "inherit" else backend,
            shards=shards,
            workers=workers,
        )
    return Plan(
        tier=tier,
        backend=backend,
        shards=shards,
        workers=workers,
        config=config,
        reasons=(f"described from a live {type(context).__name__}",),
    )
