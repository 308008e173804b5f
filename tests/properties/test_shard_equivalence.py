"""Property suite: shard tables merged by sum exactly equal unsharded tables.

Mask-routed sharding gives the per-shard densities disjoint supports,
so density/support/differential tables must merge to the unsharded
tables *exactly* -- bit for bit on the exact backend, and bit for bit
on the float backend too for integer-valued deltas (float64 addition of
small integers is exact regardless of order).  The suite routes random
delta sequences through a :class:`ShardPlan` onto an inline
:class:`ParallelExecutor` across shard counts ``K in {1, 2, 3, 7}``,
default and deliberately uneven custom routes (including
all-rows-on-one-shard, which leaves the other shards empty), and
asserts exact equality with the live incremental context: merged
tables, any-over-shards verdicts and summed support probes.  A last
property checks the microbatching server's answers against the direct
decider for a live instance.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.core import (
    ConstraintSet,
    DifferentialConstraint,
    GroundSet,
    SetFamily,
    SetFunction,
    decide,
)
from repro.engine import (
    ConstraintServer,
    EvalRequest,
    IncrementalEvalContext,
    ParallelExecutor,
    ShardPlan,
    recompute_tables,
)
from repro.engine.backends import backend_by_name

GROUNDS = [GroundSet("ABCDE"[:n]) for n in range(6)]  # |S| = 0..5

BACKENDS = ["exact", "float"]

SHARD_COUNTS = [1, 2, 3, 7]

#: Route makers: shards -> route fn (None = the default hash).  The
#: named alternatives produce deliberately uneven partitions: ``lopsided``
#: routes most masks to shard 0, ``all-on-last`` leaves every other
#: shard empty.
ROUTES = {
    "default": lambda shards: None,
    "modulo": lambda shards: (lambda mask: mask % shards),
    "lopsided": lambda shards: (
        lambda mask: (mask % shards) if mask % 5 == 0 else 0
    ),
    "all-on-last": lambda shards: (lambda mask: shards - 1),
}


def tables_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(
            np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        )
    return list(a) == list(b)


@st.composite
def instances(draw):
    """Ground set, constraints, integer delta sequence, shard plan."""
    ground = draw(st.sampled_from(GROUNDS))
    universe = ground.universe_mask
    masks = st.integers(min_value=0, max_value=universe)
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lhs = draw(masks)
        members = draw(st.lists(masks, min_size=0, max_size=3))
        constraints.append(
            DifferentialConstraint(ground, lhs, SetFamily(ground, members))
        )
    deltas = draw(
        st.lists(
            st.tuples(masks, st.integers(min_value=-3, max_value=3)),
            min_size=0,
            max_size=12,
        )
    )
    shards = draw(st.sampled_from(SHARD_COUNTS))
    route = ROUTES[draw(st.sampled_from(sorted(ROUTES)))](shards)
    return ground, constraints, deltas, ShardPlan(shards, route=route)


def fan_out(ground, constraints, deltas, plan, backend_name, probes=()):
    """Route ``deltas`` by ``plan`` onto an inline executor and evaluate.

    Every shard is loaded empty and evaluated once (so the worker
    caches its tables), then receives its own deltas as one journal
    batch -- the tables the second evaluation returns are maintained
    in place, not rebuilt.  Returns ``(plain, answers)`` where
    ``plain`` is the unsharded incremental context fed the same deltas.
    """
    plain = IncrementalEvalContext(
        ground, constraints=constraints, backend=backend_name
    )
    records = [[] for _ in range(plan.shards)]
    for mask, delta in deltas:
        plain.apply_delta(mask, delta)
        records[plan.shard_of(mask)].append((mask, delta))
    specs = tuple((c.lhs, tuple(c.family.members)) for c in constraints)
    families = tuple(tuple(c.family.members) for c in constraints)

    def requests(versions):
        return [
            EvalRequest(
                shard_id=k,
                version=versions[k],
                n=ground.size,
                backend=backend_name,
                tol=plain.tol,
                constraints=specs,
                probes=tuple(probes),
                families=families,
                return_tables=True,
            )
            for k in range(plan.shards)
        ]

    with ParallelExecutor(workers=1) as ex:
        ex.load_density_many([(k, 0, []) for k in range(plan.shards)])
        ex.evaluate(requests([0] * plan.shards))
        updates = [(k, 0, 1, recs) for k, recs in enumerate(records) if recs]
        assert all(ex.apply_deltas_many(updates, backend_name))
        versions = [1 if recs else 0 for recs in records]
        answers = ex.evaluate(requests(versions))
    return plain, answers


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=250)
@given(data=instances())
def test_sharded_tables_equal_unsharded(backend_name, data):
    """Merged-by-sum shard tables == the unsharded incremental tables ==
    a from-scratch batched recompute.  Exact equality on both backends."""
    ground, constraints, deltas, plan = data
    backend = backend_by_name(backend_name)
    plain, answers = fan_out(ground, constraints, deltas, plan, backend_name)
    merged_density = backend.sum_tables([a.density_table for a in answers])
    merged_support = backend.sum_tables([a.support_table for a in answers])
    assert tables_equal(merged_density, plain.density_table())
    assert tables_equal(merged_support, plain.support_table())
    for j, c in enumerate(constraints):
        merged = backend.sum_tables(
            [a.differential_tables[j] for a in answers]
        )
        assert tables_equal(merged, plain.differential_table(c.family))

    # and everything equals a from-scratch recompute
    families = [c.family.members for c in constraints]
    density, support, diffs = recompute_tables(
        ground.size, plain.density_items(), families, backend
    )
    assert tables_equal(merged_density, density)
    assert tables_equal(merged_support, support)
    for c, want in zip(constraints, diffs):
        assert tables_equal(plain.differential_table(c.family), want)


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=150)
@given(data=instances())
def test_shard_supports_are_disjoint_and_complete(backend_name, data):
    """Every nonzero density mask lives on exactly its planned shard;
    empty shards contribute all-zero tables to the merge."""
    ground, constraints, deltas, plan = data
    plain, answers = fan_out(ground, constraints, deltas, plan, backend_name)
    parts = plan.partition_density(plain.density_items())
    seen = {}
    for k, part in enumerate(parts):
        for mask, value in part.items():
            assert plan.shard_of(mask) == k
            assert mask not in seen
            seen[mask] = value
    assert seen == dict(plain.density_items())
    zeros = backend_by_name(backend_name).zeros(1 << ground.size)
    for k, part in enumerate(parts):
        assert answers[k].nnz == len(part)
        if not part:
            assert tables_equal(answers[k].density_table, zeros)


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=100)
@given(data=instances())
def test_parallel_evaluate_matches_scalar_oracle(backend_name, data):
    """Fan-out verdicts (any-over-shards) and support probes (scalar
    sums) == scalar satisfied_by / value on the rebuilt function."""
    ground, constraints, deltas, plan = data
    probes = list(range(min(4, 1 << ground.size)))
    plain, answers = fan_out(
        ground, constraints, deltas, plan, backend_name, probes=probes
    )
    f = SetFunction.from_density(
        ground,
        dict(plain.density_items()),
        exact=(backend_name == "exact"),
    )
    for i, c in enumerate(constraints):
        violated = any(a.verdicts[i] for a in answers)
        assert violated == (not c.satisfied_by(f))
        assert violated == plain.is_violated(c)
    for i, mask in enumerate(probes):
        assert sum(a.probes[i] for a in answers) == f.value(mask)


@settings(max_examples=40)
@given(data=instances())
def test_server_answers_match_direct_decide(data):
    """Microbatched, coalesced, memoized answers == decide() -- for
    implication queries against C and checks against a live
    incremental instance."""
    ground, constraints, deltas, _plan = data
    cset = ConstraintSet(ground, constraints)
    live = IncrementalEvalContext(ground, constraints=constraints)
    for mask, delta in deltas:
        live.apply_delta(mask, delta)
    targets = list(constraints) + [
        DifferentialConstraint(
            ground, 0, SetFamily(ground, [ground.universe_mask])
        )
    ]

    async def scenario():
        async with ConstraintServer(
            cset, instance=live, max_delay=0.0005
        ) as server:
            implied = await asyncio.gather(
                *[server.implies(t) for t in targets]
            )
            checked = await asyncio.gather(
                *[server.check(t) for t in targets]
            )
            return implied, checked

    implied, checked = asyncio.run(scenario())
    f = SetFunction.from_density(ground, dict(live.density_items()), exact=True)
    for t, answer in zip(targets, implied):
        assert answer == decide(cset, t)
    for t, answer in zip(targets, checked):
        assert answer == t.satisfied_by(f)
