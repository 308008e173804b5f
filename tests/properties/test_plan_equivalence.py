"""Property suite: every tier the planner can pick is the same engine.

The planner chooses *how* to evaluate, never *what* the answer is: for
any workload, the live contexts it resolves (whatever the workload
shape) and the batched tier's from-scratch recompute must produce
byte-identical density / support / differential tables and identical
constraint verdicts on both backends.  Integer-valued deltas keep
float64 sums exact, so equality is literal ``==`` on both backends,
never approximate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.core import DifferentialConstraint, GroundSet, SetFamily
from repro.engine import (
    EngineConfig,
    Workload,
    build_context,
    default_planner,
    recompute_tables,
)

GROUNDS = [GroundSet("ABCDE"[:n]) for n in range(6)]  # |S| = 0..5

BACKENDS = ["exact", "float"]


def tables_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(
            np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        )
    return list(a) == list(b)


@st.composite
def instances(draw):
    """Ground set, constraints, and an integer transaction stream."""
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
    transactions = draw(
        st.lists(
            st.lists(
                st.tuples(masks, st.integers(min_value=-3, max_value=3)),
                min_size=1,
                max_size=3,
            ),
            min_size=0,
            max_size=8,
        )
    )
    return ground, constraints, transactions


def _live_plans(n, config_backend):
    """Every live plan the stock planner resolves for some workload
    shape: pinned incremental, and auto under idle and high-rate
    streaming workloads (all the incremental tier)."""
    planner = default_planner()
    plans = [
        planner.plan(
            Workload(n=n, streaming=True),
            EngineConfig(engine="incremental", backend=config_backend),
        )
    ]
    for shape in ({}, {"delta_rate": 5_000.0}):
        plans.append(
            planner.plan(
                Workload(n=n, streaming=True, **shape),
                EngineConfig(backend=config_backend),
            )
        )
    assert {plan.tier for plan in plans} == {"incremental"}
    return plans


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=120)
@given(data=instances())
def test_every_plannable_tier_is_byte_identical(backend_name, data):
    ground, constraints, transactions = data
    deltas = [d for tx in transactions for d in tx]
    contexts = [
        build_context(plan, ground, constraints=constraints)
        for plan in _live_plans(ground.size, backend_name)
    ]
    for ctx in contexts:
        ctx.support_table()  # materialize: must be delta-maintained
        for c in constraints:
            ctx.differential_table(c.family)
        for mask, delta in deltas:
            ctx.apply_delta(mask, delta)
    oracle, rest = contexts[0], contexts[1:]
    for ctx in rest:
        assert tables_equal(ctx.density_table(), oracle.density_table())
        assert tables_equal(ctx.support_table(), oracle.support_table())
        for c in constraints:
            assert tables_equal(
                ctx.differential_table(c.family),
                oracle.differential_table(c.family),
            )
        assert ctx.zero_set() == oracle.zero_set()
        assert ctx.violated_constraints() == oracle.violated_constraints()
    # the batched tier rebuilds the same tables from scratch
    batched = default_planner().plan(
        Workload(n=ground.size),
        EngineConfig(engine="batched", backend=backend_name),
    )
    density, support, diffs = recompute_tables(
        ground.size,
        oracle.density_items(),
        [c.family.members for c in constraints],
        build_context(batched, ground).backend,
    )
    assert tables_equal(density, oracle.density_table())
    assert tables_equal(support, oracle.support_table())
    for c, want in zip(constraints, diffs):
        assert tables_equal(want, oracle.differential_table(c.family))
