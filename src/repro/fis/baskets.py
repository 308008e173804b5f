"""Basket databases -- the lists ``B`` of the frequent itemset problem.

Section 6.1 of the paper: a *list of baskets* ``B`` over items ``S``
(duplicates allowed -- it is a list, not a set), the *cover*
``B(X) = {i | X subseteq B[i]}``, the *support* ``s_B(X) = |B(X)|`` and
the basket multiset count ``d^B(X) = |{i | B[i] = X}|``, which Remark 2.3
identifies as the density of the support function.

Supports are counted against a vertical bitmap (one boolean row per
item); intersecting rows answers a support query in ``O(|B|)`` numpy
words independent of how many itemsets have been queried before.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import subsets as sb
from repro.core.ground import GroundSet
from repro.core.setfunction import SetFunction, SparseDensityFunction
from repro.engine.plan import (
    EngineConfig,
    Workload,
    build_context,
    default_planner,
)

__all__ = ["BasketDatabase"]

#: The engine policy of :meth:`BasketDatabase.sharded_context` without
#: ``config=``: the sharded tier on the exact backend, shard and worker
#: counts left to the planner.
SHARDED_DEFAULT_CONFIG = EngineConfig(engine="sharded", backend="exact")


class BasketDatabase:
    """An immutable list of baskets over a ground set of items."""

    __slots__ = ("_ground", "_baskets", "_bitmap")

    def __init__(self, ground: GroundSet, baskets: Iterable):
        masks: List[int] = []
        for basket in baskets:
            mask = basket if isinstance(basket, int) else ground.parse(basket)
            ground._check_mask(mask)
            masks.append(mask)
        self._ground = ground
        self._baskets: Tuple[int, ...] = tuple(masks)
        self._bitmap: Optional[np.ndarray] = None

    @classmethod
    def of(cls, ground: GroundSet, *baskets) -> "BasketDatabase":
        """Build from baskets in the paper's shorthand.

        >>> S = GroundSet("ABC")
        >>> BasketDatabase.of(S, "AB", "AB", "C")
        BasketDatabase(3 baskets over |S|=3)
        """
        return cls(ground, baskets)

    # ------------------------------------------------------------------
    @property
    def ground(self) -> GroundSet:
        return self._ground

    @property
    def baskets(self) -> Tuple[int, ...]:
        """The basket masks in list order."""
        return self._baskets

    def __len__(self) -> int:
        return len(self._baskets)

    def __iter__(self) -> Iterator[int]:
        return iter(self._baskets)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BasketDatabase)
            and self._ground == other._ground
            and self._baskets == other._baskets
        )

    def __hash__(self) -> int:
        return hash((self._ground, self._baskets))

    def __repr__(self) -> str:
        return f"BasketDatabase({len(self._baskets)} baskets over |S|={self._ground.size})"

    # ------------------------------------------------------------------
    # covers and supports
    # ------------------------------------------------------------------
    def _bitmap_rows(self) -> np.ndarray:
        """items x baskets boolean matrix (built lazily)."""
        if self._bitmap is None:
            n_items = self._ground.size
            rows = np.zeros((n_items, len(self._baskets)), dtype=bool)
            for i, basket in enumerate(self._baskets):
                for bit in sb.iter_bits(basket):
                    rows[bit, i] = True
            self._bitmap = rows
        return self._bitmap

    def cover_array(self, x_mask: int) -> np.ndarray:
        """``B(X)`` as a boolean array over basket indices."""
        self._ground._check_mask(x_mask)
        rows = self._bitmap_rows()
        out = np.ones(len(self._baskets), dtype=bool)
        for bit in sb.iter_bits(x_mask):
            out &= rows[bit]
        return out

    def cover(self, x_mask: int) -> frozenset:
        """``B(X) = {i | X subseteq B[i]}`` as a set of indices."""
        return frozenset(np.flatnonzero(self.cover_array(x_mask)).tolist())

    def support(self, x_mask: int) -> int:
        """``s_B(X) = |B(X)|``."""
        return int(self.cover_array(x_mask).sum())

    def support_of(self, labels) -> int:
        """Support with the itemset given as labels/shorthand."""
        return self.support(self._ground.parse(labels))

    def is_frequent(self, x_mask: int, kappa: int) -> bool:
        """Whether ``s_B(X) >= kappa``."""
        return self.support(x_mask) >= kappa

    # ------------------------------------------------------------------
    # densities and support functions
    # ------------------------------------------------------------------
    def multiset_counts(self) -> Dict[int, int]:
        """``d^B``: how many times each distinct basket occurs."""
        return dict(Counter(self._baskets))

    def support_function(self) -> SparseDensityFunction:
        """``s_B`` as a sparse set function (density = ``d^B``; Section 6.1).

        Scales with the number of distinct baskets, not with ``2^|S|``.
        """
        return SparseDensityFunction(self._ground, self.multiset_counts())

    def dense_support_function(self) -> SetFunction:
        """``s_B`` as a dense exact set function (small ``|S|`` only)."""
        return SetFunction.from_density(
            self._ground, self.multiset_counts(), exact=True
        )

    # ------------------------------------------------------------------
    def items_present(self) -> int:
        """Mask of items occurring in at least one basket."""
        mask = 0
        for basket in self._baskets:
            mask |= basket
        return mask

    def extended(self, more_baskets: Iterable) -> "BasketDatabase":
        """A new database with extra baskets appended."""
        extra = [
            b if isinstance(b, int) else self._ground.parse(b)
            for b in more_baskets
        ]
        return BasketDatabase(self._ground, self._baskets + tuple(extra))

    def stream_session(self, constraints: Iterable = (), config=None, **kwargs):
        """A :class:`repro.engine.StreamSession` seeded with this database.

        The session's density starts at this database's multiset counts
        ``d^B`` (Section 6.1), so its live value table *is* the support
        function -- basket inserts/deletes are then ``O(2^n)``-per-row
        density deltas with per-delta constraint monitoring, instead of
        support recounts over a rebuilt database.  Mining entry points
        (:func:`repro.fis.discovery.zero_set` and friends) consume the
        session state directly.

        ``config`` is the :class:`repro.engine.EngineConfig` the planner
        resolves the session from (with ``engine="auto"`` the session
        re-plans and promotes tiers online as the instance grows); with
        no ``config`` the session runs the incremental tier on the exact
        backend (:data:`repro.engine.stream.DEFAULT_CONFIG`).  Remaining
        keyword arguments pass through to the session.
        ``config.durable`` makes the session crash-proof and
        *reopenable*: the first open records this database's counts as
        the seed (fingerprinted), later opens on the same directory
        verify the seed still matches and then recover the streamed
        state on top of it -- so a grown instance survives restarts
        while staying pinned to its source database.
        """
        from repro.engine.stream import StreamSession

        return StreamSession(
            self._ground,
            constraints=constraints,
            density=self.multiset_counts(),
            config=config,
            **kwargs,
        )

    def sharded_context(self, constraints: Iterable = (), config=None, **kwargs):
        """A :class:`repro.engine.ShardedEvalContext` over this database.

        The baskets are partitioned by itemset mask across the plan's
        shards (default: planner-resolved from the host CPU budget), so
        the per-shard densities are the multiset counts of disjoint
        sublists of ``B`` -- Section 6.1's additivity made literal.  The
        context's merged state is the support function ``s_B``;
        discovery and satisfaction machinery consume it directly, and a
        plan with ``workers > 1`` attaches a process pool for fanned-out
        evaluation.  ``config`` pins the knobs
        (:class:`repro.engine.EngineConfig`; ``engine`` is forced to
        ``"sharded"`` here); with no ``config`` it is
        :data:`SHARDED_DEFAULT_CONFIG` (sharded tier, exact backend,
        planner-chosen shards and workers).  Remaining keyword arguments
        (``cache``, ``executor``, ``shard_plan``) pass through to
        :func:`repro.engine.plan.build_context`.
        """
        if config is None:
            config = SHARDED_DEFAULT_CONFIG
        elif config.engine != "sharded":
            config = config.replace(engine="sharded")
        constraints = tuple(constraints)
        counts = self.multiset_counts()
        plan = default_planner().plan(
            Workload(
                n=self._ground.size,
                constraints=len(constraints),
                density_size=len(counts),
                streaming=True,
            ),
            config,
        )
        return build_context(
            plan,
            self._ground,
            density=counts,
            constraints=constraints,
            **kwargs,
        )
