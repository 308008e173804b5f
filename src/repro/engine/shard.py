"""Mask routing: a deterministic split of the density space into shards.

The paper's density and support functions are *additive over disjoint
partitions of the instance rows* (Section 6.1: a basket database is a
list; splitting the list splits ``d^B`` into a sum), and the masked
zeta/differential transforms of the engine are linear in the density
(Proposition 2.9) -- so per-shard tables merge **exactly** by
elementwise sum (:meth:`~repro.engine.backends.Backend.sum_tables`)::

    d_f = sum_k d_k      f = sum_k f_k      D_f^Y = sum_k D_{f_k}^Y

A :class:`ShardPlan` routes every subset mask ``U`` to one owning
shard, so all rows with itemset ``U`` (inserts and the deletes that
cancel them) land on the same shard and the per-shard densities have
**disjoint supports**: a constraint is violated globally iff *some*
shard has nonzero density inside ``L(X, Y)``, and support queries
reduce by scalar sum.  The E17 benchmark uses the plan to route rows to
the :class:`~repro.engine.parallel.ParallelExecutor`; live instances run
on :class:`~repro.engine.incremental.IncrementalEvalContext` alone.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.engine.incremental import Number

__all__ = ["ShardPlan"]

#: Knuth's multiplicative constant -- spreads consecutive masks across
#: shards far more evenly than ``mask % shards`` on clustered workloads.
_HASH_MULT = 0x9E3779B1


def _default_route(mask: int, shards: int) -> int:
    return ((mask * _HASH_MULT) & 0xFFFFFFFF) % shards


class ShardPlan:
    """A deterministic assignment of density masks to ``shards`` shards.

    Parameters
    ----------
    shards:
        The shard count ``K >= 1``.
    route:
        Optional ``mask -> shard`` function; must be deterministic and
        return values in ``range(shards)`` (checked on use).  The
        default is a multiplicative hash.  Uneven routes -- including
        ones that leave some shards empty -- are fully supported; only
        determinism is required, so that inserts and the deletes that
        cancel them meet on the same shard.
    """

    __slots__ = ("_shards", "_route")

    def __init__(self, shards: int, route: Optional[Callable[[int], int]] = None):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self._shards = shards
        self._route = route

    @property
    def shards(self) -> int:
        """How many shards the density space is split into."""
        return self._shards

    def shard_of(self, mask: int) -> int:
        """The shard owning density mask ``mask``."""
        if self._route is None:
            return _default_route(mask, self._shards)
        k = self._route(mask)
        if not 0 <= k < self._shards:
            raise ValueError(
                f"shard route sent mask {mask:#x} to shard {k}, "
                f"outside range(0, {self._shards})"
            )
        return k

    def partition_rows(self, rows: Iterable[int]) -> List[List[int]]:
        """Split row masks into per-shard lists (order-preserving)."""
        parts: List[List[int]] = [[] for _ in range(self._shards)]
        for mask in rows:
            parts[self.shard_of(mask)].append(mask)
        return parts

    def partition_density(
        self, density: Union[Mapping[int, Number], Iterable[Tuple[int, Number]]]
    ) -> List[Dict[int, Number]]:
        """Split a density mapping into per-shard mappings."""
        items = density.items() if hasattr(density, "items") else density
        parts: List[Dict[int, Number]] = [{} for _ in range(self._shards)]
        for mask, value in items:
            part = parts[self.shard_of(mask)]
            part[mask] = part.get(mask, 0) + value
        return parts

    def __repr__(self) -> str:
        kind = "default" if self._route is None else "custom"
        return f"ShardPlan(shards={self._shards}, route={kind})"
