"""Deterministic inputs and the scalar oracle that grades the answers.

Every input a workload sends -- seed baskets, constraint sets, queries,
transactions -- comes from a ``random.Random`` seeded by the command
line ``--seed`` (salted per workload), so one seed always yields the
same operations.  The program under test only ever sees the generated
texts.

Expected answers come from the scalar ``repro.core`` code, never from
the engine being measured:

* ``C |= X -> Y`` is Theorem 3.5's containment ``L(X, Y) <= L(C)``,
  both sides walked with ``DifferentialConstraint.iter_lattice``
  (``L(C)``, the union over the set, is tabulated once per run).
* A check ``f |= X -> Y`` holds iff the density vanishes on
  ``L(X, Y)``; the oracle seeds per-constraint violation counts from
  ``DifferentialConstraint.satisfied_by`` on the core basket function
  and keeps them exact under each delta with ``lattice_contains``.
* ``support(X)`` is seeded from ``BasketDatabase.support`` and moves by
  ``delta`` whenever a delta's mask contains ``X``; ``support(empty)`` is
  the total density mass, which conservation checks compare with the
  seed mass plus the sum of acknowledged deltas.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.constraint import DifferentialConstraint
from repro.core.constraint_set import ConstraintSet
from repro.core.ground import GroundSet
from repro.fis.baskets import BasketDatabase

LETTERS = "ABCDEFGHIJKLMNOP"

#: Per-workload salts, so two workloads run with one seed still differ.
SALTS = {
    "query-serial": 0x51,
    "ingest-mixed": 0x1A,
    "fleet-routed": 0xF1,
}


def rng_for(workload: str, seed: int, stream: int = 0) -> random.Random:
    """The generator for one input stream of one workload."""
    return random.Random((seed << 16) ^ (SALTS[workload] << 8) ^ stream)


def ground_of(n: int) -> GroundSet:
    return GroundSet(LETTERS[:n])


def text_of(mask: int) -> str:
    """Shorthand for a subset (``""`` for the empty set)."""
    return "".join(LETTERS[b] for b in range(len(LETTERS)) if mask >> b & 1)


def random_mask(rng: random.Random, n: int, size: int, avoid: int = 0) -> int:
    bits = [b for b in range(n) if not avoid >> b & 1]
    mask = 0
    for b in rng.sample(bits, min(size, len(bits))):
        mask |= 1 << b
    return mask


def constraint_text(lhs: int, members: Sequence[int]) -> str:
    return f"{text_of(lhs)} -> " + ", ".join(text_of(m) for m in members)


def random_constraint_text(
    rng: random.Random,
    n: int,
    lhs_size: Tuple[int, int],
    members: Tuple[int, int],
    member_size: Tuple[int, int],
) -> str:
    lhs = random_mask(rng, n, rng.randint(*lhs_size))
    family = []
    for _ in range(rng.randint(*members)):
        member = random_mask(rng, n, rng.randint(*member_size), avoid=lhs)
        if member and member not in family:
            family.append(member)
    # one text per constraint, so distinct texts are distinct queries
    return constraint_text(lhs, sorted(family))


def check_constraint_text(rng: random.Random, n: int) -> str:
    """A constraint for live checks: ``X -> {{z} | z in S - X - E}``
    leaves ``L(X, Y)`` the ``2^|E|`` sets between ``X`` and ``X + E``,
    so whether a basket density satisfies it varies with ``X``."""
    lhs = random_mask(rng, n, rng.randint(2, 3))
    rest = [b for b in range(n) if not lhs >> b & 1]
    keep = rng.randint(max(0, len(rest) - 3), len(rest))
    return constraint_text(lhs, sorted(1 << b for b in rng.sample(rest, keep)))


def balanced(make_text, satisfied, count: int, tries: int = 2000) -> List[str]:
    """``count`` texts from ``make_text()``, half of them satisfied by the
    seed density and half violated, so every seed gets the same mix of
    cheap (early-exit) and full-scan checks."""
    want = {True: count // 2, False: count - count // 2}
    texts: List[str] = []
    for _ in range(tries):
        text = make_text()
        status = satisfied(text)
        if want[status] and text not in texts:
            want[status] -= 1
            texts.append(text)
            if len(texts) == count:
                return texts
    raise ValueError("could not balance satisfied and violated constraints")


def seed_baskets(rng: random.Random, n: int, count: int, p: float) -> List[int]:
    """Independent-item baskets (empty baskets are skipped)."""
    baskets = []
    while len(baskets) < count:
        mask = 0
        for b in range(n):
            if rng.random() < p:
                mask |= 1 << b
        if mask:
            baskets.append(mask)
    return baskets


def basket_file_text(baskets: Iterable[int], n: int) -> str:
    return LETTERS[:n] + "\n" + "\n".join(text_of(m) for m in baskets) + "\n"


def constraint_file_text(texts: Iterable[str], n: int) -> str:
    return LETTERS[:n] + "\n" + "\n".join(texts) + "\n"


class Op(NamedTuple):
    """One operation with its precomputed expected answer."""

    kind: str  # "implies" | "check" | "probe" | "delta"
    text: str = ""
    obj: object = None
    deltas: Tuple[Tuple[int, int], ...] = ()
    expect: object = None

    @property
    def lines(self) -> List[str]:
        """The delta as ``repro stream`` op lines (one transaction)."""
        return [
            f"{'+' if d > 0 else '-'} {text_of(m)} {abs(d)}"
            for m, d in self.deltas
        ]


# ----------------------------------------------------------------------
# the scalar oracle
# ----------------------------------------------------------------------
class ImpliesOracle:
    """``C |= target`` by Theorem 3.5, with ``L(C)`` -- the union of the
    members' ``L(X, Y)`` -- tabulated once."""

    def __init__(self, cset: ConstraintSet):
        self._in_lc = bytearray(1 << cset.ground.size)
        for constraint in cset:
            for u in constraint.iter_lattice():
                self._in_lc[u] = 1

    def implies(self, target: DifferentialConstraint) -> bool:
        in_lc = self._in_lc
        return all(in_lc[u] for u in target.iter_lattice())


class DensityOracle:
    """Live density state: support of watched subsets and check status
    of watched constraints, exact under every applied delta."""

    def __init__(
        self,
        ground: GroundSet,
        baskets: Sequence[int],
        probes: Sequence[int] = (),
        checks: Sequence[DifferentialConstraint] = (),
    ):
        db = BasketDatabase(ground, baskets)
        self.density: Dict[int, int] = dict(db.multiset_counts())
        self.seed_mass = sum(self.density.values())
        self.mass = self.seed_mass
        self.support = {p: db.support(p) for p in probes}
        self.support[0] = self.mass
        self.checks = list(checks)
        function = db.support_function()
        self._violations = []
        for c in self.checks:
            count = sum(
                1 for u, v in self.density.items()
                if v != 0 and c.lattice_contains(u)
            )
            # the counting form must agree with core's own satisfaction
            if (count == 0) != c.satisfied_by(function):
                raise AssertionError(f"oracle disagrees with core on {c!r}")
            self._violations.append(count)

    def apply(self, deltas: Iterable[Tuple[int, int]]) -> None:
        for mask, delta in deltas:
            old = self.density.get(mask, 0)
            new = old + delta
            if new < 0:
                raise AssertionError(f"generator drove {text_of(mask)} below 0")
            for p in self.support:
                if mask & p == p:
                    self.support[p] += delta
            if (old != 0) != (new != 0):
                step = 1 if new else -1
                for i, c in enumerate(self.checks):
                    if c.lattice_contains(mask):
                        self._violations[i] += step
            if new:
                self.density[mask] = new
            else:
                self.density.pop(mask, None)
            self.mass += delta

    def satisfied(self, index: int) -> bool:
        return self._violations[index] == 0

    def statuses(self) -> Tuple[bool, ...]:
        return tuple(v == 0 for v in self._violations)


class WideWriter:
    """Transactions of wide baskets: each inserts one new basket of
    ``size`` items and, once ``live`` of its own are present, deletes
    the oldest basket it inserted (never a seed basket)."""

    def __init__(self, rng: random.Random, n: int, size: Tuple[int, int],
                 live: int):
        self._rng = rng
        self._n = n
        self._size = size
        self._live = live
        self._inserted: List[int] = []

    def next_tx(self) -> Tuple[Tuple[int, int], ...]:
        mask = random_mask(self._rng, self._n, self._rng.randint(*self._size))
        deltas = [(mask, 1)]
        self._inserted.append(mask)
        if len(self._inserted) > self._live:
            deltas.append((self._inserted.pop(0), -1))
        return tuple(deltas)


def parse_all(ground: GroundSet, texts: Iterable[str]) -> List[DifferentialConstraint]:
    return [DifferentialConstraint.parse(ground, t) for t in texts]


def cold_targets(rng: random.Random, n: int, count: int,
                 lhs_size: Tuple[int, int], seen: Optional[set] = None) -> List[str]:
    """``count`` distinct implication targets never asked before."""
    seen = set() if seen is None else seen
    out: List[str] = []
    while len(out) < count:
        text = random_constraint_text(rng, n, lhs_size, (1, 3), (1, 2))
        if text not in seen:
            seen.add(text)
            out.append(text)
    return out
