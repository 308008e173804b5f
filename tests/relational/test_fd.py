"""Unit tests for functional dependencies and the P-time fragment."""

import pytest

from repro.core import ConstraintSet, GroundSet
from repro.core.implication import implies_lattice
from repro.relational import (
    FunctionalDependency,
    armstrong_derives,
    candidate_keys,
    closure,
    implies_fd_classic,
    is_superkey,
    random_relation,
    relation_satisfying_fds,
)


class TestBasics:
    def test_parse_and_repr(self, ground_abcd):
        fd = FunctionalDependency.parse(ground_abcd, "AB -> C")
        assert fd.lhs == ground_abcd.parse("AB")
        assert fd.rhs == ground_abcd.parse("C")
        assert repr(fd) == "AB -> C"

    def test_triviality(self, ground_abcd):
        assert FunctionalDependency.parse(ground_abcd, "AB -> A").is_trivial
        assert not FunctionalDependency.parse(ground_abcd, "AB -> C").is_trivial

    def test_satisfaction(self, ground_abc):
        from repro.relational import Relation

        r = Relation(ground_abc, [(0, 1, 1), (0, 1, 2), (1, 2, 2)])
        assert FunctionalDependency.parse(ground_abc, "A -> B").satisfied_by(r)
        assert not FunctionalDependency.parse(ground_abc, "A -> C").satisfied_by(r)


class TestClosure:
    def test_textbook_example(self, ground_abcd):
        fds = [
            FunctionalDependency.parse(ground_abcd, "A -> B"),
            FunctionalDependency.parse(ground_abcd, "B -> C"),
        ]
        assert closure(ground_abcd, ground_abcd.parse("A"), fds) == ground_abcd.parse("ABC")
        assert closure(ground_abcd, ground_abcd.parse("D"), fds) == ground_abcd.parse("D")

    def test_implication(self, ground_abcd):
        fds = [
            FunctionalDependency.parse(ground_abcd, "A -> B"),
            FunctionalDependency.parse(ground_abcd, "B -> C"),
        ]
        assert implies_fd_classic(fds, FunctionalDependency.parse(ground_abcd, "A -> C"))
        assert not implies_fd_classic(fds, FunctionalDependency.parse(ground_abcd, "C -> A"))

    def test_armstrong_agrees_with_closure(self, ground_abcd, rng):
        for _ in range(80):
            fds = [
                FunctionalDependency(ground_abcd, rng.randrange(16), rng.randrange(16))
                for _ in range(rng.randint(1, 4))
            ]
            t = FunctionalDependency(ground_abcd, rng.randrange(16), rng.randrange(16))
            assert armstrong_derives(fds, t) == implies_fd_classic(fds, t)


class TestPaperConclusion:
    """Singleton-RHS differential implication == FD implication."""

    def test_equivalence_random(self, ground_abcd, rng):
        for _ in range(100):
            fds = [
                FunctionalDependency(ground_abcd, rng.randrange(16), rng.randrange(16))
                for _ in range(rng.randint(1, 4))
            ]
            t = FunctionalDependency(ground_abcd, rng.randrange(16), rng.randrange(16))
            cset = ConstraintSet(
                ground_abcd, [fd.to_differential() for fd in fds]
            )
            assert implies_fd_classic(fds, t) == implies_lattice(
                cset, t.to_differential()
            )

    def test_boolean_route_agrees(self, ground_abcd, rng):
        from repro.relational import implies_boolean

        for _ in range(40):
            fds = [
                FunctionalDependency(ground_abcd, rng.randrange(16), rng.randrange(16))
                for _ in range(rng.randint(1, 3))
            ]
            t = FunctionalDependency(ground_abcd, rng.randrange(16), rng.randrange(16))
            assert implies_fd_classic(fds, t) == implies_boolean(
                [fd.to_boolean() for fd in fds], t.to_boolean()
            )


class TestKeys:
    def test_candidate_keys(self, ground_abcd):
        fds = [
            FunctionalDependency.parse(ground_abcd, "A -> B"),
            FunctionalDependency.parse(ground_abcd, "B -> C"),
        ]
        keys = candidate_keys(ground_abcd, fds)
        assert keys == [ground_abcd.parse("AD")]

    def test_superkey(self, ground_abcd):
        fds = [FunctionalDependency.parse(ground_abcd, "A -> BCD")]
        assert is_superkey(ground_abcd, ground_abcd.parse("A"), fds)
        assert not is_superkey(ground_abcd, ground_abcd.parse("B"), fds)

    def test_keys_are_minimal_antichain(self, ground_abcd, rng):
        import repro.core.subsets as sb

        for _ in range(10):
            fds = [
                FunctionalDependency(ground_abcd, rng.randrange(16), rng.randrange(16))
                for _ in range(3)
            ]
            keys = candidate_keys(ground_abcd, fds)
            for a in keys:
                assert is_superkey(ground_abcd, a, fds)
                for b in keys:
                    if a != b:
                        assert not sb.is_subset(a, b)


class TestRepair:
    def test_repaired_relations_satisfy(self, ground_abcd, rng):
        for _ in range(15):
            fds = [
                FunctionalDependency(ground_abcd, rng.randrange(16), rng.randrange(16))
                for _ in range(rng.randint(1, 3))
            ]
            r = relation_satisfying_fds(ground_abcd, fds, 10, 3, rng)
            for fd in fds:
                assert fd.satisfied_by(r)

    def test_random_relation_shape(self, ground_abc, rng):
        r = random_relation(ground_abc, 10, 2, rng)
        assert len(r) <= 10
        for row in r:
            assert all(v in (0, 1) for v in row)


class TestDurableChecker:
    """The streaming FD checker's row-level durability."""

    @pytest.fixture
    def fds(self, ground_abc):
        return [
            FunctionalDependency.parse(ground_abc, "A -> B"),
            FunctionalDependency.parse(ground_abc, "B -> C"),
        ]

    def _checker(self, ground, fds, tmp_path, **fields):
        from repro.engine import EngineConfig
        from repro.relational import StreamingFDChecker

        config = EngineConfig(
            engine="incremental",
            backend="exact",
            durable=str(tmp_path / "fd"),
            **fields,
        )
        return StreamingFDChecker(ground, fds, config=config)

    def test_reopen_recovers_rows_and_density(self, ground_abc, fds, tmp_path):
        ck = self._checker(ground_abc, fds, tmp_path, snapshot_every=3)
        ck.insert((1, "x", True))
        ck.insert((1, "x", True))
        ck.insert((2, "y", False))
        ck.insert((2, "z", False))  # violates A -> B
        assert ck.violated_fds() != ()
        ck.delete((2, "z", False))
        density = list(ck.session.context.density_table())
        ck.close()

        ck2 = self._checker(ground_abc, fds, tmp_path)
        assert len(ck2) == 3
        assert ck2.violated_fds() == ()
        assert list(ck2.session.context.density_table()) == density
        # the recovered relation equals the materialized oracle
        assert set(ck2.to_relation()) == {(1, "x", True), (2, "y", False)}
        # and streaming continues with contiguous transaction numbers
        ck2.insert((3, "w", True))
        ck2.close()
        ck3 = self._checker(ground_abc, fds, tmp_path)
        assert len(ck3) == 4
        ck3.close()

    def test_torn_final_row_record_is_dropped(self, ground_abc, fds, tmp_path):
        import os

        ck = self._checker(ground_abc, fds, tmp_path)
        ck.insert((1, 1, 1))
        ck.insert((2, 2, 2))
        ck.close()
        wal = tmp_path / "fd" / "wal.log"
        with open(wal, "rb+") as fh:
            fh.truncate(os.path.getsize(wal) - 2)
        ck2 = self._checker(ground_abc, fds, tmp_path)
        assert len(ck2) == 1 and ck2._row_tx == 1
        ck2.close()

    def test_wrong_kind_of_dir_is_loud(self, ground_abc, fds, tmp_path):
        from repro.engine import EngineConfig, StreamSession
        from repro.errors import CorruptSnapshotError

        config = EngineConfig(
            engine="incremental", backend="exact", durable=str(tmp_path / "fd")
        )
        StreamSession(ground_abc, config=config).close()
        with pytest.raises(CorruptSnapshotError, match="stream-session"):
            self._checker(ground_abc, fds, tmp_path)

    def test_snapshot_requires_durability(self, ground_abc, fds):
        from repro.errors import PersistenceError
        from repro.relational import StreamingFDChecker

        ck = StreamingFDChecker(ground_abc, fds)
        with pytest.raises(PersistenceError, match="not durable"):
            ck.snapshot()

    def test_heterogeneous_row_values_snapshot_cleanly(
        self, ground_abc, fds, tmp_path
    ):
        ck = self._checker(ground_abc, fds, tmp_path)
        ck.insert((1, "x", True))
        ck.insert(("a", 2, None))  # mixed types across rows
        ck.snapshot()
        ck.close()
        ck2 = self._checker(ground_abc, fds, tmp_path)
        assert len(ck2) == 2
        ck2.close()

    def test_failed_apply_wedges_the_durable_checker(
        self, ground_abc, fds, tmp_path, monkeypatch
    ):
        from repro.engine import StreamSession
        from repro.errors import PersistenceError

        ck = self._checker(ground_abc, fds, tmp_path)
        ck.insert((1, 1, 1))

        def exploding(self, deltas):
            raise RuntimeError("simulated executor death")

        monkeypatch.setattr(StreamSession, "apply", exploding)
        with pytest.raises(RuntimeError, match="executor death"):
            ck.insert((2, 2, 2))
        monkeypatch.undo()
        assert ck._row_tx == 2  # the logged row op owns seq 2
        with pytest.raises(PersistenceError, match="wedged"):
            ck.insert((3, 3, 3))
        with pytest.raises(PersistenceError, match="wedged"):
            ck.snapshot()
        ck.close()
        ck2 = self._checker(ground_abc, fds, tmp_path)
        assert len(ck2) == 2 and ck2._row_tx == 2  # replay healed
        ck2.close()
