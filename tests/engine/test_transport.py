"""Executor transport: delta shipping, eviction index, shm lifecycle.

Covers the parallel executor's worker-side pieces directly
(``_w_apply_deltas`` version guards and in-place table maintenance, the
owner-keyed eviction index, ``_shm_exportable`` / publish / attach /
unlink).
"""

from __future__ import annotations

import uuid

import numpy as np
import pytest

from repro.engine import ShmTable, attach_shm_table
from repro.engine import parallel
from repro.engine.backends import VecTable, backend_by_name
from repro.engine.parallel import (
    _cache_store,
    _shm_exportable,
    _w_apply_deltas,
    _w_clear,
    _w_load,
    _w_publish_tables,
    _w_tables,
)

BACKENDS = ["exact", "exact-vec", "float"]


@pytest.fixture
def ns():
    """A throwaway worker namespace, cleared after the test."""
    name = f"test-{uuid.uuid4().hex[:8]}"
    yield name
    _w_clear(name)


def scratch_tables(backend_name, n, items):
    backend = backend_by_name(backend_name)
    density = backend.scatter(1 << n, items)
    support = backend.copy(density)
    backend.superset_zeta_inplace(support)
    return density, support


def tables_equal(a, b):
    return [float(x) for x in a] == [float(x) for x in b]


# ----------------------------------------------------------------------
# owner-keyed eviction index
# ----------------------------------------------------------------------
class TestEvictionIndex:
    def test_reload_evicts_only_the_owner(self, ns):
        """Loading shard k at a new version drops only shard k's stale
        tables; the other shards' cached tables survive untouched."""
        n, backend = 3, "exact"
        for k in range(10):
            _w_load(ns, "", k, 1, "density", [(k % (1 << n), 1)])
            _w_tables(ns, "", k, 1, n, backend)
        keys = {k: (ns, "", k, 1, backend) for k in range(10)}
        assert all(key in parallel._TABLE_CACHE for key in keys.values())
        before = {k: parallel._TABLE_CACHE[key] for k, key in keys.items()}

        _w_load(ns, "", 3, 2, "density", [(1, 2)])
        assert keys[3] not in parallel._TABLE_CACHE
        for k in range(10):
            if k == 3:
                continue
            assert parallel._TABLE_CACHE[keys[k]] is before[k]

    def test_eviction_never_scans_the_whole_cache(self, ns, monkeypatch):
        """Regression: eviction used to linear-scan ``_TABLE_CACHE``;
        with the owner index installed, a reload must not iterate the
        cache at all (guarded by a dict subclass that forbids it)."""

        class NoScan(dict):
            def __iter__(self):
                raise AssertionError("full _TABLE_CACHE scan on load")

            def keys(self):
                raise AssertionError("full _TABLE_CACHE scan on load")

            def items(self):
                raise AssertionError("full _TABLE_CACHE scan on load")

        for k in range(50):
            _w_load(ns, "", k, 1, "density", [(0, 1)])
            _w_tables(ns, "", k, 1, 2, "exact")
        monkeypatch.setattr(
            parallel, "_TABLE_CACHE", NoScan(parallel._TABLE_CACHE)
        )
        _w_load(ns, "", 7, 2, "density", [(1, 1)])  # must not raise
        assert (ns, "", 7, 1, "exact") not in parallel._TABLE_CACHE
        assert (ns, "", 8, 1, "exact") in parallel._TABLE_CACHE

    def test_index_entry_removed_when_owner_empties(self, ns):
        _w_load(ns, "", 0, 1, "density", [(0, 1)])
        _w_tables(ns, "", 0, 1, 2, "exact")
        assert (ns, "", 0) in parallel._TABLE_INDEX
        _w_load(ns, "", 0, 2, "density", [(0, 2)])
        # version 2 has no cached tables yet: the owner set is empty
        # and the index entry is gone (no leak of empty sets)
        assert (ns, "", 0) not in parallel._TABLE_INDEX


# ----------------------------------------------------------------------
# delta application (worker side)
# ----------------------------------------------------------------------
class TestApplyDeltas:
    def test_unknown_shard_returns_false(self, ns):
        assert _w_apply_deltas(ns, "", 0, 0, 1, "exact", [(1, 1)]) is False

    def test_version_mismatch_returns_false(self, ns):
        _w_load(ns, "", 0, 5, "density", [(1, 1)])
        assert _w_apply_deltas(ns, "", 0, 4, 6, "exact", [(2, 1)]) is False
        # payload untouched by the refused update
        assert parallel._SHARD_DATA[ns, "", 0] == (5, "density", [(1, 1)])

    def test_applies_records_and_pops_zeros(self, ns):
        _w_load(ns, "", 0, 1, "density", [(1, 2), (3, 1)])
        ok = _w_apply_deltas(
            ns, "", 0, 1, 2, "exact", [(1, -2), (4, 5), (3, 1)]
        )
        assert ok is True
        version, kind, data = parallel._SHARD_DATA[ns, "", 0]
        # the payload becomes a mutable map so later batches are O(gap)
        assert (version, kind) == (2, "densmap")
        assert sorted(data.items()) == [(3, 2), (4, 5)]  # mask 1 zeroed out

    def test_aggregates_row_payloads_before_applying(self, ns):
        _w_load(ns, "", 0, 1, "rows", [2, 2, 5])
        assert _w_apply_deltas(ns, "", 0, 1, 2, "exact", [(5, -1)]) is True
        _version, kind, data = parallel._SHARD_DATA[ns, "", 0]
        assert kind == "densmap" and sorted(data.items()) == [(2, 2)]

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_maintains_cached_tables_in_place(self, ns, backend_name):
        n = 3
        base_items = [(1, 2), (6, 1)]
        records = [(1, -1), (4, 3), (6, -1)]
        _w_load(ns, "", 0, 1, "density", base_items)
        _w_tables(ns, "", 0, 1, n, backend_name)
        assert _w_apply_deltas(ns, "", 0, 1, 2, backend_name, records)

        new_key = (ns, "", 0, 2, backend_name)
        assert new_key in parallel._TABLE_CACHE  # maintained, not dropped
        assert (ns, "", 0, 1, backend_name) not in parallel._TABLE_CACHE
        density, support, nnz = parallel._TABLE_CACHE[new_key]
        want_items = [(1, 1), (4, 3)]
        want_density, want_support = scratch_tables(backend_name, n, want_items)
        assert tables_equal(density, want_density)
        assert tables_equal(support, want_support)
        assert nnz == len(want_items)

    def test_without_cached_tables_only_payload_moves(self, ns):
        _w_load(ns, "", 0, 1, "density", [(1, 1)])
        assert _w_apply_deltas(ns, "", 0, 1, 2, "exact", [(2, 1)])
        assert (ns, "", 0, 2, "exact") not in parallel._TABLE_CACHE
        # tables built on demand afterwards agree with the new payload
        density, _support, nnz = _w_tables(ns, "", 0, 2, 2, "exact")
        assert list(density) == [0, 1, 1, 0] and nnz == 2


# ----------------------------------------------------------------------
# shared-memory export / publish / attach lifecycle
# ----------------------------------------------------------------------
class TestShmExportable:
    def test_int64_vec_table_exports_its_array(self):
        table = VecTable(np.array([1, 2], dtype=np.int64))
        assert _shm_exportable(table) is table.arr

    def test_object_promoted_vec_table_is_pickle_only(self):
        table = VecTable(np.array([1, 2], dtype=np.int64))
        table[0] = 1 << 70  # forces object-dtype promotion
        assert table.is_object
        assert _shm_exportable(table) is None

    def test_float64_ndarray_exports(self):
        arr = np.array([1.0, 2.0], dtype=np.float64)
        assert _shm_exportable(arr) is arr

    def test_other_dtypes_and_lists_are_pickle_only(self):
        assert _shm_exportable(np.array([1, 2], dtype=np.int32)) is None
        assert _shm_exportable([1, 2, 3]) is None


class TestShmLifecycle:
    def test_publish_attach_roundtrip_and_readonly(self, ns):
        vec = VecTable(np.array([3, 0, -1, 7], dtype=np.int64))
        flt = np.array([0.5, 2.0], dtype=np.float64)
        out = _w_publish_tables(ns, "", 0, 1, "exact-vec", (), [vec, flt, [9]])
        assert isinstance(out[0], ShmTable)
        assert isinstance(out[1], ShmTable)
        assert out[2] == [9]  # per-table pickle fallback rides along

        table, segment = attach_shm_table(out[0])
        assert isinstance(table, VecTable)
        assert list(table.arr) == [3, 0, -1, 7]
        with pytest.raises(ValueError):
            table.arr[0] = 99  # attached views are read-only
        del table
        segment.close()

        table, segment = attach_shm_table(out[1])
        assert isinstance(table, np.ndarray)
        assert list(table) == [0.5, 2.0]
        del table
        segment.close()

    def test_republish_same_version_reuses_segments(self, ns):
        vec = VecTable(np.array([1, 2], dtype=np.int64))
        first = _w_publish_tables(ns, "", 0, 1, "exact-vec", (), [vec])
        second = _w_publish_tables(ns, "", 0, 1, "exact-vec", (), [vec])
        assert first[0].name == second[0].name

    def test_republish_new_version_unlinks_old_generation(self, ns):
        vec = VecTable(np.array([1, 2], dtype=np.int64))
        first = _w_publish_tables(ns, "", 0, 1, "exact-vec", (), [vec])
        old = first[0].name
        second = _w_publish_tables(ns, "", 0, 2, "exact-vec", (), [vec])
        assert second[0].name != old
        with pytest.raises(FileNotFoundError):
            parallel._attach_segment(old)

    def test_clear_unlinks_published_segments(self, ns):
        vec = VecTable(np.array([1, 2], dtype=np.int64))
        out = _w_publish_tables(ns, "", 0, 1, "exact-vec", (), [vec])
        name = out[0].name
        _w_clear(ns)
        with pytest.raises(FileNotFoundError):
            parallel._attach_segment(name)
