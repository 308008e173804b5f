"""The wire protocol: ReproService/ReproClient over real sockets.

Each test boots the asyncio service on an OS-assigned port in a daemon
thread and drives it with the blocking client -- the same pairing the
CI ``service-e2e`` job uses against the spawned binary, minus the
process boundary (which the driver script owns).
"""

from __future__ import annotations

import concurrent.futures
import json

import pytest

from repro.core import ConstraintSet, GroundSet
from repro.engine import (
    EngineConfig,
    ReproClient,
    ReproService,
    ServiceError,
    StreamSession,
)


@pytest.fixture
def ground() -> GroundSet:
    return GroundSet("ABCD")


@pytest.fixture
def cset(ground) -> ConstraintSet:
    return ConstraintSet.of(ground, "A -> B", "B -> CD")


@pytest.fixture
def service(cset):
    handle = ReproService(cset).start_in_thread()
    try:
        yield handle
    finally:
        handle.stop()


class TestWireProtocol:
    def test_health_and_stats(self, service):
        client = service.client()
        health = client.health()
        assert health["status"] == "ok"
        assert health["tracked"] == 2 and health["durable"] is False
        stats = client.stats()
        assert stats["refused"] == 0
        # the resolved engine plan is stamped into /stats
        assert stats["engine"]["tier"] == "incremental"
        assert stats["engine"]["backend"] == "exact"
        assert stats["engine"]["shards"] == 1
        assert stats["engine"]["durable"] is False
        assert stats["engine"]["promotions"] == 0

    def test_boot_from_one_engine_config(self, cset):
        handle = ReproService(
            cset,
            config=EngineConfig(engine="incremental", backend="float"),
        ).start_in_thread()
        try:
            stats = handle.client().stats()
            assert stats["engine"]["tier"] == "incremental"
            assert stats["engine"]["backend"] == "float"
        finally:
            handle.stop()

    def test_implies_matches_direct_decision(self, service, cset):
        client = service.client()
        for text in ("A -> CD", "C -> A", "AB -> CD", "A -> D"):
            assert client.implies(text) == cset.implies(text), text

    def test_concurrent_duplicates_coalesce(self, service):
        client = service.client()
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            answers = list(
                pool.map(lambda _: client.implies("A -> D"), range(16))
            )
        assert answers == [True] * 16
        stats = client.stats()
        # 16 identical questions cannot have cost 16 computations
        assert stats["computed"] < stats["requests"]

    def test_delta_check_probe_cycle(self, service):
        client = service.client()
        report = client.delta(["+ AB 3", "+ ABC"])
        assert report["tx"] == 1
        assert report["newly_violated"] == ["B -> {CD}"]
        assert client.probe("A") == 4
        assert client.probe("AB") == 4
        assert client.check("A -> B") is True
        report = client.delta(["+ A"])
        assert "A -> {B}" in report["newly_violated"]
        assert client.check("A -> B") is False
        report = client.delta(["- A"])
        assert "A -> {B}" in report["restored"]
        assert client.check("A -> B") is True
        assert client.health()["transactions"] == 3

    def test_delta_string_form_and_set_ops(self, service):
        client = service.client()
        client.delta("+ CD 2")
        client.delta("= CD 5")
        assert client.probe("CD") == 5

    def test_bad_requests_are_400(self, service):
        client = service.client()
        for call in (
            lambda: client.implies("A -> Z9"),       # unknown element
            lambda: client.probe("Z"),               # unknown element
            lambda: client.delta(["nonsense line"]),  # bad op syntax
            lambda: client.delta(["+ A", "commit", "+ B", "commit"]),
            lambda: client._request("POST", "/implies", {"constraint": 7}),
            lambda: client._request("POST", "/probe", {}),
            lambda: client.snapshot(),               # not durable
        ):
            with pytest.raises(ServiceError) as err:
                call()
            assert err.value.status == 400

    def test_unknown_paths_and_methods(self, service):
        client = service.client()
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/nope", {})
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/implies")
        assert err.value.status == 405

    def test_malformed_http_is_rejected(self, service):
        import socket

        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            sock.sendall(b"THIS IS NOT HTTP\r\n\r\n")
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]

    def test_non_dict_json_body_is_rejected(self, service):
        import http.client

        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        try:
            conn.request(
                "POST", "/implies", body=json.dumps([1, 2]).encode(),
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()


class TestBackpressure:
    def test_queue_bound_refuses_with_503(self, cset):
        # queue_size=1 and a slow lock-holding delta: the second delta
        # must wait on the write lock while further arrivals are refused
        handle = ReproService(cset, queue_size=1).start_in_thread()
        try:
            client = handle.client()
            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                futures = [
                    pool.submit(client.delta, ["+ AB"]) for _ in range(6)
                ]
                outcomes = []
                for future in futures:
                    try:
                        future.result()
                        outcomes.append("ok")
                    except ServiceError as err:
                        assert err.status == 503
                        outcomes.append("refused")
            assert "ok" in outcomes  # the admitted ones committed
            refused = handle.client().stats()["refused"]
            assert refused == outcomes.count("refused")
        finally:
            handle.stop()


class TestDurableService:
    def test_restart_recovers_and_snapshot_endpoint_works(
        self, cset, tmp_path
    ):
        data = str(tmp_path / "svc")

        def boot():
            session = StreamSession(
                cset.ground, constraints=cset.constraints,
                config=EngineConfig(
                    engine="incremental", backend="exact",
                    durable=data, snapshot_every=3,
                ),
            )
            return ReproService(cset, session=session).start_in_thread()

        handle = boot()
        client = handle.client()
        for _ in range(4):
            client.delta(["+ AB"])
        client.delta(["+ A"])
        pre = (
            client.health()["transactions"],
            client.probe("AB"),
            client.check("A -> B"),
        )
        snap = client.snapshot()
        assert snap["tx"] == 5
        handle.stop()  # graceful: drains + snapshots + closes the store

        handle2 = boot()
        try:
            client2 = handle2.client()
            post = (
                client2.health()["transactions"],
                client2.probe("AB"),
                client2.check("A -> B"),
            )
            assert post == pre
        finally:
            handle2.stop()

    def test_graceful_stop_snapshots_unsnapshotted_tail(self, cset, tmp_path):
        data = str(tmp_path / "svc")
        session = StreamSession(
            cset.ground, constraints=cset.constraints,
            config=EngineConfig(
                engine="incremental", backend="exact", durable=data
            ),
        )
        handle = ReproService(cset, session=session).start_in_thread()
        handle.client().delta(["+ ABCD 2"])
        handle.stop()
        from repro.engine import DurableStore

        recovered = DurableStore(data).recover()
        # the drain snapshotted tx 1, so the WAL is compacted away
        assert recovered.snapshot["tx"] == 1 and recovered.tail == []


class TestClientErrors:
    def test_connection_refused_is_wrapped(self):
        client = ReproClient("127.0.0.1", 9, timeout=0.5)
        with pytest.raises(ServiceError, match="failed"):
            client.health()

    def test_wait_ready_times_out(self):
        client = ReproClient("127.0.0.1", 9, timeout=0.2)
        with pytest.raises(ServiceError, match="not ready"):
            client.wait_ready(timeout=0.5, interval=0.1)


class TestStartupAndProtocolEdges:
    def test_bind_failure_surfaces_promptly(self, cset):
        import socket
        import time

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            taken = holder.getsockname()[1]
            t0 = time.monotonic()
            with pytest.raises(ServiceError, match="failed to start"):
                ReproService(cset, port=taken).start_in_thread()
            assert time.monotonic() - t0 < 10  # not the full 30s wait

    def test_short_body_is_400_not_a_task_crash(self, service):
        import socket

        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /implies HTTP/1.1\r\n"
                b"Content-Length: 50\r\n\r\n"
                b"{\"short\""  # fewer than 50 bytes, then FIN
            )
            sock.shutdown(socket.SHUT_WR)
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]
        # the service is still healthy afterwards
        assert service.client().health()["status"] == "ok"

    def test_wedged_session_still_drains_and_closes(self, cset, tmp_path):
        """A failed /delta apply wedges the session; shutdown must still
        drain cleanly (the WAL is authoritative, reopening heals)."""
        from repro.engine import IncrementalEvalContext

        data = str(tmp_path / "svc")
        session = StreamSession(
            cset.ground, constraints=cset.constraints,
            config=EngineConfig(
                engine="incremental", backend="exact", durable=data
            ),
        )
        handle = ReproService(cset, session=session).start_in_thread()
        client = handle.client()
        client.delta(["+ AB"])
        original = IncrementalEvalContext.apply_batch
        IncrementalEvalContext.apply_batch = lambda self, deltas: (_ for _ in ()).throw(
            RuntimeError("simulated executor death")
        )
        try:
            with pytest.raises(ServiceError) as err:
                client.delta(["+ CD"])
            assert err.value.status == 500
        finally:
            IncrementalEvalContext.apply_batch = original
        handle.stop()  # must not raise despite the wedged session
        from repro.engine import DurableStore

        recovered = DurableStore(data).recover()
        assert recovered.tx == 2  # the logged record survived the drain


class TestStartupTimeout:
    def test_timeout_reports_actual_elapsed_time(self, cset, monkeypatch):
        import asyncio
        import time

        async def never_ready(self, install_signal_handlers=True):
            await asyncio.sleep(5)

        monkeypatch.setattr(ReproService, "run", never_ready)
        started = time.monotonic()
        with pytest.raises(
            ServiceError, match=r"ready after \d+\.\d+s \(timeout 0\.3s\)"
        ) as err:
            ReproService(cset).start_in_thread(timeout=0.3)
        elapsed = time.monotonic() - started
        assert elapsed < 3  # honored the 0.3s deadline, not the 30s default
        # the message reports measured wall time, not the wait-quantum sum
        import re

        reported = float(re.search(r"after (\d+\.\d+)s", str(err.value)).group(1))
        assert 0.3 <= reported <= elapsed + 0.01


class TestOverloadRetry:
    """The client's bounded-retry contract against the server's own
    503 backpressure refusals: idempotent requests (GET and the
    read-only POSTs) retry with jittered backoff; a /delta never does.
    The queue is forced full by pinning the admission counter -- the
    refusal path never touches it, so unpinning it is race-free."""

    def _wedge(self, handle):
        service = handle.service
        service._inflight = service._queue_size
        return service

    def test_idempotent_request_retries_until_admitted(self, service):
        import random
        import threading

        wedged = self._wedge(service)
        timer = threading.Timer(
            0.15, lambda: setattr(wedged, "_inflight", 0)
        )
        timer.start()
        try:
            client = service.client(
                retries=8, backoff=0.05, rng=random.Random(7)
            )
            assert client.probe("AB") == 0  # succeeded after refusals
        finally:
            timer.cancel()
            wedged._inflight = 0
        assert wedged._refused > 0  # it really was refused first

    def test_exhausted_retries_surface_the_503(self, service):
        import random

        wedged = self._wedge(service)
        before = wedged._refused
        try:
            client = service.client(
                retries=2, backoff=0.01, rng=random.Random(7)
            )
            with pytest.raises(ServiceError) as err:
                client.implies("A -> B")
            assert err.value.status == 503
        finally:
            wedged._inflight = 0
        assert wedged._refused == before + 3  # one try + two retries

    def test_delta_is_never_retried(self, service):
        wedged = self._wedge(service)
        before = wedged._refused
        try:
            client = service.client(retries=8, backoff=0.01)
            with pytest.raises(ServiceError) as err:
                client.delta(["+ AB"])
            assert err.value.status == 503
        finally:
            wedged._inflight = 0
        # exactly one wire attempt: replaying a transaction that might
        # have been applied would double-commit it
        assert wedged._refused == before + 1

    def test_stats_surface_the_calibration_state(self, service):
        stats = service.client().stats()
        assert stats["engine"]["calibration"] == {"enabled": False}
