"""Span recorder for the traced run, kept entirely in the benchmark.

:class:`Recorder` keeps spans in memory as ``(id, parent, name, start,
end, process, value)`` tuples and writes them out when the run ends.
Parents come from a context variable, so nesting is tracked per thread
and per asyncio task; a client request and the server-side spans it
caused (on another thread or in a fleet worker) are joined by time
containment, which is exact here because every client connection is
serial and ``time.perf_counter`` is the system-wide monotonic clock on
Linux.

:func:`install_engine_probes` wraps the public entry points of each
layer -- the program itself is not modified -- and returns a
:class:`Patches` handle that restores the originals.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import http.client
import inspect
import itertools
import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from perfbench.stats import union_length

Span = Tuple[int, int, str, float, float, str, float]

_ID, _PARENT, _NAME, _T0, _T1, _PROC, _VALUE = range(7)


class Recorder:
    """In-memory span store for one process.  Counted events are
    zero-length spans, so every count can be cut to a time window."""

    def __init__(self, proc: str = "bench"):
        self.proc = proc
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar(f"perfbench-span-{id(self)}",
                                               default=0)

    def enter(self) -> Tuple[int, int, object]:
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        return span_id, parent, token

    def leave(self, span_id: int, parent: int, token, name: str, t0: float,
              value: float = 0.0) -> None:
        t1 = time.perf_counter()
        self._current.reset(token)
        self.spans.append((span_id, parent, name, t0, t1, self.proc, value))

    def record(self, name: str, t0: float, t1: float, value: float = 0.0,
               proc: Optional[str] = None) -> None:
        """A span measured by the caller (client-side operations)."""
        self.spans.append((next(self._ids), 0, name, t0, t1,
                           proc or self.proc, value))

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        payload = {"proc": self.proc, "spans": self.spans,
                   "extra": extra or {}}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def load_dump(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    payload["spans"] = [tuple(s) for s in payload["spans"]]
    return payload


class Patches:
    """Wrapped attributes and how to restore them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str,
             value: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``value(args, kwargs, result)`` may attach one number (bytes,
        deltas) to the span.
        """
        original = getattr(owner, attr)
        rec = self.recorder
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span_id, parent, token = rec.enter()
                t0 = time.perf_counter()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    rec.leave(span_id, parent, token, name, t0,
                              value(args, kwargs, result) if value else 0.0)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span_id, parent, token = rec.enter()
                t0 = time.perf_counter()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    rec.leave(span_id, parent, token, name, t0,
                              value(args, kwargs, result) if value else 0.0)
        self._set(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = getattr(owner, attr)
        rec = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            now = time.perf_counter()
            rec.record(name, now, now)
            return original(*args, **kwargs)

        self._set(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _payload_bytes(args, kwargs, result) -> float:
    return float(len(args[2]))


def _snapshot_bytes(args, kwargs, result) -> float:
    try:
        return float(os.path.getsize(result))
    except (OSError, TypeError):
        return 0.0


def _delta_count(args, kwargs, result) -> float:
    deltas = args[1]
    return float(len(deltas)) if hasattr(deltas, "__len__") else 0.0


def install_engine_probes(recorder: Recorder) -> Patches:
    """Wrap each layer's public entry points; returns the undo handle."""
    from repro.core.constraint import DifferentialConstraint
    from repro.engine import (backends, decider, fleet, incremental, net,
                              parallel, persist, plan, quota, server, stream)

    patches = Patches(recorder)
    for module in (net, fleet):
        patches.span(module, "read_http_request", "net.read")
        patches.span(module, "write_http_response", "net.write")
    patches.count(http.client.HTTPConnection, "connect", "net.connect")
    patches.span(server.ConstraintServer, "implies", "server.implies")
    patches.span(server.ConstraintServer, "check", "server.check")
    # a live check is computed by the constraint itself (no decider call)
    patches.span(DifferentialConstraint, "satisfied_by", "check.eval")
    # decide_batched and core's engine route both reach the decider
    # through this module-level function
    patches.span(decider, "find_uncovered_batched", "decider.decide")
    patches.span(stream.StreamSession, "apply", "stream.apply")
    patches.span(stream.StreamSession, "apply_ops", "stream.apply_ops")
    patches.span(stream.StreamSession, "support", "stream.support")
    patches.span(incremental.IncrementalEvalContext, "apply_batch",
                 "incremental.apply_batch", value=_delta_count)
    for cls in (backends.Backend, backends.ExactBackend,
                backends.VecExactBackend, backends.FloatBackend):
        if "add_on_subsets_inplace" in cls.__dict__:
            patches.span(cls, "add_on_subsets_inplace",
                         "backends.add_on_subsets")
        for attr in ("superset_zeta_inplace", "superset_mobius_inplace",
                     "subset_zeta_inplace", "subset_mobius_inplace"):
            if attr in cls.__dict__:
                patches.span(cls, attr, "backends.butterfly")
    patches.span(persist.DurableStore, "append", "persist.append",
                 value=_payload_bytes)
    patches.span(persist.DurableStore, "snapshot", "persist.snapshot",
                 value=_snapshot_bytes)
    patches.span(persist.WriteAheadLog, "sync", "persist.sync")
    patches.count(os, "fsync", "persist.fsync")
    patches.span(fleet.ShippingStore, "append", "shipping.append")
    patches.span(fleet.FleetRouter, "handle_connection", "fleet.route")
    patches.span(quota.TenantQuotas, "admit", "fleet.admit")
    patches.count(asyncio, "open_connection", "fleet.upstream_connect")
    patches.span(plan.Planner, "plan", "plan.plan")
    for attr in ("evaluate", "apply_deltas_many", "load_density",
                 "load_density_many", "load_rows"):
        patches.count(parallel.ParallelExecutor, attr, "parallel.fanouts")
    return patches


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def in_window(spans: Iterable[Span], windows: List[Tuple[float, float]]
              ) -> List[Span]:
    """Spans that start inside any of ``windows``."""
    return [s for s in spans
            if any(a <= s[_T0] <= b for a, b in windows)]


def durations(spans: Iterable[Span], name: str) -> List[float]:
    return [s[_T1] - s[_T0] for s in spans if s[_NAME] == name]


def values(spans: Iterable[Span], name: str) -> List[float]:
    return [s[_VALUE] for s in spans if s[_NAME] == name]


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name: duration minus the part of its
    interval covered by its own child spans."""
    children: Dict[Tuple[str, int], List[Tuple[float, float]]] = {}
    for s in spans:
        if s[_PARENT]:
            children.setdefault((s[_PROC], s[_PARENT]), []).append(
                (s[_T0], s[_T1]))
    totals: Dict[str, float] = {}
    for s in spans:
        covered = union_length(children.get((s[_PROC], s[_ID]), []))
        totals[s[_NAME]] = totals.get(s[_NAME], 0.0) + (
            s[_T1] - s[_T0] - covered)
    return totals
