"""Load and validate ``BENCHMARK.json`` (the benchmark's declaration).

The file names the workloads, the end-to-end metrics (with the bound by
which each may worsen) and the per-layer metrics.  The runner refuses to
start on a file that breaks these rules, so a typo in a metric name
fails before any timing is spent.
"""

from __future__ import annotations

import json
import re
from typing import List

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
MAX_BOUND = 0.25

#: The ingest-mixed latency limit is written into that workload's
#: ``why`` so BENCHMARK.json stays the single record of it.
LIMIT_RE = re.compile(r"p99 <= (\d+(?:\.\d+)?) ms")


class SpecError(ValueError):
    """BENCHMARK.json breaks the declaration rules."""


def _check_name(name, seen: set, where: str) -> None:
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise SpecError(f"{where}: bad name {name!r}")
    if name in seen:
        raise SpecError(f"{where}: name {name!r} used twice")
    seen.add(name)


def _check_metric(entry, seen: set, where: str, bounded: bool) -> None:
    keys = {"name", "unit", "better"} | ({"bound"} if bounded else set())
    if not isinstance(entry, dict) or set(entry) != keys:
        raise SpecError(f"{where}: keys must be exactly {sorted(keys)}")
    _check_name(entry["name"], seen, where)
    if not isinstance(entry["unit"], str) or not UNIT_RE.match(entry["unit"]):
        raise SpecError(f"{where}: bad unit {entry['unit']!r}")
    if entry["better"] not in ("higher", "lower"):
        raise SpecError(f"{where}: better must be 'higher' or 'lower'")
    if bounded:
        bound = entry["bound"]
        if (not isinstance(bound, (int, float)) or isinstance(bound, bool)
                or not 0 < bound <= MAX_BOUND):
            raise SpecError(f"{where}: bound must be in (0, {MAX_BOUND}]")


def validate(spec: dict) -> dict:
    """Check ``spec`` against the declaration rules; returns it."""
    if not isinstance(spec, dict) or set(spec) != TOP_KEYS:
        raise SpecError(f"top-level keys must be exactly {sorted(TOP_KEYS)}")
    command = spec["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(a, str) and len(a) <= 200 for a in command)):
        raise SpecError("command must be a list of 1..32 strings <= 200 chars")
    if any(a.startswith("/") or ".." in a.split("/") for a in command):
        raise SpecError("command must not name absolute or '..' paths")
    paths = spec["paths"]
    if (not isinstance(paths, list) or not 1 <= len(paths) <= 16
            or not all(isinstance(p, str) and PATH_RE.match(p)
                       and not p.startswith("/") and ".." not in p.split("/")
                       for p in paths)):
        raise SpecError("paths must be 1..16 relative directory names")
    seconds = spec["run_seconds"]
    if (not isinstance(seconds, int) or isinstance(seconds, bool)
            or not 1 <= seconds <= 60):
        raise SpecError("run_seconds must be a whole number in 1..60")
    seen: set = set()
    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        raise SpecError("workloads must list 2..8 entries")
    for entry in workloads:
        if not isinstance(entry, dict) or set(entry) != {"name", "why"}:
            raise SpecError("a workload has exactly 'name' and 'why'")
        _check_name(entry["name"], seen, "workload")
        why = entry["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            raise SpecError(f"workload {entry['name']}: why is one line <= 200")
    e2e = spec["end_to_end"]
    if not isinstance(e2e, list) or not 1 <= len(e2e) <= 16:
        raise SpecError("end_to_end must list 1..16 metrics")
    for entry in e2e:
        _check_metric(entry, seen, "end_to_end", bounded=True)
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise SpecError("end_to_end must include setup_s (unit s, lower)")
    per_layer = spec["per_layer"]
    if not isinstance(per_layer, list) or not 1 <= len(per_layer) <= 128:
        raise SpecError("per_layer must list 1..128 metrics")
    for entry in per_layer:
        _check_metric(entry, seen, "per_layer", bounded=False)
    return spec


def load(path: str) -> dict:
    """Read and validate the declaration at ``path``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) > 64 * 1024:
        raise SpecError("BENCHMARK.json is over 64 KiB")
    try:
        spec = json.loads(raw)
    except ValueError as err:
        raise SpecError(f"BENCHMARK.json is not JSON: {err}") from err
    return validate(spec)


def metric_names(spec: dict, section: str) -> List[str]:
    """The declared metric names of one section, in file order."""
    return [entry["name"] for entry in spec[section]]


def units(spec: dict) -> dict:
    """``{metric name: unit}`` across both metric sections."""
    return {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}


def latency_limit_ms(spec: dict, workload: str) -> float:
    """The p99 limit written into ``workload``'s ``why``."""
    for entry in spec["workloads"]:
        if entry["name"] == workload:
            match = LIMIT_RE.search(entry["why"])
            if match:
                return float(match.group(1))
    raise SpecError(f"workload {workload!r} declares no 'p99 <= N ms' limit")
