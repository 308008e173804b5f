"""Self-tests of the benchmark's own machinery (no timing, no sockets)."""

import copy
import json
import os
import tempfile
import threading
from multiprocessing import shared_memory

import pytest

from perfbench import gen, harness, hygiene, loops, spec, stats, tracing
from perfbench.workloads import WORKLOADS, Context, FleetRouted, QuerySerial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, q", [
    (10000, 99.9), (2000, 99.5), (1000, 99.0), (999, 98.0), (500, 98.0),
    (499, 95.0), (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    t = stats.tail([float(i) for i in range(n)], want=99.9)
    assert (t.q, t.n) == (q, n)
    # nearest rank: at least MIN_BEYOND samples lie above the value
    assert sum(1 for i in range(n) if i > t.value) >= stats.MIN_BEYOND


def test_p99_metrics_never_report_above_p99():
    assert stats.tail([float(i) for i in range(100000)]).q == 99.0


def test_tail_of_tiny_and_empty_samples():
    assert stats.tail([3.0, 1.0]) == stats.Tail(100.0, 3.0, 2)
    assert stats.tail([]) == stats.Tail(0.0, 0.0, 0)


def test_p99_is_nearest_rank():
    values = list(range(1, 1001))
    assert stats.tail(values).value == 990


def test_union_length_merges_overlaps():
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert stats.union_length([]) == 0


# ----------------------------------------------------------------------
# open-loop due-time accounting
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_charges_a_stall_to_every_queued_operation():
    clock = FakeClock()
    service = {2: 0.100}  # the third operation stalls for 100 ms

    def execute(op):
        clock.now += service.get(op, 0.001)
        return True

    schedule = [(i * 0.010, i) for i in range(8)]
    records = loops.open_loop(schedule, execute, start=0.0, clock=clock,
                              sleep=clock.sleep, kind_of=lambda op: "x")
    latency = [round(r.latency * 1e3, 6) for r in records]
    lag = [round(r.lag * 1e3, 6) for r in records]
    assert latency[:2] == [1.0, 1.0]
    assert latency[2] == 100.0
    # the stall ends at 120 ms; op 3 was due at 30 ms, so it waited 90 ms
    assert lag[3] == 90.0 and latency[3] == 91.0
    assert latency[4] == 82.0 and lag[4] == 81.0
    # the backlog drains by 1 ms of queueing per 10 ms slot
    assert latency[7] == 55.0
    assert all(r.ok for r in records)


def test_closed_loop_runs_for_the_requested_seconds():
    clock = FakeClock()

    def execute(op):
        clock.now += 0.5
        return True

    records, elapsed = loops.closed_loop(loops.Source(["op"] * 100), execute,
                                         2.0, clock=clock,
                                         kind_of=lambda op: "x")
    assert len(records) == 4 and elapsed == 2.0


def test_closed_loops_sharing_a_stop_end_when_a_fixed_source_runs_out():
    stop = threading.Event()
    short = loops.Source(["op"] * 3)
    records, _ = loops.closed_loop(short, lambda op: True, 60.0,
                                   kind_of=lambda op: "x", stop=stop)
    assert len(records) == 3 and stop.is_set()
    other = loops.Source(["op"] * 100)
    records, _ = loops.closed_loop(other, lambda op: True, 60.0,
                                   kind_of=lambda op: "x", stop=stop)
    assert records == []


def test_throughput_is_the_median_window_rate():
    # 10 ops per second for 10 s, except a stalled second with none
    records = [loops.Record("x", 0.0, True, 0.0, t / 10, t / 10 + 0.01)
               for t in range(100) if not 40 <= t < 50]
    assert harness.windowed_rate(records) == pytest.approx(10.0, rel=0.02)
    assert harness.windowed_rate([]) == 0.0


def test_fixed_rate_schedule():
    assert loops.fixed_rate(4, 1.0, 2.0) == [2.0, 2.25, 2.5, 2.75]


# ----------------------------------------------------------------------
# generators are a pure function of the seed
# ----------------------------------------------------------------------
def _query_serial_ops(seed):
    ctx = Context(ROOT, seed, 1.0, False, spec.load(
        os.path.join(ROOT, "BENCHMARK.json")), None)
    workload = QuerySerial(ctx)
    workload.prepare()
    return workload.source.ops


def test_generators_are_deterministic_per_seed():
    first, again = _query_serial_ops(7), _query_serial_ops(7)
    assert first == again
    assert first != _query_serial_ops(8)
    kinds = {op.kind for op in first}
    assert kinds == {"implies", "check", "probe", "delta"}


@pytest.fixture
def rundir(tmp_path, monkeypatch):
    # RunDir redirects temporary files; undo that after the test
    monkeypatch.setenv("TMPDIR", os.environ.get("TMPDIR", ""))
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    return hygiene.RunDir(str(tmp_path))


def _fleet_lanes(seed, rundir):
    ctx = Context(ROOT, seed, 1.0, False, spec.load(
        os.path.join(ROOT, "BENCHMARK.json")), rundir)
    workload = FleetRouted(ctx)
    workload.prepare()
    return [lane["source"].ops for lane in workload.lanes]


def test_fleet_lanes_are_precomputed_and_deterministic_per_seed(rundir):
    first = _fleet_lanes(5, rundir)
    assert first == _fleet_lanes(5, rundir)
    assert first != _fleet_lanes(6, rundir)
    for ops in first:
        assert len(ops) == int(FleetRouted.LANE_RATE * (1.0 + 2.0))
        implies = [op.text for op in ops if op.kind == "implies"]
        assert len(set(implies)) == len(implies)


def test_run_dir_reports_leaked_temporary_and_data_directories(rundir):
    os.makedirs(os.path.join(rundir.fresh("ingest"), "wal"))
    open(rundir.fresh("ingest") + ".json", "w").close()
    assert rundir.leftovers() == []
    os.makedirs(os.path.join(tempfile.gettempdir(), "leaked"))
    os.makedirs(os.path.join(rundir.path, "stray-data"))
    problems = rundir.remove()
    assert problems == ["temporary tmp/leaked left behind",
                        "stray-data left behind in the run directory"]
    assert not os.path.exists(rundir.path)


@pytest.mark.skipif(not os.path.isdir(hygiene.SHM_DIR), reason="no /dev/shm")
def test_shm_watch_reports_segments_still_present_at_the_end():
    watch = hygiene.ShmWatch()
    segment = shared_memory.SharedMemory(create=True, size=64)
    try:
        assert watch.close() == [
            f"shared-memory segment {segment.name} left behind"]
    finally:
        segment.close()
        segment.unlink()
    assert watch.close() == []


def test_wide_writer_only_deletes_its_own_baskets():
    writer = gen.WideWriter(gen.rng_for("ingest-mixed", 3), 16, (8, 12), 4)
    live = {}
    for _ in range(50):
        for mask, delta in writer.next_tx():
            assert 8 <= bin(mask).count("1") <= 12
            live[mask] = live.get(mask, 0) + delta
            assert live[mask] >= 0
    assert sum(live.values()) == 4


def test_oracle_tracks_support_and_status_like_core():
    ground = gen.ground_of(6)
    rng = gen.rng_for("ingest-mixed", 1)
    baskets = gen.seed_baskets(rng, 6, 40, 0.4)
    checks = gen.parse_all(ground, [gen.check_constraint_text(rng, 6)
                                    for _ in range(6)])
    oracle = gen.DensityOracle(ground, baskets, [1, 3], checks)
    extra = [0b111100, 0b000111]
    oracle.apply([(m, 1) for m in extra])
    db = gen.BasketDatabase(ground, baskets + extra)
    assert oracle.support[1] == db.support(1)
    assert oracle.support[0] == oracle.mass == len(baskets) + 2
    function = db.support_function()
    assert oracle.statuses() == tuple(c.satisfied_by(function) for c in checks)


# ----------------------------------------------------------------------
# BENCHMARK.json: names, units, and what the runner emits
# ----------------------------------------------------------------------
def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_is_valid_and_matches_the_runner():
    declared = spec.validate(_spec())
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
    assert spec.latency_limit_ms(declared, "ingest-mixed") > 0
    emitted = set(harness.end_to_end([])) | {"setup_s", "rss_mb"}
    assert set(spec.metric_names(declared, "end_to_end")) <= emitted


def test_every_per_layer_metric_is_emitted_with_explicit_zeros():
    declared = spec.validate(_spec())
    ctx = Context(ROOT, 1, 1.0, True, declared, None)
    ctx.traced_window = (0.0, 1.0)
    metrics = harness.layer_metrics(ctx, WORKLOADS["query-serial"](ctx),
                                    [], [], None, None, None, None, None,
                                    None, [])
    assert list(metrics) == spec.metric_names(declared, "per_layer")
    assert all(value == 0.0 for value in metrics.values())


@pytest.mark.parametrize("mutate", [
    lambda s: s["end_to_end"][0].update(name="bad name"),
    lambda s: s["end_to_end"][1].update(name="setup_s"),
    lambda s: s["end_to_end"][1].update(bound=0.3),
    lambda s: s["end_to_end"][1].update(unit="milli seconds"),
    lambda s: s["per_layer"][0].update(better="faster"),
    lambda s: s["per_layer"][0].update(bound=0.1),
    lambda s: s["workloads"][0].update(why="x" * 201),
    lambda s: s["workloads"].append(dict(s["workloads"][0])),
    lambda s: s.update(extra=1),
    lambda s: s.update(run_seconds=61),
    lambda s: s["end_to_end"].pop(0),
    lambda s: s["workloads"][0].update(name="x" * 65),
    lambda s: s.update(paths=["../elsewhere"]),
])
def test_declaration_errors_are_refused(mutate):
    broken = copy.deepcopy(_spec())
    mutate(broken)
    with pytest.raises(spec.SpecError):
        spec.validate(broken)


def test_layer_self_time_subtracts_children():
    spans = [(1, 0, "outer", 0.0, 10.0, "p", 0.0),
             (2, 1, "inner", 2.0, 5.0, "p", 0.0),
             (3, 1, "inner", 4.0, 6.0, "p", 0.0)]
    totals = tracing.self_times(spans)
    assert totals == {"outer": 6.0, "inner": 5.0}
