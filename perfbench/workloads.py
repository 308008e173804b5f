"""The three workloads.

Each workload boots the system through the shipped public API
(``ReproService`` + ``ReproClient``, or ``FleetService`` and
``ReproClient`` over unmodified ``repro serve`` workers), sets it up
several times (``setup_s`` is the median), warms it, then drives it
for the requested seconds.  A traced run (``--trace 1``) drives the
first half untraced and the second half with every layer wrapped, so
the per-layer numbers and the tracing overhead come from one run.

Why these workloads (each is declared in BENCHMARK.json):

* ``query-serial`` -- the serving layers (``net``, ``server``) do
  nearly all the work: batching and keep-alive changes move it,
  decider and backend changes should not.
* ``ingest-mixed`` -- durable writes (``persist``, ``stream``,
  ``incremental``) paced beside reads that each write
  invalidates, so a gain for one side that costs the other shows.
* ``fleet-routed`` -- the only workload with the router relay, quota
  admission and WAL shipping on the path.
"""

from __future__ import annotations

import gc
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench import gen, loops, spec, stats, tracing
from perfbench.gen import Op
from perfbench.loops import Record, Source
from repro.core.constraint_set import ConstraintSet
from repro.engine import EngineConfig, FleetService, HashRing, StreamSession
from repro.engine.fleet import FleetWorker
from repro.engine.decider import shared_cache
from repro.engine.net import ReproClient, ReproService, ServiceError
from repro.engine.persist import SnapshotStore, WriteAheadLog, encode_transaction
from repro.fis.baskets import BasketDatabase

QUERY_KINDS = {"implies", "check", "probe", "support"}
WRITE_KINDS = {"delta", "apply"}

#: Serving-side spans that answer one request (the server's public work).
SERVING_SPANS = {
    "implies": {"server.implies"},
    "check": {"server.check"},
    "probe": {"stream.support"},
    "delta": {"stream.apply_ops"},
}

#: Errors kept verbatim for the report (the rest are only counted).
MAX_NOTES = 5

#: Untimed load before measuring: fills the answer memo and decider
#: tables and lets the host settle into the load.
WARM_SECONDS = 2.0


def base_kind(kind: str) -> str:
    return kind.split(".", 1)[-1]


class Context:
    """Run-wide settings plus the bench process's span recorder."""

    def __init__(self, root: str, seed: int, seconds: float, trace: bool,
                 spec: dict, rundir):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.spec = spec
        self.rundir = rundir
        self.recorder = tracing.Recorder("bench")
        self._patches: Optional[tracing.Patches] = None
        self.setup_windows: List[Tuple[float, float]] = []
        self.traced_window: Optional[Tuple[float, float]] = None

    def probes(self, on: bool) -> None:
        """Install or remove the bench process's layer wrappers."""
        if not self.trace:
            return
        if on and self._patches is None:
            self._patches = tracing.install_engine_probes(self.recorder)
        elif not on and self._patches is not None:
            self._patches.restore()
            self._patches = None


class Workload:
    """One workload: inputs, boot/halt, the load it offers, its checks."""

    NAME = ""
    SETUPS = 5

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.notes: List[str] = []
        self.acked = 0
        self.acked_sum = 0
        #: Serving processes started (all set-ups) and their dump files.
        self.launched: list = []
        self.dumps: List[str] = []

    # hooks -----------------------------------------------------------
    def prepare(self) -> None:
        raise NotImplementedError

    def boot(self):
        raise NotImplementedError

    def halt(self, system) -> None:
        raise NotImplementedError

    def warm(self, system) -> List[Record]:
        """Untimed load before measuring; its answers are graded too."""
        raise NotImplementedError

    def drive(self, system, seconds: float, traced: bool
              ) -> Tuple[List[Record], float]:
        raise NotImplementedError

    def check_live(self, system) -> List[str]:
        return []

    def check_stopped(self, system) -> List[str]:
        return []

    def server_stats(self, system) -> Dict[str, int]:
        return {}

    def router_stats(self, system) -> Dict[str, int]:
        return {}

    def cache_stats(self, system) -> Dict[str, int]:
        return shared_cache().stats()

    def rss_mb(self, system) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def plans(self, system) -> dict:
        return {}

    def processes(self) -> list:
        return self.launched

    def set_tracing(self, system, on: bool) -> None:
        """Toggle the wrappers here and in every live serving process."""
        self.ctx.probes(on)
        live = [p for p in self.launched if p.poll() is None]
        if self.ctx.trace and live:
            for proc in live:
                os.kill(proc.pid, signal.SIGUSR1)
            time.sleep(0.3)

    def worker_dumps(self, system) -> List[dict]:
        """What every serving process of every set-up wrote at exit."""
        return [tracing.load_dump(path) for path in self.dumps
                if os.path.exists(path)]

    def launcher(self, proc: str, dump: str, argv: List[str]) -> List[str]:
        """The command running ``repro serve ARGV`` in its own process."""
        self.dumps.append(dump)
        return [sys.executable,
                os.path.join(self.ctx.root, "perfbench", "worker.py"),
                dump, proc] + argv

    def launcher_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.ctx.root, "src"), self.ctx.root])
        env["PERFBENCH_TRACE"] = "1" if self.ctx.trace else "0"
        return env

    def proc_of(self, record: Record) -> str:
        return "bench"

    def disk_bytes_per_tx(self, system) -> Optional[float]:
        return None

    def extra_report(self) -> List[str]:
        return []

    def e2e_view(self, records: List[Record]) -> List[Record]:
        """The records the end-to-end figures are made of."""
        return records

    # helpers ---------------------------------------------------------
    def note(self, message: str) -> None:
        if len(self.notes) < MAX_NOTES:
            self.notes.append(message)

    def graded(self, op: Op, answer) -> bool:
        if answer == op.expect:
            return True
        self.note(f"wrong answer to {op.kind} {op.text!r}: got {answer!r}, "
                  f"oracle says {op.expect!r}")
        return False

    def acknowledge(self, deltas) -> None:
        self.acked += 1
        self.acked_sum += sum(d for _, d in deltas)


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def http_execute(workload: Workload, client: ReproClient, op: Op,
                 acknowledge=None) -> bool:
    """Send one operation over the wire and grade the reply;
    ``acknowledge(deltas)`` (default: the workload's) books a commit."""
    try:
        if op.kind == "implies":
            return workload.graded(op, client.implies(op.text))
        if op.kind == "check":
            return workload.graded(op, client.check(op.text))
        if op.kind == "probe":
            return workload.graded(op, client.probe(op.text))
        tx = client.delta(op.lines)["tx"]
    except ServiceError as err:
        workload.note(f"{op.kind} {op.text!r} failed: {err}")
        return False
    if tx != op.expect:
        workload.note(f"delta committed as tx {tx}, expected {op.expect}")
        return False
    (acknowledge or workload.acknowledge)(op.deltas)
    return True


def wal_header_bytes(directory: str) -> int:
    """Framing bytes per WAL record, read off a one-record log."""
    path = os.path.join(directory, "header-probe.log")
    wal = WriteAheadLog(path, fsync="never")
    wal.append(1, b"")
    wal.close()
    size = os.path.getsize(path)
    os.remove(path)
    return size


def store_bytes_per_tx(ground, dirs: List[str], txs: List[tuple],
                       snapshot_every: int, header: int) -> float:
    """Bytes a durable run wrote per committed transaction: every WAL
    record (framing + the store's own encoding of the acknowledged
    deltas) plus every snapshot.  Snapshots are counted from the
    cadence (one at creation, one per ``snapshot_every``, one at the
    drain) and sized by the snapshots the store retained."""
    if not txs:
        return 0.0
    wal = sum(header + len(encode_transaction(ground, list(d))) for d in txs)
    written = 2 + len(txs) // snapshot_every
    total = 0.0
    for directory in dirs:
        sizes = [os.path.getsize(path)
                 for _, path in SnapshotStore(directory).list()]
        snap = sum(sizes) / len(sizes) if sizes else 0.0
        total += wal + written * snap
    return total / len(txs)


def balanced_checks(rng, ground, baskets, count: int) -> List[str]:
    """Check constraints, half satisfied and half violated at the seed
    (judged by core on the basket function)."""
    function = BasketDatabase(ground, baskets).support_function()
    return gen.balanced(
        lambda: gen.check_constraint_text(rng, ground.size),
        lambda text: gen.parse_all(ground, [text])[0].satisfied_by(function),
        count)


def conservation(mass, seed_mass: int, acked_sum: int, who: str = ""
                 ) -> List[str]:
    """support(empty) must equal the seed mass plus the acked deltas."""
    if mass == seed_mass + acked_sum:
        return []
    return [f"conservation{who}: support(empty) = {mass}, seed mass + "
            f"acknowledged deltas = {seed_mass + acked_sum}"]


def write_inputs(directory: str, texts, baskets, n: int) -> Tuple[str, str]:
    """The constraint and basket files a ``repro serve`` process loads."""
    constraints = os.path.join(directory, "constraints.txt")
    basket_file = os.path.join(directory, "baskets.txt")
    with open(constraints, "w") as fh:
        fh.write(gen.constraint_file_text(texts, n))
    with open(basket_file, "w") as fh:
        fh.write(gen.basket_file_text(baskets, n))
    return constraints, basket_file


def reopen_check(ground, constraints, directory: str, tx: int, mass: int
                 ) -> List[str]:
    """Recover a data directory and compare it with what was acked."""
    session = StreamSession(ground, constraints=constraints,
                            config=EngineConfig(durable=directory))
    try:
        problems = []
        if session.transactions != tx:
            problems.append(f"{directory}: recovered {session.transactions} "
                            f"transactions, {tx} were acknowledged")
        if session.support("") != mass:
            problems.append(f"{directory}: recovered mass "
                            f"{session.support('')}, expected {mass}")
        return problems
    finally:
        session.close()


# ----------------------------------------------------------------------
# query-serial
# ----------------------------------------------------------------------
class QuerySerial(Workload):
    """Closed loop, one connection, in-thread ``ReproService`` at
    |S| = 12.  Mostly repeated (memo-warm) implies/check, some distinct
    cold implies, probes, and a quarter of writes that only move counts
    of baskets already present -- the zero set never changes, so the
    answer memo stays warm while the write path still gets the samples
    its p99 needs."""

    NAME = "query-serial"
    N = 12
    #: Boots take milliseconds; many of them keep the median steady.
    SETUPS = 25
    #: Operations precomputed per second of load, about 3.5 times the
    #: rate reached on the 2-vCPU host it was built on; the drive ends
    #: early if they are used up.
    RATE = 1500

    def prepare(self) -> None:
        rng = gen.rng_for(self.NAME, self.ctx.seed)
        self.ground = gen.ground_of(self.N)
        self.baskets = gen.seed_baskets(rng, self.N, 1500, 0.3)
        self.seed_counts = BasketDatabase(self.ground,
                                          self.baskets).multiset_counts()
        texts = [gen.random_constraint_text(rng, self.N, (1, 2), (1, 3), (1, 2))
                 for _ in range(8)]
        self.cset = ConstraintSet(self.ground, gen.parse_all(self.ground, texts))
        self.implies_oracle = gen.ImpliesOracle(self.cset)
        self.seen: set = set()
        hot = gen.cold_targets(rng, self.N, 12, (2, 4), self.seen)
        self.hot_implies = [
            (text, self.implies_oracle.implies(target))
            for text, target in zip(hot, gen.parse_all(self.ground, hot))]
        self.check_texts = balanced_checks(rng, self.ground, self.baskets, 12)
        self.probes = [gen.random_mask(rng, self.N, rng.randint(1, 3))
                       for _ in range(8)]
        self.oracle = gen.DensityOracle(
            self.ground, self.baskets, self.probes,
            gen.parse_all(self.ground, self.check_texts))
        self.mix = gen.rng_for(self.NAME, self.ctx.seed, 1)
        self.pending: List[int] = []
        self.tx = 0
        self.source = Source(self._ops(
            int(self.RATE * (WARM_SECONDS + self.ctx.seconds))))

    def _ops(self, count: int) -> List[Op]:
        rng, ops = self.mix, []
        for _ in range(count):
            r = rng.random()
            if r < 0.30:
                text, expect = rng.choice(self.hot_implies)
                ops.append(Op("implies", text, expect=expect))
            elif r < 0.55:
                i = rng.randrange(len(self.check_texts))
                ops.append(Op("check", self.check_texts[i],
                              expect=self.oracle.satisfied(i)))
            elif r < 0.63:
                text = gen.cold_targets(rng, self.N, 1, (3, 5), self.seen)[0]
                target = gen.parse_all(self.ground, [text])[0]
                ops.append(Op("implies", text,
                              expect=self.implies_oracle.implies(target)))
            elif r < 0.75:
                p = rng.choice(self.probes)
                ops.append(Op("probe", gen.text_of(p),
                              expect=self.oracle.support[p]))
            else:
                if self.pending and rng.random() < 0.5:
                    deltas = ((self.pending.pop(0), -1),)
                else:
                    mask = rng.choice(self.baskets)
                    self.pending.append(mask)
                    deltas = ((mask, 1),)
                self.oracle.apply(deltas)
                self.tx += 1
                ops.append(Op("delta", deltas=deltas, expect=self.tx))
        return ops

    def boot(self):
        session = StreamSession(self.ground, constraints=self.cset.constraints,
                                density=dict(self.seed_counts))
        handle = ReproService(self.cset, session=session).start_in_thread()
        client = handle.client()
        client.health()
        return {"handle": handle, "session": session, "client": client}

    def halt(self, system) -> None:
        system["handle"].stop()

    def warm(self, system):
        return self.drive(system, WARM_SECONDS, False)[0]

    def drive(self, system, seconds, traced):
        return loops.closed_loop(self.source, lambda op: http_execute(
            self, system["client"], op), seconds)

    def check_live(self, system) -> List[str]:
        return conservation(system["client"].probe(""), self.oracle.seed_mass,
                            self.acked_sum)

    def server_stats(self, system):
        return system["client"].stats()

    def plans(self, system):
        return {"service": system["session"].plan.as_dict()}


# ----------------------------------------------------------------------
# ingest-mixed
# ----------------------------------------------------------------------
class IngestMixed(Workload):
    """Open loop at a few fixed offered rates against a durable ``repro
    serve`` process at |S| = 16 (fsync always, periodic snapshots), over
    two connections.  A writer commits wide-basket transactions; a
    reader sends checks and probes whose answers each write
    invalidates.  The service is ``repro serve`` as shipped: it keeps
    no live support table, so a delta updates the density and the
    tracked constraints' statuses, and a probe sums the nonzero density
    entries.

    Reader answers are graded against the oracle state after ``k``
    writes for every ``k`` between the writes acknowledged before the
    read was sent and the writes sent before its reply arrived."""

    NAME = "ingest-mixed"
    N = 16
    #: Offered rates in operations per second and the share of the run
    #: each gets.  Reads and writes alternate, each due half a period
    #: after the other.  The end-to-end figures pool the first three
    #: rungs, where one operation finishes before the next is due, so
    #: they measure the paced interleaving of writes and reads rather
    #: than this host's scheduling noise; the last is a short stress
    #: rung above this host's capacity that only informs the sustained
    #: rate.
    RUNGS = (90, 120, 150, 600)
    SHARES = (0.3, 0.3, 0.3, 0.1)
    GATED = 3
    #: A few snapshots a run: periodic, but rare enough that their
    #: stalls stay in the tail rather than the medians.
    SNAPSHOT_EVERY = 500

    def prepare(self) -> None:
        rng = gen.rng_for(self.NAME, self.ctx.seed)
        self.ground = gen.ground_of(self.N)
        self.baskets = gen.seed_baskets(rng, self.N, 600, 0.25)
        texts = [gen.random_constraint_text(rng, self.N, (1, 3), (1, 3), (1, 2))
                 for _ in range(10)]
        self.cset = ConstraintSet(self.ground, gen.parse_all(self.ground, texts))
        self.constraint_file, self.basket_file = write_inputs(
            self.ctx.rundir.sub("ingest-inputs"), texts, self.baskets, self.N)
        self.check_texts = balanced_checks(rng, self.ground, self.baskets, 12)
        self.probes = [gen.random_mask(rng, self.N, rng.randint(1, 3))
                       for _ in range(16)]
        self.oracle = gen.DensityOracle(
            self.ground, self.baskets, self.probes,
            gen.parse_all(self.ground, self.check_texts))
        self.writer = gen.WideWriter(gen.rng_for(self.NAME, self.ctx.seed, 1),
                                     self.N, (8, 12), 64)
        self.reads = gen.rng_for(self.NAME, self.ctx.seed, 2)
        self.txs: List[tuple] = []
        self.support_hist = {p: [v] for p, v in self.oracle.support.items()}
        self.status_hist = [[s] for s in self.oracle.statuses()]
        self.sent = 0
        self.acked_txs: List[tuple] = []
        self.limit_ms = spec.latency_limit_ms(self.ctx.spec, self.NAME)
        self.rung_records: Dict[int, List[Record]] = {}
        #: Records (by id) of the rungs the end-to-end figures pool.
        self.gated: set = set()

    def _extend_writes(self, count: int) -> None:
        """Precompute ``count`` more transactions and the oracle state
        after each."""
        for _ in range(count):
            deltas = self.writer.next_tx()
            self.oracle.apply(deltas)
            self.txs.append(deltas)
            for p, value in self.oracle.support.items():
                self.support_hist[p].append(value)
            for hist, status in zip(self.status_hist, self.oracle.statuses()):
                hist.append(status)

    def boot(self):
        directory = self.ctx.rundir.fresh("ingest")
        command = self.launcher("service", directory + ".json", [
            "serve", self.constraint_file,
            "--port", "0", "--host", "127.0.0.1",
            "--baskets", self.basket_file, "--data-dir", directory,
            "--snapshot-every", str(self.SNAPSHOT_EVERY)])
        # the fleet's worker handle: spawn, then read the bound address
        # off the '# listening on' line
        worker = FleetWorker(0, command)
        worker.spawn(env=self.launcher_env())
        self.launched.append(worker.proc)
        deadline = time.monotonic() + 60
        while worker.address is None:
            if not worker.alive() or time.monotonic() > deadline:
                raise ServiceError("ingest service did not start")
            time.sleep(0.005)
        host, port = worker.address
        client = ReproClient(host, port)
        client.wait_ready(timeout=60, interval=0.005)
        return {"worker": worker, "dir": directory, "dump": directory + ".json",
                "writer": client, "reader": ReproClient(host, port)}

    def halt(self, system) -> None:
        """SIGTERM: the service drains, snapshots and exits."""
        proc = system["worker"].proc
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)

    def _write(self, system, k: int) -> bool:
        deltas = self.txs[k - 1]
        self.sent += 1
        try:
            tx = system["writer"].delta(Op("delta", deltas=deltas).lines)["tx"]
        except ServiceError as err:
            self.note(f"delta {k} failed: {err}")
            return False
        if tx != k:
            self.note(f"delta committed as tx {tx}, expected {k}")
            return False
        self.acknowledge(deltas)
        self.acked_txs.append(deltas)
        return True

    def _read(self, system, op) -> bool:
        kind, key = op
        low = self.acked
        try:
            if kind == "check":
                answer = system["reader"].check(self.check_texts[key])
                hist = self.status_hist[key]
            else:
                answer = system["reader"].probe(gen.text_of(key))
                hist = self.support_hist[key]
        except ServiceError as err:
            self.note(f"{kind} failed: {err}")
            return False
        high = self.sent
        if answer in hist[low:high + 1]:
            return True
        self.note(f"wrong {kind} answer {answer!r} for {key!r} between "
                  f"writes {low} and {high}: oracle allows "
                  f"{sorted(set(map(str, hist[low:high + 1])))}")
        return False

    def _ladder(self, seconds: float):
        """Writer and reader schedules over the rate ladder."""
        writes, reads = [], []
        begin = 0.0
        for rung, (rate, share) in enumerate(zip(self.RUNGS, self.SHARES)):
            span = seconds * share
            for offset in loops.fixed_rate(rate / 2, span, begin):
                writes.append((offset, rung))
            for offset in loops.fixed_rate(rate / 2, span, begin + 1 / rate):
                reads.append((offset, rung))
            begin += span
        return writes, reads

    def _run_ladder(self, system, seconds: float) -> Tuple[List[Record], float]:
        writes, reads = self._ladder(seconds)
        first = len(self.txs) + 1
        self._extend_writes(len(writes))
        write_sched = [(off, (first + i, rung))
                       for i, (off, rung) in enumerate(writes)]
        read_sched = []
        for off, rung in reads:
            # checks dominate, so the query median sits inside the check
            # latency cluster instead of on the check/probe boundary
            if self.reads.random() < 0.75:
                key = ("check", self.reads.randrange(len(self.check_texts)))
            else:
                key = ("probe", self.reads.choice(self.probes))
            read_sched.append((off, (key, rung)))
        gc.freeze()
        start = time.perf_counter() + 0.05
        out: Dict[str, List[Record]] = {}

        def writer():
            out["write"] = loops.open_loop(
                write_sched, lambda op: self._write(system, op[0]), start,
                kind_of=lambda op: "delta")

        thread = threading.Thread(target=writer, name="perfbench-writer")
        thread.start()
        out["read"] = loops.open_loop(
            read_sched, lambda op: self._read(system, op[0]), start,
            kind_of=lambda op: op[0][0])
        thread.join()
        for sched, recs in ((write_sched, out["write"]),
                            (read_sched, out["read"])):
            for (_, (_, rung)), rec in zip(sched, recs):
                self.rung_records.setdefault(rung, []).append(rec)
                if rung < self.GATED:
                    self.gated.add(id(rec))
        return out["write"] + out["read"], time.perf_counter() - start

    def e2e_view(self, records):
        return [r for r in records if id(r) in self.gated]

    def warm(self, system):
        records = self._run_ladder(system, WARM_SECONDS)[0]
        self.rung_records.clear()
        self.gated.clear()
        return records

    def drive(self, system, seconds, traced):
        return self._run_ladder(system, seconds)

    def rungs(self) -> List[dict]:
        """Per offered rate: tails, generator lag, failures."""
        rows = []
        for rung, rate in enumerate(self.RUNGS):
            recs = self.rung_records.get(rung, [])
            q = stats.tail([r.latency for r in recs if r.kind in QUERY_KINDS])
            w = stats.tail([r.latency for r in recs if r.kind in WRITE_KINDS])
            lag = stats.tail([r.lag for r in recs])
            failed = sum(1 for r in recs if not r.ok)
            rows.append({"rate": rate, "query": q, "write": w, "lag": lag,
                         "failed": failed, "n": len(recs)})
        return rows

    def sustained_rate(self) -> float:
        limit = self.limit_ms / 1e3
        best = 0.0
        for row in self.rungs():
            if (row["n"] and not row["failed"] and row["query"].value <= limit
                    and row["write"].value <= limit
                    and row["lag"].value <= limit):
                best = float(row["rate"])
        return best

    def extra_report(self) -> List[str]:
        lines = []
        for row in self.rungs():
            lines.append(
                f"# rate {row['rate']} ops/s: query p{row['query'].q:g} "
                f"{row['query'].value * 1e3:.3f} ms (n={row['query'].n}), "
                f"write p{row['write'].q:g} {row['write'].value * 1e3:.3f} ms "
                f"(n={row['write'].n}), lag p{row['lag'].q:g} "
                f"{row['lag'].value * 1e3:.3f} ms, failed {row['failed']}")
        return lines

    def check_live(self, system) -> List[str]:
        return conservation(system["reader"].probe(""), self.oracle.seed_mass,
                            self.acked_sum)

    def check_stopped(self, system) -> List[str]:
        problems = []
        code = system["worker"].proc.returncode
        if code != 0:
            problems.append(f"ingest service exited with code {code}")
        return problems + reopen_check(
            self.ground, self.cset.constraints, system["dir"], self.acked,
            self.oracle.seed_mass + self.acked_sum)

    def server_stats(self, system):
        return system["reader"].stats()

    def plans(self, system):
        engine = system["reader"].stats()["engine"]
        return {"service": {k: engine[k] for k in
                            ("tier", "backend", "shards", "workers", "durable")}}

    def proc_of(self, record: Record) -> str:
        return "service"

    def rss_mb(self, system) -> float:
        """Peak RSS of the serving process."""
        return tracing.load_dump(system["dump"])["extra"]["maxrss_kb"] / 1024.0

    def disk_bytes_per_tx(self, system):
        header = wal_header_bytes(self.ctx.rundir.tmp)
        return store_bytes_per_tx(self.ground, [system["dir"]], self.acked_txs,
                                  self.SNAPSHOT_EVERY, header)


# ----------------------------------------------------------------------
# fleet-routed
# ----------------------------------------------------------------------
class FleetRouted(Workload):
    """Closed loop, two client threads as two tenants that the public
    ``HashRing`` places on different workers of a 2-worker
    ``FleetService``.  Workers are durable ``repro serve`` processes
    that ship their WAL to a standby.  Each tenant sends distinct cold
    implies and wide-basket ``/delta`` transactions, all generated and
    answered by the oracle before the first set-up, so no lane's input
    work stalls the other lane or the in-process router while timed.
    In the traced half every other request goes straight to the
    tenant's worker, which gives the router's share of the latency."""

    NAME = "fleet-routed"
    N = 12
    WORKERS = 2
    SETUPS = 3
    SNAPSHOT_EVERY = 500
    #: Operations precomputed per tenant and second of load, about 3
    #: times the rate one tenant reached on the 2-vCPU host it was built
    #: on; a tenant that uses them up ends the drive for both.
    LANE_RATE = 800

    def prepare(self) -> None:
        rng = gen.rng_for(self.NAME, self.ctx.seed)
        self.ground = gen.ground_of(self.N)
        self.baskets = gen.seed_baskets(rng, self.N, 1000, 0.3)
        texts = [gen.random_constraint_text(rng, self.N, (1, 2), (1, 3), (1, 2))
                 for _ in range(8)]
        self.cset = ConstraintSet(self.ground, gen.parse_all(self.ground, texts))
        self.implies_oracle = gen.ImpliesOracle(self.cset)
        self.constraint_file, self.basket_file = write_inputs(
            self.ctx.rundir.sub("fleet-inputs"), texts, self.baskets, self.N)
        ring = HashRing(self.WORKERS)
        self.tenants: List[str] = []
        k = 0
        while len(self.tenants) < self.WORKERS:
            name = f"tenant-{self.ctx.seed}-{k}"
            if ring.route(name) == len(self.tenants):
                self.tenants.append(name)
            k += 1
        budget = int(self.LANE_RATE * (WARM_SECONDS + self.ctx.seconds))
        self.lanes = [self._lane(i, budget) for i in range(self.WORKERS)]
        #: Which worker served each record (the tenant's lane).
        self.record_proc: Dict[int, str] = {}

    def _lane(self, index: int, budget: int) -> dict:
        lane = {
            "index": index,
            "oracle": gen.DensityOracle(self.ground, self.baskets),
            "writer": gen.WideWriter(
                gen.rng_for(self.NAME, self.ctx.seed, 10 + index),
                self.N, (6, 9), 32),
            "mix": gen.rng_for(self.NAME, self.ctx.seed, 20 + index),
            "tx": 0, "acked": 0, "acked_sum": 0, "acked_txs": [],
        }
        lane["source"] = Source(self._ops(lane, budget))
        return lane

    def _ops(self, lane: dict, count: int) -> List[Op]:
        """The tenant's operations; targets are distinct within a tenant,
        whose worker is the only one that sees them."""
        rng, seen, ops = lane["mix"], set(), []
        for _ in range(count):
            if rng.random() < 0.5:
                text = gen.cold_targets(rng, self.N, 1, (2, 4), seen)[0]
                target = gen.parse_all(self.ground, [text])[0]
                ops.append(Op("implies", text,
                              expect=self.implies_oracle.implies(target)))
            else:
                deltas = lane["writer"].next_tx()
                lane["oracle"].apply(deltas)
                lane["tx"] += 1
                ops.append(Op("delta", deltas=deltas, expect=lane["tx"]))
        return ops

    def boot(self):
        root = self.ctx.rundir.fresh("fleet")
        data = [os.path.join(root, "data", f"worker-{i}")
                for i in range(self.WORKERS)]
        standby = [os.path.join(root, "standby", f"worker-{i}")
                   for i in range(self.WORKERS)]
        dumps = [os.path.join(root, f"worker-{i}.json")
                 for i in range(self.WORKERS)]
        commands = [
            self.launcher(f"worker-{i}", dumps[i], [
                "serve", self.constraint_file, "--port", "0",
                "--host", "127.0.0.1", "--baskets", self.basket_file,
                "--data-dir", data[i], "--ship-to", standby[i],
                "--snapshot-every", str(self.SNAPSHOT_EVERY)])
            for i in range(self.WORKERS)
        ]
        service = FleetService(commands, env=self.launcher_env())
        try:
            handle = service.start_in_thread(timeout=120)
        finally:
            self.launched.extend(w.proc for w in service.supervisor.workers)
        handle.client().health()
        return {"handle": handle, "service": service, "data": data,
                "standby": standby, "dumps": dumps}

    def halt(self, system) -> None:
        system["handle"].stop()

    def _workers(self, system):
        return system["service"].supervisor.workers

    def _clients(self, system, lane) -> Tuple[ReproClient, ReproClient]:
        host, port = self._workers(system)[lane["index"]].address
        tenant = self.tenants[lane["index"]]
        return (system["handle"].client(tenant=tenant),
                ReproClient(host, port, tenant=tenant))

    def _run(self, system, seconds: float, alternate: bool):
        results: Dict[int, Tuple[List[Record], float]] = {}
        stop = threading.Event()

        def lane_loop(lane):
            routed, direct = self._clients(system, lane)
            turn = {"n": 0, "direct": False}

            def execute(op):
                turn["direct"] = alternate and turn["n"] % 2 == 1
                turn["n"] += 1
                return http_execute(self, direct if turn["direct"] else routed,
                                    op, lambda deltas: self._book(lane, deltas))

            def kind_of(op):
                return ("direct." if turn["direct"] else "") + op.kind

            results[lane["index"]] = loops.closed_loop(
                lane["source"], execute, seconds, kind_of=kind_of, stop=stop)

        threads = [threading.Thread(target=lane_loop, args=(lane,),
                                    name=f"perfbench-tenant-{lane['index']}")
                   for lane in self.lanes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = []
        for index in sorted(results):
            for record in results[index][0]:
                self.record_proc[id(record)] = f"worker-{index}"
                records.append(record)
        return records, max(elapsed for _, elapsed in results.values())

    @staticmethod
    def _book(lane: dict, deltas) -> None:
        """Acknowledged commits are counted per tenant (one thread each)."""
        lane["acked"] += 1
        lane["acked_sum"] += sum(d for _, d in deltas)
        lane["acked_txs"].append(deltas)

    def warm(self, system):
        return self._run(system, WARM_SECONDS, alternate=False)[0]

    def drive(self, system, seconds, traced):
        return self._run(system, seconds, alternate=traced)

    def proc_of(self, record: Record) -> str:
        return self.record_proc.get(id(record), "bench")

    def check_live(self, system) -> List[str]:
        problems = []
        for lane in self.lanes:
            routed, _ = self._clients(system, lane)
            problems += conservation(
                routed.probe(""), lane["oracle"].seed_mass, lane["acked_sum"],
                f" on {self.tenants[lane['index']]}")
        return problems

    def check_stopped(self, system) -> List[str]:
        problems = []
        for lane in self.lanes:
            i = lane["index"]
            code = self._workers(system)[i].proc.returncode
            if code != 0:
                problems.append(f"worker {i} exited with code {code}")
            mass = lane["oracle"].seed_mass + lane["acked_sum"]
            for directory in (system["data"][i], system["standby"][i]):
                problems += reopen_check(self.ground, self.cset.constraints,
                                         directory, lane["acked"], mass)
        return problems

    def server_stats(self, system):
        total: Dict[str, int] = {}
        for lane in self.lanes:
            _, direct = self._clients(system, lane)
            for key, value in direct.stats().items():
                if isinstance(value, int) and not isinstance(value, bool):
                    total[key] = total.get(key, 0) + value
        return total

    def router_stats(self, system):
        return system["handle"].client().stats()

    def plans(self, system):
        plans = {}
        for lane in self.lanes:
            _, direct = self._clients(system, lane)
            engine = direct.stats()["engine"]
            plans[f"worker-{lane['index']}"] = {
                k: engine[k] for k in ("tier", "backend", "shards", "workers",
                                       "durable")}
        return plans

    def rss_mb(self, system) -> float:
        """Peak RSS of the router process plus the measured workers."""
        workers = sum(tracing.load_dump(path)["extra"]["maxrss_kb"]
                      for path in system["dumps"])
        return super().rss_mb(system) + workers / 1024.0

    def disk_bytes_per_tx(self, system):
        header = wal_header_bytes(self.ctx.rundir.tmp)
        per_lane = []
        for lane in self.lanes:
            i = lane["index"]
            per_lane.append(store_bytes_per_tx(
                self.ground, [system["data"][i], system["standby"][i]],
                lane["acked_txs"], self.SNAPSHOT_EVERY, header))
        return sum(per_lane) / len(per_lane)


WORKLOADS = {cls.NAME: cls for cls in
             (QuerySerial, IngestMixed, FleetRouted)}
