"""The service workloads: ``repro serve`` driven over HTTP.

``serve-memory`` runs the server without a WAL; ``serve-durable`` runs it
with ``--wal-root``. A server subprocess hosts one star query (n=6,
window=48); one thread posts 16-arrival batches, one request at a time,
and one subscriber thread reads delta frames. Every delta is checked
against the oracle.

End-to-end metrics come from closed-loop passes: each pass posts the
same stream back to back to a fresh server, so every pass does the same
work (and, when durable, crosses the same checkpoints with the same
delta-log sizes), and the run reports medians over passes. Throughput
comes from that saturating phase. Latency comes from a second phase of
the same pass, on the now full windows: each batch is posted only once
every delta of the one before has arrived, so a latency sample is the
ingest-to-delta path itself, not the queue the saturating phase builds
(whose depth is the ratio of two speeds on shared cores, and swings with
the host).

The traced run adds the open-loop ladder. Offered load doubles from 125
arrivals/s, each step for the same time, and the ladder stops at the
first step that misses the limit: delta p99 above 250 ms, generator
lateness that grows over the step, or any failed request. Every request
is timed from its due time, so a stall also delays the requests queued
behind it, and each request's deltas are timed from that due time too.
Each step runs on a fresh server that first receives the same
closed-loop warm-up prefix: the durable server's checkpoints re-serialize
its whole delta log, so on one long-lived server a step's stalls would
depend on how much the earlier steps had logged.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT, SRC, WORK, hwm_kb, median, percentile, stream_digest,
)
from inputs import STAR_N, STAR_WINDOW, generate, query_shape, star_workload
from oracle import WindowedJoinOracle, digest_keys

from repro.recovery.manager import RecoveryConfig
from repro.service import ServiceClient
from repro.service.client import ServiceError

BATCH_ARRIVALS = 16
FIRST_RATE = 125.0              # arrivals/s
MAX_STEPS = 6                   # 125 .. 4000 arrivals/s
STEP_S = 3.0                    # step length; shorter if --seconds < 12
LIMIT_S = 0.250                 # delta p99 limit
GROWTH_S = 0.050                # lateness growth that flags a step
# A step whose generator falls this far behind (as a multiple of the step
# time) is cut short. One request is in flight at a time, so an overloaded
# step backs up in the generator, never in the server's queue.
CUT_FACTOR = 1.5
# Closed-loop passes: each posts the same PASS_ARRIVALS (about 6k
# updates; six checkpoints when durable) to a fresh server; at least
# MIN_PASSES run.
PASS_ARRIVALS = 3072
MIN_PASSES = 3
# Then the pass's latency phase: this many further arrivals, one batch
# in flight and none sent before the previous batch's deltas arrived.
LATENCY_ARRIVALS = 2048
LATENCY_WAIT_S = 10.0
# Arrivals posted closed-loop before each step. They fill every window
# (the R4..R6 windows of 240 fill after 864 arrivals), so the first step's
# latency samples come from a steady join rate, and they end just after
# the server's second checkpoint. With the default interval of 1000
# updates, checkpoints fire after the 16-arrival batches ending at
# arrivals 944 and 1456 (windows are full from 864 on, so each arrival is
# two updates). A 3-s first step (750 updates) then runs between
# checkpoints, so its latency is the ingest-to-delta path itself; the
# checkpoint stalls show in the later, faster steps.
WARMUP_ARRIVALS = 1456
WARMUP_CHECKPOINTS = 2
QUERY = "q"
WORKLOAD = {"kind": "star", "params": {"n": STAR_N, "window": STAR_WINDOW}}


class Step:
    """One rung of the offered-load ladder."""

    def __init__(self, rate: float):
        self.rate = rate
        self.requests: List[Tuple[float, float, float, int, int, int]] = []
        self.aborted = False
        self.failed_requests = 0
        self.delta_p50 = 0.0
        self.delta_p99 = 0.0
        self.delta_samples = 0
        self.late_p99 = 0.0
        self.late_grows = False
        self.missing = 0
        self.delivered_ups = 0.0
        self.server_hwm_kb = 0
        self.layers: Dict[str, float] = {}
        self.passed = False

    def as_dict(self) -> dict:
        return {
            "rate_arrivals_per_s": self.rate,
            "requests": len(self.requests),
            "aborted": self.aborted,
            "failed_requests": self.failed_requests,
            "delta_p50_ms": self.delta_p50 * 1e3,
            "delta_p99_ms": self.delta_p99 * 1e3,
            "delta_samples": self.delta_samples,
            "generator_late_p99_ms": self.late_p99 * 1e3,
            "lateness_grows": self.late_grows,
            "missing_deltas": self.missing,
            "delivered_ups": self.delivered_ups,
            "server_hwm_mb": self.server_hwm_kb / 1024.0,
            "passed": self.passed,
        }


class Server:
    """``python -m repro serve`` in a subprocess, on an ephemeral port."""

    def __init__(self, wal_root: Optional[str], log_path: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"]
            + (["--wal-root", wal_root] if wal_root else []),
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self.url = self._banner_url(timeout_s=30.0)
        except BaseException:
            self.proc.kill()
            self.stop()
            raise
        self.client = ServiceClient(self.url, timeout_s=30.0)

    def _banner_url(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, left))
            if not ready:
                raise RuntimeError("server printed no banner")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError("server exited before its banner")
            line += chunk
        match = re.search(rb"serving at (http://\S+)", line)
        if match is None:
            raise RuntimeError(f"unexpected banner {line!r}")
        return match.group(1).decode("ascii")

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                if self.client.readyz()[0]:
                    return
            except ServiceError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.005)

    def stop(self, timeout_s: float = 60.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def _start(wal_root: Optional[str],
           log_path: str) -> Tuple[Server, float]:
    """Server start until /readyz answers and the query is registered."""
    started = time.perf_counter()
    server = Server(wal_root, log_path)
    try:
        server.wait_ready()
        server.client.register(QUERY, WORKLOAD)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def _frame_keys(deltas) -> List[tuple]:
    """Oracle ``values`` keys of one delivered entry's deltas."""
    return [
        (sign, tuple((relation, tuple(values)) for relation, values in pairs))
        for sign, pairs in deltas
    ]


class Subscriber(threading.Thread):
    """Reads delta frames; stamps each entry's arrival time. Entries are
    kept raw and checked after the pass, so the client spends as little
    CPU as it can while the server is being timed."""

    def __init__(self, client: ServiceClient):
        super().__init__(name="perfbench-subscriber", daemon=True)
        self.subscription = client.subscribe(QUERY, frame_timeout_s=60.0)
        self.arrived: Dict[int, Tuple[float, list]] = {}
        self.duplicates = 0
        self.lock = threading.Lock()
        self.changed = threading.Condition(self.lock)

    def run(self) -> None:
        clock = time.perf_counter
        for frame in self.subscription:
            if frame.get("type") != "deltas":
                continue
            now = clock()
            with self.lock:
                for entry in frame.get("entries", ()):
                    if entry["seq"] in self.arrived:
                        self.duplicates += 1
                    self.arrived[entry["seq"]] = (now, entry["deltas"])
                self.changed.notify_all()

    def wait_for(self, seqs: List[int], timeout_s: float) -> bool:
        """Block until every seq in ``seqs`` has arrived."""
        with self.changed:
            return self.changed.wait_for(
                lambda: all(seq in self.arrived for seq in seqs), timeout_s)

    def close(self) -> None:
        self.subscription.close()


class ServeRun:
    def __init__(self):
        self.setup: List[float] = []
        self.passes: List[Step] = []        # closed-loop passes
        self.latency_phases: List[Step] = []    # one per pass
        self.steps: List[Step] = []         # open-loop ladder (trace runs)
        self.gen_s = 0.0
        self.digest = ""
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None
        self.corruption_caught = False
        self.layers: Dict[str, float] = {}
        self.notes: List[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if self.first_failure is None:
            self.first_failure = reason

    def end_to_end(self) -> Dict[str, float]:
        """Medians over the closed-loop passes, as for the engine
        workloads; ``sustained_ups`` is the lower-quartile pass rate.
        Latency comes from the passes' latency phases."""
        rates = sorted(p.delivered_ups for p in self.passes)
        phases = self.latency_phases
        return {
            "setup_s": median(self.setup),
            "throughput_ups": median(rates),
            "latency_p50_ms": median(p.delta_p50 for p in phases) * 1e3,
            "latency_p99_ms": median(p.delta_p99 for p in phases) * 1e3,
            "sustained_ups": percentile(rates, 0.25),
            "peak_rss_mb": median(p.server_hwm_kb for p in self.passes)
            / 1024.0,
        }


def sustained_ups(steps: List[Step]) -> float:
    """The update rate the server sustains within the delta p99 limit.

    The ladder's passing steps form a prefix. Reporting the top passing
    step's rate as is would jump 2x between runs whenever a step sits near
    the limit, so the offered rate is interpolated on a log-log scale
    between the top passing step and the first failing one, to where the
    delta p99 reaches the limit. The rate is converted to updates/s with
    the top passing step's measured updates per arrival.
    """
    passed = [s for s in steps if s.passed]
    if not passed:
        return 0.0
    top = passed[-1]
    rate = top.delivered_ups
    if len(passed) == len(steps) or top.delta_p99 <= 0.0:
        return rate
    # A step that failed on growing lateness alone counts as at the limit.
    failing_p99 = max(steps[len(passed)].delta_p99, LIMIT_S)
    if failing_p99 <= top.delta_p99:
        return rate
    fraction = math.log(LIMIT_S / top.delta_p99) / math.log(
        failing_p99 / top.delta_p99)
    return rate * 2.0 ** min(1.0, max(0.0, fraction))


@contextlib.contextmanager
def _client_gc_off():
    """Keep the client's garbage collector out of one server's lifetime.

    The subscriber holds every delivered delta until the pass is checked,
    hundreds of thousands of objects; with the collector on, its full
    collections stalled the client for up to 170 ms, late in each pass,
    and those stalls, not the server, set the latency tail. The held
    frames hold no cycles, so reference counting frees them; the
    collector runs once the server has stopped.
    """
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


def _expected(seed: int, arrivals_needed: int):
    """Arrivals to post, and the oracle's digest for every seq."""
    workload = star_workload(seed)
    updates, gen_s = generate(workload, arrivals_needed)
    arrivals = [(u.relation, list(u.row.values))
                for u in updates if int(u.sign) > 0]
    schemas, predicates, windows = query_shape(workload)
    oracle = WindowedJoinOracle(schemas, predicates, windows,
                                key_mode="values")
    expected: List[Tuple[int, int]] = []
    for relation, values in arrivals:
        for seq, digest in oracle.feed(relation, tuple(values)):
            assert seq == len(expected)
            expected.append(digest)
    return arrivals, expected, gen_s


def _run_step(step: Step, client: ServiceClient, arrivals, cursor: int,
              step_s: float) -> None:
    """Post one step's schedule, starting at arrival ``cursor``."""
    clock = time.perf_counter
    interval = BATCH_ARRIVALS / step.rate
    count = int(round(step.rate * step_s / BATCH_ARRIVALS))
    start = clock() + 0.005
    for k in range(count):
        due = start + k * interval
        now = clock()
        if now < due:
            time.sleep(due - now)
        sent = clock()
        if sent - start > CUT_FACTOR * step_s:
            step.aborted = True
            break
        batch = arrivals[cursor:cursor + BATCH_ARRIVALS]
        try:
            status, payload = client.ingest(QUERY, batch, retry=False)
        except ServiceError:
            status, payload = 0, {}
        acked = clock()
        cursor += len(batch)
        if status != 202:
            step.failed_requests += 1
            step.requests.append((due, sent, acked, status, -1, -1))
            break
        step.requests.append((due, sent, acked, status,
                              payload["seq_first"], payload["seq_last"]))


def _post_closed(step: Step, client: ServiceClient, arrivals,
                 count: int) -> int:
    """Post the first ``count`` arrivals back to back, one request in
    flight; returns the arrival cursor."""
    clock = time.perf_counter
    cursor = 0
    while cursor < count:
        batch = arrivals[cursor:cursor + BATCH_ARRIVALS]
        sent = clock()
        try:
            status, payload = client.ingest(QUERY, batch, retry=False)
        except ServiceError:
            status, payload = 0, {}
        cursor += len(batch)
        if status != 202:
            step.failed_requests += 1
            step.requests.append((sent, sent, clock(), status, -1, -1))
            break
        step.requests.append((sent, sent, clock(), status,
                              payload["seq_first"], payload["seq_last"]))
    return cursor


def _post_isolated(step: Step, client: ServiceClient,
                   subscriber: Subscriber, arrivals, expected, cursor: int,
                   count: int) -> None:
    """Post ``count`` arrivals from ``cursor``, each batch only once every
    delta of the previous batch has arrived."""
    clock = time.perf_counter
    end = cursor + count
    while cursor < end:
        batch = arrivals[cursor:cursor + BATCH_ARRIVALS]
        sent = clock()
        try:
            status, payload = client.ingest(QUERY, batch, retry=False)
        except ServiceError:
            status, payload = 0, {}
        acked = clock()
        cursor += len(batch)
        if status != 202:
            step.failed_requests += 1
            step.requests.append((sent, sent, acked, status, -1, -1))
            break
        first, last = payload["seq_first"], payload["seq_last"]
        step.requests.append((sent, sent, acked, status, first, last))
        wanted = [seq for seq in range(first, last + 1)
                  if expected[seq][0] > 0]
        if not subscriber.wait_for(wanted, LATENCY_WAIT_S):
            break


def _run_warmup(step: Step, client: ServiceClient, arrivals,
                durable: bool) -> int:
    """Post the warm-up prefix and let its last checkpoint finish."""
    cursor = _post_closed(step, client, arrivals, WARMUP_ARRIVALS)
    checkpoints = WARMUP_CHECKPOINTS if durable else 0
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        status = client.status(QUERY)
        if (status["checkpoints"] >= checkpoints
                and status["processed_seq"] >= status["acked_seq"]):
            break
        time.sleep(0.01)
    return cursor


def _judge_step(step: Step, subscriber: Subscriber, expected) -> None:
    """Wait briefly for the step's deltas, then compute its verdict."""
    wanted = [
        (seq, due)
        for due, _sent, _acked, status, first, last in step.requests
        if status == 202
        for seq in range(first, last + 1)
        if expected[seq][0] > 0
    ]
    deadline = time.perf_counter() + 2.0
    while time.perf_counter() < deadline:
        with subscriber.lock:
            if all(seq in subscriber.arrived for seq, _ in wanted):
                break
        time.sleep(0.01)
    with subscriber.lock:
        arrived = dict(subscriber.arrived)
    latency = sorted(arrived[seq][0] - due for seq, due in wanted
                     if seq in arrived)
    step.missing = len(wanted) - len(latency)
    step.delta_samples = len(latency)
    step.delta_p50 = percentile(latency, 0.50)
    step.delta_p99 = percentile(latency, 0.99)
    late = [sent - due for due, sent, *_ in step.requests]
    step.late_p99 = percentile(sorted(late), 0.99)
    third = max(1, len(late) // 3)
    step.late_grows = (
        median(late[-third:]) - median(late[:third]) > GROWTH_S
        if late else False
    )
    ok = [r for r in step.requests if r[3] == 202]
    if ok:
        updates = sum(last - first + 1 for *_, first, last in ok)
        span = max(r[2] for r in ok) - ok[0][0]
        step.delivered_ups = updates / span if span > 0 else 0.0
    step.passed = (
        not step.aborted and step.failed_requests == 0
        and step.missing == 0 and step.delta_p99 <= LIMIT_S
        and not step.late_grows
    )


def _prometheus_value(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def _histogram_p99(text: str, name: str) -> float:
    buckets = []
    for line in text.splitlines():
        if line.startswith(name + "_bucket"):
            le = re.search(r'le="([^"]+)"', line).group(1)
            buckets.append((float("inf") if le == "+Inf" else float(le),
                            float(line.rsplit(" ", 1)[1])))
    if not buckets:
        return 0.0
    buckets.sort()
    total = buckets[-1][1]
    for bound, cumulative in buckets:
        if cumulative >= 0.99 * total:
            return bound
    return buckets[-1][0]


class _Monitor(threading.Thread):
    """Polls the query status for the queue-depth high-water mark."""

    def __init__(self, client: ServiceClient):
        super().__init__(name="perfbench-monitor", daemon=True)
        self.client = client
        self.stop_event = threading.Event()
        self.depth_max = 0

    def run(self) -> None:
        while not self.stop_event.wait(0.05):
            try:
                depth = self.client.status(QUERY)["queue_depth_updates"]
            except (ServiceError, KeyError):
                continue
            self.depth_max = max(self.depth_max, depth)


def run_serve(seed: int, seconds: float, trace: bool,
              durable: bool = True) -> ServeRun:
    run = ServeRun()
    step_s = min(seconds / 4.0, STEP_S)
    needed = PASS_ARRIVALS + LATENCY_ARRIVALS
    if trace:
        needed = max(needed, WARMUP_ARRIVALS + BATCH_ARRIVALS + int(
            FIRST_RATE * 2 ** (MAX_STEPS - 1) * step_s))
    arrivals, expected, run.gen_s = _expected(seed, needed)
    run.digest = stream_digest(arrivals)
    gc.collect()
    gc.freeze()
    base = os.path.join(WORK, f"serve-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    log_path = os.path.join(base, "server.log")
    try:
        deadline = time.perf_counter() + seconds
        while len(run.passes) < MIN_PASSES or time.perf_counter() < deadline:
            wal_root = (os.path.join(base, f"pass{len(run.passes)}")
                        if durable else None)
            # Flush the previous pass's file writes and deletes first, so
            # this pass's fsyncs do not pay for them.
            os.sync()
            with _client_gc_off():
                _closed_pass(run, arrivals, expected, wal_root, log_path)
            if wal_root:
                shutil.rmtree(wal_root, ignore_errors=True)
        if trace:
            for k in range(MAX_STEPS):
                step = Step(FIRST_RATE * 2 ** k)
                run.steps.append(step)
                with _client_gc_off():
                    _step_on_fresh_server(
                        run, step, arrivals, expected, step_s,
                        os.path.join(base, f"step{k}") if durable else None,
                        log_path)
                if not step.passed:
                    break
            _serve_layers(run)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return run


def _closed_pass(run: ServeRun, arrivals, expected,
                 wal_root: Optional[str],
                 log_path: str) -> None:
    """One closed-loop pass on a fresh server: PASS_ARRIVALS posted back
    to back, then LATENCY_ARRIVALS one batch at a time; every delta is
    timed from its request's send."""
    server, elapsed = _start(wal_root, log_path)
    run.setup.append(elapsed)
    step, latency = Step(0.0), Step(0.0)
    subscriber: Optional[Subscriber] = None
    try:
        client = server.client
        subscriber = Subscriber(client)
        subscriber.start()
        cursor = _post_closed(step, client, arrivals, PASS_ARRIVALS)
        _judge_step(step, subscriber, expected)
        if not step.failed_requests:
            _post_isolated(latency, client, subscriber, arrivals, expected,
                           cursor, LATENCY_ARRIVALS)
            _judge_step(latency, subscriber, expected)
        step.server_hwm_kb = hwm_kb(server.proc.pid)
        _verify(run, client, subscriber, expected, [step, latency])
    finally:
        if subscriber is not None:
            subscriber.close()
            subscriber.join(timeout=5)
        _stop(run, server)
    run.passes.append(step)
    run.latency_phases.append(latency)


def _stop(run: ServeRun, server: Server) -> None:
    code = server.stop()
    if code != 0:
        run.fail(1, f"server exited with code {code}")


def _step_on_fresh_server(run: ServeRun, step: Step, arrivals, expected,
                          step_s: float, wal_root: Optional[str],
                          log_path: str) -> None:
    server, _ = _start(wal_root, log_path)
    subscriber: Optional[Subscriber] = None
    monitor: Optional[_Monitor] = None
    warmup = Step(0.0)
    try:
        client = server.client
        subscriber = Subscriber(client)
        subscriber.start()
        monitor = _Monitor(client)
        monitor.start()
        cursor = _run_warmup(warmup, client, arrivals, wal_root is not None)
        if not warmup.failed_requests:
            _run_step(step, client, arrivals, cursor, step_s)
            _judge_step(step, subscriber, expected)
        step.server_hwm_kb = hwm_kb(server.proc.pid)
        _verify(run, client, subscriber, expected, [warmup, step])
        monitor.stop_event.set()
        monitor.join(timeout=5)
        step.layers = _step_layers(client, step, monitor)
    finally:
        if monitor is not None:
            monitor.stop_event.set()
        if subscriber is not None:
            subscriber.close()
            subscriber.join(timeout=5)
        _stop(run, server)
    if wal_root is not None:
        step.layers.update(_recovery_sizes(os.path.join(wal_root, QUERY)))


def _recovery_sizes(wal_dir: str) -> Dict[str, float]:
    """WAL and checkpoint sizes, read from the query's WAL directory."""
    config = RecoveryConfig(wal_dir=wal_dir)
    try:
        wal_bytes = os.path.getsize(config.wal_path)
        names = os.listdir(config.checkpoint_dir)
        largest = max((os.path.getsize(os.path.join(config.checkpoint_dir, n))
                       for n in names), default=0)
    except OSError:
        return {}
    return {"recovery.wal_bytes": float(wal_bytes),
            "recovery.checkpoint_bytes_max": float(largest)}


def _verify(run: ServeRun, client: ServiceClient, subscriber: Subscriber,
            expected, steps: List[Step]) -> None:
    """Wait for every acked update to be processed and delivered, then
    check every offered update against the oracle."""
    acked = [r for step in steps for r in step.requests if r[3] == 202]
    last_seq = max((r[5] for r in acked), default=-1)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if client.status(QUERY)["processed_seq"] >= last_seq:
            break
        time.sleep(0.02)
    wanted = {seq for *_, first, last in acked
              for seq in range(first, last + 1)}
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        with subscriber.lock:
            if all(seq in subscriber.arrived for seq in wanted
                   if expected[seq][0] > 0):
                break
        time.sleep(0.02)
    with subscriber.lock:
        arrived = dict(subscriber.arrived)
        duplicates = subscriber.duplicates
    failed_requests = sum(s.failed_requests for s in steps)
    run.attempted += len(wanted) + failed_requests
    if failed_requests:
        run.fail(failed_requests, f"{failed_requests} ingest(s) not 202")
    if duplicates:
        run.fail(duplicates, f"{duplicates} seqs delivered twice")
    sample: Optional[Tuple[int, List[tuple]]] = None
    for seq in sorted(wanted):
        want = expected[seq]
        got = arrived.get(seq)
        if want[0] == 0:
            if got is not None:
                run.fail(1, f"seq {seq}: deltas where the oracle has none")
            continue
        if got is None:
            run.fail(1, f"seq {seq}: acked but no deltas delivered")
            continue
        keys = _frame_keys(got[1])
        if digest_keys(keys) != tuple(want):
            run.fail(1, f"seq {seq}: delta multiset differs from the oracle")
        elif sample is None:
            sample = (seq, keys)
    extra = set(arrived) - wanted
    if extra:
        run.fail(len(extra), f"{len(extra)} deltas for seqs never acked")
    # Corruption check: a delivered entry with its first delta's sign
    # flipped, or with that delta dropped, must not match the oracle.
    if sample is not None and not run.corruption_caught:
        seq, keys = sample
        want = tuple(expected[seq])
        sign, ident = keys[0]
        run.corruption_caught = (
            digest_keys([(-sign, ident)] + keys[1:]) != want
            and digest_keys(keys[1:]) != want
        )


def _step_layers(client: ServiceClient, step: Step,
                 monitor: _Monitor) -> Dict[str, float]:
    text = client.metrics_text()
    status = client.status(QUERY)
    rtts = sorted(acked - sent for _due, sent, acked, *_ in step.requests)
    return {
        "service.ingest_rtt_p50_ms": percentile(rtts, 0.50) * 1e3,
        "service.rejected": _prometheus_value(
            text, "repro_service_rejected_total"),
        "service.queue_depth_max": float(monitor.depth_max),
        "service.server_delta_latency_p99_ms": _histogram_p99(
            text, "repro_service_delta_latency_seconds") * 1e3,
        "recovery.checkpoints": float(status["checkpoints"]),
        "mjoin.outputs": float(status["outputs_emitted"]),
    }


def _serve_layers(run: ServeRun) -> None:
    """Layer counts of the highest step that met the limit (the first
    step when none did); the ingest RTT is the first step's."""
    first = run.steps[0]
    passed = [s for s in run.steps if s.passed] or [first]
    top = passed[-1]
    run.layers.update(top.layers)
    run.layers["service.ingest_rtt_p50_ms"] = first.layers[
        "service.ingest_rtt_p50_ms"]
    run.layers["streams.gen_s"] = run.gen_s
    run.layers["bench.generator_late_p99_ms"] = top.late_p99 * 1e3
    run.layers["service.ladder_sustained_ups"] = sustained_ups(run.steps)
    run.layers["bench.tracing_overhead"] = 1.0
