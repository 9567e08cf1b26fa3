#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads (see README.md).

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 10 --trace 0

Hosts a generated XMark corpus, runs the named workload as a closed loop for
``--seconds`` seconds, checks every answer against the plaintext evaluator,
and prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics of an untraced run; with
``--trace 1`` it replays the same operations with every layer's entry points
wrapped in timing spans and reports the per-layer ledger instead.  A detail
line before the result records the provenance, the percentile and sample
count behind each tail, and the cause of every failed operation.
``--workload all`` runs each workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.cluster.placement import ClusterConfig  # noqa: E402
from repro.core.integrity import IntegrityError  # noqa: E402
from repro.core.system import QueryFailedError, SecureXMLSystem  # noqa: E402
from repro.core.updates import UpdateError  # noqa: E402
from repro.netsim.channel import Channel  # noqa: E402
from repro.netsim.faults import TransferDropped  # noqa: E402
from repro.netsim.message import MessageDecodeError  # noqa: E402
from repro.perf import counters  # noqa: E402
from repro.serving import ServingServer, remote_system  # noqa: E402
from repro.serving.errors import (  # noqa: E402
    ProtocolError,
    RequestTimeoutError,
    UnknownTenantError,
)
from repro.serving.framing import FrameError  # noqa: E402
from repro.workloads.xmark import xmark_constraints  # noqa: E402
from tracing import Recorder, per_layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    SPECS,
    Mirror,
    OpStream,
    build_document,
    read_pool,
    read_schedule,
)

#: Environment knobs the library reads at hosting time.  The benchmark
#: measures library defaults, so a stray variable must not change the run.
PINNED_ENV = (
    "REPRO_WORKERS",
    "REPRO_BACKEND",
    "REPRO_SHARDS",
    "REPRO_REPLICAS",
    "REPRO_LEAKAGE",
)

#: The pipeline's typed failures.  An operation that raises one is counted
#: in ``failed`` with its cause; any other exception is a bug and ends the
#: run with a traceback.  ``RemoteServerError`` (an untyped server-side
#: exception sent over the wire) is deliberately not here.
TYPED_ERRORS = (
    IntegrityError,
    QueryFailedError,
    UpdateError,
    MessageDecodeError,
    TransferDropped,
    FrameError,
    ProtocolError,
    UnknownTenantError,
    RequestTimeoutError,
)

#: Hostings before the timed loop and again after it; ``setup_s`` is the
#: median of them all.
SETUP_REPEATS = 4
#: Writes timed after each read of a loop that has none in it.
PROBE_WRITES_PER_READ = 2
#: The percentile of a class's samples taken as its latency (see
#: :func:`class_best`).
BEST_PERCENTILE = 10
#: A tail percentile needs this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: Tail percentiles a workload may declare, highest first.
TAIL_LADDER = (99, 95, 90, 75, 50)
#: Spans and traced-run output land here, inside the checkout.
OUT_DIR = ROOT / ".perfbench_out"

GC_POLICY = "enabled; gc.collect() then gc.freeze() after set-up and warm-up"

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "ops_per_s": "1/s",
    "wire_bytes_per_query": "B",
    "hosted_bytes_per_plain_byte": "ratio",
    "rss_peak_mb": "MB",
}


def pin_environment() -> dict[str, str]:
    """Drop every library knob and ``REPRO_BENCH_*``; returns what was set."""
    cleared = {}
    for name in list(os.environ):
        if name in PINNED_ENV or name.startswith("REPRO_BENCH_"):
            cleared[name] = os.environ.pop(name)
    return cleared


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def rank(percentile: int, count: int) -> int:
    """The 1-based nearest rank of ``percentile`` among ``count`` samples.

    The medians use it too, so a tail that steps down to p50 equals the
    median instead of falling below it.
    """
    return max(1, math.ceil(percentile * count / 100))


def median(samples: list[float]) -> float:
    return sorted(samples)[rank(50, len(samples)) - 1]


def class_best(samples: list[float], classes: list) -> list[float]:
    """Each sample replaced by its class's :data:`BEST_PERCENTILE`
    (nearest rank, so the fastest of a class of ten samples or fewer).

    A class is one operation repeated with the same work: the same query
    in the same cache state, or the same write kind.  On a shared host a
    repeat runs slower only because something else held the CPU, so the
    class's fastest repeats are its latency, and every time metric is
    taken over these values in the order and mix the run issued them.
    Not the fastest of a large class: a few reads counted as cold after a
    write find the caches partly warmed by another query read since the
    write, and one of those would set it.
    """
    grouped: dict = {}
    for key, sample in zip(classes, samples):
        grouped.setdefault(key, []).append(sample)
    best = {
        key: sorted(group)[rank(BEST_PERCENTILE, len(group)) - 1]
        for key, group in grouped.items()
    }
    return [best[key] for key in classes]


def tail(samples: list[float], declared: int) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it), nearest rank.

    ``declared`` is the workload's tail percentile: the highest step of
    :data:`TAIL_LADDER` at which a run of the declared length leaves at
    least ``TAIL_MIN_BEYOND`` samples beyond it.  A fixed step keeps the
    percentile from flipping between runs whose sample counts straddle a
    threshold.  A shorter run steps down the ladder until enough samples
    lie beyond; percentile 0 means even the median had too few.
    """
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in TAIL_LADDER[TAIL_LADDER.index(declared):]:
        at = rank(percentile, count)
        if count - at >= TAIL_MIN_BEYOND:
            return ordered[at - 1], percentile, count - at
    return (ordered[-1] if ordered else 0.0), 0, 0


def write_class(op: tuple) -> str:
    """A write's kind: the updated field, or the insert or delete."""
    if op[0] == "update_value":
        return f"update_value:{op[1].rsplit('/', 1)[-1]}"
    return op[0]


# ----------------------------------------------------------------------
# One client's operations
# ----------------------------------------------------------------------
class Driver:
    """Runs one client's operations against one system.

    Only the library call is timed.  The cache flush before a cold read,
    the answer check, and the mirror update after a write run outside the
    timed interval.
    """

    def __init__(self, system, mirror, channel, cold, recorder=None,
                 cached=None):
        self.system = system
        self.mirror = mirror
        self.channel = channel
        self.cold = cold
        self.recorder = recorder
        #: the queries read since the last write, shared by every driver
        #: of one system: their next read finds the caches warm
        self.cached: set[str] = set() if cached is None else cached
        self.read_s: list[float] = []
        self.write_s: list[float] = []
        #: the class of each sample (see :func:`class_best`): a read's
        #: query and whether its caches were cold, a write's kind
        self.read_class: list[tuple[str, bool]] = []
        self.write_class: list[str] = []
        #: summed timed intervals, failed operations included
        self.busy_s = 0.0
        self.attempted = 0
        self.failures: Counter = Counter()
        #: the first operation and message behind each failure cause
        self.examples: dict[str, str] = {}
        self.mismatches: list[str] = []
        self.wire_bytes = 0
        self.modelled_transfer_s = 0.0
        self.blocks = 0
        self.fragments = 0
        self.answers = 0

    def run(self, stream, count=None, stop_at=None, after_op=None) -> None:
        """Run ``count`` operations, or whole passes until ``stop_at``.

        A timed loop stops only at a pass boundary, so every run issues
        the workload's exact mix.  A partial pass would make the mix, and
        with it the median of a multi-modal workload, depend on the seed.
        ``after_op`` is called after every operation.
        """
        index = 0
        while count is None or index < count:
            if (stop_at is not None and stream.starts_pass(index)
                    and time.perf_counter() >= stop_at):
                break
            self.execute(stream.op(index))
            if after_op is not None:
                after_op()
            index += 1

    def _timed(self, kind, fn, *args):
        recorder = self.recorder
        frame = recorder.begin_op(kind) if recorder else None
        start = time.perf_counter()
        try:
            result = fn(*args)
            elapsed = time.perf_counter() - start
            return result, elapsed
        finally:
            self.busy_s += time.perf_counter() - start
            if frame is not None:
                recorder.end_op(frame)

    def execute(self, op) -> None:
        self.attempted += 1
        try:
            if op[0] == "query":
                self._read(op[1])
            else:
                self._write(op)
        except TYPED_ERRORS as exc:
            cause = f"{op[0]}:{type(exc).__name__}"
            self.failures[cause] += 1
            self.examples.setdefault(cause, f"{op!r}: {exc}")

    def _read(self, xpath: str) -> None:
        system = self.system
        if self.cold:
            system.flush_caches()
        self.channel.reset()
        answer, elapsed = self._timed("query", system.query, xpath)
        for record in self.channel.transfers:
            self.modelled_transfer_s += record.modelled_seconds
            if record.direction == "server->client":
                self.wire_bytes += record.size_bytes
        self.channel.reset()
        trace = system.last_trace
        if trace is not None:
            self.blocks += trace.blocks_returned
            self.fragments += trace.fragments_returned
            self.answers += trace.answer_count
        if answer.canonical() != self.mirror.expected(xpath):
            self.mismatches.append(xpath)
            self.failures["query:wrong-answer"] += 1
            self.examples.setdefault("query:wrong-answer", xpath)
        self.read_s.append(elapsed)
        self.read_class.append((xpath, self.cold or xpath not in self.cached))
        if not self.cold:
            self.cached.add(xpath)

    def _write(self, op: tuple) -> None:
        method = getattr(self.system, op[0])
        _, elapsed = self._timed("write", method, *op[1:])
        self.cached.clear()
        self.mirror.apply(op)
        self.write_s.append(elapsed)
        self.write_class.append(write_class(op))


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
class Bench:
    """A hosted workload: the system, its mirror and its one client."""

    def __init__(self, spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.mirror = Mirror(build_document(spec, seed))
        self.pool = read_pool(spec, self.mirror.document)
        self.schedule = read_schedule(spec, self.pool)
        self.system = None
        self.server = None
        self.remote = None
        self.channel = None
        #: the queries the served system has cached (see ``Driver.cached``)
        self.cached: set[str] = set()

    def host(self, recorder=None):
        """Host a fresh copy of the corpus; returns (system, seconds)."""
        document = build_document(self.spec, self.seed)
        constraints = xmark_constraints()
        extra = {"cluster": ClusterConfig(shards=2)} if self.spec.served else {}
        frame = recorder.begin_op("host") if recorder else None
        start = time.perf_counter()
        try:
            system = SecureXMLSystem.host(
                document, constraints, scheme="opt", **extra
            )
            return system, time.perf_counter() - start
        finally:
            if frame is not None:
                recorder.end_op(frame)

    def host_repeatedly(self, repeats: int, recorder=None) -> list[float]:
        """Host ``repeats`` times, keeping the last system; returns the
        wall time of each.  The previous system is closed and collected
        before the next is hosted, so only one is ever alive."""
        seconds = []
        for _ in range(repeats):
            self.close()
            gc.collect()
            self.system, elapsed = self.host(recorder)
            seconds.append(elapsed)
        return seconds

    def setup(self, repeats: int, recorder=None) -> list[float]:
        """Host, then serve the last system on ``served``."""
        seconds = self.host_repeatedly(repeats, recorder)
        self.channel = self.system.channel
        self.cached = set()
        if self.spec.served:
            self._serve()
        return seconds

    def _serve(self) -> None:
        """Serve the hosted tenant and connect one ``remote_system`` client.

        One connection: two closed-loop connections on one interpreter
        measured half the throughput of one (GIL hand-offs between the
        client, event-loop and executor threads), with a run-to-run spread
        too wide for the bounds.
        """
        self.server = ServingServer()
        self.server.register_tenant("bench", self.system)
        address = self.server.start()
        self.channel = Channel()
        self.remote = remote_system(
            self.system, address, "bench", channel=self.channel
        )

    def client(self, recorder=None) -> Driver:
        """A fresh driver for the closed-loop client."""
        system = self.remote if self.remote is not None else self.system
        return Driver(system, self.mirror, self.channel, self.spec.cold,
                      recorder, self.cached)

    def warm(self) -> Driver:
        """Untimed, checked warm-up: one pass over the distinct queries, or
        a single query where every read is cold."""
        queries = list(dict.fromkeys(self.pool))
        driver = self.client()
        for xpath in queries[:1] if self.spec.cold else queries:
            driver.execute(("query", xpath))
        return driver

    def phase(self, salt: str, seconds=None, count=None, recorder=None,
              after_op=None):
        """Run the op stream for whole passes spanning at least ``seconds``
        of wall time, or for exactly ``count`` operations (the traced
        replay); returns the driver."""
        driver = self.client(recorder)
        stream = OpStream(self.spec, self.seed, self.schedule, salt)
        stop_at = None if seconds is None else time.perf_counter() + seconds
        driver.run(stream, count=count, stop_at=stop_at, after_op=after_op)
        return driver

    def write_probe(self):
        """A driver for the writes of a workload whose loop has none, and
        the step that times ``PROBE_WRITES_PER_READ`` more of them.

        The step runs after every read of the loop, so the write samples
        are spread over the run like the reads: taken in a few bursts, a
        slow spell of the machine that covered most of them would set the
        write metrics of the whole run.
        The reads flush every cache and carry no value predicate, so the
        writes do not change what the reads cost.
        """
        stream = OpStream(self.spec, self.seed, self.schedule, "probe")
        driver = self.client()
        numbers = itertools.count()

        def step() -> None:
            for _ in range(PROBE_WRITES_PER_READ):
                driver.execute(stream.write(next(numbers)))

        return driver, step

    def join_redundancy(self) -> float:
        """Per-shard join candidates over the monolithic ones, summed over
        the distinct queries (1.0 when there is no cluster)."""
        coordinator = self.system.coordinator
        if coordinator is None:
            return 1.0
        shard_total = mono_total = 0
        for xpath in dict.fromkeys(self.pool):
            translated = self.system.client.translate(xpath)
            mono = self.system.server.answer(translated)
            mono_total += sum(mono.candidate_counts.values())
            for replica_set in coordinator.replica_sets:
                shard = replica_set.replicas[0].server.answer(translated)
                shard_total += sum(shard.candidate_counts.values())
        return shard_total / mono_total if mono_total else 1.0

    def close(self) -> None:
        if self.remote is not None:
            self.remote.close()
            self.remote = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.system is not None:
            self.system.close()
            self.system = None


def merged(drivers: list[Driver]) -> Driver:
    total = Driver(None, None, None, False)
    for driver in drivers:
        total.read_s += driver.read_s
        total.write_s += driver.write_s
        total.read_class += driver.read_class
        total.write_class += driver.write_class
        total.attempted += driver.attempted
        total.busy_s += driver.busy_s
        total.failures += driver.failures
        total.examples = {**driver.examples, **total.examples}
        total.mismatches += driver.mismatches
        for name in ("wire_bytes", "modelled_transfer_s", "blocks",
                     "fragments", "answers"):
            setattr(total, name, getattr(total, name) + getattr(driver, name))
    return total


def freeze_heap() -> None:
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def provenance(bench: Bench, seed: int, cleared: dict) -> dict:
    system = bench.system
    cluster = system.cluster
    return {
        "seed": seed,
        "backend": system.backend,
        "workers": system.parallel.workers,
        "shards": cluster.shards if cluster is not None else 1,
        "observability": system.observability().enabled,
        "leakage": system.leakage is not None,
        "connections": 1,
        "gc": GC_POLICY,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "cleared_env": sorted(cleared),
        "persons": bench.spec.persons,
        "distinct_queries": len(set(bench.pool)),
    }


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict, Driver]:
    setup = bench.setup(SETUP_REPEATS)
    hosting = bench.system.hosting_trace
    warm = bench.warm()
    freeze_heap()
    probe, step = (None, None) if bench.spec.write_every else bench.write_probe()
    loop = bench.phase("a", seconds=seconds, after_op=step)
    if probe is not None:
        probe.execute(("query", "/site/people/person"))  # checks the writes
    checked = merged([warm, loop] + ([probe] if probe else []))
    for driver in (warm, loop, probe):
        if driver is not None:
            driver.system = None
    # More hostings, with the loop's system gone, so that a slow spell of
    # the machine at the start of the run does not set ``setup_s``.
    bench.close()
    gc.unfreeze()
    setup += bench.host_repeatedly(SETUP_REPEATS)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    writer = probe or loop
    reads = class_best(loop.read_s, loop.read_class)
    writes = class_best(writer.write_s, writer.write_class)
    loop_s = sum(reads) + sum(class_best(loop.write_s, loop.write_class))
    spec = bench.spec
    query_tail, query_p, query_beyond = tail(reads, spec.query_tail)
    write_tail, write_p, write_beyond = tail(writes, spec.write_tail)
    values = {
        "setup_s": median(setup),
        "query_p50_ms": 1000 * median(reads),
        "query_tail_ms": 1000 * query_tail,
        "write_p50_ms": 1000 * median(writes),
        "write_tail_ms": 1000 * write_tail,
        "ops_per_s": (len(reads) + len(loop.write_s)) / loop_s,
        "wire_bytes_per_query": loop.wire_bytes / len(reads),
        "hosted_bytes_per_plain_byte": (
            hosting.hosted_bytes / hosting.plaintext_bytes
        ),
        "rss_peak_mb": rss_mb,
    }
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }
    detail = {
        "setup_runs_s": setup,
        # The loop's measured time over its class-best time: how much
        # slower than their best the operations ran on this machine.
        "contention": loop.busy_s / loop_s,
        # In order: a pass far above the rest shows the machine, not the
        # code, was slow for a while.
        "raw_query_p50_ms_by_pass": [
            1000 * median(loop.read_s[start:start + len(bench.schedule)])
            for start in range(0, len(loop.read_s), len(bench.schedule))
        ],
        "query_tail_ms": {
            "percentile": query_p, "samples": len(reads),
            "beyond": query_beyond,
            "classes": len(set(loop.read_class)),
        },
        "write_tail_ms": {
            "percentile": write_p, "samples": len(writes),
            "beyond": write_beyond,
            "classes": len(set(writer.write_class)),
            "source": "between passes" if probe else "read loop",
        },
    }
    return metrics, detail, checked


def traced(bench: Bench, seconds: float) -> tuple[dict, dict, Driver]:
    """Untraced phase for half the time, then the same operations replayed
    with spans on, so a traced run takes about as long as an untraced one."""
    recorder = Recorder()
    recorder.install()
    try:
        bench.setup(1, recorder)
    finally:
        recorder.uninstall()
    hosting = recorder.totals()
    host_spans = recorder.spans
    recorder.clear()

    warm = bench.warm()
    freeze_heap()
    base = bench.phase("a", seconds=seconds / 2)

    epoch = bench.system.hosted.epoch
    before = counters.snapshot()
    recorder.install()
    try:
        replay = bench.phase("b", count=base.attempted, recorder=recorder)
    finally:
        recorder.uninstall()
    delta = counters.delta_since(before)
    ops = replay.attempted

    metrics = per_layer_metrics(
        recorder,
        hosting,
        replay,
        ops=ops,
        timed_s=replay.busy_s,
        counter_delta=delta,
        epoch_bumps=bench.system.hosted.epoch - epoch,
        baseline_per_op=base.busy_s / base.attempted,
        join_redundancy=bench.join_redundancy(),
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{bench.spec.name}.jsonl"
    recorder.spans = host_spans + recorder.spans
    recorder.dump(str(spans_path))
    detail = {
        "replayed_ops": ops,
        "missing_entry_points": recorder.missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(recorder.spans),
    }
    return metrics, detail, merged([warm, base, replay])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the detail and the result objects."""
    cleared = pin_environment()
    bench = Bench(SPECS[workload], seed)
    try:
        measure = traced if trace else end_to_end
        metrics, detail, checked = measure(bench, seconds)
        detail = {
            "workload": workload,
            "trace": trace,
            "provenance": provenance(bench, seed, cleared),
            "failed_ops_frac": (
                sum(checked.failures.values()) / checked.attempted
            ),
            "failures": dict(checked.failures),
            "failure_examples": checked.examples,
            "mismatched_queries": sorted(set(checked.mismatches))[:10],
            **detail,
        }
    finally:
        bench.close()
        gc.unfreeze()
    result = {
        "correct": not checked.mismatches,
        "attempted": checked.attempted,
        "failed": sum(checked.failures.values()),
        "metrics": metrics,
    }
    return {"detail": detail, "result": result}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process; the result keys are prefixed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in SPECS:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        for line in lines:
            print(line)
        if len(lines) < 2:  # crashed before printing a result
            sys.stderr.write(completed.stderr)
            raise SystemExit(f"workload {workload} failed")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SPECS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"detail": outcome["detail"]}))
        result = outcome["result"]
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
