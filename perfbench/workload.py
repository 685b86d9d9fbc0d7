"""One measured workload process: set up, run the timed phase, check.

Started by ``perfbench/run.py`` as its own process so that set-up time
and peak RSS cover exactly one workload::

    python3 perfbench/workload.py WORKLOAD INPUTS WORK --spawned-at T \\
        --cpu N --seconds S --trace 0|1 --min-chunks C

``--spawned-at`` is run.py's ``time.monotonic()`` just before the
spawn (``CLOCK_MONOTONIC`` is system-wide on Linux), so ``setup_s``
includes interpreter start and every import.  The process pins itself
to CPU ``N`` first.  Its last stdout line is one JSON object.

All loops are closed: the source is pulled as fast as the synchronous
pipeline (``queue_depth=0``, so no queue) accepts chunks, and the
dashboard client sends its next query only after the previous answer.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

if __name__ == "__main__":
    _ARGS = argparse.ArgumentParser()
    _ARGS.add_argument("workload")
    _ARGS.add_argument("inputs")
    _ARGS.add_argument("work")
    _ARGS.add_argument("--spawned-at", type=float, required=True)
    _ARGS.add_argument("--cpu", type=int, required=True)
    _ARGS.add_argument("--seconds", type=float, default=0.0)
    _ARGS.add_argument("--trace", type=int, choices=(0, 1), default=0)
    _ARGS.add_argument("--min-chunks", type=int, default=0)
    OPTIONS = _ARGS.parse_args()
    # One CPU for all threads: with the dashboard's client and server
    # threads free to migrate, or each on a CPU of its own, its figures
    # spread several times wider (and the GIL crosses CPUs per query).
    os.sched_setaffinity(0, {OPTIONS.cpu})

import http.client  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from repro.dataplane import (  # noqa: E402
    CallbackSink,
    CheckpointSink,
    EngineOperator,
    FileSource,
    Pipeline,
    RegistrySink,
    RuntimeSink,
)
from repro.engine import OnlineStatisticsEngine  # noqa: E402
from repro.kernels import (  # noqa: E402
    backend_name,
    native_available,
    set_backend,
    use_backend,
)
from repro.kernels.native import native_build_error  # noqa: E402
from repro.resilience import StreamRuntime  # noqa: E402
from repro.resilience.checkpoint import CheckpointManager  # noqa: E402
from repro.serving import (  # noqa: E402
    AdmissionController,
    RotationPolicy,
    SketchRegistry,
    TenantPolicy,
    serve_in_thread,
)
from repro.sketches import FagmsSketch  # noqa: E402
from repro.streams.io import iter_chunks  # noqa: E402

clock = time.perf_counter

#: Every workload's declared relation cardinality covers this many
#: passes over its stream file; the timed loop stops there at the latest.
MAX_PASSES = 10_000
#: Passes the untraced half of a traced run makes at least.
MIN_TRACE_PASSES = 3

TENANTS = ("tenant-0", "tenant-1")
UNION_BODY = json.dumps({"op": "union", "streams": ["a", "b"]}).encode()
#: The dashboard rotates from its RegistrySink(rotate_every=1); the
#: registry's own policy never fires, so each chunk rotates exactly once.
SINK_ROTATES = RotationPolicy(every_chunks=2**31)
PRELOAD_CHUNK = 65_536


class WorkloadError(Exception):
    """The workload cannot run as specified (reported, never papered over)."""


class TimedFileSource(FileSource):
    """A :class:`FileSource` that stamps each envelope's hand-off.

    ``yielded_at`` is when the sealed envelope left the source; in a
    synchronous pipeline the next pull marks the end of that envelope's
    delivery, which is appended to *latencies* when given.
    """

    def __init__(self, *args, latencies=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.latencies = latencies
        self.yielded_at = 0.0

    def envelopes(self):
        for envelope in super().envelopes():
            self.yielded_at = clock()
            yield envelope
            if self.latencies is not None:
                self.latencies.append(clock() - self.yielded_at)


def warm_kernels(buckets: int, rows: int) -> None:
    """Force backend activation (and the native build) with one kernel call."""
    FagmsSketch(buckets, rows, seed=0).update(np.arange(64, dtype=np.int64))


# ----------------------------------------------------------------------
# Correctness checks, run after the timed phase.  Each returns a list of
# failure messages; every message counts as one failed operation.
# ----------------------------------------------------------------------


def check_interval(label: str, truth: float, low: float, high: float) -> list:
    """The exact value must lie inside the served interval."""
    if low <= truth <= high:
        return []
    return [f"{label}: exact {truth!r} outside [{low!r}, {high!r}]"]


def check_counters(label: str, actual, expected) -> list:
    """Counter matrices must be bit-identical."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape == expected.shape and np.array_equal(actual, expected):
        return []
    differing = (
        int(np.count_nonzero(actual != expected))
        if actual.shape == expected.shape else "shape"
    )
    return [f"{label}: counters differ ({differing} cells)"]


def check_answer(label: str, served: dict, local: dict) -> list:
    """An HTTP answer must equal the in-process answer field for field."""
    if served == local:
        return []
    return [f"{label}: served {served!r} != in-process {local!r}"]


def served_fields(payload: dict) -> dict:
    """The comparable fields of one JSON answer."""
    return {
        "estimate": payload["estimate"],
        "low": payload["interval"]["low"],
        "high": payload["interval"]["high"],
        "variance_bound": payload["variance_bound"],
        "generations": {
            name: meta["generation"] for name, meta in payload["streams"].items()
        },
    }


def local_fields(result) -> dict:
    """The same fields of an in-process :class:`QueryResult`."""
    return {
        "estimate": result.estimate,
        "low": result.interval.low,
        "high": result.interval.high,
        "variance_bound": result.variance_bound,
        "generations": {meta.name: meta.generation for meta in result.streams},
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """Shared bookkeeping: chunk latencies, query and failure counts.

    Subclasses declare their shape as class attributes, which are both
    what the code runs with and what each run's record reports.
    """

    backend = "numpy"
    buckets = 4096
    rows = 5
    batch = 4096
    p = 1.0
    checkpoint_every = None
    query_mix = None

    @classmethod
    def parameters(cls) -> dict:
        return {
            "backend": cls.backend,
            "sketch": f"fagms {cls.rows}x{cls.buckets}",
            "rows": cls.rows,
            "buckets": cls.buckets,
            "batch": cls.batch,
            "p": cls.p,
            "checkpoint_every": cls.checkpoint_every,
            "query_mix": cls.query_mix,
        }

    def __init__(self) -> None:
        self.latencies: list = []
        self.queries = 0
        self.failed = 0
        self.errors: list = []
        self.ladder = None  # set while a traced phase runs

    def _engine(self, name: str, total: int) -> OnlineStatisticsEngine:
        """A one-relation engine of this workload's shape and seed."""
        engine = OnlineStatisticsEngine(
            self.buckets, rows=self.rows, seed=self.meta["sketch_seed"]
        )
        engine.register(name, total)
        return engine

    def samples(self) -> dict:
        """Latency samples (seconds) run.py pools into percentiles."""
        return {"chunk": self.latencies}

    def close(self) -> None:
        """Release what set-up started (nothing by default)."""


class ShedBulk(Workload):
    """§VI-A load shedding at a fixed rate: per-tuple work dominates."""

    batch = 16_384
    p = 0.25
    checkpoint_every = 64

    def __init__(self, inputs: Path, work: Path, meta: dict) -> None:
        super().__init__()
        set_backend(self.backend)
        warm_kernels(self.buckets, self.rows)
        self.meta = meta
        self.path = inputs / "stream.rprs"
        # No governor: every run keeps the same tuples and does the same work.
        self.runtime = StreamRuntime(
            FagmsSketch(self.buckets, rows=self.rows, seed=meta["sketch_seed"]),
            p=self.p,
            seed=meta["shed_seed"],
            checkpoint_dir=work / "checkpoints",
            checkpoint_every=self.checkpoint_every,
        )

    def run_pass(self) -> tuple:
        source = TimedFileSource(
            self.path, self.batch, latencies=self.latencies,
            sequence_start=self.runtime.position,
        )
        result = Pipeline(
            source, sinks=[RuntimeSink(self.runtime)], queue_depth=0
        ).run()
        return result.tuples_in, result.envelopes

    def check(self, passes: int) -> tuple:
        """``(checks made, failure messages)``."""
        # The stream is the file replayed `passes` times, so its exact F2
        # is passes**2 times the file's.
        interval = self.runtime.self_join_interval(0.99)
        return 1, check_interval(
            "shed_bulk F2 in 99% Chebyshev interval",
            passes**2 * self.meta["exact_f2"], interval.low, interval.high,
        )


class MicroNative(Workload):
    """Small-batch unshed statistics scan: fixed per-chunk costs dominate."""

    backend = "native"
    buckets = 8192
    rows = 1  # the paper's F-AGMS setup
    batch = 2_048
    checkpoint_every = 256

    def __init__(self, inputs: Path, work: Path, meta: dict) -> None:
        super().__init__()
        if not native_available():
            raise WorkloadError(
                f"native kernel backend unavailable: {native_build_error()}"
            )
        set_backend(self.backend)
        warm_kernels(self.buckets, self.rows)
        self.meta = meta
        self.path = inputs / "stream.rprs"
        self.work = work
        self.engine = self._engine("scan", meta["tuples"] * MAX_PASSES)
        # Looked up per save, not bound once, so the traced run's
        # wrapper around OnlineStatisticsEngine.checkpoint_state sees it.
        self.sink = CheckpointSink(
            work / "checkpoints", lambda: self.engine.checkpoint_state(),
            every=self.checkpoint_every,
        )
        self.position = 0

    def run_pass(self) -> tuple:
        source = TimedFileSource(
            self.path, self.batch, latencies=self.latencies,
            sequence_start=self.position,
        )
        pipeline = Pipeline(
            source,
            EngineOperator(self.engine, "scan"),
            sinks=[self.sink],
            queue_depth=0,
            start=self.position,
        )
        result = pipeline.run()
        self.position = pipeline.position
        return result.tuples_in, result.envelopes

    def check(self, passes: int) -> tuple:
        """``(checks made, failure messages)``."""
        live = self.engine.snapshot().relation("scan").counters
        # Sketches are linear and the counters integral, so the stream
        # (the file replayed `passes` times) must give exactly `passes`
        # times the counters of one numpy-backend scan of the file.
        with use_backend("numpy"):
            reference = self._engine("scan", self.meta["tuples"])
            for chunk in iter_chunks(self.path, PRELOAD_CHUNK):
                reference.consume("scan", chunk)
        expected = passes * reference.snapshot().relation("scan").counters
        failures = check_counters("micro_native vs numpy replay", live, expected)
        newest = CheckpointManager(self.work / "checkpoints").latest()
        if newest is None:
            return 2, failures + ["micro_native: no checkpoint was written"]
        restored = OnlineStatisticsEngine.from_checkpoint_state(
            newest.state, newest.arrays
        )
        return 2, failures + check_counters(
            "micro_native newest checkpoint",
            restored.snapshot().relation("scan").counters,
            live,
        )


class Dashboard(Workload):
    """Estimates served over HTTP while the scan runs: the query path dominates."""

    query_mix = "per chunk: 4 point, 2 self_join(a), 1 join(a,b), 1 union(a,b)"

    def __init__(self, inputs: Path, work: Path, meta: dict) -> None:
        super().__init__()
        set_backend(self.backend)
        warm_kernels(self.buckets, self.rows)
        self.meta = meta
        self.path_a = inputs / "a.rprs"
        self.half = meta["a_tuples"] // 2
        self.registry = SketchRegistry(
            self.buckets, rows=self.rows, seed=meta["sketch_seed"],
            policy=SINK_ROTATES,
        )
        self.registry.register_stream("a", self.half + MAX_PASSES * self.half)
        self.registry.register_stream("b", meta["b_tuples"])
        Pipeline(
            FileSource(inputs / "b.rprs", PRELOAD_CHUNK),
            sinks=[RegistrySink(self.registry, "b")], queue_depth=0,
        ).run()
        Pipeline(
            FileSource(self.path_a, PRELOAD_CHUNK, limit=self.half),
            sinks=[RegistrySink(self.registry, "a")], queue_depth=0,
        ).run()
        self.point_keys = np.load(inputs / "point_keys.npy").tolist()
        admission = AdmissionController(
            {tenant: TenantPolicy(qps=1e6, burst=1e6) for tenant in TENANTS}
        )
        self.server = serve_in_thread(self.registry, admission=admission)
        self.conn = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=30
        )
        self.query_latency = {
            "point": [], "self_join": [], "join": [], "expression": []
        }
        self.refreshes = 0
        self.source = None
        if self.ask("healthz", "GET", "/healthz", TENANTS[0]) is None:
            raise WorkloadError(f"query server unhealthy: {self.errors}")

    def ask(self, kind: str, method: str, target: str, tenant: str, body=None):
        """One closed-loop round trip; returns the decoded answer or None."""
        start = clock()
        self.conn.request(method, target, body=body, headers={"X-Tenant": tenant})
        response = self.conn.getresponse()
        payload = response.read()
        end = clock()
        if self.ladder is not None:
            self.ladder.record("serving.http", start, end)
        if kind in self.query_latency:
            self.queries += 1
        if response.status != 200:
            self.failed += 1
            self.errors.append(f"{target} -> HTTP {response.status}: {payload[:200]!r}")
            return None
        if kind in self.query_latency:
            self.query_latency[kind].append(end - start)
        return json.loads(payload)

    def refresh(self, tenant: str) -> list:
        """One dashboard refresh: 4 points, 2 self-joins, a join, a union."""
        answers = []
        base = 4 * self.refreshes
        for offset in range(4):
            key = self.point_keys[(base + offset) % len(self.point_keys)]
            answers.append(self.ask(
                "point", "GET", f"/v1/query/point?stream=a&key={key}", tenant
            ))
        for _ in range(2):
            answers.append(self.ask(
                "self_join", "GET", "/v1/query/self_join?stream=a", tenant
            ))
        answers.append(self.ask("join", "GET", "/v1/query/join?left=a&right=b", tenant))
        answers.append(self.ask(
            "expression", "POST", "/v1/query/expression", tenant, UNION_BODY
        ))
        self.refreshes += 1
        return answers

    def _on_chunk(self, envelope) -> None:
        # RegistrySink (the previous sink) has rotated: the chunk is queryable.
        self.latencies.append(clock() - self.source.yielded_at)
        self.refresh(TENANTS[self.refreshes % 2])

    def run_pass(self) -> tuple:
        self.source = TimedFileSource(self.path_a, self.batch, start=self.half)
        result = Pipeline(
            self.source,
            sinks=[
                RegistrySink(self.registry, "a", rotate_every=1),
                CallbackSink(self._on_chunk),
            ],
            queue_depth=0,
        ).run()
        return result.tuples_in, result.envelopes

    def check(self, passes: int) -> tuple:
        """``(checks made, failure messages)``."""
        failures = []
        keys = [
            self.point_keys[(4 * self.refreshes + offset) % len(self.point_keys)]
            for offset in range(4)
        ]
        served = self.refresh(TENANTS[0])
        registry = self.registry
        local = [registry.point_query("a", key) for key in keys]
        local += [registry.self_join_query("a")] * 2
        local += [
            registry.join_query("a", "b"),
            registry.expression_query("union", ["a", "b"]),
        ]
        labels = [f"point({key})" for key in keys]
        labels += ["self_join", "self_join", "join", "union"]
        for label, answer, result in zip(labels, served, local):
            if answer is None:
                failures.append(f"final refresh {label}: request failed")
            else:
                failures += check_answer(
                    f"final refresh {label}", served_fields(answer), local_fields(result)
                )
        # The final snapshots must equal an offline replay of the same prefix.
        a = np.concatenate(list(iter_chunks(self.path_a, PRELOAD_CHUNK)))
        replay_a = self._engine("a", self.half + MAX_PASSES * self.half)
        replay_a.consume("a", a[: self.half])
        for _ in range(passes):
            replay_a.consume("a", a[self.half :])
        replay_b = self._engine("b", self.meta["b_tuples"])
        for chunk in iter_chunks(self.path_a.parent / "b.rprs", PRELOAD_CHUNK):
            replay_b.consume("b", chunk)
        for name, replay in (("a", replay_a), ("b", replay_b)):
            failures += check_counters(
                f"dashboard final snapshot {name} vs offline replay",
                registry.snapshot(name).relation(name).counters,
                replay.snapshot().relation(name).counters,
            )
        return len(labels) + 2, failures

    def samples(self) -> dict:
        """Chunk publication and per-kind query round-trip samples."""
        return {"chunk": self.latencies, **self.query_latency}

    def close(self) -> None:
        self.conn.close()
        self.server.stop()


WORKLOADS = {"shed_bulk": ShedBulk, "micro_native": MicroNative, "dashboard": Dashboard}


# ----------------------------------------------------------------------
# Timed phases
# ----------------------------------------------------------------------


def timed_phase(
    workload, seconds: float, min_chunks: int, min_passes: int,
    max_passes: int = MAX_PASSES,
) -> dict:
    """Closed-loop passes until the time and both sample floors are met."""
    durations = []
    offered = []
    chunks = 0
    queries_before = workload.queries
    start = clock()
    while len(durations) < max_passes:
        pass_start = clock()
        tuples, envelopes = workload.run_pass()
        durations.append(clock() - pass_start)
        offered.append(tuples)
        chunks += envelopes
        if (clock() - start >= seconds and chunks >= min_chunks
                and len(durations) >= min_passes):
            break
    return {
        "wall": clock() - start,
        "durations": durations,
        "offered": offered,
        "chunks": chunks,
        "queries": workload.queries - queries_before,
    }


def peak_rss_mb() -> float:
    """This process image's peak resident set (``VmHWM``).

    Not ``ru_maxrss``: Linux carries that across ``exec`` from the
    spawning process, so it would report run.py's size.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise WorkloadError("no VmHWM in /proc/self/status")


def percentile_ms(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) * 1e3


def end_to_end(workload, phase: dict, setup_s: float, work: Path) -> dict:
    """Metric name -> [value, unit, sample count]; latency samples to a file.

    Throughput and percentiles are left to run.py, which pools the
    samples of all the run's processes (``samples.npz`` in each
    process's directory): each pass's tuples per second, and each
    latency kind.
    """
    np.savez(
        work / "samples.npz",
        pass_rate=np.asarray(phase["offered"], dtype=np.float64)
        / np.asarray(phase["durations"]),
        **{
            kind: np.asarray(values, dtype=np.float64)
            for kind, values in workload.samples().items()
        },
    )
    return {
        "setup_s": [setup_s, "s", 1],
        "rss_peak_mb": [peak_rss_mb(), "MB", 1],
    }


def traced_metrics(workload, seconds: float) -> tuple:
    """Untraced then traced halves: ``(per-layer metrics, phases)``."""
    from ladder import Ladder  # only traced runs load the wrappers

    plain = timed_phase(workload, seconds / 2, 0, MIN_TRACE_PASSES)
    passes = len(plain["durations"])
    ladder = Ladder()
    workload.ladder = ladder
    ladder.install()
    try:  # the same work again, traced
        traced = timed_phase(workload, 0, 0, passes, passes)
    finally:
        ladder.uninstall()
        workload.ladder = None
    metrics = {
        name: [value, unit, None]
        for name, (value, unit) in ladder.metrics(
            traced["wall"], traced["chunks"], traced["queries"]
        ).items()
    }
    metrics["trace.overhead"] = [traced["wall"] / plain["wall"] - 1.0, "ratio", None]
    metrics["trace.chunks"] = [traced["chunks"], "count", None]
    if traced["queries"]:
        overheads = ladder.http_overheads()
        metrics["serving.http.overhead_p50_ms"] = [
            percentile_ms(overheads, 50), "ms", len(overheads)
        ]
    return metrics, [plain, traced]


def measure(workload, options, setup_s: float) -> dict:
    """Run the timed phase(s), then the correctness checks."""
    if options.trace:
        metrics, phases = traced_metrics(workload, options.seconds)
    else:
        phase = timed_phase(workload, options.seconds, options.min_chunks, 1)
        metrics = end_to_end(workload, phase, setup_s, Path(options.work))
        phases = [phase]
    passes = sum(len(phase["durations"]) for phase in phases)
    checks, failures = workload.check(passes)
    return {
        "metrics": metrics,
        "passes": passes,
        "attempted": sum(phase["chunks"] for phase in phases)
        + workload.queries + checks,
        "failed": workload.failed + len(failures),
        "failures": failures + workload.errors[:20],
    }


def _fsync_skipped(fd: int) -> None:
    """Stands in for ``os.fsync`` in a measured process (see :func:`main`)."""


def main(options) -> int:
    inputs, work = Path(options.inputs), Path(options.work)
    meta = json.loads((inputs / "meta.json").read_text())
    # Checkpoints are written inside the checkout, on a disk other
    # machines share.  The benchmark times the checkpoint writer, not
    # that disk, so fsync returns at once, as on a memory-backed directory.
    os.fsync = _fsync_skipped
    try:
        workload = WORKLOADS[options.workload](inputs, work, meta)
        if backend_name() != workload.backend:
            raise WorkloadError(
                f"{options.workload} runs on the {backend_name()!r} kernel "
                f"backend, not {workload.backend!r}"
            )
    except WorkloadError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    try:
        out = measure(workload, options, time.monotonic() - options.spawned_at)
        out["record"] = {
            "backend": backend_name(),
            "cpu_set": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "parameters": type(workload).parameters(),
        }
    finally:
        workload.close()
    print(json.dumps(out))
    return 1 if out.get("failures") else 0


if __name__ == "__main__":
    sys.exit(main(OPTIONS))
