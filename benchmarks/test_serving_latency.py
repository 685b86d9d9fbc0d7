"""Serving-layer cost: query latency, QPS, rotation cost, ingest tax.

Four measurements, one gate:

* **query latency** — p50/p99 of end-to-end HTTP round trips
  (self-join and point queries) against a settled registry;
* **QPS under concurrent ingest** — an unthrottled client hammering the
  server while the stream is still being consumed (reported, not gated:
  it measures the client+server pair, not the sketching loop);
* **rotation cost** — seconds per snapshot publication (one frozen
  counters copy per mutated relation, by copy-on-write);
* **ingest tax (THE GATE)** — tuples/second of `registry.ingest` with
  per-chunk rotation AND a live HTTP server answering a bounded-rate
  client, versus the bare `engine.consume` scan of the same chunks.
  Serving must keep **>= 0.9x** of bare-scan ingest throughput
  (`MIN_INGEST_RATIO`); the paper's sketching loop is the product, the
  service must stay out of its way.

The gated client is rate-bounded (a 100 Hz poll — a hot dashboard, not
a saturation attack) and runs **out of process** over one keep-alive
connection, so the gate measures the serving machinery's tax on the
sketching loop rather than GIL starvation under an adversarial
in-process client; the saturation number is what the QPS record
reports.

Noise-robust gating: CI boxes (often single-core VMs) suffer frequency
drift, CPU steal, and background load that make any single served/bare
ratio swing wildly.  The gate therefore takes the better of two
noise-robust estimators over REPS back-to-back pairs: the best paired
**wall-clock** ratio (both scans of a pair sample the same load
window) and the ratio of best **process-CPU** times (immune to
wall-clock stalls from off-process noise, and excludes the client
subprocess).  Results land in
``benchmarks/results/BENCH_serving.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.dataplane import IterableSource, Pipeline, RegistrySink
from repro.engine import OnlineStatisticsEngine
from repro.serving import RotationPolicy, SketchRegistry, serve_in_thread

TUPLES = 4_194_304
CHUNK = 65_536
BUCKETS = 4_096
ROWS = 1
SEED = 13
REPS = 8
LATENCY_SAMPLES = 300
#: The gate: served ingest must keep this fraction of bare-scan speed.
MIN_INGEST_RATIO = 0.9


def _chunks() -> list:
    keys = np.random.default_rng(SEED).integers(
        0, 100_000, size=TUPLES, dtype=np.int64
    )
    return [keys[start : start + CHUNK] for start in range(0, keys.size, CHUNK)]


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _time_bare_scan_once(chunks) -> tuple[float, float]:
    """(wall, cpu) seconds for one bare engine consume loop."""
    engine = OnlineStatisticsEngine(buckets=BUCKETS, rows=ROWS, seed=SEED)
    engine.register("s", TUPLES)
    wall = time.perf_counter()
    cpu = time.process_time()
    for chunk in chunks:
        engine.consume("s", chunk)
    return time.perf_counter() - wall, time.process_time() - cpu


#: The paced dashboard client, run out of process so the gate measures
#: the *server's* tax on ingest rather than GIL contention with an
#: in-process client loop (real clients are not in-process threads).
#: One persistent keep-alive connection, like a real dashboard.
_CLIENT_SCRIPT = """\
import http.client, sys, time, urllib.parse
parts = urllib.parse.urlsplit(sys.argv[1])
conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
path = f"{parts.path}?{parts.query}"
while True:
    conn.request("GET", path)
    conn.getresponse().read()
    time.sleep(0.01)
"""


def _time_served_scan_once(chunks) -> tuple[float, float]:
    """(wall, cpu) seconds for one ingest + rotation + live-server scan.

    A paced subprocess client (one query every ~10 ms) runs for the
    whole scan.  Process-CPU time covers the ingest thread, rotation,
    and the server thread's query handling — the serving machinery —
    but not the client subprocess or anything else on the box.
    """
    registry = SketchRegistry(buckets=BUCKETS, rows=ROWS, seed=SEED)
    registry.register_stream("s", TUPLES)
    registry.ingest("s", chunks[0])  # make the stream queryable
    with serve_in_thread(registry) as handle:
        url = f"{handle.url}/v1/query/self_join?stream=s"
        client = subprocess.Popen([sys.executable, "-c", _CLIENT_SCRIPT, url])
        try:
            time.sleep(0.3)  # let the client warm up and settle
            wall = time.perf_counter()
            cpu = time.process_time()
            for chunk in chunks[1:]:
                registry.ingest("s", chunk)
            return time.perf_counter() - wall, time.process_time() - cpu
        finally:
            client.terminate()
            client.wait()


def _measure_ingest_tax(chunks) -> dict:
    """Gate ratio plus reporting rates from REPS back-to-back pairs.

    Two noise-robust estimators of the served/bare ratio; the gate
    takes the better one:

    * best **paired wall** ratio — bare and served timed back to back
      within a rep sample the same load window, so drift between reps
      cancels;
    * best-**CPU** ratio — min process-CPU served vs min process-CPU
      bare across all reps; immune to wall-clock stalls caused by
      off-process noise, excludes the client subprocess.
    """
    # The served loop consumes one chunk fewer (the warm-up chunk).
    scale = (TUPLES - CHUNK) / TUPLES
    pairs = []
    for _ in range(REPS):
        bare_wall, bare_cpu = _time_bare_scan_once(chunks)
        served_wall, served_cpu = _time_served_scan_once(chunks)
        pairs.append((bare_wall, bare_cpu, served_wall, served_cpu))
    wall_ratio = max(scale * bw / sw for bw, _, sw, _ in pairs)
    cpu_ratio = (
        scale
        * min(bc for _, bc, _, _ in pairs)
        / min(sc for *_, sc in pairs)
    )
    return {
        "ratio": max(wall_ratio, cpu_ratio),
        "wall_pair_ratio": wall_ratio,
        "cpu_ratio": cpu_ratio,
        "bare_rate": TUPLES / min(bw for bw, _, _, _ in pairs),
        "served_rate": (TUPLES - CHUNK) / min(sw for _, _, sw, _ in pairs),
    }


def _rotation_cost() -> float:
    """Mean seconds per forced rotation with a dirty relation."""
    registry = SketchRegistry(
        buckets=BUCKETS,
        rows=ROWS,
        seed=SEED,
        policy=RotationPolicy(every_chunks=10**9),  # never auto-rotate
    )
    registry.register_stream("s", TUPLES)
    rng = np.random.default_rng(7)
    rotations = 200
    total = 0.0
    for _ in range(rotations):
        registry.ingest("s", rng.integers(0, 1000, size=64))  # dirty the COW
        start = time.perf_counter()
        registry.rotate("s")
        total += time.perf_counter() - start
    return total / rotations


def _latency_profile(handle) -> dict:
    """p50/p99 seconds per HTTP query round trip, per query kind."""
    out = {}
    for kind, url in (
        ("self_join", f"{handle.url}/v1/query/self_join?stream=s"),
        ("point", f"{handle.url}/v1/query/point?stream=s&key=17"),
    ):
        samples = []
        for _ in range(LATENCY_SAMPLES):
            start = time.perf_counter()
            _get(url)
            samples.append(time.perf_counter() - start)
        ordered = np.sort(samples)
        out[kind] = {
            "p50_seconds": float(np.quantile(ordered, 0.50)),
            "p99_seconds": float(np.quantile(ordered, 0.99)),
        }
    return out


def _qps_under_ingest(chunks) -> float:
    """Unthrottled query throughput while the stream is being consumed.

    The window closes after one second or when the ingest ends,
    whichever comes first, so every counted query ran under ingest.
    """

    def slow_chunks():
        for chunk in chunks[1:]:  # chunk 0 is the warm-up ingest below
            time.sleep(0.001)  # pace the scan so queries interleave with it
            yield chunk

    registry = SketchRegistry(buckets=BUCKETS, rows=ROWS, seed=SEED)
    registry.register_stream("s", TUPLES)
    registry.ingest("s", chunks[0])
    pipeline = Pipeline(
        IterableSource(slow_chunks()),
        sinks=[RegistrySink(registry, "s")],
        queue_depth=0,
    )
    with serve_in_thread(registry) as handle, ThreadPoolExecutor(1) as pool:
        ingest = pool.submit(pipeline.run)
        url = f"{handle.url}/v1/query/self_join?stream=s"
        served = 0
        start = time.perf_counter()
        while time.perf_counter() - start < 1.0 and not ingest.done():
            _get(url)
            served += 1
        elapsed = time.perf_counter() - start
        ingest.result()  # re-raises an ingest failure here
    return served / elapsed


def test_serving_latency_and_ingest_tax(save_bench):
    chunks = _chunks()

    tax = _measure_ingest_tax(chunks)
    ratio = tax["ratio"]
    bare_rate = tax["bare_rate"]
    served_rate = tax["served_rate"]

    rotation_seconds = _rotation_cost()
    qps = _qps_under_ingest(chunks)

    registry = SketchRegistry(buckets=BUCKETS, rows=ROWS, seed=SEED)
    registry.register_stream("s", TUPLES)
    for chunk in chunks:
        registry.ingest("s", chunk)
    with serve_in_thread(registry) as handle:
        latency = _latency_profile(handle)

    records = [
        {
            "metric": "ingest_tax",
            "bare_tuples_per_sec": bare_rate,
            "served_tuples_per_sec": served_rate,
            "ratio": ratio,
            "wall_pair_ratio": tax["wall_pair_ratio"],
            "cpu_ratio": tax["cpu_ratio"],
            "gate_min_ratio": MIN_INGEST_RATIO,
        },
        {
            "metric": "rotation",
            "seconds_per_rotation": rotation_seconds,
            "buckets": BUCKETS,
            "rows": ROWS,
        },
        {"metric": "qps_under_ingest", "queries_per_sec": qps},
        {"metric": "latency", **latency},
    ]
    save_bench("serving", records)
    print(
        f"\nserving ingest tax: bare {bare_rate:,.0f} t/s, "
        f"served {served_rate:,.0f} t/s (ratio {ratio:.3f}: "
        f"wall-pair {tax['wall_pair_ratio']:.3f}, "
        f"cpu {tax['cpu_ratio']:.3f}); "
        f"rotation {rotation_seconds * 1e6:.0f} us; "
        f"{qps:,.0f} qps under ingest; "
        f"self-join p50 {latency['self_join']['p50_seconds'] * 1e3:.2f} ms / "
        f"p99 {latency['self_join']['p99_seconds'] * 1e3:.2f} ms"
    )

    assert ratio >= MIN_INGEST_RATIO, (
        f"serving taxed ingest below the gate: {ratio:.3f} < "
        f"{MIN_INGEST_RATIO} (bare {bare_rate:,.0f} t/s, served "
        f"{served_rate:,.0f} t/s)"
    )
