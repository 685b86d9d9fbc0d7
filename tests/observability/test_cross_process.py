"""Cross-process aggregation: sharded observations merge deterministically.

The headline acceptance criteria for the observability layer:

* a sharded ``run_sharded_sketch`` with an observer yields **one** merged
  Chrome trace containing spans from the coordinator *and* every worker
  process, nested under the coordinator's root span;
* the merged Prometheus dump's counting metrics (tuples seen/sketched)
  exactly match a sequential run over the same stream — for every sketch
  type and kernel backend, and independent of the pool width.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import available_backends, use_backend
from repro.observability import Observer, to_chrome_trace, to_prometheus
from repro.parallel import run_sharded_sketch
from repro.resilience.runtime import StreamRuntime, envelope_stream
from repro.sketches.agms import AgmsSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.fagms import FagmsSketch
from repro.streams.base import iter_chunks

#: The counting metrics that are invariant to how the stream is chunked
#: and sharded (chunk/span counts legitimately differ).
COUNTING_METRICS = ("runtime.tuples.seen", "runtime.tuples.sketched")


def _usable_backends() -> list:
    usable = []
    for name in available_backends():
        try:
            with use_backend(name):
                pass
        except Exception:
            continue
        usable.append(name)
    return usable


def _templates() -> list:
    return [
        FagmsSketch(64, rows=3, seed=17),
        AgmsSketch(16, seed=17),
        CountMinSketch(64, rows=3, seed=17),
    ]


@pytest.fixture(scope="module")
def keys() -> np.ndarray:
    return np.random.default_rng(23).integers(0, 2000, 30_000)


def _sequential_observations(template, keys) -> Observer:
    obs = Observer()
    runtime = StreamRuntime(template.copy_empty(), observer=obs)
    runtime.run(envelope_stream(iter_chunks(np.asarray(keys, np.int64), 4096)))
    return obs


@pytest.mark.parametrize("backend", _usable_backends())
@pytest.mark.parametrize(
    "template", _templates(), ids=lambda t: type(t).__name__
)
def test_sharded_counters_match_sequential(keys, template, backend):
    with use_backend(backend):
        sequential = _sequential_observations(template, keys).metrics.snapshot()
        obs = Observer()
        run_sharded_sketch(keys, template, shards=4, observer=obs)
        merged = obs.metrics.snapshot()
        for metric in COUNTING_METRICS:
            assert merged.counter_value(metric) == sequential.counter_value(
                metric
            ), metric
        assert merged.counter_value("runtime.tuples.seen") == keys.size


def test_process_pool_and_inline_agree(keys, process_pool):
    """Every counter agrees: both runs ship shards through the same
    shared-memory segments and meter them (``parallel.shm.*``)."""
    template = FagmsSketch(64, rows=3, seed=17)
    inline_obs = Observer()
    run_sharded_sketch(keys, template, shards=4, observer=inline_obs)
    pooled_obs = Observer()
    run_sharded_sketch(
        keys, template, shards=4, pool=process_pool, observer=pooled_obs
    )
    inline = inline_obs.metrics.snapshot()
    pooled = pooled_obs.metrics.snapshot()
    assert pooled.counters == inline.counters
    assert pooled.counter_value("parallel.shm.segments") == 2


def test_merged_prometheus_dump_matches_sequential(keys, process_pool):
    template = FagmsSketch(64, rows=3, seed=17)
    sequential = _sequential_observations(template, keys).metrics.snapshot()
    obs = Observer()
    run_sharded_sketch(
        keys, template, shards=4, pool=process_pool, observer=obs
    )
    text = to_prometheus(obs)
    for metric in COUNTING_METRICS:
        prom = "repro_" + metric.replace(".", "_") + "_total"
        expected = int(sequential.counter_value(metric))
        assert f"{prom} {expected}" in text


def test_one_trace_with_spans_from_every_process(keys, process_pool):
    shards = 3
    template = FagmsSketch(64, rows=3, seed=17)
    obs = Observer()
    run_sharded_sketch(
        keys, template, shards=shards, pool=process_pool, observer=obs
    )
    trace = to_chrome_trace(obs)
    events = trace["traceEvents"]
    processes = {
        event["args"]["name"] for event in events if event["ph"] == "M"
    }
    assert processes == {"main", "shard-000", "shard-001", "shard-002"}

    spans = obs.tracer.export_spans()
    root = [
        span
        for span in spans
        if span["name"] == "parallel.scan" and span["process"] == "main"
    ]
    assert len(root) == 1
    root_id = root[0]["span_id"]
    shard_roots = [span for span in spans if span["name"] == "worker.shard"]
    assert len(shard_roots) == shards
    # Every worker's root span nests under the coordinator's open span.
    for span in shard_roots:
        assert span["parent_id"] is not None
    coordinator_names = {
        span["name"] for span in spans if span["process"] == "main"
    }
    assert {
        "parallel.scan",
        "parallel.partition",
        "parallel.collect",
        "parallel.merge",
    } <= coordinator_names
    worker_names = {
        span["name"] for span in spans if span["process"] != "main"
    }
    assert {"worker.shard", "runtime.chunk"} <= worker_names
    assert root_id >= 1


def test_sharded_sketch_without_observer_ships_no_observations(keys):
    template = FagmsSketch(64, rows=3, seed=17)
    result = run_sharded_sketch(keys, template, shards=2)
    for shard in result.shard_results:
        assert shard.metrics is None
        assert shard.spans == ()
