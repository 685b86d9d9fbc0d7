"""The traced run's per-layer ladder: spans around each layer's entry points.

:class:`Ladder` wraps the public entry points of every layer from the
outside (class attributes and module-level names are swapped for timing
wrappers, and restored by :meth:`Ladder.uninstall`), meters the kernel
seam with :class:`repro.observability.ProfilingKernelBackend`, and keeps
every span in memory as ``(layer, start, end)``.  No program code is
changed: an untraced run executes exactly the library's own code.

Self time is computed by interval coverage after the run: each instant
of the traced phase belongs to the innermost span open at that instant.
Spans from the dashboard's server thread nest inside the client's
round-trip span because only one request is ever in flight, so the
coverage holds across both threads.
"""

from __future__ import annotations

import bisect
import functools
import os
import threading
import time
import numpy as np

from repro.core.load_shedding import LoadShedder
from repro.dataplane import Pipeline
from repro.dataplane import sources as dataplane_sources
from repro.engine import snapshot as engine_snapshot
from repro.engine.snapshot import EngineSnapshot
from repro.engine.statistics import OnlineStatisticsEngine
from repro.hashing.families import BucketHashFamily
from repro.hashing.signs import FourWiseSignFamily
from repro.kernels import get_backend, set_backend
from repro.observability import Observer, ProfilingKernelBackend
from repro.resilience.adaptive import AdaptiveSheddingSketcher
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.runtime import StreamRuntime
from repro.serving import expressions as serving_expressions
from repro.serving import registry as serving_registry
from repro.serving.admission import AdmissionController
from repro.serving.registry import SketchRegistry
from repro.sketches.fagms import FagmsSketch

#: Layers, named after the repo's modules, in ladder order (bottom up).
LAYERS = (
    "kernels",
    "hashing",
    "sketches",
    "core.load_shedding",
    "resilience.adaptive",
    "streams",
    "dataplane",
    "resilience.runtime",
    "resilience.checkpoint",
    "engine",
    "variance",
    "serving.registry",
    "serving.expressions",
    "serving.admission",
    "serving.http",
)
#: Pseudo-layer for the kernel meter's own bookkeeping: tracing cost,
#: kept out of every layer's self time and reported as trace.meter_share.
METER = "trace.meter"
_INDEX = {layer: index for index, layer in enumerate(LAYERS + (METER,))}

#: Layers every workload runs, whose ``self_s`` BENCHMARK.json declares.
#: Other layers report ``self_s`` only on the workloads that run them: on
#: the others it would be a time reading exactly 0 on every run.
TIMED_LAYERS = ("kernels", "hashing", "sketches", "streams", "dataplane")

_KERNEL_PRIMITIVES = (
    "scatter_add",
    "signed_scatter_add",
    "gather",
    "sign_sum",
    "sign_dot",
    "fused_update",
    "polynomial_mod_p",
    "bucket_indices",
    "parity_signs",
)

#: ``(owner, attribute)`` entry points per layer.  Module-level functions
#: are patched in the namespace of the module that calls them.  Kernel
#: spans come from the meter's clock (see :class:`_KernelClock`).
_ENTRY_POINTS = {
    METER: [(ProfilingKernelBackend, name) for name in _KERNEL_PRIMITIVES],
    "hashing": [
        (BucketHashFamily, "evaluate_all"),
        (FourWiseSignFamily, "evaluate_all"),
    ],
    "sketches": [
        (FagmsSketch, "update"),
        (FagmsSketch, "estimate_frequencies"),
        (FagmsSketch, "second_moment"),
        (FagmsSketch, "inner_product"),
    ],
    "core.load_shedding": [(LoadShedder, "filter")],
    "resilience.adaptive": [(AdaptiveSheddingSketcher, "process")],
    "dataplane": [(Pipeline, "run")],
    "resilience.runtime": [(StreamRuntime, "process")],
    "resilience.checkpoint": [(CheckpointManager, "save")],
    "engine": [
        (OnlineStatisticsEngine, "consume"),
        (OnlineStatisticsEngine, "snapshot"),
        (OnlineStatisticsEngine, "checkpoint_state"),
        (EngineSnapshot, "self_join_size"),
        (EngineSnapshot, "join_size"),
        (EngineSnapshot, "point_frequency"),
        (EngineSnapshot, "self_join_variance_bound"),
        (EngineSnapshot, "point_frequency_variance_bound"),
        (serving_registry, "join_size_between"),
        (serving_registry, "join_variance_between"),
    ],
    "variance": [
        (engine_snapshot, "prefix_self_join_variance"),
        (engine_snapshot, "prefix_join_variance"),
        (engine_snapshot, "prefix_point_frequency_variance"),
        (serving_expressions, "prefix_self_join_variance"),
        (serving_expressions, "prefix_join_variance"),
    ],
    "serving.registry": [
        (SketchRegistry, "ingest"),
        (SketchRegistry, "rotate"),
        (SketchRegistry, "point_query"),
        (SketchRegistry, "self_join_query"),
        (SketchRegistry, "join_query"),
        (SketchRegistry, "expression_query"),
    ],
    "serving.expressions": [(serving_registry, "evaluate_expression")],
    "serving.admission": [(AdmissionController, "admit")],
}

#: Registry entry points whose span is the server-side share of a query.
_QUERY_METHODS = ("point_query", "self_join_query", "join_query", "expression_query")


class _KernelClock:
    """Clock for :class:`ProfilingKernelBackend` that records kernel spans.

    The profiler reads its clock exactly twice per primitive, right
    around the wrapped backend's call, so each pair of readings on a
    thread is one ``kernels`` span that excludes the meter's bookkeeping.
    """

    def __init__(self, spans: list) -> None:
        self.spans = spans
        self.open: dict = {}

    def __call__(self) -> float:
        now = time.perf_counter()
        thread = threading.get_ident()
        start = self.open.pop(thread, None)
        if start is None:
            self.open[thread] = now
        else:
            self.spans.append((_INDEX["kernels"], start, now))
        return now


def _original(owner, attribute):
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


class Ladder:
    """Span recorder for one traced phase (install, run, uninstall)."""

    def __init__(self) -> None:
        # One tuple per span: a single list append is atomic, so the
        # client and server threads can both record without a lock.
        self.spans: list = []
        self.query_spans: list = []  # server-side (start, end) per query
        self.shed_offered = 0
        self.shed_kept = 0
        self.checkpoint_bytes = 0
        self.checkpoint_saves = 0
        self.frozen_bytes = 0
        self.publications = 0
        self.clones = 0
        self.observer = Observer()
        self._frozen_seen: dict = {}
        self._patched: list = []
        self._backend = None

    # ------------------------------------------------------------------

    def record(self, layer: str, start: float, end: float) -> None:
        """Keep one span (also used by the benchmark's HTTP client)."""
        self.spans.append((_INDEX[layer], start, end))

    def _patch(self, owner, attribute, replacement) -> None:
        self._patched.append((owner, attribute, _original(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _wrap(self, owner, attribute, layer, after=None) -> None:
        original = _original(owner, attribute)
        index = _INDEX[layer]
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                spans.append((index, start, end))
            if after is not None:
                after(args, result, start, end)
            return result

        self._patch(owner, attribute, traced)

    def _wrap_iter_chunks(self) -> None:
        """Time each pull of the chunker that feeds ``FileSource``."""
        original = dataplane_sources.iter_chunks
        record = self.record
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            chunks = original(*args, **kwargs)
            while True:
                start = clock()
                try:
                    chunk = next(chunks)
                except StopIteration:
                    record("streams", start, clock())
                    return
                record("streams", start, clock())
                yield chunk

        self._patch(dataplane_sources, "iter_chunks", traced)

    # -- counters read at the same boundaries ---------------------------

    def _after_filter(self, args, kept, start, end) -> None:
        self.shed_offered += int(np.asarray(args[1]).size)
        self.shed_kept += int(kept.size)

    def _after_save(self, args, path, start, end) -> None:
        self.checkpoint_saves += 1
        self.checkpoint_bytes += os.path.getsize(path)

    def _count_frozen(self, names_and_arrays) -> None:
        """Add the bytes of counter arrays not published before."""
        self.publications += 1
        for name, counters in names_and_arrays:
            if self._frozen_seen.get(name) is not counters:
                self._frozen_seen[name] = counters
                self.frozen_bytes += counters.nbytes

    def _after_snapshot(self, args, snapshot, start, end) -> None:
        self._count_frozen(
            (name, snapshot.relation(name).counters) for name in snapshot.names
        )

    def _after_checkpoint_state(self, args, payload, start, end) -> None:
        self._count_frozen(payload[1].items())

    def _after_query(self, args, result, start, end) -> None:
        self.query_spans.append((start, end))

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Swap every entry point for its traced wrapper."""
        after = {
            (LoadShedder, "filter"): self._after_filter,
            (CheckpointManager, "save"): self._after_save,
            (OnlineStatisticsEngine, "snapshot"): self._after_snapshot,
            (OnlineStatisticsEngine, "checkpoint_state"): self._after_checkpoint_state,
        }
        for name in _QUERY_METHODS:
            after[(SketchRegistry, name)] = self._after_query
        for layer, entries in _ENTRY_POINTS.items():
            for owner, attribute in entries:
                self._wrap(owner, attribute, layer, after.get((owner, attribute)))
        self._wrap_iter_chunks()

        copy_original = _original(FagmsSketch, "copy_empty")

        def count_clone(sketch):
            self.clones += 1
            return copy_original(sketch)

        self._patch(FagmsSketch, "copy_empty", count_clone)

        self._backend = get_backend()
        set_backend(ProfilingKernelBackend(
            self._backend, self.observer, clock=_KernelClock(self.spans)
        ))

    def uninstall(self) -> None:
        """Restore every original entry point and the kernel backend."""
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        if self._backend is not None:
            set_backend(self._backend)
            self._backend = None

    # ------------------------------------------------------------------

    def self_times(self) -> tuple:
        """``(self seconds per layer, seconds covered by any span)``."""
        self_s = [0.0] * len(_INDEX)
        covered = 0.0
        stack: list = []  # [end, layer, start, seconds covered by children]
        for layer, start, end in sorted(self.spans, key=lambda s: (s[1], -s[2])):
            while stack and stack[-1][0] <= start:
                done = stack.pop()
                self_s[done[1]] += done[0] - done[2] - done[3]
            if stack:
                stack[-1][3] += min(end, stack[-1][0]) - start
            else:
                covered += end - start
            stack.append([end, layer, start, 0.0])
        for done in stack:
            self_s[done[1]] += done[0] - done[2] - done[3]
        return dict(zip(LAYERS + (METER,), self_s)), covered

    def http_overheads(self) -> list:
        """Per query: client round trip minus the server-side query span."""
        http = _INDEX["serving.http"]
        trips = sorted((s, e) for layer, s, e in self.spans if layer == http)
        starts = [start for start, _ in trips]
        inner = [0.0] * len(trips)
        for start, end in self.query_spans:
            slot = bisect.bisect_right(starts, start) - 1
            if slot >= 0 and end <= trips[slot][1]:
                inner[slot] += end - start
        return [e - s - q for (s, e), q in zip(trips, inner)]

    def counter_total(self, name: str) -> float:
        """Sum of one profiler counter over all its labels."""
        counters = self.observer.metrics.snapshot().counters
        return float(sum(value for (key, _), value in counters.items() if key == name))

    def metrics(self, wall: float, chunks: int, queries: int) -> dict:
        """The per-layer metrics of the traced phase, as ``name -> (value, unit)``."""
        self_s, covered = self.self_times()
        calls = np.bincount(
            np.fromiter((span[0] for span in self.spans), dtype=np.int64),
            minlength=len(_INDEX),
        )
        out = {}
        for index, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (int(calls[index]), "count")
            out[f"{layer}.share"] = (self_s[layer] / wall, "ratio")
            if calls[index] or layer in TIMED_LAYERS:
                out[f"{layer}.self_s"] = (self_s[layer], "s")
        kernel_calls = self.counter_total("kernels.ops")
        out["kernels.rows"] = (self.counter_total("kernels.rows"), "count")
        out["kernels.bytes"] = (self.counter_total("kernels.bytes"), "B")
        out["kernels.calls_per_chunk"] = (kernel_calls / chunks, "1/chunk")
        out["core.load_shedding.kept_ratio"] = (
            self.shed_kept / self.shed_offered if self.shed_offered else 1.0,
            "ratio",
        )
        out["resilience.checkpoint.bytes"] = (
            self.checkpoint_bytes / self.checkpoint_saves
            if self.checkpoint_saves else 0.0,
            "B",
        )
        out["engine.frozen_bytes"] = (
            self.frozen_bytes / self.publications if self.publications else 0.0,
            "B",
        )
        out["engine.sketch_view_clones"] = (
            self.clones / queries if queries else 0.0, "1/query"
        )
        out["trace.meter_share"] = (self_s[METER] / wall, "ratio")
        out["trace.unattributed_share"] = (max(0.0, wall - covered) / wall, "ratio")
        out["trace.wall_s"] = (wall, "s")
        return out
