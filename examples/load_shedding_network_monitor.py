"""Adaptive load shedding for a network monitor (Section VI-A, hardened).

Scenario: a router exports a flow stream too fast to sketch exhaustively.
A :class:`~repro.resilience.governor.LoadGovernor` watches the measured
per-chunk cost against a processing budget and retunes the Bernoulli
keep-probability of an
:class:`~repro.resilience.adaptive.AdaptiveSheddingSketcher` on the fly;
the piecewise-rate correction keeps the second-frequency-moment estimate
(the classic DDoS indicator) unbiased across every rate change, and the
confidence interval widens honestly while shedding is aggressive.

Part 1 replays the paper's fixed-rate story with the same sketcher left
at one rate (down to a 1% rate, accuracy barely moves while work drops
by orders of magnitude).  Part 2 simulates
a load burst — per-tuple processing cost spikes to several times the
budget mid-stream — and prints, chunk window by chunk window, how the
governor sheds into the burst, how the 95% interval widens, and how both
recover afterwards.

Every scan here runs on the composable dataplane
(:mod:`repro.dataplane`): sketchers terminate pipelines as sinks, the
governor is wired into the pipeline, and the burst's simulated cost is
driven through the shared injectable clock.

Run:  python examples/load_shedding_network_monitor.py
"""

import time

import numpy as np

from repro import (
    AdaptiveSheddingSketcher,
    FagmsSketch,
    LoadGovernor,
    zipf_relation,
)
from repro.dataplane import (
    CallbackSink,
    IterableSource,
    Pipeline,
    SketcherSink,
)
from repro.resilience import ManualClock
from repro.streams import iter_chunks

SEED = 7
STREAM_TUPLES = 1_000_000
SOURCE_ADDRESSES = 60_000  # distinct source IPs
CHUNK = 65_536
RATES = (1.0, 0.1, 0.01, 0.001)

# Part-2 control loop: a smaller chunk so the governor gets feedback often.
BURST_CHUNK = 16_384
BUDGET_PER_TUPLE = 30e-9  # seconds of processing we can afford per arrival


def make_flow_stream():
    """Flow arrivals: Zipf-distributed source addresses (heavy talkers)."""
    return zipf_relation(
        STREAM_TUPLES, SOURCE_ADDRESSES, skew=1.1, seed=SEED, name="flows"
    )


def fixed_rate_sweep(stream, truth) -> None:
    """The paper's Figs 3–4 story: fixed rates, near-constant accuracy."""
    print(f"{'keep rate':>9}  {'sketched':>10}  {'seconds':>8}  "
          f"{'estimate':>14}  {'rel.error':>9}")
    for rate in RATES:
        sketcher = AdaptiveSheddingSketcher(
            FagmsSketch(4_096, seed=SEED + 1), p=rate, seed=SEED + 2
        )
        pipeline = Pipeline(
            IterableSource(stream.chunks(CHUNK)),
            sinks=[SketcherSink(sketcher)],
            queue_depth=0,
        )
        start = time.perf_counter()
        pipeline.run()
        elapsed = time.perf_counter() - start
        estimate = sketcher.self_join_size()
        error = abs(estimate - truth) / truth
        print(f"{rate:>9.3f}  {sketcher.kept:>10,}  {elapsed:>8.3f}  "
              f"{estimate:>14,.0f}  {error:>9.2%}")


def adaptive_burst_demo(stream, truth) -> None:
    """Drive the governor through a simulated 6x processing-cost burst.

    The control loop is a governed dataplane pipeline: the sketcher is
    the sink the governor retunes, and the burst's synthetic per-tuple
    cost is injected by advancing a :class:`ManualClock` from a trailing
    callback sink — the pipeline then "measures" exactly that cost.
    """
    sketcher = AdaptiveSheddingSketcher(
        FagmsSketch(4_096, seed=SEED + 5), 1.0, seed=SEED + 6
    )
    governor = LoadGovernor(
        BUDGET_PER_TUPLE, p_min=0.005, headroom=0.7, smoothing=0.7, deadband=0.05
    )
    chunks = list(stream.chunks(BURST_CHUNK))
    burst = range(len(chunks) // 3, 2 * len(chunks) // 3)
    print(f"\nadaptive governor, budget = {BUDGET_PER_TUPLE * 1e9:.0f} ns/tuple, "
          f"cost spikes 6x during chunks {burst.start}-{burst.stop - 1}:")
    print(f"{'chunk':>6}  {'phase':>6}  {'rate':>7}  {'kept':>7}  "
          f"{'estimate':>14}  {'95% interval half-width':>24}")
    report_every = max(1, len(chunks) // 12)
    clock = ManualClock()
    sketch_sink = SketcherSink(sketcher)

    def tick(envelope) -> None:
        # Simulated per-kept-tuple cost: the "burst" models a colocated
        # job stealing cycles, so sketching the same tuple costs 6x.
        index = envelope.sequence
        cost_per_kept = 6 * BUDGET_PER_TUPLE if index in burst else (
            BUDGET_PER_TUPLE / 3
        )
        kept = sketch_sink.last_kept
        clock.advance(kept * cost_per_kept)
        if index % report_every == 0 or index == len(chunks) - 1:
            interval = sketcher.self_join_interval(0.95)
            phase = "BURST" if index in burst else "calm"
            print(f"{index:>6}  {phase:>6}  {sketcher.rate:>7.3f}  {kept:>7,}  "
                  f"{sketcher.self_join_size():>14,.0f}  "
                  f"{interval.half_width:>24,.0f}")

    Pipeline(
        IterableSource(chunks),
        sinks=[sketch_sink, CallbackSink(tick)],
        governor=governor,
        clock=clock,
        queue_depth=0,
    ).run()
    final = sketcher.self_join_interval(0.95)
    error = abs(sketcher.self_join_size() - truth) / truth
    print(f"final estimate after burst: rel.error {error:.2%}, "
          f"interval covers truth: {final.contains(truth)}")
    print(f"tuples sketched: {sketcher.kept:,} of {sketcher.seen:,} "
          f"({sketcher.kept / sketcher.seen:.1%})")


def ddos_check(stream) -> None:
    """Replay the stream with a hot source added; the estimate must jump."""
    rng = np.random.default_rng(SEED + 3)
    attack_keys = np.where(
        rng.random(STREAM_TUPLES) < 0.2,  # 20% of traffic from one source
        np.int64(0),
        stream.keys,
    )
    attacked = AdaptiveSheddingSketcher(
        FagmsSketch(4_096, seed=SEED + 4), p=0.01, seed=SEED
    )
    Pipeline(
        IterableSource(iter_chunks(attack_keys, CHUNK)),
        sinks=[SketcherSink(attacked)],
        queue_depth=0,
    ).run()
    baseline = AdaptiveSheddingSketcher(
        FagmsSketch(4_096, seed=SEED + 4), p=0.01, seed=SEED
    )
    Pipeline(
        IterableSource(stream.chunks(CHUNK)),
        sinks=[SketcherSink(baseline)],
        queue_depth=0,
    ).run()
    ratio = attacked.self_join_size() / baseline.self_join_size()
    print(f"\nDDoS check at 1% shedding: F2(attacked)/F2(normal) = {ratio:.1f}x"
          f"  ->  {'ALERT' if ratio > 2 else 'ok'}")


def main() -> None:
    stream = make_flow_stream()
    truth = stream.self_join_size()
    print(f"flow stream: {STREAM_TUPLES:,} tuples, "
          f"{SOURCE_ADDRESSES:,} sources, true F2 = {truth:,}\n")
    fixed_rate_sweep(stream, truth)
    adaptive_burst_demo(stream, truth)
    ddos_check(stream)


if __name__ == "__main__":
    main()
