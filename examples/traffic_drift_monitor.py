"""Tumbling-window traffic monitoring with cross-window similarity.

Builds on the paper's load-shedding machinery (Section VI-A): a monitor
sheds a key stream at a fixed rate, sketches each fixed-size window's
survivors with its own F-AGMS sketch, tracks the per-window second
frequency moment, and computes a cosine-style *similarity* between
consecutive windows from the sketch inner products — all unbiased for
the full (pre-shedding) traffic, because each window's sketch is Props
13–14 applied to that window's Bernoulli draw.

The scenario: stable traffic for several windows, then a key-distribution
shift (e.g. a cache-busting deployment or a scanning attack).  The drift
metric drops sharply at the shifted window while staying near 1 elsewhere.

The scan runs on the composable dataplane: an
:class:`~repro.dataplane.IterableSource` over
:func:`~repro.streams.iter_chunks` re-chunks the raw traffic array into
eight micro-batches per window, a :class:`~repro.dataplane.ShedOperator`
sheds them, and a :class:`~repro.dataplane.CallbackSink` updates the
current window's sketch and closes it after every eighth batch.  The
shedder draws its skip-ahead gaps in batches sized to each chunk, so the
chunk size fixes which tuples survive: another chunk size prints other
(equally unbiased) estimates.

Run:  python examples/traffic_drift_monitor.py
"""

import numpy as np

from repro import zipf_relation
from repro.core import estimate_join_size, estimate_self_join_size
from repro.dataplane import CallbackSink, IterableSource, Pipeline, ShedOperator
from repro.sampling import SampleInfo
from repro.sketches import FagmsSketch
from repro.streams import iter_chunks

SEED = 71
WINDOW = 50_000
CHUNKS_PER_WINDOW = 8
KEYS = 20_000
SHED_P = 0.2


def build_traffic() -> np.ndarray:
    """Six windows of traffic; window 4 has a shifted key distribution."""
    normal = zipf_relation(
        4 * WINDOW, KEYS, skew=1.1, seed=SEED, shuffle_values=False
    ).keys
    # The shift: the same shape over a *different* part of the key space.
    shifted = (
        zipf_relation(WINDOW, KEYS, skew=1.1, seed=SEED + 1, shuffle_values=False).keys
        + KEYS // 2
    ) % KEYS
    tail = zipf_relation(
        WINDOW, KEYS, skew=1.1, seed=SEED + 2, shuffle_values=False
    ).keys
    return np.concatenate([normal, shifted, tail])


def main() -> None:
    traffic = build_traffic()
    sketch_seed, shed_seed = np.random.SeedSequence(SEED + 3).spawn(2)
    # One template: every window's sketch shares its hash families, so
    # sketches of different windows can be joined.
    template = FagmsSketch(4_096, 1, sketch_seed)
    print(f"monitoring {traffic.size:,} tuples in windows of {WINDOW:,} "
          f"(sketching only {SHED_P:.0%} of each)\n")
    print(f"{'window':>6}  {'F2 estimate':>14}  {'similarity to prev':>18}")

    sketch = template.copy_empty()
    kept = 0
    previous = None  # (sketch, info, F2) of the last closed window

    def watch(envelope) -> None:
        nonlocal sketch, kept, previous
        sketch.update(np.asarray(envelope.keys))
        kept += envelope.count
        if (envelope.sequence + 1) % CHUNKS_PER_WINDOW:
            return
        info = SampleInfo("bernoulli", WINDOW, kept, SHED_P)
        f2 = estimate_self_join_size(sketch, info).value
        if previous is None:
            similarity_text = "-"
        else:
            previous_sketch, previous_info, previous_f2 = previous
            join = estimate_join_size(previous_sketch, previous_info, sketch, info)
            similarity = join.value / np.sqrt(
                max(previous_f2, 1.0) * max(f2, 1.0)
            )
            flag = "  << DRIFT" if similarity < 0.5 else ""
            similarity_text = f"{similarity:.3f}{flag}"
        index = envelope.sequence // CHUNKS_PER_WINDOW
        print(f"{index:>6}  {f2:>14,.0f}  {similarity_text:>18}")
        previous = (sketch, info, f2)
        sketch, kept = template.copy_empty(), 0

    Pipeline(
        IterableSource(iter_chunks(traffic, WINDOW // CHUNKS_PER_WINDOW)),
        ShedOperator(SHED_P, shed_seed),
        sinks=[CallbackSink(watch)],
        queue_depth=4,
    ).run()

    print("\nWindow 4 is the injected key-space shift: its similarity to "
          "window 3 collapses, and window 5's similarity to window 4 is "
          "low again as traffic returns to normal.")


if __name__ == "__main__":
    main()
