"""Tumbling-window traffic monitoring with cross-window similarity.

Builds on the paper's load-shedding machinery (Section VI-A): a monitor
rotates shedding F-AGMS sketches over fixed-size windows of a key stream,
tracks the per-window second frequency moment, and computes a cosine-style
*similarity* between consecutive windows from the sketch inner products —
all unbiased for the full (pre-shedding) traffic via the combined-estimator
corrections.

The scenario: stable traffic for several windows, then a key-distribution
shift (e.g. a cache-busting deployment or a scanning attack).  The drift
metric drops sharply at the shifted window while staying near 1 elsewhere.

The scan runs on the composable dataplane: an
:class:`~repro.dataplane.IterableSource` over
:func:`~repro.streams.iter_chunks` re-chunks the raw traffic array into
fixed micro-batches (the window sketcher's results are
chunking-invariant — the shedder's skip-ahead state carries across
batch boundaries) and a callback sink feeds the window monitor.

Run:  python examples/traffic_drift_monitor.py
"""

import numpy as np

from repro import zipf_relation
from repro.core.windows import TumblingWindowSketcher, window_join_size
from repro.dataplane import CallbackSink, IterableSource, Pipeline
from repro.streams import iter_chunks

SEED = 71
WINDOW = 50_000
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
    monitor = TumblingWindowSketcher(
        WINDOW, buckets=4_096, p=SHED_P, seed=SEED + 3
    )
    print(f"monitoring {traffic.size:,} tuples in windows of {WINDOW:,} "
          f"(sketching only {SHED_P:.0%} of each)\n")
    print(f"{'window':>6}  {'F2 estimate':>14}  {'similarity to prev':>18}")

    windows: list = []  # closed windows so far; [-1] is the previous one

    def watch(envelope) -> None:
        for summary in monitor.process(np.asarray(envelope.keys)):
            f2 = summary.self_join_size()
            if not windows:
                similarity_text = "-"
            else:
                previous = windows[-1]
                similarity = window_join_size(previous, summary) / np.sqrt(
                    max(previous.self_join_size(), 1.0) * max(f2, 1.0)
                )
                flag = "  << DRIFT" if similarity < 0.5 else ""
                similarity_text = f"{similarity:.3f}{flag}"
            print(f"{summary.index:>6}  {f2:>14,.0f}  {similarity_text:>18}")
            windows.append(summary)

    Pipeline(
        IterableSource(iter_chunks(traffic, WINDOW // 8)),
        sinks=[CallbackSink(watch)],
        queue_depth=4,
    ).run()

    print("\nWindow 4 is the injected key-space shift: its similarity to "
          "window 3 collapses, and window 5's similarity to window 4 is "
          "low again as traffic returns to normal.")


if __name__ == "__main__":
    main()
