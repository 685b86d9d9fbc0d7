"""Tumbling-window sketching over sampled streams (extension feature).

Stream monitoring rarely wants all-time aggregates; it wants them *per
window* ("F₂ of the last minute") and *across windows* ("how similar is
this minute's traffic to the previous minute's?").  Because sketches are
linear and cheap, a tumbling-window deployment simply rotates the sketch
at each window boundary — and with Bernoulli shedding in front (Section
VI-A), each window estimate inherits the combined-estimator corrections.

:class:`TumblingWindowSketcher` packages that pattern:

* feed the stream through :meth:`process`; windows close automatically
  every ``window_size`` tuples;
* each closed :class:`WindowSummary` holds the window's sketch plus its
  shedding metadata, so per-window F₂ estimates are unbiased;
* summaries of different windows share hash families, so
  :func:`window_join_size` estimates the *join similarity between two
  windows* — the traffic-drift signal.

This is an extension beyond the paper's experiments, built entirely from
the paper's machinery (the corrections are per-window Prop 13/14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError, InsufficientDataError
from ..rng import SeedLike, as_seed_sequence
from ..sampling.base import SampleInfo
from ..sketches.fagms import FagmsSketch
from .estimators import estimate_join_size, estimate_self_join_size
from .load_shedding import LoadShedder

__all__ = ["WindowSummary", "TumblingWindowSketcher", "window_join_size"]


@dataclass(frozen=True)
class WindowSummary:
    """A closed window: its sketch and the shedding draw that fed it."""

    index: int
    sketch: FagmsSketch
    info: SampleInfo

    def self_join_size(self) -> float:
        """Unbiased ``F₂`` of the window's full (pre-shedding) tuples."""
        return estimate_self_join_size(self.sketch, self.info).value

    @property
    def tuples(self) -> int:
        """Tuples that arrived during the window (before shedding)."""
        return self.info.population_size


def window_join_size(a: WindowSummary, b: WindowSummary) -> float:
    """Unbiased ``Σᵢ fᵢ(A) · fᵢ(B)`` between two windows' full traffic.

    The cross-window join size is the unnormalized traffic-similarity
    measure: it is maximal when the same keys dominate both windows.
    """
    return estimate_join_size(a.sketch, a.info, b.sketch, b.info).value


class TumblingWindowSketcher:
    """Rotate shedding sketches over fixed-size tumbling windows.

    Parameters
    ----------
    window_size:
        Tuples per window (pre-shedding).
    buckets, rows:
        F-AGMS shape per window.  All windows share families (one seed) so
        cross-window joins work.
    p:
        Bernoulli keep-probability of the shedder (1.0 = sketch
        everything).
    keep_last:
        How many closed windows to retain (older summaries are dropped).
    """

    def __init__(
        self,
        window_size: int,
        buckets: int,
        *,
        rows: int = 1,
        p: float = 1.0,
        keep_last: int = 16,
        seed: SeedLike = None,
    ) -> None:
        if window_size < 1:
            raise ConfigurationError(f"window_size must be >= 1, got {window_size}")
        if keep_last < 1:
            raise ConfigurationError(f"keep_last must be >= 1, got {keep_last}")
        root = as_seed_sequence(seed)
        sketch_seed, shedder_seed = root.spawn(2)
        self.window_size = window_size
        self.p = float(p)
        self.keep_last = keep_last
        self._template = FagmsSketch(buckets, rows, sketch_seed)
        self._shedder = LoadShedder(p, shedder_seed)
        self._current = self._template.copy_empty()
        self._seen_before_window = 0
        self._kept_before_window = 0
        self._windows: list[WindowSummary] = []
        self._next_index = 0

    # ------------------------------------------------------------------

    @property
    def closed_windows(self) -> tuple[WindowSummary, ...]:
        """Summaries of the retained closed windows, oldest first."""
        return tuple(self._windows)

    @property
    def current_fill(self) -> int:
        """Tuples consumed by the (still open) current window."""
        return self._shedder.seen - self._seen_before_window

    def process(self, keys) -> list[WindowSummary]:
        """Consume a chunk; returns any windows closed by it."""
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ConfigurationError(f"keys must be 1-D, got shape {keys.shape}")
        closed: list[WindowSummary] = []
        position = 0
        while position < keys.size:
            room = self.window_size - self.current_fill
            take = min(room, keys.size - position)
            kept = self._shedder.filter(keys[position : position + take])
            self._current.update(kept)
            position += take
            if self.current_fill == self.window_size:
                closed.append(self._close_window())
        return closed

    def _close_window(self) -> WindowSummary:
        seen = self._shedder.seen - self._seen_before_window
        kept = self._shedder.kept - self._kept_before_window
        summary = WindowSummary(
            index=self._next_index,
            sketch=self._current,
            info=SampleInfo(
                scheme="bernoulli",
                population_size=seen,
                sample_size=kept,
                probability=self.p,
            ),
        )
        self._windows.append(summary)
        if len(self._windows) > self.keep_last:
            self._windows.pop(0)
        self._next_index += 1
        self._current = self._template.copy_empty()
        self._seen_before_window = self._shedder.seen
        self._kept_before_window = self._shedder.kept
        return summary

    # ------------------------------------------------------------------

    def latest(self) -> WindowSummary:
        """The most recently closed window."""
        if not self._windows:
            raise InsufficientDataError("no window has closed yet")
        return self._windows[-1]

    def merged_summary(self, last: int) -> WindowSummary:
        """One summary covering the union of the most recent *last* windows.

        Sketch linearity plus the shared shedding probability make the
        merged sketch exactly a sketch over a Bernoulli(p) sample of the
        union of the windows' traffic, so the combined-estimator
        corrections apply to the merged summary unchanged — this is the
        *sliding-window* view over tumbling panes.
        """
        if last < 1:
            raise ConfigurationError(f"last must be >= 1, got {last}")
        if len(self._windows) < last:
            raise InsufficientDataError(
                f"only {len(self._windows)} closed windows retained, "
                f"requested {last}"
            )
        recent = self._windows[-last:]
        merged = recent[0].sketch.copy()
        for summary in recent[1:]:
            merged.merge(summary.sketch)
        return WindowSummary(
            index=recent[-1].index,
            sketch=merged,
            info=SampleInfo(
                scheme="bernoulli",
                population_size=sum(s.info.population_size for s in recent),
                sample_size=sum(s.info.sample_size for s in recent),
                probability=self.p,
            ),
        )

    def drift(self) -> Optional[float]:
        """Normalized similarity between the two most recent windows.

        ``join(A, B) / sqrt(F₂(A) · F₂(B))`` — a cosine-style similarity in
        ``[0, ~1]`` (estimates may stray slightly outside).  ``None`` until
        two windows have closed, or when an estimate degenerates (a
        non-positive F₂ estimate after correction).
        """
        if len(self._windows) < 2:
            return None
        a, b = self._windows[-2], self._windows[-1]
        f2_a = a.self_join_size()
        f2_b = b.self_join_size()
        if f2_a <= 0 or f2_b <= 0:
            return None
        return window_join_size(a, b) / float(np.sqrt(f2_a * f2_b))

    def __repr__(self) -> str:
        return (
            f"TumblingWindowSketcher(window_size={self.window_size}, p={self.p}, "
            f"closed={self._next_index}, fill={self.current_fill})"
        )
