"""The default numpy kernel backend: fused ``bincount`` scatter-adds.

``np.add.at`` applies its updates one element at a time through the ufunc
inner loop; ``np.bincount`` walks the index array once in C and needs no
per-element dispatch.  Both accumulate per-bucket partial sums in stream
order, so replacing the per-row ``add.at`` loop with a single bincount
over flattened ``row · buckets + bucket`` indices changes *only* where
the partial sum meets the counter (one add per bucket per call instead
of one per tuple) — exact for integer-valued deltas, which covers every
unweighted and frequency-vector workload.

Two scatter tricks on top of the flattening:

* unweighted ±1 updates append the sign bit to the flat index
  (``flat·2 + (sign > 0)``) and run one *integer* bincount over the
  doubled range; even slots count −1s, odd slots +1s, and the fold
  ``counts[1::2] − counts[0::2]`` is exact int64 arithmetic — no float
  weights and no int8→float64 conversion at all;
* weighted updates fold the signs into the deltas in a single
  ``signs * weights`` broadcast over each key block's ``(rows, block)``
  matrix instead of one ``astype(float64)`` + multiply per row.

Allocation discipline: the fused update (``Sketch.update``) runs every
chunk in key blocks and writes each stage into a flat workspace owned by
the calling thread, so a steady-state update maps no fresh pages.  The
first block's bincount output is the accumulator and later blocks
``np.add.at`` into it; both add in index order, so per-slot sums are the
one-pass sums bit for bit.  What still allocates per update: that
bincount output, the weighted AGMS ``sign_dot`` (one matmul over the
whole chunk) and the replay of EH3-signed entries.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from .backend import KernelBackend, register_backend

__all__ = ["NumpyKernelBackend"]

_ONE = np.uint64(1)


def _power_mod_p_k4(
    coefficients: np.ndarray, x: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """All rows' degree-3 polynomials mod ``p = 2³¹ − 1`` via the power basis.

    The fused path evaluates many stacked fourwise rows over one key
    batch, so the powers ``x² mod p`` and ``x³ mod p`` are computed once
    on the ``(n,)`` vector and every row costs three broadcast
    multiplies plus one final reduction — fewer full ``(rows, n)``
    passes than the lazily-folded Horner schedule (no per-step folds).
    Exactness: with canonical residues ``< p`` every product is
    ``≤ (p−1)² < 2⁶²`` and the four-term sum is
    ``≤ 3(p−1)² + (p−1) < 2⁶⁴``, so nothing wraps before
    :func:`~repro.hashing.families._reduce31` restores the canonical
    residue — bit-identical to ``_horner_all`` (canonical residues are
    unique).

    *out* (``(rows, n)``, returned) and *scratch* (``(rows + 2, n)``:
    fold space plus the two powers) are caller-owned uint64 buffers,
    disjoint from each other and from *x*.
    """
    from ..hashing.families import MERSENNE_P31, _reduce31

    rows = coefficients.shape[0]
    fold, x2, x3 = scratch[:rows], scratch[rows], scratch[rows + 1]
    r = MERSENNE_P31 - 1
    np.multiply(x, x, out=x2)
    _reduce31(x2, fold[0], r * r)
    np.multiply(x2, x, out=x3)
    _reduce31(x3, fold[0], r * r)
    acc = np.multiply(coefficients[:, 0:1], x3, out=out)
    np.multiply(coefficients[:, 1:2], x2, out=fold)
    acc += fold
    np.multiply(coefficients[:, 2:3], x, out=fold)
    acc += fold
    acc += coefficients[:, 3:4]
    _reduce31(acc, fold, 3 * r * r + r)
    return acc


class _FusedPlanCache:
    """Stacking layout for :meth:`NumpyKernelBackend.fused_update`.

    Built once per :class:`~repro.kernels.fused.FusedPlan` (and stored on
    it) from the immutable hash-family coefficients.  Rows are regrouped
    so each stage is one stacked numpy pass: all fourwise sign rows
    (AGMS first, then F-AGMS) concatenate into a single polynomial
    stack, all bucket rows (F-AGMS first, then Count-Min) into a single
    pairwise stack, and every bucketed counter array is assigned a
    disjoint slot range so one scatter covers the whole plan.
    Entries whose families have no stacked fast path (EH3 signs) are
    replayed through the separate-path primitives instead.

    The cache holds layout only, never buffers: the per-key-block
    working arrays live in the calling thread's workspace
    (:meth:`NumpyKernelBackend._workspace`), laid out as three row
    regions of ``block`` keys each — the sign rows, a scratch region
    (power-basis and Horner fold space, then the bucket slots), and
    the hashed bucket rows (then the folded weights).
    """

    __slots__ = (
        "fallback",
        "agms_entries",
        "agms_rows",
        "poly_coefficients",
        "bucket_coefficients",
        "bucket_segments",
        "fagms_rows",
        "slot_offsets",
        "total_slots",
        "scatter_entries",
        "sign_rows",
        "bucket_rows",
        "scratch_rows",
        "workspace_rows",
        "block",
    )


def _build_fused_cache(plan) -> _FusedPlanCache:
    agms, fagms, cms, fallback = [], [], [], []
    for entry in plan.entries:
        poly = (
            entry.sign_kind == "poly"
            and entry.sign_coefficients is not None
            and entry.sign_coefficients.shape[1] == 4
        )
        if entry.kind == "agms" and poly:
            agms.append(entry)
        elif entry.kind == "fagms" and poly:
            fagms.append(entry)
        elif entry.kind == "countmin":
            cms.append(entry)
        else:
            fallback.append(entry)
    cache = _FusedPlanCache()
    cache.fallback = tuple(fallback)

    agms_entries = []
    row = 0
    for entry in agms:
        agms_entries.append((entry, row, row + entry.rows))
        row += entry.rows
    cache.agms_entries = tuple(agms_entries)
    cache.agms_rows = row
    sign_stack = [entry.sign_coefficients for entry in agms + fagms]
    cache.poly_coefficients = (
        np.concatenate(sign_stack, axis=0) if sign_stack else None
    )

    bucketed = fagms + cms
    bucket_stack = [entry.bucket_coefficients for entry in bucketed]
    cache.bucket_coefficients = (
        np.concatenate(bucket_stack, axis=0) if bucket_stack else None
    )
    cache.fagms_rows = sum(entry.rows for entry in fagms)
    segments, offsets, scatter_entries = [], [], []
    row = 0
    slot = 0
    for entry in bucketed:
        if segments and segments[-1][2] == entry.buckets:
            segments[-1] = (segments[-1][0], row + entry.rows, entry.buckets)
        else:
            segments.append((row, row + entry.rows, entry.buckets))
        offsets.extend(
            slot + r * entry.buckets for r in range(entry.rows)
        )
        scatter_entries.append((entry, slot, slot + entry.rows * entry.buckets))
        row += entry.rows
        slot += entry.rows * entry.buckets
    cache.bucket_segments = tuple(segments)
    cache.slot_offsets = np.asarray(offsets, dtype=np.int64)
    cache.total_slots = slot
    cache.scatter_entries = tuple(scatter_entries)
    cache.sign_rows = (
        0 if cache.poly_coefficients is None else cache.poly_coefficients.shape[0]
    )
    cache.bucket_rows = (
        0 if cache.bucket_coefficients is None else cache.bucket_coefficients.shape[0]
    )
    cache.scratch_rows = max(
        cache.sign_rows + 2 if cache.sign_rows else 0, cache.bucket_rows
    )
    cache.workspace_rows = cache.sign_rows + cache.scratch_rows + cache.bucket_rows
    # Key-block size: cap the stacked working set (a handful of
    # ``(rows, block)`` uint64 rows) around the L2 size so huge chunks
    # do not spill cache right where the per-sketch path, with its
    # narrower ``(rows_i, n)`` temporaries, would not.  Small blocks pay
    # numpy dispatch per pass, so the floor matters as much as the cap.
    rows_max = max(cache.sign_rows, cache.bucket_rows, 1)
    cache.block = max(2048, 32768 // rows_max)
    return cache


def _rows(buffer: np.ndarray, offset: int, rows: int, n: int) -> np.ndarray:
    """A contiguous ``(rows, n)`` view of the flat workspace at *offset*."""
    return buffer[offset : offset + rows * n].reshape(rows, n)


def _flat_indices(indices: np.ndarray, buckets: int) -> np.ndarray:
    """Flatten per-row bucket indices into the ``rows·buckets`` range."""
    rows = indices.shape[0]
    if rows == 1:
        return indices.reshape(-1)
    offsets = np.arange(rows, dtype=np.int64) * np.int64(buckets)
    return (indices + offsets[:, None]).reshape(-1)


class NumpyKernelBackend(KernelBackend):
    """Fused-bincount accumulation (the default backend)."""

    name = "numpy"

    def __init__(self) -> None:
        self._local = threading.local()

    def scatter_add(
        self,
        counters: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """One bincount pass; unweighted updates use pure integer counts."""
        rows, buckets = counters.shape
        n = indices.shape[1]
        if n == 0:
            return
        flat = _flat_indices(indices, buckets)
        if weights is None:
            counts = np.bincount(flat, minlength=rows * buckets)
        else:
            tiled = (
                weights
                if rows == 1
                else np.broadcast_to(weights, (rows, n)).reshape(-1)
            )
            counts = np.bincount(flat, weights=tiled, minlength=rows * buckets)
        counters += counts.reshape(rows, buckets)

    def signed_scatter_add(
        self,
        counters: np.ndarray,
        indices: np.ndarray,
        signs: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Sign-split integer bincount (unweighted) or sign-folded weights."""
        rows, buckets = counters.shape
        n = indices.shape[1]
        if n == 0:
            return
        flat = _flat_indices(indices, buckets)
        if weights is None:
            # Even slot: this bucket's −1s; odd slot: its +1s.  The fold is
            # exact int64 arithmetic — float64 never enters the hot loop.
            slots = (flat << 1) + (signs.reshape(-1) > 0)
            counts = np.bincount(slots, minlength=2 * rows * buckets)
            deltas = counts[1::2] - counts[0::2]
        else:
            folded = (signs * weights).reshape(-1)
            deltas = np.bincount(flat, weights=folded, minlength=rows * buckets)
        counters += deltas.reshape(rows, buckets)

    def gather(self, counters: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Single ``take`` on the flattened counter matrix."""
        rows, buckets = counters.shape
        flat = _flat_indices(indices, buckets)
        return counters.reshape(-1).take(flat).reshape(rows, indices.shape[1])

    def sign_sum(self, signs: np.ndarray) -> np.ndarray:
        """Row sums of the ±1 matrix with an explicit float64 accumulator."""
        return signs.sum(axis=1, dtype=np.float64)

    def sign_dot(
        self,
        signs: np.ndarray,
        weights: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``signs @ weights`` via one matmul into the caller's buffer."""
        dense = signs.astype(np.float64)
        if out is None:
            return dense @ weights
        np.matmul(dense, weights, out=out)
        return out

    def fused_update(self, plan, keys: np.ndarray, weights=None) -> None:
        """Stacked updates for every sketch in the plan, in one call.

        Three stacked stages replace the per-sketch pipelines (layout
        precomputed once per plan by :func:`_build_fused_cache`):

        1. every fourwise sign row in the plan is evaluated in a single
           power-basis pass (:func:`_power_mod_p_k4`);
        2. every bucket row in a single ``_horner_all`` pass;
        3. every bucketed counter array gets a disjoint slot range and
           **one scatter covers all of them at once** — per-slot partial
           sums are unchanged, so the result stays bit-identical to
           per-sketch ``update()`` calls.

        The chunk runs in key blocks of ``cache.block`` keys, and every
        stage writes into the calling thread's workspace with ``out=``,
        so a steady-state update allocates no ``(rows, n)`` temporaries.
        The first block's ``np.bincount`` output is the accumulator and
        later blocks ``np.add.at`` into it.  Both add element by element
        in index order, so each slot receives its contributions in key
        order — the same float additions as one bincount over the whole
        chunk, bit for bit, weighted or not.

        The unweighted AGMS delta skips sign materialization:
        ``Σ signs = 2·#odd − n`` counted straight off the hash parity
        bits (exact integer arithmetic, bit-identical to ``sign_sum``
        over the int8 signs).  The weighted AGMS delta is one BLAS
        ``sign_dot`` over the whole chunk, as on the separate path,
        because blocking would change its summation order.  EH3-signed
        entries replay through the separate-path primitives (counter
        arrays are disjoint across entries, so interleaving replays is
        still exact).
        """
        from ..hashing.families import _bucket_reduce, _horner_all

        cache = getattr(plan, "_numpy_cache", None)
        if cache is None:
            cache = _build_fused_cache(plan)
            plan._numpy_cache = cache
        if keys.dtype != np.uint64:
            # Hash-key API dtype, not an accumulator.
            keys = keys.astype(np.uint64)  # repro: noqa(REP002)
        n = keys.size
        a, f = cache.agms_rows, cache.fagms_rows
        sign_rows, bucket_rows = cache.sign_rows, cache.bucket_rows
        block = max(1, min(n, cache.block))
        buffer = self._workspace(cache.workspace_rows * block)
        scratch_at = sign_rows * block
        hashed_at = scratch_at + cache.scratch_rows * block
        # ±1 signs for the whole-chunk weighted AGMS matmul, not an accumulator.
        agms_signs = (
            np.empty((a, n), dtype=np.int8)  # repro: noqa(REP002)
            if a and weights is not None
            else None
        )
        odd_total = None
        acc = None
        for start in range(0, n, block):
            part = keys[start : start + block]
            m = part.size
            if sign_rows:
                bits = _power_mod_p_k4(
                    cache.poly_coefficients,
                    part,
                    out=_rows(buffer, 0, sign_rows, m),
                    scratch=_rows(buffer, scratch_at, sign_rows + 2, m),
                )
                # Parity bits in place: 1 marks a +1 sign, 0 a −1 sign.
                np.bitwise_and(bits, _ONE, out=bits)
                if agms_signs is not None:
                    agms_signs[:, start : start + m] = bits[:a]
                elif a:
                    odd = bits[:a].sum(axis=1)
                    if odd_total is None:
                        odd_total = odd
                    else:
                        odd_total += odd
            if not bucket_rows:
                continue
            slots = _rows(buffer, scratch_at, bucket_rows, m)
            hashed = _horner_all(
                cache.bucket_coefficients,
                part,
                out=_rows(buffer, hashed_at, bucket_rows, m),
                scratch=slots,
            )
            slots = slots.view(np.int64)
            for lo, hi, buckets in cache.bucket_segments:
                _bucket_reduce(hashed[lo:hi], buckets, out=slots[lo:hi])
            slots += cache.slot_offsets[:, None]
            flat = slots.reshape(-1)
            if weights is None:
                # Sign-split slots over the whole plan: even slot = −1s,
                # odd slot = +1s; unsigned Count-Min rows always land odd.
                np.left_shift(slots, 1, out=slots)
                if f:
                    slots[:f] += bits[a:].view(np.int64)
                slots[f:] += 1
                if acc is None:
                    acc = np.bincount(flat, minlength=2 * cache.total_slots)
                else:
                    np.add.at(acc, flat, 1)
                continue
            part_weights = weights[start : start + m]
            folded = hashed.view(np.float64)
            if f:
                # ±1 = 2·bit − 1, then ±w exactly, as int8 signs × w.
                signs = bits[a:]
                np.left_shift(signs, _ONE, out=signs)
                signs = signs.view(np.int64)
                signs -= 1
                np.multiply(signs, part_weights, out=folded[:f])
            folded[f:] = part_weights
            if acc is None:
                acc = np.bincount(
                    flat, weights=folded.reshape(-1), minlength=cache.total_slots
                )
            else:
                np.add.at(acc, flat, folded.reshape(-1))

        if odd_total is not None:
            deltas = 2.0 * odd_total - np.float64(n)
            for entry, start, stop in cache.agms_entries:
                entry.counters += deltas[start:stop]
        if agms_signs is not None:
            np.left_shift(agms_signs, 1, out=agms_signs)
            agms_signs -= 1
            for entry, start, stop in cache.agms_entries:
                entry.counters += self.sign_dot(
                    agms_signs[start:stop], weights, out=entry.scratch
                )
        if acc is not None:
            if weights is None:
                deltas = acc[0::2]
                np.subtract(acc[1::2], deltas, out=deltas)
            else:
                deltas = acc
            for entry, start, stop in cache.scatter_entries:
                entry.counters += deltas[start:stop].reshape(entry.counters.shape)

        for entry in cache.fallback:
            entry.replay(self, keys, weights)

    def _workspace(self, size: int) -> np.ndarray:
        """The calling thread's flat uint64 workspace, at least *size* long.

        One buffer per thread, grown on demand and kept for the thread's
        lifetime: numpy releases the GIL inside its loops, so threads
        updating their own sketches concurrently must never share one,
        and keeping it per thread rather than per plan bounds the
        memory held by many small sketches.
        """
        buffer = getattr(self._local, "buffer", None)
        if buffer is None or buffer.size < size:
            # Hash values, slots and folded weights, not an accumulator.
            buffer = np.empty(size, dtype=np.uint64)  # repro: noqa(REP002)
            self._local.buffer = buffer
        return buffer


register_backend(NumpyKernelBackend())
