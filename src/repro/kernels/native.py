"""The native kernel backend: the fused update compiled on demand.

This backend is the reference backend's arithmetic with the update path
compiled.  For each sketch kind with polynomial hashing, one C kernel
computes a key's bucket index and ±1 sign while the key sits in a
register and scatters at once, so the ``(rows, n)`` index and sign
matrices the numpy path materializes (and re-reads) never exist — the
one-pass batching :mod:`repro.kernels.fused` credits to arXiv
1709.04048.  There are three: F-AGMS (bucket and fourwise sign),
Count-Min (bucket only) and unweighted AGMS (per-row ±1 sums counted in
registers).  The kernels also accept ``int32`` / ``uint32`` keys
directly (widened block-wise in L1), halving key traffic for narrow
domains.  Every sketch's ``update()`` is a one-entry plan, so this is
the native update path.

Everything else is borrowed.  Hashing, ``gather`` and the AGMS sign
reductions come from :class:`NumpyKernelBackend`, whose values are the
same on every backend.  The entries :meth:`~NativeKernelBackend.fused_update`
cannot run in C — EH3-signed sketches and the weighted AGMS reduction —
are replayed through the separate-path primitives, and their scatter is
:class:`ReferenceKernelBackend`'s per-row ``np.add.at``.

Each plan's calls are bound once, at its first native update: the C
entry point and its constant pointer arguments (hash coefficients,
counters) are converted and cached on the plan, so a chunk pays for one
key address and one ctypes call per sketch.  Those pointers are live
addresses into the sketches' arrays — rebinding a sketch's counter
storage invalidates every plan built before it, which is why a sketch
drops its cached plan when it adopts new storage and never pickles or
copies it.

The library is built lazily, at most once per process, from the C source
embedded below: the source is written to a private temporary directory
and compiled with the system C compiler (``$CC`` or ``cc``) into a
shared object loaded through :mod:`ctypes`.  Nothing is cached across
processes and no artifacts touch the working tree.  If no compiler is
available the build fails softly: the backend stays registered (so it is
listed and produces a clear :class:`~repro.errors.ConfigurationError`
when activated) and :func:`native_available` reports ``False`` so tests
and benchmarks can skip it.

Bit-identity: the C code computes the *canonical* residue mod
``p = 2³¹ − 1`` — the value every backend's hash families produce —
buckets with the same power-of-two mask (and Lemire's exact mul-shift
modulus otherwise), and accumulates scatter deltas element by element
in stream order, the order of the reference backend's ``np.add.at``.
With that scatter borrowed for the replayed entries too, every native
counter matches the reference backend bit for bit, for *any* weights,
not just integer-valued ones.  (The numpy backend's ``bincount``
regroups the additions per bucket, so its weighted float sums may
differ in the last bits.)
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile
from ctypes import POINTER, c_double, c_int64, c_uint64, c_void_p
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from .backend import register_backend
from .numpy_backend import NumpyKernelBackend
from .reference import ReferenceKernelBackend

__all__ = [
    "NativeKernelBackend",
    "native_available",
    "native_build_error",
]

_C_SOURCE = r"""
#include <stdint.h>

#define P31 2147483647ULL /* the Mersenne prime 2^31 - 1 */

/* One lazy fold: congruent mod P31 (2^31 = 1 mod P31), shrinks the value. */
static inline uint64_t fold31(uint64_t v) {
    return (v & P31) + (v >> 31);
}

/* Canonical residue from a lazily-folded value < 2^34. */
static inline uint64_t canon31(uint64_t v) {
    v = fold31(fold31(v));
    return v >= P31 ? v - P31 : v;
}

/* One Horner step with a single fold.  Entering with acc < 3 * 2^32 the
 * product acc * x + c stays below 2^64 (x < 2^31) and the fold returns
 * a value < 2^31 + acc/2 + 1 — so for polynomials up to degree 3
 * (k <= 4, all the sketch families) one fold per step suffices. */
static inline uint64_t step31(uint64_t acc, uint64_t x, uint64_t c) {
    return fold31(acc * x + c);
}

/* Fully-unrolled single-fold Horner for the small k the hash families
 * use (bucket hashes are k=2, fourwise signs k=4): straight-line code,
 * so the compiler can vectorize the key loop (8-wide vpmullq with
 * AVX-512DQ). */
static inline uint64_t horner31_k2(const uint64_t *c, uint64_t x) {
    return canon31(step31(c[0], x, c[1]));
}
static inline uint64_t horner31_k4(const uint64_t *c, uint64_t x) {
    return canon31(step31(step31(step31(c[0], x, c[1]), x, c[2]), x, c[3]));
}

/* Keys run in blocks: a block's widened keys, bucket indices and signs
 * stay in L1 until its scatter has read them. */
#define BLOCK 2048

/* Fused entry points take keys as 8-byte canonical uint64 or, on the
 * int32 fast path, 4-byte non-negative values widened block-wise here
 * (the block stays in L1, so the widening is free relative to DRAM). */
static inline const uint64_t *load_keys(const void *keys, int64_t kwidth,
                                        int64_t start, int64_t m,
                                        uint64_t *buf) {
    if (kwidth == 8) {
        return (const uint64_t *)keys + start;
    }
    {
        const uint32_t *narrow = (const uint32_t *)keys + start;
        int64_t i;
        for (i = 0; i < m; i++) buf[i] = (uint64_t)narrow[i];
    }
    return buf;
}

/* ------------------------------------------------------------------
 * Fused kernels: hash and accumulate per key while it is in a register
 * — no (rows, n) index/sign matrices are materialized.  Each matches
 * the reference backend bit for bit: canonical residues, bucket index
 * h % buckets, and the per-row stream order of its np.add.at scatter.
 *
 * Buckets: a mask when the count is a power of two, else Lemire's exact
 * mul-shift modulus — for 32-bit h and b,
 * h % b == (uint64)(((__uint128_t)(h * M) * b) >> 64)
 * with M = 2^64 / b rounded up.  Both operands are < 2^31.
 * ------------------------------------------------------------------ */

/* Unweighted AGMS: per row, sum(+/-1 signs) == 2 * #odd - n, counted in
 * registers.  The int64 count is exact, so adding it to the float64
 * counter matches the separate sign_sum path bit for bit. */
void repro_fused_agms(const uint64_t *coeffs, int64_t rows, const void *keys,
                      int64_t kwidth, int64_t n, int64_t *rowsums) {
    for (int64_t r = 0; r < rows; r++) {
        const uint64_t *c = coeffs + 4 * r;
        uint64_t kbuf[BLOCK];
        int64_t odd = 0;
        for (int64_t start = 0; start < n; start += BLOCK) {
            int64_t m = n - start < BLOCK ? n - start : BLOCK;
            const uint64_t *kb = load_keys(keys, kwidth, start, m, kbuf);
            for (int64_t i = 0; i < m; i++) {
                odd += (int64_t)(horner31_k4(c, kb[i]) & 1);
            }
        }
        rowsums[r] = 2 * odd - n;
    }
}

/* F-AGMS: bucket index (k=2) and sign (k=4) per key in one pass, then a
 * stream-order scatter over the L1-resident block. */
void repro_fused_signed(const uint64_t *bcoeffs, const uint64_t *scoeffs,
                        int64_t rows, const void *keys, int64_t kwidth,
                        int64_t n, int64_t buckets, double *counters,
                        const double *weights) {
    uint64_t b = (uint64_t)buckets;
    int pow2 = (b & (b - 1)) == 0;
    uint64_t mask = b - 1;
    uint64_t M = UINT64_MAX / b + 1;
    for (int64_t r = 0; r < rows; r++) {
        const uint64_t *bc = bcoeffs + 2 * r;
        const uint64_t *sc = scoeffs + 4 * r;
        double *c = counters + r * buckets;
        uint64_t kbuf[BLOCK];
        int64_t idx[BLOCK];
        int8_t sg[BLOCK];
        for (int64_t start = 0; start < n; start += BLOCK) {
            int64_t m = n - start < BLOCK ? n - start : BLOCK;
            const uint64_t *kb = load_keys(keys, kwidth, start, m, kbuf);
            int64_t i;
            if (pow2) {
                for (i = 0; i < m; i++) {
                    uint64_t x = kb[i];
                    idx[i] = (int64_t)(horner31_k2(bc, x) & mask);
                    sg[i] = (int8_t)(((horner31_k4(sc, x) & 1) << 1) - 1);
                }
            } else {
                for (i = 0; i < m; i++) {
                    uint64_t x = kb[i];
                    uint64_t low = horner31_k2(bc, x) * M;
                    idx[i] = (int64_t)((uint64_t)(((__uint128_t)low * b) >> 64));
                    sg[i] = (int8_t)(((horner31_k4(sc, x) & 1) << 1) - 1);
                }
            }
            if (weights) {
                const double *w = weights + start;
                for (i = 0; i < m; i++) c[idx[i]] += (double)sg[i] * w[i];
            } else {
                for (i = 0; i < m; i++) c[idx[i]] += (double)sg[i];
            }
        }
    }
}

/* Count-Min: like the signed kernel without the sign hash. */
void repro_fused_unsigned(const uint64_t *bcoeffs, int64_t rows,
                          const void *keys, int64_t kwidth, int64_t n,
                          int64_t buckets, double *counters,
                          const double *weights) {
    uint64_t b = (uint64_t)buckets;
    int pow2 = (b & (b - 1)) == 0;
    uint64_t mask = b - 1;
    uint64_t M = UINT64_MAX / b + 1;
    for (int64_t r = 0; r < rows; r++) {
        const uint64_t *bc = bcoeffs + 2 * r;
        double *c = counters + r * buckets;
        uint64_t kbuf[BLOCK];
        int64_t idx[BLOCK];
        for (int64_t start = 0; start < n; start += BLOCK) {
            int64_t m = n - start < BLOCK ? n - start : BLOCK;
            const uint64_t *kb = load_keys(keys, kwidth, start, m, kbuf);
            int64_t i;
            if (pow2) {
                for (i = 0; i < m; i++) {
                    idx[i] = (int64_t)(horner31_k2(bc, kb[i]) & mask);
                }
            } else {
                for (i = 0; i < m; i++) {
                    uint64_t low = horner31_k2(bc, kb[i]) * M;
                    idx[i] = (int64_t)((uint64_t)(((__uint128_t)low * b) >> 64));
                }
            }
            if (weights) {
                const double *w = weights + start;
                for (i = 0; i < m; i++) c[idx[i]] += w[i];
            } else {
                for (i = 0; i < m; i++) c[idx[i]] += 1.0;
            }
        }
    }
}
"""

_U64P = POINTER(c_uint64)
_I64P = POINTER(c_int64)
_F64P = POINTER(c_double)

_lib: Optional[ctypes.CDLL] = None
_build_error: Optional[str] = None


def _declare(lib: ctypes.CDLL) -> None:
    """Attach argtypes so ctypes checks the call signatures."""
    lib.repro_fused_agms.argtypes = [
        _U64P, c_int64, c_void_p, c_int64, c_int64, _I64P,
    ]
    lib.repro_fused_agms.restype = None
    # Fused kernels take the per-chunk key and weight buffers as raw
    # addresses (see _bind_entry): converting an int is far cheaper than
    # building a typed pointer object on every chunk.
    lib.repro_fused_signed.argtypes = [
        _U64P, _U64P, c_int64, c_void_p, c_int64, c_int64, c_int64, _F64P,
        c_void_p,
    ]
    lib.repro_fused_signed.restype = None
    lib.repro_fused_unsigned.argtypes = [
        _U64P, c_int64, c_void_p, c_int64, c_int64, c_int64, _F64P, c_void_p,
    ]
    lib.repro_fused_unsigned.restype = None


def _build() -> ctypes.CDLL:
    """Compile the embedded C source in a private temp dir and load it.

    The directory is removed once the library is loaded (a loaded shared
    object stays mapped after its file is unlinked), and after a failed
    build too, so no build leaves files behind.
    """
    with tempfile.TemporaryDirectory(prefix="repro-kernels-") as build_dir:
        source = Path(build_dir) / "repro_kernels.c"
        source.write_text(_C_SOURCE)
        shared = Path(build_dir) / "repro_kernels.so"
        compiler = os.environ.get("CC", "cc")
        base = [compiler, "-O3", "-fPIC", "-shared", "-o", str(shared), str(source)]
        # -march=native lets the compiler vectorize the straight-line
        # Horner loops (8-wide 64-bit multiplies with AVX-512DQ); drop it
        # when the local toolchain rejects it — the portable compile is
        # the floor.
        proc = None
        for extra in (["-march=native"], []):
            proc = subprocess.run(
                base[:1] + extra + base[1:], capture_output=True, text=True
            )
            if proc.returncode == 0:
                break
        if proc is None or proc.returncode != 0:
            detail = proc.stderr.strip() or proc.stdout.strip() or "no diagnostics"
            raise OSError(f"{' '.join(base)} failed: {detail}")
        lib = ctypes.CDLL(str(shared))
    _declare(lib)
    return lib


def _library() -> ctypes.CDLL:
    """The compiled library, building it on first use (once per process)."""
    global _lib, _build_error
    if _lib is None and _build_error is None:
        try:
            _lib = _build()
        except OSError as exc:
            _build_error = str(exc)
    if _lib is None:
        raise ConfigurationError(
            f"native kernel backend unavailable: {_build_error}"
        )
    return _lib


def native_available() -> bool:
    """Whether the compiled backend can be built and loaded on this machine."""
    try:
        _library()
    except ConfigurationError:
        return False
    return True


def native_build_error() -> Optional[str]:
    """The build failure message, or ``None`` if the library loaded."""
    try:
        _library()
    except ConfigurationError:
        return _build_error
    return None


def _u64(array: np.ndarray):
    return array.ctypes.data_as(_U64P)


def _counter_pointer(counters: np.ndarray):
    """Pointer to the counter matrix, which the C side mutates in place."""
    if not counters.flags.c_contiguous:
        raise ConfigurationError(
            "native backend needs C-contiguous counters; got a strided view"
        )
    return counters.ctypes.data_as(_F64P)


def _bind_entry(lib: ctypes.CDLL, entry):
    """*entry*'s single-pass C kernel with its constant arguments bound.

    Returns ``run(keys, kwidth, n, weights)``, taking the chunk's key and
    weight buffers as raw addresses (``weights`` is ``None`` when
    unweighted; the AGMS kernel takes none), or ``None`` when the entry
    has no single-pass kernel (non-fourwise signs).  The coefficient and
    counter pointers are converted here, once per plan; they are live
    addresses, valid only while the entry's arrays are.
    """
    rows, buckets = entry.rows, entry.buckets
    if entry.kind == "countmin":
        kernel = lib.repro_fused_unsigned
        bcoeffs = _u64(np.ascontiguousarray(entry.bucket_coefficients))
        counters = _counter_pointer(entry.counters)

        def run(keys, kwidth, n, weights):
            kernel(bcoeffs, rows, keys, kwidth, n, buckets, counters, weights)

        return run
    signs = entry.sign_coefficients
    if entry.sign_kind != "poly" or signs is None or signs.shape[1] != 4:
        return None
    scoeffs = _u64(np.ascontiguousarray(signs))
    if entry.kind == "fagms":
        kernel = lib.repro_fused_signed
        bcoeffs = _u64(np.ascontiguousarray(entry.bucket_coefficients))
        counters = _counter_pointer(entry.counters)

        def run(keys, kwidth, n, weights):
            kernel(bcoeffs, scoeffs, rows, keys, kwidth, n, buckets, counters, weights)

        return run
    # Unweighted AGMS: per-row ±1 sums counted in registers.  The int64
    # count is exact, so adding it to the float64 counters matches the
    # replayed sign_sum bit for bit.
    kernel = lib.repro_fused_agms
    rowsums = np.empty(rows, dtype=np.int64)
    out = rowsums.ctypes.data_as(_I64P)

    def run(keys, kwidth, n, weights):
        kernel(scoeffs, rows, keys, kwidth, n, out)
        entry.counters += rowsums.astype(np.float64)

    return run


class NativeKernelBackend(NumpyKernelBackend):
    """The compiled fused update over the reference backend's arithmetic.

    Hashing, ``gather`` and the AGMS sign reductions are the numpy
    backend's; the scatter for the entries :meth:`fused_update` replays
    is the reference backend's, which adds in the C kernels' stream
    order.  Activate with ``set_backend("native")`` or
    ``REPRO_KERNEL_BACKEND=native``; activation raises
    :class:`~repro.errors.ConfigurationError` when no C compiler is
    available (see :func:`native_available`).
    """

    name = "native"

    #: Fused kernels widen int32/uint32 keys block-wise in C (see
    #: :func:`repro.kernels.fused.fused_update`).
    fused_accepts_int32 = True

    scatter_add = ReferenceKernelBackend.scatter_add
    signed_scatter_add = ReferenceKernelBackend.signed_scatter_add

    def fused_update(self, plan, keys: np.ndarray, weights=None) -> None:
        """Per-sketch single-pass C kernels over one prepared key batch.

        Polynomial-family entries run fully in C (no intermediate
        index/sign matrices); EH3-signed entries and the weighted AGMS
        reduction are replayed through the separate-path primitives
        (numpy hashing and sign reductions, the reference scatter),
        which every C kernel matches bit for bit.  Each entry's kernel
        and constant pointer arguments are bound at the plan's first
        native use (:func:`_bind_entry`) and cached on it as
        ``_native_cache`` — as the numpy backend caches its stacking
        layout — so a chunk converts only its key and weight addresses.
        """
        calls = getattr(plan, "_native_cache", None)
        if calls is None:
            lib = _library()
            calls = tuple((entry, _bind_entry(lib, entry)) for entry in plan.entries)
            plan._native_cache = calls
        n = keys.size
        kwidth = keys.dtype.itemsize
        if kwidth not in (4, 8):
            # Hash keys, not an accumulator: the C side reads 4 or 8 bytes.
            keys = keys.astype(np.uint64)  # repro: noqa(REP002)
            kwidth = 8
        key_address = keys.ctypes.data
        weight_address = None
        if weights is not None:
            weights = np.ascontiguousarray(weights)
            weight_address = weights.ctypes.data
        wide: Optional[np.ndarray] = None
        for entry, run in calls:
            # The AGMS kernel only counts unweighted signs.
            if run is not None and (weights is None or entry.kind != "agms"):
                run(key_address, kwidth, n, weight_address)
                continue
            if wide is None:
                # Canonical uint64 view for the replayed entries,
                # built at most once per call.
                if keys.dtype == np.uint64:
                    wide = keys
                elif keys.dtype == np.int64:
                    wide = keys.view(np.uint64)
                else:
                    # Hash keys, not an accumulator.
                    wide = keys.astype(np.uint64)  # repro: noqa(REP002)
            entry.replay(self, wide, weights)


register_backend(NativeKernelBackend())
