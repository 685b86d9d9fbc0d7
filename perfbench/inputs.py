"""Seeded benchmark inputs, generated outside the measured process.

Every ``(workload, seed)`` pair owns one directory of stream files plus a
``meta.json`` carrying the sketch seeds and the facts the correctness
checks need (tuple counts, the exact F2 of the shed stream).  Generation
is deterministic in the seed, runs in the `run.py` process so neither
timings nor the measured process's peak RSS include it, and its output
is reused by every later run of the same seed.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np

from repro import zipf_relation
from repro.streams.io import write_stream

#: Bump when the generated content changes, so stale caches are ignored.
INPUT_VERSION = 1

DOMAIN = 1_000_000

#: Tuples per stream file.  Each timed pass re-reads one whole file (the
#: dashboard: the second half of ``a``), so these fix the pass length.
SHED_TUPLES = 2**21  # 128 chunks of 16,384
MICRO_TUPLES = 2**21  # 1,024 chunks of 2,048
DASHBOARD_TUPLES = 2**20  # per stream; ``a``'s second half is 128 chunks of 4,096
POINT_KEYS = 4_096
#: Input directories kept (17 MB each); the least recently used go.
KEEP_INPUTS = 16


def _seeds(seed: int, count: int) -> list:
    """*count* independent 32-bit seeds derived from the workload seed."""
    state = np.random.SeedSequence([INPUT_VERSION, seed]).generate_state(count)
    return [int(value) for value in state]


def _exact_f2(keys: np.ndarray) -> int:
    counts = np.bincount(keys, minlength=DOMAIN).astype(np.int64)
    return int(counts @ counts)


def _generate(workload: str, seed: int, out: Path) -> dict:
    key_seed, other_seed, sketch_seed, shed_seed, pick_seed = _seeds(seed, 5)
    meta = {"workload": workload, "seed": seed, "sketch_seed": sketch_seed}
    if workload == "shed_bulk":
        keys = zipf_relation(SHED_TUPLES, DOMAIN, 1.0, seed=key_seed).keys
        write_stream(out / "stream.rprs", [keys], DOMAIN)
        meta.update(tuples=int(keys.size), exact_f2=_exact_f2(keys),
                    shed_seed=shed_seed)
    elif workload == "micro_native":
        keys = zipf_relation(MICRO_TUPLES, DOMAIN, 1.0, seed=key_seed).keys
        write_stream(out / "stream.rprs", [keys], DOMAIN)
        meta.update(tuples=int(keys.size))
    elif workload == "dashboard":
        a = zipf_relation(DASHBOARD_TUPLES, DOMAIN, 1.0, seed=key_seed).keys
        b = zipf_relation(DASHBOARD_TUPLES, DOMAIN, 1.2, seed=other_seed).keys
        write_stream(out / "a.rprs", [a], DOMAIN)
        write_stream(out / "b.rprs", [b], DOMAIN)
        picks = np.random.default_rng(pick_seed).integers(0, a.size, POINT_KEYS)
        np.save(out / "point_keys.npy", a[picks])
        meta.update(a_tuples=int(a.size), b_tuples=int(b.size))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return meta


def ensure_inputs(root: Path, workload: str, seed: int) -> Path:
    """The input directory for ``(workload, seed)``, generating it once."""
    final = root / f"{workload}-seed{seed}-v{INPUT_VERSION}"
    if not (final / "meta.json").exists():
        staging = root / f".staging-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        try:
            meta = _generate(workload, seed, staging)
            (staging / "meta.json").write_text(json.dumps(meta, indent=1))
            shutil.rmtree(final, ignore_errors=True)
            os.replace(staging, final)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    os.utime(final)  # marks it as used, for the pruning below
    cached = sorted(
        (path for path in root.iterdir() if not path.name.startswith(".")),
        key=lambda path: path.stat().st_mtime,
        reverse=True,
    )
    for stale in cached[KEEP_INPUTS:]:
        shutil.rmtree(stale, ignore_errors=True)
    return final
