"""Saving and loading sketches.

A sketch is a pair (random families, counters).  The families are fully
determined by the construction seed, so persisting a sketch means storing
the constructor parameters, the root seed entropy, and the counter array.
Two processes that load the same file obtain *compatible* sketches — they
can be merged and their inner products are meaningful — which is the whole
point of sketch linearity in distributed settings (each site sketches its
own partition, a coordinator merges).

Format: a single ``.npz`` with a JSON-encoded header plus the counters.

Loading validates everything before any state is constructed: the archive
must open, the header must decode as JSON with the required fields of the
right types, and the counters must be finite and match the shape/dtype the
header implies.  Every violation raises :class:`~repro.errors.SerializationError`
(a :class:`~repro.errors.ConfigurationError` subclass) instead of an opaque
``KeyError``/``BadZipFile``/numpy broadcast error — truncated or tampered
files fail loudly and typed.  The steps are exposed as :func:`sketch_header`
/ :func:`build_sketch` / :func:`restore_sketch`, so the engine's and stream
runtime's checkpoints embed sketches in the same format and counter check.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import SerializationError
from .agms import AgmsSketch
from .base import Sketch
from .countmin import CountMinSketch
from .fagms import FagmsSketch

__all__ = [
    "save_sketch",
    "load_sketch",
    "sketch_header",
    "build_sketch",
    "restore_sketch",
]

_FORMAT_VERSION = 1

#: Required header fields and the types their JSON values must carry.
_REQUIRED_FIELDS = {
    "version": int,
    "type": str,
    "rows": int,
    "seed_entropy": list,
}


def sketch_header(sketch: Sketch) -> dict:
    """JSON-serializable description of a sketch's families and shape.

    Together with the counter array returned by ``sketch._state()`` this
    fully determines the sketch; :func:`build_sketch` inverts it.
    """
    header = {
        "version": _FORMAT_VERSION,
        "type": type(sketch).__name__,
        "rows": sketch.rows,
        "seed_entropy": _encode_entropy(sketch.seed_entropy),
        "spawn_key": [int(k) for k in getattr(sketch, "seed_spawn_key", ())],
    }
    if isinstance(sketch, (AgmsSketch, FagmsSketch)):
        header["sign_family"] = sketch.sign_family
        header["combine"] = sketch.combine
        header["groups"] = sketch.groups
    if isinstance(sketch, (FagmsSketch, CountMinSketch)):
        header["buckets"] = sketch.buckets
    return header


def _encode_entropy(entropy) -> list:
    if entropy is None:
        raise SerializationError("sketch has no stored seed entropy")
    if isinstance(entropy, int):
        return [entropy]
    return [int(e) for e in entropy]


def _decode_entropy(values: list) -> Union[int, tuple]:
    if len(values) == 1:
        return values[0]
    return tuple(values)


def _require(header: dict, field: str, kind: type):
    """Fetch a typed header field, raising a typed error when absent/wrong."""
    if field not in header:
        raise SerializationError(f"sketch header is missing field {field!r}")
    value = header[field]
    # bool is an int subclass; reject it for integer fields explicitly.
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SerializationError(
            f"sketch header field {field!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _validate_header(header: dict) -> None:
    if not isinstance(header, dict):
        raise SerializationError(
            f"sketch header must be an object, got {type(header).__name__}"
        )
    for field, kind in _REQUIRED_FIELDS.items():
        _require(header, field, kind)
    if header["version"] != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported sketch file version {header['version']!r}"
        )
    entropy = header["seed_entropy"]
    if not entropy or not all(
        isinstance(e, int) and not isinstance(e, bool) for e in entropy
    ):
        raise SerializationError("sketch header seed_entropy must be a list of ints")
    if header["rows"] < 1:
        raise SerializationError(f"sketch header rows must be >= 1, got {header['rows']}")


def build_sketch(header: dict) -> Sketch:
    """Reconstruct a zeroed sketch (families only) from a header dict.

    The header is fully validated; any structural problem raises
    :class:`~repro.errors.SerializationError`.  Counters are left at zero;
    :func:`restore_sketch` fills them from a checked payload.
    """
    _validate_header(header)
    seed = np.random.SeedSequence(
        _decode_entropy(header["seed_entropy"]),
        spawn_key=tuple(header.get("spawn_key", ())),
    )
    sketch_type = header["type"]
    if sketch_type == "AgmsSketch":
        return AgmsSketch(
            header["rows"],
            seed,
            sign_family=_require(header, "sign_family", str),
            combine=_require(header, "combine", str),
            groups=_require(header, "groups", int),
        )
    if sketch_type == "FagmsSketch":
        return FagmsSketch(
            _require(header, "buckets", int),
            header["rows"],
            seed,
            sign_family=_require(header, "sign_family", str),
            combine=_require(header, "combine", str),
            groups=_require(header, "groups", int),
        )
    if sketch_type == "CountMinSketch":
        return CountMinSketch(_require(header, "buckets", int), header["rows"], seed)
    raise SerializationError(f"unknown sketch type {sketch_type!r}")


def restore_sketch(header: dict, counters) -> Sketch:
    """Rebuild a sketch from its header and counters: every restore's check.

    :func:`load_sketch` and the engine's and stream runtime's checkpoint
    restores all call it.  *counters* must be finite real numbers of the
    shape the header implies; any violation, like any header problem,
    raises :class:`~repro.errors.SerializationError`.
    """
    sketch = build_sketch(header)
    counters = np.asarray(counters)
    expected = sketch._state().shape
    if counters.shape != expected:
        raise SerializationError(
            f"counter shape {counters.shape} does not match the header's {expected}"
        )
    dtype = counters.dtype
    if not np.issubdtype(dtype, np.number) or np.issubdtype(dtype, np.complexfloating):
        raise SerializationError(f"counters have non-numeric dtype {dtype}")
    if not np.isfinite(counters).all():
        raise SerializationError("counters are not finite")
    sketch.load_counters(counters)
    return sketch


def save_sketch(sketch: Sketch, path) -> None:
    """Persist *sketch* (families + counters) to an ``.npz`` file."""
    path = Path(path)
    np.savez(
        path,
        header=np.frombuffer(
            json.dumps(sketch_header(sketch)).encode("utf-8"), dtype=np.uint8
        ),
        counters=sketch._state(),
    )


def load_sketch(path) -> Sketch:
    """Load a sketch saved by :func:`save_sketch`.

    The reconstructed sketch is byte-identical in state and *compatible*
    (same families) with the original and with any sketch built from the
    same seed.  Truncated, tampered, or otherwise malformed files raise
    :class:`~repro.errors.SerializationError`.
    """
    path = Path(path)
    try:
        # np.load leaks the handle it opens when the archive is unreadable.
        with open(path, "rb") as handle, np.load(handle) as data:
            if "header" not in data or "counters" not in data:
                raise SerializationError(
                    f"{path} is not a sketch file (missing header/counters entries)"
                )
            raw_header = bytes(data["header"])
            counters = data["counters"]
    except (
        OSError,
        zipfile.BadZipFile,
        ValueError,
        EOFError,
        KeyError,
        # corrupt zip directory fields surface as NotImplementedError
        NotImplementedError,
    ) as exc:
        if isinstance(exc, SerializationError):
            raise
        raise SerializationError(f"cannot read sketch file {path}: {exc}") from exc
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"sketch file {path} has an undecodable header: {exc}"
        ) from exc
    return restore_sketch(header, counters)
