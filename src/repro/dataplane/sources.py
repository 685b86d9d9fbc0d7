"""Pipeline sources: anything that can yield sealed :class:`ChunkEnvelope`s.

A source is the head of a :class:`~repro.dataplane.pipeline.Pipeline` —
the only stage that talks to the outside world.  Every source seals its
chunks with :func:`~repro.resilience.runtime.make_envelope` (sequence
number, declared count, CRC32), so delivery faults anywhere downstream
are detected by the pipeline's exactly-once cursor, and a replay after
recovery re-delivers the same sequences for duplicate-skipping.

Shipped sources:

* :class:`IterableSource` — in-memory chunks or pre-sealed envelopes
  (the generalization of :meth:`StreamRuntime.run`'s input contract);
* :class:`FileSource` — a stream file via
  :func:`repro.streams.io.iter_chunks` (``O(1)`` resume from a cursor);
* :class:`SocketSource` — length-prefixed ``int64`` frames from a
  connected socket (see :func:`send_frames` for the writer side).

An in-memory array re-chunks through
``IterableSource(repro.streams.iter_chunks(keys, n))``, which runs once;
wrap the generator in ``list`` when a pipeline must replay it.
"""

from __future__ import annotations

import socket
import struct
from typing import Iterable, Iterator

import numpy as np

from ..errors import ConfigurationError, StreamIntegrityError
from ..resilience.runtime import ChunkEnvelope, make_envelope
from ..streams.io import PathLike, iter_chunks

__all__ = [
    "FileSource",
    "IterableSource",
    "MAX_FRAME_KEYS",
    "SocketSource",
    "Source",
    "send_frames",
]

_FRAME_HEADER = struct.Struct("<Q")

#: Most keys one :class:`SocketSource` frame may declare (a 128 MiB
#: payload); a larger count is rejected before any payload is read.
MAX_FRAME_KEYS = 1 << 24


class Source:
    """Base class for pipeline sources.

    Subclasses implement :meth:`envelopes`; re-iterable sources (file,
    list-backed) may be consumed repeatedly, which is what lets a
    pipeline replay its stream after a recovery.
    """

    #: Stage label used in ``dataplane.stage.*`` metrics.
    name = "source"

    def envelopes(self) -> Iterator[ChunkEnvelope]:
        """Yield the source's stream as sealed envelopes."""
        raise NotImplementedError


class IterableSource(Source):
    """Seal an iterable of raw chunks and/or pre-built envelopes.

    Raw chunks are sealed on the fly with sequence numbers continuing
    from the last envelope seen (starting at *start*) — exactly the
    contract :meth:`StreamRuntime.run` established, so recovered runs
    can mix a sealed replay prefix with a raw tail.

    A re-iterable *items* (a list of chunks) replays from its first
    chunk on every :meth:`envelopes` call, which is what a pipeline
    re-run after a fault needs.  A one-shot iterator (a generator such
    as :func:`repro.streams.iter_chunks`) cannot replay: numbering its
    remainder from *start* would feed fresh chunks under old sequence
    numbers, so a second :meth:`envelopes` call raises
    :class:`~repro.errors.ConfigurationError` instead.
    """

    name = "iterable"

    def __init__(self, items: Iterable, *, start: int = 0) -> None:
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start}")
        self.items = items
        self.start = int(start)
        self._one_shot = iter(items) is items
        self._consumed = False

    def envelopes(self) -> Iterator[ChunkEnvelope]:
        """Yield sealed envelopes, numbering raw chunks sequentially."""
        if self._one_shot:
            if self._consumed:
                raise ConfigurationError(
                    "IterableSource over a one-shot iterator cannot replay "
                    "its stream; pass a list of chunks or a FileSource"
                )
            self._consumed = True
        sequence = self.start
        for item in self.items:
            if isinstance(item, ChunkEnvelope):
                envelope = item
            else:
                envelope = make_envelope(sequence, item)
            sequence = envelope.sequence + 1
            yield envelope


class FileSource(Source):
    """Stream a :mod:`repro.streams.io` file as sealed envelopes.

    *start* / *limit* select a tuple window with an ``O(1)`` seek (no
    re-read of the prefix); *sequence_start* numbers the first envelope,
    so a recovered pipeline can resume mid-file with sequences matching
    its checkpointed cursor.
    """

    name = "file"

    def __init__(
        self,
        path: PathLike,
        chunk_size: int = 65_536,
        *,
        start: int = 0,
        limit=None,
        sequence_start: int = 0,
    ) -> None:
        if sequence_start < 0:
            raise ConfigurationError(
                f"sequence_start must be >= 0, got {sequence_start}"
            )
        self.path = path
        self.chunk_size = int(chunk_size)
        self.start = int(start)
        self.limit = limit
        self.sequence_start = int(sequence_start)

    def envelopes(self) -> Iterator[ChunkEnvelope]:
        """Yield the file window as sealed envelopes (re-iterable)."""
        sequence = self.sequence_start
        for chunk in iter_chunks(
            self.path, self.chunk_size, start=self.start, limit=self.limit
        ):
            yield make_envelope(sequence, chunk)
            sequence += 1


class SocketSource(Source):
    """Read length-prefixed ``int64`` key frames from a connected socket.

    Frame format: an 8-byte little-endian unsigned count, then ``count``
    little-endian ``int64`` keys.  A clean EOF at a frame boundary ends
    the stream; EOF mid-frame, or a count above :data:`MAX_FRAME_KEYS`,
    raises :class:`~repro.errors.StreamIntegrityError`.  The writer side
    is :func:`send_frames`.
    """

    name = "socket"

    def __init__(self, conn: socket.socket, *, start: int = 0) -> None:
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start}")
        self.conn = conn
        self.start = int(start)

    def _read_exact(self, nbytes: int, *, eof_ok: bool) -> bytes:
        parts = []
        got = 0
        while got < nbytes:
            piece = self.conn.recv(nbytes - got)
            if not piece:
                if eof_ok and got == 0:
                    return b""
                raise StreamIntegrityError(
                    f"socket stream truncated mid-frame: wanted {nbytes} bytes, "
                    f"got {got}"
                )
            parts.append(piece)
            got += len(piece)
        return b"".join(parts)

    def envelopes(self) -> Iterator[ChunkEnvelope]:
        """Yield one envelope per received frame until EOF."""
        sequence = self.start
        while True:
            header = self._read_exact(_FRAME_HEADER.size, eof_ok=True)
            if not header:
                return
            (count,) = _FRAME_HEADER.unpack(header)
            if count > MAX_FRAME_KEYS:
                raise StreamIntegrityError(
                    f"socket frame declares {count} keys, above the "
                    f"{MAX_FRAME_KEYS}-key frame limit"
                )
            payload = self._read_exact(8 * count, eof_ok=False) if count else b""
            keys = np.frombuffer(payload, dtype="<i8").astype(np.int64)
            yield make_envelope(sequence, keys)
            sequence += 1


def send_frames(conn: socket.socket, chunks: Iterable) -> int:
    """Write key chunks to a socket in :class:`SocketSource` frame format.

    Returns the number of tuples sent.  The caller owns the socket and
    signals end-of-stream by closing (or shutting down) its write side.
    Each chunk is one frame, so the reader rejects a chunk of more than
    :data:`MAX_FRAME_KEYS` keys.
    """
    sent = 0
    for chunk in chunks:
        keys = np.ascontiguousarray(np.atleast_1d(np.asarray(chunk)), dtype="<i8")
        conn.sendall(_FRAME_HEADER.pack(keys.size) + keys.tobytes())
        sent += int(keys.size)
    return sent
