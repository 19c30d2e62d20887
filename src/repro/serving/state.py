"""Checkpoint codec: streaming state dicts and retained crowds on disk.

A :class:`~repro.inference.streaming.StreamingTruthInference` checkpoint
has two parts with very different shapes, so they get two files:

* the **learned state** — the flat dict :meth:`~repro.inference.streaming.
  StreamingTruthInference.get_state` returns (scalars, None, and float64
  arrays). :func:`save_stream_state` writes it as one flat record, and
  :func:`load_stream_state` takes it back with a single read:

  - a 24-byte prefix: an 8-byte magic whose last byte is the format
    version, then the header length and the data length as
    little-endian u64s;
  - a JSON header. ``None``, bools, ints, floats and strings sit in it
    inline; each array has an entry giving its dtype, shape and byte
    offset into the data section;
  - the data section: each array's raw C-order bytes;
  - the CRC-32 of everything before it, as a little-endian u32.

  Loading checks the record's length and CRC before it parses the
  header, so a record torn at any byte, or with any byte changed, raises
  instead of decoding. It then parses the header with :func:`json.loads`
  and views each array with :func:`numpy.frombuffer` over the one
  writable read buffer — no zip archive, no pickle, no per-array header.
  Everything round-trips bit-exactly, which is what makes restored
  streams replay-identical to uninterrupted ones: array bytes are copied
  verbatim, and JSON writes floats with ``repr`` (exact for inf, -0.0
  and subnormals). JSON has only one ``NaN``, so a NaN scalar is stored
  by its bit pattern.
* the **retained crowd** — dominated by label triples, so it reuses the
  durable shard format: :func:`save_crowd` writes any crowd container as
  a :class:`~repro.crowd.sharding.SparseLabelShard` header+COO file and
  :func:`load_crowd` densifies it back via
  :meth:`~repro.crowd.sharding.SparseLabelShard.to_matrix`.

Both writers overwrite their file in place: the bytes go through
``os.pwrite`` from offset 0, the file is cut to the record's length and
fsynced, and a file the write created also has its directory fsynced.
No temp file is written, renamed or deleted, so a checkpoint frees no
disk blocks — on a filesystem that discards freed blocks online, freeing
them costs far more than the writes. When a writer returns, the new
record survives a crash; before that the file may hold any mix of the
old and the new bytes. :class:`~repro.serving.service.CrowdService`
therefore keeps two slot pairs per dataset and writes only into the one
that does not hold the newest commit, whose state record's CRC tells a
finished write from a torn one.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

from ..crowd.sharding import SparseLabelShard, as_sparse_shard
from ..crowd.types import CrowdLabelMatrix

__all__ = [
    "save_stream_state",
    "load_stream_state",
    "save_crowd",
    "load_crowd",
]

_MAGIC = b"LNCLSTA"
_VERSION = 2
_PREFIX = struct.Struct("<7sBQQ")  # magic, format version, header length, data length
_CRC = struct.Struct("<I")  # CRC-32 of the prefix, header and data
_ALIGN = 64  # the data section and every array in it start 64-byte aligned
_ARRAY_KINDS = "biufc"  # bool, int, uint, float, complex: raw bytes say it all


def save_stream_state(path, state: dict) -> str:
    """Overwrite ``path`` in place with a ``get_state()`` dict (durably).

    Values may be None, bools, ints, floats, strings, numpy scalars
    (stored as the matching Python scalar) or numeric/bool numpy arrays.
    Any other value, an object array among them, raises ``TypeError``
    before anything is written.
    """
    entries: dict = {}
    arrays = []
    end = 0
    for key, value in state.items():
        if not isinstance(key, str):
            raise TypeError(f"state keys must be strings, got {key!r}")
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, np.ndarray):
            if value.dtype.kind not in _ARRAY_KINDS:
                raise TypeError(
                    f"state key {key!r}: {value.dtype} arrays cannot be checkpointed "
                    "(numeric and bool arrays only)"
                )
            array = np.asarray(value, order="C")  # keeps 0-d arrays 0-d
            offset = end + (-end % _ALIGN)
            entries[key] = {"dtype": array.dtype.str, "shape": array.shape, "offset": offset}
            arrays.append((offset, array))
            end = offset + array.nbytes
        elif isinstance(value, float) and math.isnan(value):
            entries[key] = {"nan": struct.pack("<d", value).hex()}
        elif value is None or isinstance(value, (bool, int, float, str)):
            entries[key] = value
        else:
            raise TypeError(
                f"state key {key!r}: cannot checkpoint a {type(value).__name__} value"
            )
    header = json.dumps(entries, separators=(",", ":")).encode()
    header += b" " * (-(_PREFIX.size + len(header)) % _ALIGN)
    chunks = [_PREFIX.pack(_MAGIC, _VERSION, len(header), end) + header]
    written = 0
    for offset, array in arrays:
        chunks += [bytes(offset - written), array]  # alignment gap, then the raw bytes
        written = offset + array.nbytes
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return _write_in_place(path, [*chunks, _CRC.pack(crc)])


def load_stream_state(path) -> dict:
    """Read a :func:`save_stream_state` file back into a state dict.

    A file that is not a stream-state file, has another format version,
    is cut short or runs on past its record, or fails its CRC raises
    ``ValueError`` naming the file.
    """
    path = str(path)
    with open(path, "rb") as stream:
        data = bytearray(os.fstat(stream.fileno()).st_size)
        del data[stream.readinto(data) :]
    try:
        return _decode(data)
    except (KeyError, TypeError, ValueError, struct.error) as error:
        raise ValueError(f"{path}: {error}") from None


def _decode(data: bytearray) -> dict:
    if len(data) < _PREFIX.size:
        raise ValueError(f"truncated stream-state file ({len(data)} bytes)")
    magic, version, header_size, data_size = _PREFIX.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a stream-state file (bad magic)")
    if version != _VERSION:
        raise ValueError(f"stream-state format version {version} (this build reads {_VERSION})")
    start = _PREFIX.size + header_size
    end = start + data_size
    if len(data) != end + _CRC.size:
        raise ValueError(
            f"stream-state file holds {len(data)} bytes but its record "
            f"{end + _CRC.size} (torn or truncated)"
        )
    if zlib.crc32(memoryview(data)[:end]) != _CRC.unpack_from(data, end)[0]:
        raise ValueError("stream-state record fails its CRC (torn or damaged)")
    state = {}
    for key, value in json.loads(data[_PREFIX.size : start]).items():
        if isinstance(value, dict):
            if "nan" in value:
                value = struct.unpack("<d", bytes.fromhex(value["nan"]))[0]
            else:
                shape = tuple(value["shape"])
                value = np.frombuffer(
                    data, dtype=np.dtype(value["dtype"]), count=math.prod(shape),
                    offset=start + value["offset"],
                ).reshape(shape)
        state[key] = value
    return state


def save_crowd(path, crowd) -> str:
    """Write any crowd container over ``path`` as a shard file (durably).

    Accepts whatever :func:`~repro.crowd.sharding.as_sparse_shard` does —
    in the serving layer that is the stream's retained
    :class:`~repro.crowd.types.CrowdLabelMatrix`.
    """
    return _write_in_place(path, as_sparse_shard(crowd).file_chunks())


def load_crowd(path) -> CrowdLabelMatrix:
    """Load a :func:`save_crowd` file back into a dense label container.

    A file that is not a complete shard file raises ``ValueError`` naming
    it (see :meth:`~repro.crowd.sharding.SparseLabelShard.load`).
    """
    return SparseLabelShard.load(str(path), mmap=False).to_matrix()


def _write_in_place(path, chunks) -> str:
    """Write ``chunks`` over ``path`` from offset 0, cut it there, and fsync it.

    The file is opened without ``O_TRUNC`` and never renamed or deleted,
    so an existing file keeps its blocks. A file this call created also
    has its directory fsynced, so its name is as durable as its bytes.
    """
    path = str(path)
    created = not os.path.exists(path)
    # 0o666 is open()'s default mode; the umask applies.
    descriptor = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
    try:
        offset = 0
        for chunk in chunks:
            view = memoryview(chunk)
            if not view.nbytes:
                continue  # an empty array: nothing to write, and no byte view of it
            view = view.cast("B")
            while view:
                written = os.pwrite(descriptor, view, offset)
                offset += written
                view = view[written:]
        os.ftruncate(descriptor, offset)
        os.fsync(descriptor)
    finally:
        os.close(descriptor)
    if created:
        _fsync_directory(os.path.dirname(os.path.abspath(path)))
    return path


def _fsync_directory(path) -> None:
    descriptor = os.open(path, os.O_RDONLY)  # a directory needs a read-only fd
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)
