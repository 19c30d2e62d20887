"""Checkpoint codec: streaming state dicts and retained crowds on disk.

A :class:`~repro.inference.streaming.StreamingTruthInference` checkpoint
has two parts with very different shapes, so they get two files:

* the **learned state** — the flat dict :meth:`~repro.inference.streaming.
  StreamingTruthInference.get_state` returns (scalars, None, and float64
  arrays). :func:`save_stream_state` writes it as one flat file, and
  :func:`load_stream_state` takes it back with a single read:

  - an 8-byte magic whose last byte is the format version, then the
    header length as a little-endian u64;
  - a JSON header. ``None``, bools, ints, floats and strings sit in it
    inline; each array has an entry giving its dtype, shape and byte
    offset into the data section;
  - the data section: each array's raw C-order bytes.

  Loading parses the header with :func:`json.loads` and views each array
  with :func:`numpy.frombuffer` over the one writable read buffer — no
  zip archive, no pickle, no per-array header. Everything round-trips
  bit-exactly, which is what makes restored streams replay-identical to
  uninterrupted ones: array bytes are copied verbatim, and JSON writes
  floats with ``repr`` (exact for inf, -0.0 and subnormals). JSON has
  only one ``NaN``, so a NaN scalar is stored by its bit pattern.
* the **retained crowd** — dominated by label triples, so it reuses the
  durable shard format: :func:`save_crowd` writes any crowd container as
  a :class:`~repro.crowd.sharding.SparseLabelShard` header+COO file and
  :func:`load_crowd` densifies it back via
  :meth:`~repro.crowd.sharding.SparseLabelShard.to_matrix`.

Both writers replace their file durably: the bytes go to
``<path>.tmp``, which is fsynced, renamed over ``path``, and then the
directory is fsynced, so when a writer returns the new file survives a
crash, and before that a crash leaves the old file intact. That makes
each file atomic on its own, not a *pair* of files:
:class:`~repro.serving.service.CrowdService` gets one commit point per
checkpoint by naming each crowd file after its cursor and writing the
state file last.
"""

from __future__ import annotations

import json
import math
import os
import struct

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
_VERSION = 1
_PREFIX = struct.Struct("<7sBQ")  # magic, format version, header length
_ALIGN = 64  # the data section and every array in it start 64-byte aligned
_ARRAY_KINDS = "biufc"  # bool, int, uint, float, complex: raw bytes say it all


def save_stream_state(path, state: dict) -> str:
    """Write a ``get_state()`` dict as one flat checkpoint file (durably).

    Values may be None, bools, ints, floats, strings, numpy scalars
    (stored as the matching Python scalar) or numeric/bool numpy arrays.
    Any other value, an object array among them, raises ``TypeError``
    before anything is written.
    """
    path = str(path)
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
    header = json.dumps({"nbytes": end, "state": entries}, separators=(",", ":")).encode()
    header += b" " * (-(_PREFIX.size + len(header)) % _ALIGN)
    tmp = path + ".tmp"
    with open(tmp, "wb") as stream:
        stream.write(_PREFIX.pack(_MAGIC, _VERSION, len(header)))
        stream.write(header)
        written = 0
        for offset, array in arrays:
            stream.write(bytes(offset - written))
            stream.write(array)
            written = offset + array.nbytes
    _replace_durably(tmp, path)
    return path


def load_stream_state(path) -> dict:
    """Read a :func:`save_stream_state` file back into a state dict.

    A file that is not a stream-state file, has another format version,
    or is truncated raises ``ValueError`` naming the file.
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
    magic, version, header_size = _PREFIX.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a stream-state file (bad magic)")
    if version != _VERSION:
        raise ValueError(f"stream-state format version {version} (this build reads {_VERSION})")
    start = _PREFIX.size + header_size
    if start > len(data):
        raise ValueError("truncated stream-state file (header cut short)")
    header = json.loads(data[_PREFIX.size : start])
    if start + header["nbytes"] != len(data):
        raise ValueError(
            f"truncated stream-state file ({len(data) - start} of "
            f"{header['nbytes']} data bytes)"
        )
    state = {}
    for key, value in header["state"].items():
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
    """Write any crowd container as a shard file (durably).

    Accepts whatever :func:`~repro.crowd.sharding.as_sparse_shard` does —
    in the serving layer that is the stream's retained
    :class:`~repro.crowd.types.CrowdLabelMatrix`.
    """
    path = str(path)
    if path.endswith(".npz"):
        # The shard writer switches to an eager zip layout on .npz, and
        # the temp-file suffix below would silently flip it back.
        raise ValueError("crowd checkpoints use the header+COO layout; drop the .npz suffix")
    tmp = path + ".tmp"
    as_sparse_shard(crowd).save(tmp)
    _replace_durably(tmp, path)
    return path


def load_crowd(path) -> CrowdLabelMatrix:
    """Load a :func:`save_crowd` file back into a dense label container."""
    return SparseLabelShard.load(str(path), mmap=False).to_matrix()


def _replace_durably(tmp: str, path: str) -> None:
    """Rename a fully written ``tmp`` over ``path`` so both survive a crash.

    The data is fsynced before the rename, so the new name never points
    at unflushed bytes; the directory is fsynced after it, so the rename
    itself is on disk when this returns.
    """
    _fsync(tmp)
    os.replace(tmp, path)
    _fsync(os.path.dirname(os.path.abspath(path)))


def _fsync(path: str) -> None:
    descriptor = os.open(path, os.O_RDONLY)  # a directory needs a read-only fd
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)
