"""Binary snapshots of an :class:`EncodedGraph` for instant warm starts.

A snapshot persists the term dictionary and the id-encoded triples of a
graph in a compact struct/array-packed binary format.  Loading rebuilds
the SPO / POS / OSP indexes directly from integer ids — no text parsing,
no ``Term`` materialisation (decoding stays lazy) — so a large workload
graph restarts in a fraction of the original load time.

Format (all integers little-endian)::

    8 bytes   magic  b"RSPSNAP1"
    u32       number of dictionary entries
    per entry u8 kind tag, then
                kind 0 (IRI):      u32 length + utf-8 value
                kind 1 (bnode):    u32 length + utf-8 label
                kind 2 (literal):  u8 flags (1 = datatype, 2 = language),
                                   u32+utf-8 lexical,
                                   [u32+utf-8 datatype], [u32+utf-8 language]
    u64       number of triples
    u64 * 3n  flat (sid, pid, oid) id stream

The dictionary section preserves ids for *every* interned term, including
terms no longer used by any triple, so ids stay stable across a
save/load round trip.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from typing import BinaryIO, Union

from repro.store.dictionary import (
    KIND_BLANK,
    KIND_IRI,
    KIND_LITERAL,
    TermDictionary,
    _KIND_MASK,
    _KIND_SHIFT,
    _literal_key,
)
from repro.store.encoded import EncodedGraph

MAGIC = b"RSPSNAP1"

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_FLAG_DATATYPE = 1
_FLAG_LANGUAGE = 2


class SnapshotError(ValueError):
    """Raised when a snapshot stream is malformed or truncated."""


def _write_string(buffer: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    buffer += _U32.pack(len(data))
    buffer += data


def _dump_dictionary(dictionary: TermDictionary, buffer: bytearray) -> None:
    keys = dictionary._keys
    kinds = dictionary._kinds
    buffer += _U32.pack(len(keys))
    for key, kind in zip(keys, kinds):
        buffer += _U8.pack(kind)
        if kind == KIND_LITERAL:
            lexical, datatype_value, language = key
            flags = (_FLAG_DATATYPE if datatype_value is not None else 0) | (
                _FLAG_LANGUAGE if language is not None else 0
            )
            buffer += _U8.pack(flags)
            _write_string(buffer, lexical)
            if datatype_value is not None:
                _write_string(buffer, datatype_value)
            if language is not None:
                _write_string(buffer, language)
        else:
            _write_string(buffer, key)


#: Triples per chunk when streaming the id section of a snapshot.
_SNAPSHOT_CHUNK = 65536


def save_snapshot(
    graph: EncodedGraph, target: Union[str, os.PathLike, BinaryIO]
) -> int:
    """Serialise ``graph`` to ``target`` (path or binary stream).

    The id stream is written in bounded chunks so saving never
    materialises a second full-graph-sized buffer.  Returns the number of
    bytes written.
    """
    if not hasattr(target, "write"):
        with open(target, "wb") as handle:
            return save_snapshot(graph, handle)
    buffer = bytearray(MAGIC)
    _dump_dictionary(graph.dictionary, buffer)
    buffer += _U64.pack(len(graph))
    target.write(buffer)
    written = len(buffer)
    ids = array("q")
    if ids.itemsize != 8:  # pragma: no cover - 'q' is 8 bytes on CPython
        raise SnapshotError(f"unexpected id width {ids.itemsize}")

    def flush() -> int:
        if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
            ids.byteswap()
        chunk = ids.tobytes()
        target.write(chunk)
        del ids[:]
        return len(chunk)

    for sid, pid, oid in graph.id_triples():
        ids.append(sid)
        ids.append(pid)
        ids.append(oid)
        if len(ids) >= 3 * _SNAPSHOT_CHUNK:
            written += flush()
    written += flush()
    return written


class _Reader:
    """Cursor over the snapshot byte stream with bounds checking."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise SnapshotError("truncated snapshot")
        chunk = self.data[self.offset:end]
        self.offset = end
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def _load_dictionary(reader: _Reader) -> TermDictionary:
    """Decode the term table into a fresh dictionary.

    This is roughly half of a warm start, so the loop works on the raw
    byte buffer with local offset arithmetic and fills the dictionary's
    internal tables directly — ids are assigned densely in stream order,
    exactly what the per-term ``encode_*`` calls would produce, without
    a :class:`_Reader` method call per field.
    """
    dictionary = TermDictionary()
    count = reader.u32()
    data = reader.data
    offset = reader.offset
    unpack_u32 = _U32.unpack_from
    keys = dictionary._keys
    kinds = dictionary._kinds
    cache = dictionary._cache
    iri_ids = dictionary._iri_ids
    bnode_ids = dictionary._bnode_ids
    literal_ids = dictionary._literal_ids
    try:
        for index in range(count):
            kind = data[offset]
            offset += 1
            if kind == KIND_IRI:
                (length,) = unpack_u32(data, offset)
                offset += 4
                key = data[offset:offset + length].decode("utf-8")
                offset += length
                iri_ids[key] = (index << _KIND_SHIFT) | KIND_IRI
            elif kind == KIND_BLANK:
                (length,) = unpack_u32(data, offset)
                offset += 4
                key = data[offset:offset + length].decode("utf-8")
                offset += length
                bnode_ids[key] = (index << _KIND_SHIFT) | KIND_BLANK
            elif kind == KIND_LITERAL:
                flags = data[offset]
                offset += 1
                (length,) = unpack_u32(data, offset)
                offset += 4
                lexical = data[offset:offset + length].decode("utf-8")
                offset += length
                datatype_value = None
                if flags & _FLAG_DATATYPE:
                    (length,) = unpack_u32(data, offset)
                    offset += 4
                    datatype_value = data[offset:offset + length].decode("utf-8")
                    offset += length
                language = None
                if flags & _FLAG_LANGUAGE:
                    (length,) = unpack_u32(data, offset)
                    offset += 4
                    language = data[offset:offset + length].decode("utf-8")
                    offset += length
                key = _literal_key(lexical, datatype_value, language)
                literal_ids[key] = (index << _KIND_SHIFT) | KIND_LITERAL
            else:
                raise SnapshotError(f"unknown term kind tag {kind}")
            keys.append(key)
            kinds.append(kind)
            cache.append(None)
    except (IndexError, struct.error):
        raise SnapshotError("truncated snapshot") from None
    # A slice past the buffer end silently truncates; the final cursor
    # position exposes it (field decoding above would also have tripped).
    if offset > len(data):
        raise SnapshotError("truncated snapshot")
    reader.offset = offset
    if len(iri_ids) + len(bnode_ids) + len(literal_ids) != count:
        raise SnapshotError("duplicate dictionary entries in snapshot")
    return dictionary


def load_snapshot(source: Union[str, os.PathLike, BinaryIO]) -> EncodedGraph:
    """Load a snapshot written by :func:`save_snapshot`."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as handle:
            data = handle.read()
    reader = _Reader(data)
    if reader.take(len(MAGIC)) != MAGIC:
        raise SnapshotError("not a store snapshot (bad magic)")
    dictionary = _load_dictionary(reader)
    n_triples = reader.u64()
    ids = array("q")
    ids.frombytes(reader.take(n_triples * 3 * 8))
    if sys.byteorder == "big":  # pragma: no cover - little-endian on x86/arm
        ids.byteswap()
    if reader.offset != len(data):
        raise SnapshotError("trailing bytes after the id stream")
    if ids and not (
        0 <= min(ids) and max(ids) < len(dictionary) << _KIND_SHIFT
    ):
        raise SnapshotError("triple id outside dictionary range")
    kinds = dictionary._kinds
    for term_id in set(ids):
        if term_id & _KIND_MASK != kinds[term_id >> _KIND_SHIFT]:
            raise SnapshotError("triple id kind tag disagrees with dictionary")
    graph = EncodedGraph(dictionary=dictionary)
    graph._bulk_insert_ids(ids)
    if len(graph) != n_triples:
        raise SnapshotError("duplicate triple records in snapshot")
    graph._rebuild_statistics()
    if n_triples:
        # The freshly built graph differs from an empty one: stamp the
        # content change so version-keyed consumers (plan caches, the
        # materialized-view registry) never read a populated graph as
        # "version 0 == pristine".
        graph._version += 1
    return graph
