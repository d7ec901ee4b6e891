"""Byte-level definition of the archive container format (version 2).

This module is the single source of truth for the on-disk layout; the
hand-written specification in ``docs/archive_format.md`` documents the same
layout field by field and must be kept in sync.  Everything here is
plain byte bookkeeping — header and index (de)serialisation, CRC-32
checksums, and the exception taxonomy — so the writer and reader share one
implementation of the format and the format is reviewable independently of
either.

Layout summary (all integers little-endian)::

    +--------------------+  offset 0
    |  header (40 bytes) |  magic, version, frame count, index pointer, CRCs
    +--------------------+  offset 40
    |  frame payload 0   |  serialised compressed stream (see serialize.py)
    |  frame payload 1   |
    |  ...               |
    +--------------------+  offset = header.index_offset
    |  index table       |  one variable-length entry per frame
    +--------------------+  EOF

The index lives at the *end* of the file so appending never rewrites frame
payloads: an appending writer adds payloads after the old index (which stays
valid, and pointed to, until the new one is on disk) and finishes with a
fresh index plus a patched header.  A header whose ``index_offset`` is zero
marks an archive that was never finalised (the writer crashed before
``close``), which the reader reports as a clean error instead of garbage.

This module also defines the **shard-set manifest** — the small companion
file that turns N independent containers into one sharded archive set
(:mod:`repro.archive.sharding`).  The manifest stores the router kind, the
shard file names (relative to the manifest), the set-level
:class:`~repro.coding.spec.CodecSpec` as JSON and — since version 2 — a
**replica map** (per primary shard, the names of its byte-identical replica
containers, for read failover and verify-driven repair in
:mod:`repro.archive.replication`) and — since version 3 — a **placement
table** (per primary shard, the preferred worker/node id for distributed
socket-pool routing, :mod:`repro.archive.placement`), all protected by a
trailing CRC-32::

    +-----------------------------+  offset 0
    |  magic "RPRDWTM\\0" (8)      |
    |  version u16, router u8,    |
    |  flags u8, shard_count u32  |
    +-----------------------------+  offset 16
    |  spec_len u32 + spec JSON   |
    |  per shard: u16 len + name  |
    |  u16 n + range boundaries   |
    |  per shard: u16 replica     |
    |    count + u16 len + name   |  (version >= 2 only)
    |  per shard: u16 len + node  |  (version >= 3 only; "" = unplaced)
    +-----------------------------+
    |  crc32 of everything above  |
    +-----------------------------+  EOF

The replica and placement tables are parse-breaking additions for older
readers, so each rides a version bump per the rules in
``docs/archive_format.md``; version-1 manifests (no replica table) and
version-2 manifests (no placement table) are still read, as unreplicated
or unplaced sets respectively — and writers stamp the lowest version the
manifest's features need, so existing sets keep their exact bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Iterator, List, Mapping, Tuple

from ..coding.spec import codec_wire_ids

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_SIZE",
    "CODEC_IDS",
    "CODEC_NAMES_BY_ID",
    "KIND_IDS",
    "KINDS_BY_ID",
    "FLAG_USE_RLE",
    "FLAG_SUBBAND_MAJOR",
    "LAYOUTS",
    "LAYOUT_FRAME_MAJOR",
    "LAYOUT_SUBBAND_MAJOR",
    "require_write_layout",
    "ArchiveError",
    "ArchiveFormatError",
    "TruncatedArchiveError",
    "ArchiveTruncatedError",
    "ArchiveIntegrityError",
    "crc32",
    "Header",
    "FrameInfo",
    "pack_header",
    "unpack_header",
    "read_header",
    "pack_index",
    "unpack_index",
    "read_index",
    "MANIFEST_MAGIC",
    "MANIFEST_VERSION",
    "ROUTER_IDS",
    "ROUTERS_BY_ID",
    "MANIFEST_FLAG_SUBBAND_MAJOR",
    "ShardManifest",
    "pack_manifest",
    "unpack_manifest",
]

#: File magic: identifies a repro DWT archive.  The trailing byte is NUL so
#: the magic is exactly 8 bytes and never valid UTF-8 text.
MAGIC = b"RPRDWTA\x00"

#: Current container format version.  Readers reject newer versions and
#: keep reading every older one.  Version 2 added the **subband-major**
#: payload layout (per-subband entropy-coded sections behind a section
#: table, coarsest first, so a k-scale preview decodes from a strict
#: prefix of the payload bytes) — a new wire feature a version-1 reader
#: cannot parse, hence the bump.  Frame-major payloads are read-only now;
#: a container stays version 1 until its first subband-major frame lands,
#: so appending to a version-1 archive turns it into version 2.
VERSION = 2

#: Fixed header size in bytes (the header is always at offset 0).
HEADER_SIZE = 40

#: ``<`` little-endian: magic, version, flags, frame_count, index_offset,
#: index_size, index_crc, header_crc — 8+2+2+4+8+8+4+4 = 40 bytes.
_HEADER_STRUCT = struct.Struct("<8sHHIQQII")

#: Fixed tail of an index entry, after the length-prefixed frame name:
#: payload_offset, payload_length, payload_crc, codec_id, scales, bit_depth,
#: flags, height, width, raw_bytes — 8+8+4+1+1+1+1+4+4+8 = 40 bytes
#: (followed by the length-prefixed filter-bank name).
_ENTRY_STRUCT = struct.Struct("<QQIBBBBIIQ")

class _RegistryView(Mapping):
    """Live read-through view of the codec registry's wire-id table.

    A plain dict snapshot taken at import time would go stale the moment a
    codec family is registered later; this view re-reads the registry on
    every lookup, so the writer's index packer and the reader's id checks
    always see exactly the registered families.
    """

    def __init__(self, invert: bool = False) -> None:
        self._invert = invert

    def _table(self) -> dict:
        ids = codec_wire_ids()
        return {v: k for k, v in ids.items()} if self._invert else ids

    def __getitem__(self, key):
        return self._table()[key]

    def __iter__(self) -> Iterator:
        return iter(self._table())

    def __len__(self) -> int:
        return len(self._table())

    def __eq__(self, other) -> bool:
        return self._table() == other

    def __ne__(self, other) -> bool:
        return self._table() != other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self._table())


#: Codec identifiers stored in index entries and frame payloads — live
#: views of the codec registry (:mod:`repro.coding.spec`): the registry's
#: ``wire_id`` values *are* the on-disk ids, so registering a codec family
#: makes its id valid here immediately and no layer keeps a private table.
CODEC_IDS: Mapping[str, int] = _RegistryView()
CODEC_NAMES_BY_ID: Mapping[int, str] = _RegistryView(invert=True)

#: Subband kind identifiers used by the payload serialiser.
KIND_IDS = {"HH": 0, "HG": 1, "GH": 2, "GG": 3}
KINDS_BY_ID = {v: k for k, v in KIND_IDS.items()}

#: Index-entry flag bit 0: the coefficient codec ran zero run-length coding
#: before the Rice coder (``use_rle``).  Always clear for the s-transform.
FLAG_USE_RLE = 0x01

#: Index-entry flag bit 1: the payload uses the version-2 **subband-major**
#: layout (sectioned, coarsest-first, prefix-decodable) instead of the
#: version-1 monolithic frame-major layout.
FLAG_SUBBAND_MAJOR = 0x02

#: Payload layout names as stored in :attr:`FrameInfo.layout` and in the
#: shard-set manifest.  Both are read; only subband-major is written.
LAYOUT_FRAME_MAJOR = "frame-major"
LAYOUT_SUBBAND_MAJOR = "subband-major"
LAYOUTS = (LAYOUT_FRAME_MAJOR, LAYOUT_SUBBAND_MAJOR)


def require_write_layout(layout: str) -> None:
    """Reject a ``layout=`` a writer cannot produce.

    The writers' ``create`` entry points keep the keyword for call
    compatibility only: new frames are always subband-major, and the
    version-1 frame-major layout is read-only.
    """
    if layout != LAYOUT_SUBBAND_MAJOR:
        raise ValueError(
            f"cannot write payload layout {layout!r}: new frames are "
            f"{LAYOUT_SUBBAND_MAJOR!r}, and {LAYOUT_FRAME_MAJOR!r} is read-only"
        )


class ArchiveError(Exception):
    """Base class of every archive-layer error."""


class ArchiveFormatError(ArchiveError):
    """The bytes are not a valid archive (bad magic, version, structure)."""


class TruncatedArchiveError(ArchiveFormatError):
    """The file ends before a structure the header/index declares — also
    raised when a container named by a manifest (or just magic-probed)
    disappears mid-session: bytes that should exist are gone either way."""


#: Taxonomy-ordered alias (``Archive*Error`` like its siblings).
ArchiveTruncatedError = TruncatedArchiveError


class ArchiveIntegrityError(ArchiveError):
    """A stored checksum does not match the bytes on disk."""


def crc32(data: bytes) -> int:
    """CRC-32 (IEEE 802.3, as :func:`zlib.crc32`) as an unsigned 32-bit int."""
    return zlib.crc32(data) & 0xFFFFFFFF


@dataclass(frozen=True)
class Header:
    """Parsed fixed-size file header."""

    version: int
    flags: int
    frame_count: int
    index_offset: int
    index_size: int
    index_crc: int


@dataclass(frozen=True)
class FrameInfo:
    """One frame's index entry: everything needed to retrieve it alone.

    ``offset``/``length``/``crc32`` locate and checksum the payload;
    the codec/filter/word-length configuration (``codec``, ``scales``,
    ``bit_depth``, ``bank_name``, ``use_rle``) reconstructs the exact codec
    that wrote it, so a single frame can be decoded without touching any
    other payload.
    """

    index: int
    name: str
    codec: str
    scales: int
    bit_depth: int
    shape: Tuple[int, int]
    offset: int
    length: int
    crc32: int
    raw_bytes: int
    bank_name: str = ""
    use_rle: bool = False
    layout: str = LAYOUT_FRAME_MAJOR

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / self.length if self.length else float("inf")


def pack_header(header: Header) -> bytes:
    """Serialise a header; the trailing CRC covers the preceding 36 bytes."""
    body = _HEADER_STRUCT.pack(
        MAGIC,
        header.version,
        header.flags,
        header.frame_count,
        header.index_offset,
        header.index_size,
        header.index_crc,
        0,
    )[: HEADER_SIZE - 4]
    return body + struct.pack("<I", crc32(body))


def unpack_header(data: bytes) -> Header:
    """Parse and validate the fixed-size header."""
    if len(data) < HEADER_SIZE:
        raise TruncatedArchiveError(
            f"file too short for an archive header ({len(data)} < {HEADER_SIZE} bytes)"
        )
    magic, version, flags, frame_count, index_offset, index_size, index_crc, stored_crc = (
        _HEADER_STRUCT.unpack(data[:HEADER_SIZE])
    )
    if magic != MAGIC:
        raise ArchiveFormatError(f"not an archive: bad magic {magic!r}")
    if stored_crc != crc32(data[: HEADER_SIZE - 4]):
        raise ArchiveIntegrityError("header checksum mismatch")
    if version > VERSION:
        raise ArchiveFormatError(
            f"archive format version {version} is newer than supported ({VERSION})"
        )
    return Header(
        version=version,
        flags=flags,
        frame_count=frame_count,
        index_offset=index_offset,
        index_size=index_size,
        index_crc=index_crc,
    )


def read_header(fh: BinaryIO) -> Header:
    """Read the header from an open file (positioned anywhere)."""
    fh.seek(0)
    return unpack_header(fh.read(HEADER_SIZE))


def pack_index(entries: List[FrameInfo]) -> bytes:
    """Serialise the index table (entries back to back, no trailing CRC —
    the index CRC lives in the header so the header alone authenticates
    the whole directory)."""
    parts: List[bytes] = []
    for entry in entries:
        name = entry.name.encode("utf-8")
        bank = entry.bank_name.encode("utf-8")
        if len(name) > 0xFFFF:
            raise ValueError(f"frame name too long ({len(name)} bytes)")
        if len(bank) > 0xFF:
            raise ValueError(f"filter bank name too long ({len(bank)} bytes)")
        if entry.layout not in LAYOUTS:
            raise ValueError(
                f"unknown payload layout {entry.layout!r} (expected one of {LAYOUTS})"
            )
        flags = FLAG_USE_RLE if entry.use_rle else 0
        if entry.layout == LAYOUT_SUBBAND_MAJOR:
            flags |= FLAG_SUBBAND_MAJOR
        parts.append(struct.pack("<H", len(name)))
        parts.append(name)
        parts.append(
            _ENTRY_STRUCT.pack(
                entry.offset,
                entry.length,
                entry.crc32,
                CODEC_IDS[entry.codec],
                entry.scales,
                entry.bit_depth,
                flags,
                entry.shape[0],
                entry.shape[1],
                entry.raw_bytes,
            )
        )
        parts.append(struct.pack("<B", len(bank)))
        parts.append(bank)
    return b"".join(parts)


def unpack_index(data: bytes, frame_count: int) -> List[FrameInfo]:
    """Parse ``frame_count`` index entries out of the index-table bytes."""
    entries: List[FrameInfo] = []
    pos = 0
    for index in range(frame_count):
        try:
            (name_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name = data[pos : pos + name_len]
            if len(name) != name_len:
                raise struct.error("short name")
            pos += name_len
            fields = _ENTRY_STRUCT.unpack_from(data, pos)
            pos += _ENTRY_STRUCT.size
            (bank_len,) = struct.unpack_from("<B", data, pos)
            pos += 1
            bank = data[pos : pos + bank_len]
            if len(bank) != bank_len:
                raise struct.error("short bank name")
            pos += bank_len
        except struct.error as exc:
            raise TruncatedArchiveError(
                f"index table ends inside entry {index} of {frame_count}"
            ) from exc
        offset, length, payload_crc, codec_id, scales, bit_depth, flags, height, width, raw = fields
        if codec_id not in CODEC_NAMES_BY_ID:
            raise ArchiveFormatError(f"index entry {index} has unknown codec id {codec_id}")
        try:
            name_text, bank_text = name.decode("utf-8"), bank.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArchiveFormatError(
                f"index entry {index} has a frame or bank name that is not UTF-8"
            ) from exc
        entries.append(
            FrameInfo(
                index=index,
                name=name_text,
                codec=CODEC_NAMES_BY_ID[codec_id],
                scales=scales,
                bit_depth=bit_depth,
                shape=(height, width),
                offset=offset,
                length=length,
                crc32=payload_crc,
                raw_bytes=raw,
                bank_name=bank_text,
                use_rle=bool(flags & FLAG_USE_RLE),
                layout=(
                    LAYOUT_SUBBAND_MAJOR
                    if flags & FLAG_SUBBAND_MAJOR
                    else LAYOUT_FRAME_MAJOR
                ),
            )
        )
    if pos != len(data):
        raise ArchiveFormatError(
            f"index table has {len(data) - pos} trailing bytes after "
            f"{frame_count} entries"
        )
    return entries


# ---------------------------------------------------------------------------
# Shard-set manifest
# ---------------------------------------------------------------------------

#: File magic of a shard-set manifest (M = manifest); distinct from the
#: container magic so a reader can tell the two apart from the first 8 bytes.
MANIFEST_MAGIC = b"RPRDWTM\x00"

#: Current manifest format version.  Readers reject newer versions; they
#: keep reading version 1 (no replica table → an unreplicated set) and
#: version 2 (no placement table → an unplaced set).
#: Version 2 added the per-shard replica map; version 3 adds the per-shard
#: **placement table** (preferred worker/node id per shard, for routing
#: distributed appends and verifies) — both parse-breaking additions,
#: hence the bumps.  Writers stamp version 3 only when a placement is
#: present (and version 2 only when needed beyond that), so sets without
#: the newer features keep their old bytes.
MANIFEST_VERSION = 3

#: Router identifiers stored in the manifest (see
#: :mod:`repro.archive.sharding` for the routing rules themselves).
ROUTER_IDS = {"hash": 0, "range": 1}
ROUTERS_BY_ID = {v: k for k, v in ROUTER_IDS.items()}

#: Fixed manifest prefix: magic, version, router_id, flags, shard_count —
#: 8+2+1+1+4 = 16 bytes (followed by the variable body and a trailing CRC).
_MANIFEST_STRUCT = struct.Struct("<8sHBBI")

#: Manifest flags bit 0: the set's shards store subband-major payloads.
#: Rides the previously-reserved flags byte (an ignorable addition — the
#: payloads self-describe — so no manifest version bump is needed).
MANIFEST_FLAG_SUBBAND_MAJOR = 0x01


@dataclass(frozen=True)
class ShardManifest:
    """Parsed shard-set manifest: everything needed to open the set.

    ``shard_names`` are container file names relative to the manifest's own
    directory — one plain file name each, never a path that could leave it
    (:func:`pack_manifest` and :func:`unpack_manifest` reject any other);
    ``spec_json`` is the set-level codec configuration
    (:meth:`~repro.coding.spec.CodecSpec.to_json`), stored so every shard —
    including still-empty ones — appends with the configuration the set was
    created with.  ``boundaries`` are the range router's cutoff names
    (empty for the hash router).  ``replica_names`` is the replica map
    (version >= 2): one tuple of replica container file names per primary
    shard, empty for an unreplicated set; every copy of a shard is
    byte-identical by construction (write fan-out), which is what makes
    read failover and byte-copy repair sound.  ``node_ids`` is the
    placement table (version >= 3): one preferred worker/node id per
    primary shard (``""`` = unplaced), used by the distributed socket pool
    (:mod:`repro.archive.placement`) to route each shard's appends and
    verifies to the worker that holds — or is warm for — that shard;
    placement is advisory, so routing degrades to any-worker when a placed
    node is down.
    """

    version: int
    router: str
    shard_names: Tuple[str, ...]
    spec_json: str
    boundaries: Tuple[str, ...] = ()
    replica_names: Tuple[Tuple[str, ...], ...] = ()
    layout: str = LAYOUT_FRAME_MAJOR
    node_ids: Tuple[str, ...] = ()

    @property
    def replicas(self) -> int:
        """Replica count per shard (0 for an unreplicated set)."""
        return max((len(names) for names in self.replica_names), default=0)

    @property
    def placement(self) -> "dict[str, str]":
        """Shard file name → preferred node id (placed shards only)."""
        return {
            name: node
            for name, node in zip(self.shard_names, self.node_ids)
            if node
        }


def _is_file_name(name: str) -> bool:
    """Whether ``name`` is one plain file name: it stays inside the
    manifest's directory when joined onto it."""
    return name not in ("", ".", "..") and "/" not in name and "\\" not in name


def _pack_str(text: str, label: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ValueError(f"{label} too long ({len(data)} bytes)")
    return struct.pack("<H", len(data)) + data


def pack_manifest(manifest: ShardManifest) -> bytes:
    """Serialise a shard-set manifest (trailing CRC covers all other bytes)."""
    if manifest.router not in ROUTER_IDS:
        raise ValueError(
            f"unknown router {manifest.router!r} (expected one of {sorted(ROUTER_IDS)})"
        )
    if manifest.router == "range" and len(manifest.boundaries) != len(manifest.shard_names) - 1:
        raise ValueError(
            f"range router over {len(manifest.shard_names)} shards needs "
            f"{len(manifest.shard_names) - 1} boundaries, got {len(manifest.boundaries)}"
        )
    if manifest.router == "hash" and manifest.boundaries:
        raise ValueError("hash router takes no boundaries")
    if manifest.replica_names:
        if manifest.version < 2:
            raise ValueError(
                "replica maps need manifest version >= 2 "
                f"(got version {manifest.version})"
            )
        if len(manifest.replica_names) != len(manifest.shard_names):
            raise ValueError(
                f"replica map covers {len(manifest.replica_names)} shards, "
                f"set has {len(manifest.shard_names)}"
            )
    if manifest.node_ids:
        if manifest.version < 3:
            raise ValueError(
                "placement tables need manifest version >= 3 "
                f"(got version {manifest.version})"
            )
        if len(manifest.node_ids) != len(manifest.shard_names):
            raise ValueError(
                f"placement table covers {len(manifest.node_ids)} shards, "
                f"set has {len(manifest.shard_names)}"
            )
    if manifest.layout not in LAYOUTS:
        raise ValueError(
            f"unknown payload layout {manifest.layout!r} (expected one of {LAYOUTS})"
        )
    replica_names = [name for names in manifest.replica_names for name in names]
    for name in (*manifest.shard_names, *replica_names):
        if not _is_file_name(name):
            raise ValueError(
                f"container name {name!r} is not one file name in the manifest's directory"
            )
    spec_data = manifest.spec_json.encode("utf-8")
    flags = (
        MANIFEST_FLAG_SUBBAND_MAJOR
        if manifest.layout == LAYOUT_SUBBAND_MAJOR
        else 0
    )
    parts = [
        _MANIFEST_STRUCT.pack(
            MANIFEST_MAGIC,
            manifest.version,
            ROUTER_IDS[manifest.router],
            flags,
            len(manifest.shard_names),
        ),
        struct.pack("<I", len(spec_data)),
        spec_data,
    ]
    for name in manifest.shard_names:
        parts.append(_pack_str(name, "shard file name"))
    parts.append(struct.pack("<H", len(manifest.boundaries)))
    for boundary in manifest.boundaries:
        parts.append(_pack_str(boundary, "range boundary"))
    if manifest.version >= 2:
        # Replica map: one u16-counted name list per primary shard (all
        # zeros for an unreplicated set).
        replica_map = manifest.replica_names or ((),) * len(manifest.shard_names)
        for replicas in replica_map:
            parts.append(struct.pack("<H", len(replicas)))
            for name in replicas:
                parts.append(_pack_str(name, "replica file name"))
    if manifest.version >= 3:
        # Placement table: one u16-length-prefixed node id per primary
        # shard, in shard order ("" = unplaced; all empty for an unplaced
        # set).
        node_ids = manifest.node_ids or ("",) * len(manifest.shard_names)
        for node in node_ids:
            parts.append(_pack_str(node, "placement node id"))
    body = b"".join(parts)
    return body + struct.pack("<I", crc32(body))


def _decode_str(raw: bytes, label: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArchiveFormatError(f"manifest {label} is not UTF-8") from exc


def unpack_manifest(data: bytes) -> ShardManifest:
    """Parse and validate a shard-set manifest."""
    if len(data) < _MANIFEST_STRUCT.size + 4:
        raise TruncatedArchiveError(
            f"file too short for a shard-set manifest ({len(data)} bytes)"
        )
    magic, version, router_id, flags, shard_count = _MANIFEST_STRUCT.unpack_from(data, 0)
    if magic != MANIFEST_MAGIC:
        raise ArchiveFormatError(f"not a shard-set manifest: bad magic {magic!r}")
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if stored_crc != crc32(data[:-4]):
        raise ArchiveIntegrityError("shard-set manifest checksum mismatch")
    if version > MANIFEST_VERSION:
        raise ArchiveFormatError(
            f"manifest format version {version} is newer than supported "
            f"({MANIFEST_VERSION})"
        )
    if router_id not in ROUTERS_BY_ID:
        raise ArchiveFormatError(f"manifest has unknown router id {router_id}")
    if shard_count < 1:
        raise ArchiveFormatError("manifest declares zero shards")
    pos = _MANIFEST_STRUCT.size
    end = len(data) - 4

    def take_str(label: str) -> str:
        nonlocal pos
        try:
            (length,) = struct.unpack_from("<H", data, pos)
        except struct.error as exc:
            raise TruncatedArchiveError(f"manifest ends inside {label}") from exc
        pos += 2
        raw = data[pos : pos + length]
        if len(raw) != length or pos + length > end:
            raise TruncatedArchiveError(f"manifest ends inside {label}")
        pos += length
        return _decode_str(raw, label)

    def take_name(label: str) -> str:
        name = take_str(label)
        if not _is_file_name(name):
            raise ArchiveFormatError(
                f"manifest {label} {name!r} is not one file name in the "
                "manifest's directory"
            )
        return name

    try:
        (spec_len,) = struct.unpack_from("<I", data, pos)
    except struct.error as exc:
        raise TruncatedArchiveError("manifest ends inside the spec block") from exc
    pos += 4
    spec_raw = data[pos : pos + spec_len]
    if len(spec_raw) != spec_len or pos + spec_len > end:
        raise TruncatedArchiveError("manifest ends inside the spec block")
    pos += spec_len
    shard_names = tuple(take_name(f"shard name {i}") for i in range(shard_count))
    try:
        (boundary_count,) = struct.unpack_from("<H", data, pos)
    except struct.error as exc:
        raise TruncatedArchiveError("manifest ends inside the boundary table") from exc
    pos += 2
    boundaries = tuple(take_str(f"boundary {i}") for i in range(boundary_count))
    replica_names: Tuple[Tuple[str, ...], ...] = ()
    if version >= 2:
        replica_map = []
        for shard in range(shard_count):
            try:
                (replica_count,) = struct.unpack_from("<H", data, pos)
            except struct.error as exc:
                raise TruncatedArchiveError(
                    f"manifest ends inside shard {shard}'s replica table"
                ) from exc
            pos += 2
            replica_map.append(
                tuple(
                    take_name(f"shard {shard} replica {i}")
                    for i in range(replica_count)
                )
            )
        if any(replica_map):
            replica_names = tuple(replica_map)
    node_ids: Tuple[str, ...] = ()
    if version >= 3:
        placement = tuple(
            take_str(f"shard {shard} placement node id")
            for shard in range(shard_count)
        )
        if any(placement):
            node_ids = placement
    if pos != end:
        raise ArchiveFormatError(
            f"manifest has {end - pos} trailing bytes before its checksum"
        )
    router = ROUTERS_BY_ID[router_id]
    expected = shard_count - 1 if router == "range" else 0
    if boundary_count != expected:
        raise ArchiveFormatError(
            f"{router} router over {shard_count} shards declares "
            f"{boundary_count} boundaries (expected {expected})"
        )
    return ShardManifest(
        version=version,
        router=router,
        shard_names=shard_names,
        spec_json=_decode_str(spec_raw, "spec block"),
        boundaries=boundaries,
        replica_names=replica_names,
        layout=(
            LAYOUT_SUBBAND_MAJOR
            if flags & MANIFEST_FLAG_SUBBAND_MAJOR
            else LAYOUT_FRAME_MAJOR
        ),
        node_ids=node_ids,
    )


def read_index(fh: BinaryIO, header: Header, file_size: int) -> List[FrameInfo]:
    """Read and validate the index table an open archive's header points to."""
    if header.index_offset == 0:
        raise ArchiveFormatError(
            "archive was never finalised (writer did not close); no index table"
        )
    if header.index_offset < HEADER_SIZE:
        raise ArchiveFormatError(
            f"index offset {header.index_offset} overlaps the header"
        )
    if header.index_offset + header.index_size > file_size:
        raise TruncatedArchiveError(
            f"index table extends to byte {header.index_offset + header.index_size} "
            f"but the file has only {file_size}"
        )
    fh.seek(header.index_offset)
    data = fh.read(header.index_size)
    if len(data) != header.index_size:
        raise TruncatedArchiveError("index table could not be read in full")
    if crc32(data) != header.index_crc:
        raise ArchiveIntegrityError("index table checksum mismatch")
    entries = unpack_index(data, header.frame_count)
    for entry in entries:
        if entry.offset < HEADER_SIZE or entry.offset + entry.length > header.index_offset:
            raise ArchiveFormatError(
                f"frame {entry.index} payload [{entry.offset}, "
                f"{entry.offset + entry.length}) lies outside the payload region"
            )
    return entries
