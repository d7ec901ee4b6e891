"""Frame-payload (de)serialisation: compressed streams <-> archive bytes.

A frame payload is the self-describing byte form of one compressed stream
(:class:`~repro.coding.codec.CompressedImage` or
:class:`~repro.coding.s_transform.CompressedSImage`).  Container version 1
stored it **frame-major**, a layout that is now read-only::

    +------------------+
    | meta_len  (u32)  |  little-endian, like every container structure
    +------------------+
    | meta block       |  fixed-width big-endian fields, packed with
    +------------------+  struct (see _meta_prologue)
    | chunk bytes      |  entropy-coded subband payloads, concatenated in
    +------------------+  the order the meta block declares

The meta block is the serialised form of the frame's
:class:`~repro.coding.spec.CodecSpec` (codec wire id from the registry,
depth, geometry, bit depth, filter-bank and word-length metadata) followed
by per-subband chunk descriptors (kind, scale, shape, byte lengths); the
chunk bytes are the codecs' entropy-coded payloads verbatim.  Deserialising
a payload therefore needs nothing outside the payload itself, which is what
makes single-frame random access possible:
:func:`deserialize_stream_with_spec` returns both the stream and the
reconstructed spec, and :func:`frame_spec` rebuilds the spec from an index
entry alone, without reading the payload.

Since container version 2 a payload may instead use the **subband-major**
layout, built for progressive retrieval — the only layout
:func:`serialize_stream` writes::

    +----------------------------+
    | sentinel 0xFFFFFFFF (u32)  |  impossible as a v1 meta_len
    | payload_version (u8) = 2   |
    | meta_len (u32)             |  9 bytes total ("<IBI")
    +----------------------------+
    | meta block                 |  v1 fields + per-section CRC-32s
    +----------------------------+
    | meta CRC-32 (u32 LE)       |  the section table is self-verifying
    +----------------------------+
    | section bytes              |  one independently entropy-coded
    +----------------------------+  section per subband, coarsest first

Sections are ordered by ``(-scale, kind_id)`` — the scale-S approximation
(HH) first, then each scale's details coarsest to finest — so the bytes
needed to reconstruct a preview at scale ``k`` are a **strict prefix** of
the payload: the 9-byte head, the meta block and its CRC, and every
section with ``scale > k`` (plus HH).  :func:`parse_section_table` reads
the table alone, :func:`prefix_length` prices a preview in bytes, and
:func:`deserialize_prefix` reconstructs a partial stream from exactly
those bytes, each section verified against its own CRC-32 so a prefix is
trustworthy without the container-level whole-payload checksum.

Codec identity is validated through the codec registry
(:func:`repro.coding.spec.get_family`); registry errors are wrapped in
:class:`ArchiveFormatError` with the frame context, so a payload naming an
unregistered codec reads as a format error, not a loose ``ValueError``.

For the coefficient codec the stored word-length metadata (word length,
accumulator width, per-scale integer bits) is checked against the plan the
current code derives for the same bank and depth
(:func:`repro.fixedpoint.wordlength.plan_word_lengths`); a mismatch means
the stream was written by an incompatible word-length analysis and decoding
would produce garbage, so it raises :class:`ArchiveFormatError` instead.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from dataclasses import replace as _dc_replace
from typing import List, Optional, Tuple, Union

from ..coding.codec import CompressedImage, SubbandChunk
from ..coding.s_transform import CompressedSImage
from ..coding.spec import CodecSpec, UnknownCodecError, family_for_stream, get_family
from ..dwt.subbands import check_image_shape
from ..filters.catalog import get_bank
from ..fixedpoint.errors import FixedPointError
from ..fixedpoint.wordlength import plan_word_lengths
from .format import (
    CODEC_NAMES_BY_ID,
    KIND_IDS,
    KINDS_BY_ID,
    LAYOUT_FRAME_MAJOR,
    LAYOUT_SUBBAND_MAJOR,
    ArchiveFormatError,
    ArchiveIntegrityError,
    FrameInfo,
    TruncatedArchiveError,
    crc32,
)

__all__ = [
    "CompressedStream",
    "Payload",
    "PAYLOAD_SENTINEL",
    "PAYLOAD_VERSION",
    "PAYLOAD_HEAD_SIZE",
    "PayloadSection",
    "SectionTable",
    "codec_name_for_stream",
    "frame_spec",
    "spec_for_stream",
    "payload_spec",
    "payload_layout",
    "is_subband_major",
    "serialize_stream",
    "deserialize_stream",
    "deserialize_stream_with_spec",
    "parse_section_table",
    "sections_to_stream",
    "deserialize_prefix",
    "prefix_length",
    "materialize_stream",
]

CompressedStream = Union[CompressedImage, CompressedSImage]

#: Payload bytes as stored (``bytes``) or as a zero-copy ``memoryview`` of
#: the backend's mapping.  Deserialising a view keeps the chunk payloads as
#: sub-views — no intermediate copies — which is what the readers'
#: ``zero_copy`` path relies on; the decoders consume either form.
Payload = Union[bytes, memoryview]

#: First four bytes of a subband-major payload.  A version-1 payload starts
#: with its little-endian ``meta_len``, which is tens of bytes in practice
#: and could never be ``0xFFFFFFFF`` (the meta block would have to be 4 GiB
#: and exceed every container bound), so the sentinel tells the two layouts
#: apart from the payload's own first word.
PAYLOAD_SENTINEL = 0xFFFFFFFF

#: Version byte of the sectioned payload layout (matches the container
#: version that introduced it).  Readers reject newer payload versions.
PAYLOAD_VERSION = 2

#: Subband-major payload head: sentinel u32, payload version u8, meta_len
#: u32 — 9 bytes, no padding under ``<``.
_PAYLOAD_HEAD_STRUCT = struct.Struct("<IBI")
PAYLOAD_HEAD_SIZE = _PAYLOAD_HEAD_STRUCT.size


@dataclass(frozen=True)
class PayloadSection:
    """One subband's entry in a subband-major payload's section table.

    ``offset`` is the section's absolute byte offset within the payload;
    the section's bytes are the chunk's entropy-coded literal payload
    immediately followed by its run payload (empty unless ``use_rle``), and
    ``crc32`` covers exactly those ``length`` bytes, so any section — hence
    any prefix — verifies on its own.
    """

    index: int
    kind: str
    scale: int
    shape: Tuple[int, int]
    use_rle: bool
    payload_len: int
    run_len: int
    crc32: int
    offset: int

    @property
    def length(self) -> int:
        return self.payload_len + self.run_len


@dataclass(frozen=True)
class SectionTable:
    """Parsed section table of a subband-major payload.

    Holds everything the meta block declares — codec configuration plus the
    ordered section descriptors — without touching a single section byte,
    so it can be built from the payload's (head + meta) prefix alone.
    ``body_offset`` is where section bytes begin
    (``PAYLOAD_HEAD_SIZE + meta_len + 4``); sections are stored coarsest
    first (descending scale, the HH approximation leading its scale), which
    is what makes every preview a strict prefix.
    """

    codec: str
    scales: int
    image_shape: Tuple[int, int]
    bit_depth: int
    bank_name: str
    sections: Tuple[PayloadSection, ...]
    body_offset: int

    @property
    def use_rle(self) -> bool:
        return any(section.use_rle for section in self.sections)

    @property
    def payload_length(self) -> int:
        """Total payload size in bytes (head + meta + CRC + every section)."""
        return self.body_offset + sum(s.length for s in self.sections)

    def spec(self) -> CodecSpec:
        """The :class:`CodecSpec` the table describes; a table whose fields
        form no valid configuration raises :class:`ArchiveFormatError`."""
        try:
            if self.bank_name:
                return CodecSpec(
                    codec=self.codec,
                    scales=self.scales,
                    bit_depth=self.bit_depth,
                    bank=self.bank_name,
                    use_rle=self.use_rle,
                )
            return CodecSpec(
                codec=self.codec, scales=self.scales, bit_depth=self.bit_depth
            )
        except (ValueError, TypeError) as exc:
            raise ArchiveFormatError(
                f"frame payload metadata does not form a valid codec "
                f"configuration ({exc})"
            ) from exc

    def _check_scale(self, at_scale: int) -> None:
        if not 0 <= at_scale <= self.scales:
            raise ValueError(
                f"at_scale must be within [0, {self.scales}], got {at_scale}"
            )

    def prefix_sections(self, at_scale: int) -> Tuple[PayloadSection, ...]:
        """The sections a scale-``at_scale`` preview needs — always a
        leading run of :attr:`sections` thanks to the coarsest-first order:
        the HH approximation plus every detail section coarser than
        ``at_scale``.  ``at_scale=0`` is the full section list."""
        self._check_scale(at_scale)
        return tuple(
            s for s in self.sections if s.kind == "HH" or s.scale > at_scale
        )

    def prefix_length(self, at_scale: int) -> int:
        """Payload bytes a scale-``at_scale`` preview reads: the head, the
        meta block + CRC, and the prefix sections — nothing else."""
        return self.body_offset + sum(
            s.length for s in self.prefix_sections(at_scale)
        )


def codec_name_for_stream(stream: CompressedStream) -> str:
    """Pipeline codec name (registry name) that produced ``stream``."""
    return family_for_stream(stream).name


def spec_for_stream(stream: CompressedStream) -> CodecSpec:
    """The :class:`CodecSpec` that reproduces ``stream``'s configuration."""
    return CodecSpec.for_stream(stream)


def frame_spec(entry: FrameInfo) -> CodecSpec:
    """Rebuild a frame's :class:`CodecSpec` from its index entry alone.

    This is what makes spec-aware random access cheap: the index carries
    the whole configuration, so no payload bytes are touched.  Registry
    errors (an index naming an unregistered codec) surface as
    :class:`ArchiveFormatError` with the frame's context.
    """
    try:
        return CodecSpec(
            codec=entry.codec,
            scales=entry.scales,
            bit_depth=entry.bit_depth,
            bank=entry.bank_name or None,
            use_rle=entry.use_rle if entry.bank_name else None,
        )
    except UnknownCodecError as exc:
        raise ArchiveFormatError(
            f"frame {entry.name!r}: index entry references an unregistered "
            f"codec ({exc})"
        ) from exc


# Meta-block fields are fixed-width, big-endian and unsigned.  The prologue
# is a u8 codec id, then scales, rows, columns and bit depth (_PROLOGUE); a
# filter-bank codec then stores its bank name (u8 length + UTF-8) and
# word-length plan (u8 word length, u8 accumulator bits, one u8 of integer
# bits per scale); the section or chunk count follows.  Descriptor layouts
# are keyed by ``family.uses_bank``.
_PROLOGUE = struct.Struct(">BIIB")
_COUNT = struct.Struct(">H")
#: Subband-major section descriptor: kind, scale, rows, columns,
#: [use_rle], payload length, [run length], section CRC-32.
_SECTION = {
    False: struct.Struct(">BBIIII"),
    True: struct.Struct(">BBIIBIII"),
}
#: Frame-major chunk descriptor: the section descriptor without its CRC.
_CHUNK = {
    False: struct.Struct(">BBIII"),
    True: struct.Struct(">BBIIBII"),
}


def _meta_prologue(spec: CodecSpec, image_shape: Tuple[int, int], count: int) -> bytes:
    """The meta-block fields in front of the descriptors: the spec (and
    the bank's word-length plan), the geometry and the descriptor count.
    A geometry above the frame ceiling raises ``ValueError``: no reader
    would accept it."""
    check_image_shape(image_shape)
    family = spec.family
    fields = [
        bytes([family.wire_id]),
        _PROLOGUE.pack(spec.scales, image_shape[0], image_shape[1], spec.bit_depth),
    ]
    if family.uses_bank:
        name = spec.bank_name.encode("utf-8")
        if len(name) > 0xFF:
            raise ValueError(f"string {spec.bank_name!r} too long for an 8-bit length")
        plan = plan_word_lengths(get_bank(spec.bank_name), spec.scales)
        fields.append(
            bytes(
                [
                    len(name),
                    *name,
                    plan.data_formats[1].word_length,
                    plan.accumulator_bits,
                    *plan.integer_bits(),
                ]
            )
        )
    fields.append(_COUNT.pack(count))
    return b"".join(fields)


class _MetaCursor:
    """Bounded reads over a meta block.

    Every read is checked against the bytes left before anything is
    unpacked.  Running out means the payload was cut when the block holds
    fewer bytes than its head declared (``complete=False``), and that the
    block is malformed otherwise; ``where`` names the field group the
    bytes end in (``None``: the section-table prologue).
    """

    __slots__ = ("data", "position", "complete")

    def __init__(self, data: Payload, complete: bool = True) -> None:
        self.data = data
        self.position = 0
        self.complete = complete

    @property
    def left(self) -> int:
        return len(self.data) - self.position

    def error(self, where: Optional[str] = None) -> ArchiveFormatError:
        if self.complete:
            suffix = f" at {where}" if where else ""
            return ArchiveFormatError(f"frame payload meta block is malformed{suffix}")
        return TruncatedArchiveError(
            f"frame payload ends inside {where or 'its section-table prologue'}"
        )

    def take(self, length: int, where: Optional[str] = None) -> Payload:
        start = self.position
        if length > len(self.data) - start:
            raise self.error(where)
        self.position = start + length
        return self.data[start : start + length]

    def unpack(self, layout: struct.Struct, where: Optional[str] = None) -> tuple:
        return layout.unpack(self.take(layout.size, where))

    def count(self, descriptor: struct.Struct) -> int:
        """The u16 descriptor count.  In a complete block it must fit the
        bytes left, so no declared count drives the loop that reads the
        descriptors; a cut block fails at the descriptor the bytes end in."""
        (count,) = self.unpack(_COUNT)
        if self.complete and count * descriptor.size > self.left:
            raise ArchiveFormatError(
                f"frame payload declares {count} {descriptor.size}-byte "
                f"descriptors but its meta block holds {self.left} bytes for them"
            )
        return count

    def text(self) -> str:
        """A u8-length-prefixed UTF-8 string (a filter-bank name)."""
        (length,) = self.take(1)
        try:
            return bytes(self.take(length)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArchiveFormatError(
                "frame payload names its filter bank in text that is not UTF-8"
            ) from exc

    def family(self):
        """The codec family the prologue's first byte names."""
        (codec_id,) = self.take(1)
        if codec_id not in CODEC_NAMES_BY_ID:
            raise ArchiveFormatError(f"frame payload has unknown codec id {codec_id}")
        # The name came from inverting the registry, so this lookup cannot
        # miss; it just resolves the id to its family entry.
        return get_family(CODEC_NAMES_BY_ID[codec_id])


def _read_geometry(cursor: _MetaCursor) -> Tuple[int, int, int, int]:
    """The prologue's scales, rows, columns and bit depth; a geometry above
    the frame ceiling raises :class:`ArchiveFormatError` before anything
    is sized from it."""
    scales, rows, columns, bit_depth = cursor.unpack(_PROLOGUE)
    try:
        check_image_shape((rows, columns))
    except ValueError as exc:
        raise ArchiveFormatError(
            f"frame payload geometry is out of range: {exc}"
        ) from exc
    return scales, rows, columns, bit_depth


def _normalized_sections(stream: CompressedStream):
    """Every chunk as ``(kind, scale, shape, use_rle, payload, run_payload)``
    in section order — descending scale, :data:`KIND_IDS` order within a
    scale, so the HH approximation leads.  Chunk *storage* order in the
    in-memory streams is irrelevant to decode (lookup is by kind/scale), so
    re-sorting here loses nothing and buys the prefix property."""
    if isinstance(stream, CompressedImage):
        rows = [
            (c.kind, c.scale, c.shape, c.use_rle, c.payload, c.run_payload)
            for c in stream.chunks
        ]
    else:
        rows = [
            (kind, scale, stream.shapes[(kind, scale)], False, payload, b"")
            for (kind, scale), payload in stream.chunks.items()
        ]
    return sorted(rows, key=lambda row: (-row[1], KIND_IDS[row[0]]))


def serialize_stream(stream: CompressedStream) -> bytes:
    """Serialise a compressed stream into one subband-major frame payload.

    The header fields are written from the stream's :class:`CodecSpec`
    (codec wire id, depth, geometry, bit depth, bank), so the payload
    carries the spec and :func:`deserialize_stream_with_spec` recovers it.
    Sections are stored coarsest-first behind a CRC'd section table, so
    every preview decodes from a strict prefix.  This is the only layout
    the writers produce; version-1 frame-major payloads are read-only.
    """
    spec = spec_for_stream(stream)
    sections = _normalized_sections(stream)
    uses_bank = spec.family.uses_bank
    descriptor = _SECTION[uses_bank]
    fields = [_meta_prologue(spec, stream.image_shape, len(sections))]
    section_bytes: List[bytes] = []
    for kind, scale, shape, use_rle, payload, run_payload in sections:
        # Per-section CRC over the section's bytes exactly as stored
        # (literal payload then run payload) — a prefix read verifies each
        # section it takes without the container-level payload checksum.
        crc = zlib.crc32(run_payload, zlib.crc32(payload)) & 0xFFFFFFFF
        if uses_bank:
            lengths = (1 if use_rle else 0, len(payload), len(run_payload))
        else:
            lengths = (len(payload),)
        fields.append(descriptor.pack(KIND_IDS[kind], scale, *shape, *lengths, crc))
        section_bytes.append(payload)
        if run_payload:
            section_bytes.append(run_payload)
    meta = b"".join(fields)
    head = _PAYLOAD_HEAD_STRUCT.pack(PAYLOAD_SENTINEL, PAYLOAD_VERSION, len(meta))
    return b"".join([head, meta, struct.pack("<I", crc32(meta)), *section_bytes])


def _check_plan(cursor: _MetaCursor, bank_name: str, scales: int) -> None:
    """Verify stored word-length metadata against the freshly derived plan."""
    try:
        bank = get_bank(bank_name)
    except (KeyError, ValueError) as exc:
        raise ArchiveFormatError(
            f"frame payload references unknown filter bank {bank_name!r}"
        ) from exc
    try:
        plan = plan_word_lengths(bank, scales)
        expected = (plan.data_formats[1].word_length, plan.accumulator_bits)
    except (KeyError, FixedPointError) as exc:
        raise ArchiveFormatError(
            f"frame payload declares {scales} scales, for which bank "
            f"{bank_name!r} has no word-length plan ({exc})"
        ) from exc
    word_length, accumulator_bits, *integer_bits = cursor.take(2 + scales)
    if (
        (word_length, accumulator_bits) != expected
        or integer_bits != plan.integer_bits()
    ):
        raise ArchiveFormatError(
            f"stored word-length plan ({word_length}-bit words, "
            f"accumulator {accumulator_bits}, integer bits {integer_bits}) does "
            f"not match the plan derived for bank {bank_name!r} at {scales} "
            "scales; the stream was written by an incompatible analysis"
        )


def is_subband_major(payload: Payload) -> bool:
    """Whether the payload bytes use the version-2 subband-major layout.

    Decided from the payload's first word alone (see
    :data:`PAYLOAD_SENTINEL`), so it works on any prefix of at least four
    bytes; shorter inputs are nobody's payload and report ``False``.
    """
    if len(payload) < 4:
        return False
    (word,) = struct.unpack_from("<I", payload, 0)
    return word == PAYLOAD_SENTINEL


def payload_layout(payload: Payload) -> str:
    """The layout name (:data:`~repro.archive.format.LAYOUTS`) of a payload."""
    return LAYOUT_SUBBAND_MAJOR if is_subband_major(payload) else LAYOUT_FRAME_MAJOR


def parse_section_table(payload: Payload, check_plan: bool = True) -> SectionTable:
    """Parse a subband-major payload's head and section table.

    Touches only the payload's ``(head + meta + meta CRC)`` prefix — never
    a section byte — so it accepts a prefix read as readily as a whole
    payload.  A payload cut *inside* the table raises
    :class:`TruncatedArchiveError` naming the section descriptor the bytes
    end in; a complete table whose CRC disagrees raises
    :class:`ArchiveIntegrityError`.  ``check_plan=False`` skips the
    word-length plan validation for triage callers (:func:`payload_spec`).
    """
    if len(payload) < PAYLOAD_HEAD_SIZE:
        raise TruncatedArchiveError(
            f"frame payload ends inside its {PAYLOAD_HEAD_SIZE}-byte "
            "subband-major head"
        )
    sentinel, version, meta_len = _PAYLOAD_HEAD_STRUCT.unpack_from(payload, 0)
    if sentinel != PAYLOAD_SENTINEL:
        raise ArchiveFormatError("payload is not subband-major (no sentinel)")
    if version != PAYLOAD_VERSION:
        raise ArchiveFormatError(
            f"subband-major payload version {version} is not supported "
            f"(expected {PAYLOAD_VERSION})"
        )
    meta = payload[PAYLOAD_HEAD_SIZE : PAYLOAD_HEAD_SIZE + meta_len]
    meta_complete = len(meta) == meta_len
    body_offset = PAYLOAD_HEAD_SIZE + meta_len + 4
    if meta_complete:
        if len(payload) < body_offset:
            raise TruncatedArchiveError(
                "frame payload ends inside its section-table checksum"
            )
        (stored_crc,) = struct.unpack_from("<I", payload, PAYLOAD_HEAD_SIZE + meta_len)
        if stored_crc != crc32(bytes(meta)):
            raise ArchiveIntegrityError("section table checksum mismatch")
    # On a truncated meta block the parse below runs against the partial
    # bytes on purpose: the cursor then names the exact descriptor the
    # payload ends in, which is the error the truncation sweep asserts.
    cursor = _MetaCursor(meta, complete=meta_complete)
    family = cursor.family()
    scales, rows, columns, bit_depth = _read_geometry(cursor)
    bank_name = ""
    if family.uses_bank:
        bank_name = cursor.text()
        if check_plan:
            _check_plan(cursor, bank_name, scales)
        else:
            cursor.take(2 + scales)
    descriptor = _SECTION[family.uses_bank]
    count = cursor.count(descriptor)
    sections: List[PayloadSection] = []
    offset = body_offset
    for index in range(count):
        where = f"section descriptor {index} of {count}"
        fields = cursor.unpack(descriptor, where)
        if family.uses_bank:
            kind_id, scale, *section_shape, use_rle, payload_len, run_len, crc = fields
        else:
            kind_id, scale, *section_shape, payload_len, crc = fields
            use_rle, run_len = False, 0
        if kind_id not in KINDS_BY_ID:
            raise cursor.error(where)
        sections.append(
            PayloadSection(
                index=index,
                kind=KINDS_BY_ID[kind_id],
                scale=scale,
                shape=tuple(section_shape),
                use_rle=bool(use_rle),
                payload_len=payload_len,
                run_len=run_len,
                crc32=crc,
                offset=offset,
            )
        )
        offset += payload_len + run_len
    if not meta_complete:
        # Every descriptor parsed out of fewer bytes than declared: the cut
        # falls between the last descriptor and the declared end.
        raise TruncatedArchiveError(
            f"frame payload ends inside its section table after descriptor "
            f"{count - 1} of {count}"
            if count
            else "frame payload ends inside its section table"
        )
    order = [(-s.scale, KIND_IDS[s.kind]) for s in sections]
    if order != sorted(order):
        raise ArchiveFormatError(
            "subband-major sections are not coarsest-first; the prefix "
            "property does not hold for this payload"
        )
    return SectionTable(
        codec=family.name,
        scales=scales,
        image_shape=(rows, columns),
        bit_depth=bit_depth,
        bank_name=bank_name,
        sections=tuple(sections),
        body_offset=body_offset,
    )


def sections_to_stream(
    table: SectionTable,
    body: Payload,
    at_scale: int = 0,
    verify: bool = True,
) -> CompressedStream:
    """Build a (possibly partial) stream from section bytes.

    ``body`` holds the payload's bytes from :attr:`SectionTable.body_offset`
    on — at least through the last section a scale-``at_scale`` preview
    needs — as stored, so slicing stays zero-copy on ``memoryview`` input.
    With ``verify`` each consumed section is checked against its own CRC,
    making a prefix read trustworthy without the whole-payload checksum.
    """
    needed = table.prefix_sections(at_scale)
    if table.bank_name:
        stream: CompressedStream = CompressedImage(
            bank_name=table.bank_name,
            scales=table.scales,
            image_shape=table.image_shape,
            bit_depth=table.bit_depth,
        )
    else:
        stream = CompressedSImage(
            scales=table.scales,
            image_shape=table.image_shape,
            bit_depth=table.bit_depth,
        )
    for section in needed:
        start = section.offset - table.body_offset
        data = body[start : start + section.length]
        if len(data) != section.length:
            raise TruncatedArchiveError(
                f"frame payload ends inside section {section.index} "
                f"({section.kind}@{section.scale}, {section.length} bytes)"
            )
        if verify and zlib.crc32(data) & 0xFFFFFFFF != section.crc32:
            raise ArchiveIntegrityError(
                f"section {section.index} ({section.kind}@{section.scale}) "
                "checksum mismatch"
            )
        literal = data[: section.payload_len]
        runs = data[section.payload_len :]
        if isinstance(stream, CompressedImage):
            stream.chunks.append(
                SubbandChunk(
                    kind=section.kind,
                    scale=section.scale,
                    shape=section.shape,
                    use_rle=section.use_rle,
                    payload=literal,
                    run_payload=runs,
                )
            )
        else:
            stream.chunks[(section.kind, section.scale)] = literal
            stream.shapes[(section.kind, section.scale)] = section.shape
    return stream


def deserialize_prefix(
    payload: Payload, at_scale: int
) -> Tuple[CompressedStream, CodecSpec]:
    """Reconstruct the partial stream a scale-``at_scale`` preview needs.

    ``payload`` may be the whole payload or any prefix of at least
    ``prefix_length(payload, at_scale)`` bytes; only those bytes are
    touched (zero-copy on ``memoryview`` input) and each consumed section
    is verified against its per-section CRC.  The returned stream holds
    the HH approximation plus the detail subbands coarser than
    ``at_scale``; the spec is the full frame's (derived from the complete
    section table, which a prefix always carries whole).
    """
    table = parse_section_table(payload)
    stream = sections_to_stream(
        table, payload[table.body_offset :], at_scale=at_scale
    )
    return stream, table.spec()


def prefix_length(payload: Payload, at_scale: int) -> int:
    """Bytes of ``payload`` a scale-``at_scale`` preview decode touches."""
    return parse_section_table(payload, check_plan=False).prefix_length(at_scale)


def deserialize_stream_with_spec(payload: Payload) -> Tuple[CompressedStream, CodecSpec]:
    """Reconstruct one frame payload's stream *and* its :class:`CodecSpec`.

    ``payload`` may be ``bytes`` or a ``memoryview``; a view is never
    copied — the returned stream's chunk payloads are sub-views of it, so
    they remain valid only as long as the view's backing store does
    (the reader holds its mapping open until :meth:`ArchiveReader.close`).
    Both layouts are accepted: version-1 frame-major payloads parse exactly
    as before, and subband-major payloads are recognised by their sentinel
    and parsed through the section table (every section CRC-verified).
    """
    if is_subband_major(payload):
        table = parse_section_table(payload)
        if table.payload_length != len(payload):
            if table.payload_length > len(payload):
                raise TruncatedArchiveError(
                    f"frame payload declares {table.payload_length} bytes of "
                    f"sections but holds {len(payload)}"
                )
            raise ArchiveFormatError(
                f"frame payload has {len(payload) - table.payload_length} "
                "trailing bytes after the declared sections"
            )
        stream = sections_to_stream(table, payload[table.body_offset :])
        return stream, table.spec()
    return _deserialize_frame_major(payload)


def _serialize_frame_major(stream: CompressedStream) -> bytes:
    """The version-1 monolithic payload that :func:`_deserialize_frame_major`
    parses: ``meta_len``, the meta block, then every chunk's bytes in the
    stream's own chunk order.

    No production code calls this — frame-major is read-only.  It mints
    read-compat fixtures (real version-1 payloads and archives) for the
    tests and benchmarks, as :func:`~repro.coding.rice.rice_encode_scalar`
    does for the legacy interleaved Rice blocks.
    """
    spec = spec_for_stream(stream)
    descriptor = _CHUNK[spec.family.uses_bank]
    fields = [_meta_prologue(spec, stream.image_shape, len(stream.chunks))]
    chunk_bytes: List[bytes] = []
    if spec.family.uses_bank:
        for chunk in stream.chunks:
            fields.append(
                descriptor.pack(
                    KIND_IDS[chunk.kind], chunk.scale, *chunk.shape,
                    1 if chunk.use_rle else 0, len(chunk.payload), len(chunk.run_payload),
                )
            )
            chunk_bytes += [chunk.payload, chunk.run_payload]
    else:
        for (kind, scale), payload in stream.chunks.items():
            shape = stream.shapes[(kind, scale)]
            fields.append(descriptor.pack(KIND_IDS[kind], scale, *shape, len(payload)))
            chunk_bytes.append(payload)
    meta = b"".join(fields)
    return b"".join([struct.pack("<I", len(meta)), meta, *chunk_bytes])


def _deserialize_frame_major(payload: Payload) -> Tuple[CompressedStream, CodecSpec]:
    """The version-1 monolithic parse (unchanged from container v1)."""
    if len(payload) < 4:
        raise ArchiveFormatError("frame payload shorter than its length prefix")
    (meta_len,) = struct.unpack_from("<I", payload, 0)
    meta = payload[4 : 4 + meta_len]
    if len(meta) != meta_len:
        raise ArchiveFormatError(
            f"frame payload declares a {meta_len}-byte meta block but only "
            f"{len(meta)} bytes follow"
        )
    cursor = _MetaCursor(meta)
    family = cursor.family()
    scales, rows, columns, bit_depth = _read_geometry(cursor)
    position = 4 + meta_len

    def take(length: int) -> Payload:
        # Slicing keeps the input's form: bytes stay bytes, views stay
        # views (zero-copy into the backend's mapping).
        nonlocal position
        data = payload[position : position + length]
        if len(data) != length:
            raise ArchiveFormatError(f"frame payload ends inside a {length}-byte chunk")
        position += length
        return data

    stream: CompressedStream
    if family.uses_bank:
        bank_name = cursor.text()
        _check_plan(cursor, bank_name, scales)
        stream = CompressedImage(
            bank_name=bank_name,
            scales=scales,
            image_shape=(rows, columns),
            bit_depth=bit_depth,
        )
    else:
        stream = CompressedSImage(
            scales=scales, image_shape=(rows, columns), bit_depth=bit_depth
        )
    descriptor = _CHUNK[family.uses_bank]
    for _ in range(cursor.count(descriptor)):
        fields = cursor.unpack(descriptor)
        if fields[0] not in KINDS_BY_ID:
            raise cursor.error()
        kind = KINDS_BY_ID[fields[0]]
        if family.uses_bank:
            _, chunk_scale, *chunk_shape, use_rle, payload_len, run_len = fields
            stream.chunks.append(
                SubbandChunk(
                    kind=kind,
                    scale=chunk_scale,
                    shape=tuple(chunk_shape),
                    use_rle=bool(use_rle),
                    payload=take(payload_len),
                    run_payload=take(run_len),
                )
            )
        else:
            _, chunk_scale, *chunk_shape, payload_len = fields
            stream.chunks[(kind, chunk_scale)] = take(payload_len)
            stream.shapes[(kind, chunk_scale)] = tuple(chunk_shape)
    if position != len(payload):
        raise ArchiveFormatError(
            f"frame payload has {len(payload) - position} trailing bytes after "
            "the declared chunks"
        )
    try:
        spec = spec_for_stream(stream)
    except (ValueError, TypeError) as exc:
        raise ArchiveFormatError(
            f"frame payload metadata does not form a valid codec "
            f"configuration ({exc})"
        ) from exc
    return stream, spec


def materialize_stream(stream: CompressedStream) -> CompressedStream:
    """Ensure a stream's chunk payloads are self-contained ``bytes``.

    A stream deserialised from a zero-copy view holds sub-views of the
    reader's storage mapping: fast to decode, but not picklable (process
    pools) and only valid while the mapping lives.  This copies any such
    views into ``bytes`` **in place** and returns the stream; byte-backed
    streams pass through untouched, so it is free on the copying path.
    """
    if isinstance(stream, CompressedImage):
        stream.chunks[:] = [
            chunk
            if isinstance(chunk.payload, bytes) and isinstance(chunk.run_payload, bytes)
            else _dc_replace(
                chunk,
                payload=bytes(chunk.payload),
                run_payload=bytes(chunk.run_payload),
            )
            for chunk in stream.chunks
        ]
    else:
        for key, data in stream.chunks.items():
            if not isinstance(data, bytes):
                stream.chunks[key] = bytes(data)
    return stream


def deserialize_stream(payload: Payload) -> CompressedStream:
    """Reconstruct the compressed stream from one archive frame payload."""
    stream, _ = deserialize_stream_with_spec(payload)
    return stream


def payload_spec(payload: Payload) -> CodecSpec:
    """Recover just the :class:`CodecSpec` from a payload's meta block.

    A triage entry point: answers "what configuration wrote these bytes"
    by parsing only the meta block — chunk *descriptors* are read for the
    RLE policy but the entropy-coded chunk bytes are never touched or
    validated, so this works even when the payload's chunk region is
    truncated (the common damage mode the sharded verify isolates).  On a
    subband-major payload the section table answers directly (word-length
    plan validation skipped, same as the v1 triage path); a payload cut
    inside the table raises :class:`TruncatedArchiveError` naming the
    section descriptor, never a raw struct/EOF error.
    """
    if is_subband_major(payload):
        return parse_section_table(payload, check_plan=False).spec()
    if len(payload) < 4:
        raise ArchiveFormatError("frame payload shorter than its length prefix")
    (meta_len,) = struct.unpack_from("<I", payload, 0)
    meta = payload[4 : 4 + meta_len]
    if len(meta) != meta_len:
        raise ArchiveFormatError(
            f"frame payload declares a {meta_len}-byte meta block but only "
            f"{len(meta)} bytes follow"
        )
    cursor = _MetaCursor(meta)
    family = cursor.family()
    scales, _, _, bit_depth = _read_geometry(cursor)  # geometry is not spec
    try:
        if not family.uses_bank:
            return CodecSpec(codec=family.name, scales=scales, bit_depth=bit_depth)
        bank_name = cursor.text()
        # Skip the stored word-length plan (word length, accumulator,
        # per-scale integer bits) — triage must not require it to validate.
        cursor.take(2 + scales)
        descriptor = _CHUNK[True]
        use_rle = False
        for _ in range(cursor.count(descriptor)):
            use_rle = bool(cursor.unpack(descriptor)[4]) or use_rle
        return CodecSpec(
            codec=family.name,
            scales=scales,
            bit_depth=bit_depth,
            bank=bank_name,
            use_rle=use_rle,
        )
    except (ValueError, TypeError) as exc:
        raise ArchiveFormatError(
            f"frame payload metadata does not form a valid codec configuration ({exc})"
        ) from exc
