"""The subband-major section table: struct-packed bytes, round trips, and
typed errors on any bytes behind a valid head.

The meta block is a run of fixed-width big-endian fields.  The reference
below mints it field by field through :class:`BitWriter` (MSB-first), so
the struct layouts in :mod:`repro.archive.serialize` are pinned to the bit
writer's bytes for both codec families, every scale count, RLE on and off,
and empty sections.
"""

import dataclasses
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive.format import (
    KIND_IDS,
    ArchiveError,
    ArchiveFormatError,
    TruncatedArchiveError,
)
from repro.archive.serialize import (
    PAYLOAD_HEAD_SIZE,
    PAYLOAD_SENTINEL,
    PAYLOAD_VERSION,
    deserialize_stream,
    parse_section_table,
    payload_spec,
    serialize_stream,
    spec_for_stream,
)
from repro.coding import LosslessWaveletCodec, STransformCodec
from repro.coding.bitstream import BitWriter
from repro.filters.catalog import get_bank
from repro.fixedpoint.wordlength import plan_word_lengths
from repro.imaging import shepp_logan

pytestmark = pytest.mark.archive

S_SIZE, S_MAX_SCALES = 64, 6
C_SIZE, C_MAX_SCALES = 32, 5


def _sections(stream):
    """``(kind, scale, shape, use_rle, payload, run_payload)`` coarsest first."""
    if isinstance(stream.chunks, dict):
        rows = [
            (kind, scale, stream.shapes[(kind, scale)], False, payload, b"")
            for (kind, scale), payload in stream.chunks.items()
        ]
    else:
        rows = [
            (c.kind, c.scale, c.shape, c.use_rle, c.payload, c.run_payload)
            for c in stream.chunks
        ]
    return sorted(rows, key=lambda row: (-row[1], KIND_IDS[row[0]]))


def _reference_payload(stream) -> bytes:
    """The subband-major payload with its meta block written bit by bit."""
    spec = spec_for_stream(stream)
    uses_bank = spec.family.uses_bank
    writer = BitWriter()
    writer.write_uint(spec.family.wire_id, 8)
    writer.write_uint(spec.scales, 8)
    writer.write_uint(stream.image_shape[0], 32)
    writer.write_uint(stream.image_shape[1], 32)
    writer.write_uint(spec.bit_depth, 8)
    if uses_bank:
        name = spec.bank_name.encode("utf-8")
        writer.write_uint(len(name), 8)
        for byte in name:
            writer.write_uint(byte, 8)
        plan = plan_word_lengths(get_bank(spec.bank_name), spec.scales)
        writer.write_uint(plan.data_formats[1].word_length, 8)
        writer.write_uint(plan.accumulator_bits, 8)
        for bits in plan.integer_bits():
            writer.write_uint(bits, 8)
    sections = _sections(stream)
    writer.write_uint(len(sections), 16)
    body = []
    for kind, scale, shape, use_rle, payload, run_payload in sections:
        writer.write_uint(KIND_IDS[kind], 8)
        writer.write_uint(scale, 8)
        writer.write_uint(shape[0], 32)
        writer.write_uint(shape[1], 32)
        if uses_bank:
            writer.write_uint(int(use_rle), 8)
        writer.write_uint(len(payload), 32)
        if uses_bank:
            writer.write_uint(len(run_payload), 32)
        writer.write_uint(zlib.crc32(bytes(payload) + bytes(run_payload)), 32)
        body += [bytes(payload), bytes(run_payload)]
    meta = writer.getvalue()
    head = struct.pack("<IBI", PAYLOAD_SENTINEL, PAYLOAD_VERSION, len(meta))
    return head + meta + struct.pack("<I", zlib.crc32(meta)) + b"".join(body)


def _s_stream(scales):
    return STransformCodec(scales=scales).encode(shepp_logan(S_SIZE))


def _c_stream(scales, use_rle):
    return LosslessWaveletCodec("F2", scales=scales, use_rle=use_rle).encode(
        shepp_logan(C_SIZE)
    )


def _streams():
    for scales in range(1, S_MAX_SCALES + 1):
        yield f"s-transform-{scales}", _s_stream(scales)
    for scales in range(1, C_MAX_SCALES + 1):
        for use_rle in (False, True):
            yield f"coefficient-{scales}-rle{int(use_rle)}", _c_stream(scales, use_rle)


def _with_empty_sections(stream):
    """Every detail section of the finest scale emptied (and, on the
    coefficient codec, RLE flagged with an empty run payload)."""
    if isinstance(stream.chunks, dict):
        empty = dataclasses.replace(stream, chunks=dict(stream.chunks))
        for kind in ("HG", "GH", "GG"):
            empty.chunks[(kind, 1)] = b""
        return empty
    chunks = [
        dataclasses.replace(c, use_rle=True, payload=b"", run_payload=b"")
        if c.scale == 1 and c.kind != "HH"
        else c
        for c in stream.chunks
    ]
    return dataclasses.replace(stream, chunks=chunks)


STREAMS = dict(_streams())


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_payload_matches_the_bit_writer_reference(name):
    stream = STREAMS[name]
    assert serialize_stream(stream) == _reference_payload(stream)


@pytest.mark.parametrize("name", ["s-transform-3", "coefficient-3-rle1"])
def test_empty_sections_match_the_reference(name):
    stream = _with_empty_sections(STREAMS[name])
    payload = serialize_stream(stream)
    assert payload == _reference_payload(stream)
    table = parse_section_table(payload)
    assert [s.length for s in table.sections if s.scale == 1 and s.kind != "HH"] == [0] * 3


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_section_table_round_trips(name):
    stream = STREAMS[name]
    payload = serialize_stream(stream)
    table = parse_section_table(payload)
    spec = spec_for_stream(stream)
    assert (table.codec, table.scales, table.image_shape, table.bit_depth) == (
        spec.codec,
        spec.scales,
        stream.image_shape,
        spec.bit_depth,
    )
    assert table.bank_name == (spec.bank_name if spec.family.uses_bank else "")
    assert table.spec() == spec
    offset = table.body_offset
    for section, (kind, scale, shape, use_rle, data, runs) in zip(
        table.sections, _sections(stream), strict=True
    ):
        assert (section.kind, section.scale, section.shape) == (kind, scale, shape)
        assert (section.use_rle, section.payload_len, section.run_len) == (
            use_rle,
            len(data),
            len(runs),
        )
        assert section.crc32 == zlib.crc32(bytes(data) + bytes(runs))
        assert section.offset == offset
        offset += section.length
    assert table.payload_length == len(payload) == offset
    assert serialize_stream(deserialize_stream(payload)) == payload


# -- typed errors behind a valid head ---------------------------------------------------


def _head(meta_len):
    return struct.pack("<IBI", PAYLOAD_SENTINEL, PAYLOAD_VERSION, meta_len)


def _only_archive_errors(payload):
    for parse in (parse_section_table, payload_spec, deserialize_stream):
        try:
            parse(payload)
        except ArchiveError:
            pass


@settings(max_examples=300, deadline=None)
@given(meta_len=st.integers(0, 400), tail=st.binary(max_size=400))
def test_random_bytes_after_a_valid_head_raise_only_archive_errors(meta_len, tail):
    _only_archive_errors(_head(meta_len) + tail)


#: A meta block that names a registered codec, then random bytes, so the
#: parse gets past the codec id.
META = st.builds(
    lambda codec_id, rest: bytes([codec_id]) + rest,
    st.sampled_from([1, 2]),
    st.binary(max_size=300),
)


@settings(max_examples=300, deadline=None)
@given(meta=META, body=st.binary(max_size=64), cut=st.integers(0, 400))
def test_random_meta_blocks_with_valid_checksums_raise_only_archive_errors(
    meta, body, cut
):
    """The table CRC is right, so every field is parsed as declared."""
    payload = _head(len(meta)) + meta + struct.pack("<I", zlib.crc32(meta)) + body
    _only_archive_errors(payload)
    _only_archive_errors(payload[: PAYLOAD_HEAD_SIZE + cut])


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(STREAMS)),
    index=st.integers(0, 10**6),
    value=st.integers(0, 255),
)
def test_any_one_byte_of_a_real_table_rewritten_raises_only_archive_errors(
    name, index, value
):
    payload = serialize_stream(STREAMS[name])
    table = parse_section_table(payload)
    meta = bytearray(payload[PAYLOAD_HEAD_SIZE : table.body_offset - 4])
    meta[index % len(meta)] = value
    doctored = (
        _head(len(meta))
        + bytes(meta)
        + struct.pack("<I", zlib.crc32(meta))
        + payload[table.body_offset :]
    )
    _only_archive_errors(doctored)


def _resealed(meta):
    return _head(len(meta)) + bytes(meta) + struct.pack("<I", zlib.crc32(meta))


def _meta(payload):
    return bytearray(payload[PAYLOAD_HEAD_SIZE : parse_section_table(payload).body_offset - 4])


def test_a_count_beyond_the_descriptors_present_is_a_format_error():
    meta = _meta(serialize_stream(STREAMS["s-transform-2"]))
    meta[11:13] = (0xFFFF).to_bytes(2, "big")  # s-transform prologue is 11 bytes
    with pytest.raises(ArchiveFormatError, match="65535 18-byte descriptors"):
        parse_section_table(_resealed(meta))


def test_a_bank_name_that_is_not_utf8_is_a_format_error():
    meta = _meta(serialize_stream(STREAMS["coefficient-2-rle0"]))
    meta[12:14] = b"\xff\xfe"  # the two bytes of "F2"
    with pytest.raises(ArchiveFormatError, match="not UTF-8"):
        parse_section_table(_resealed(meta))


@pytest.mark.parametrize("scales", [0, 40])
def test_scales_without_a_word_length_plan_are_a_format_error(scales):
    meta = _meta(serialize_stream(STREAMS["coefficient-2-rle0"]))
    meta[1] = scales
    with pytest.raises(ArchiveFormatError, match="no word-length plan"):
        parse_section_table(_resealed(meta))
    with pytest.raises(ArchiveFormatError):
        payload_spec(_resealed(meta))


def test_a_cut_table_still_names_the_descriptor_it_ends_in():
    payload = serialize_stream(STREAMS["coefficient-2-rle1"])
    table = parse_section_table(payload)
    # coefficient prologue: 11 fixed bytes, the bank name "F2" (1 + 2), a
    # 2 + scales byte plan and the count; descriptors are 23 bytes.
    prologue, descriptor = 11 + 3 + 4 + 2, 23
    for index in range(len(table.sections)):
        cut = PAYLOAD_HEAD_SIZE + prologue + index * descriptor + 7
        with pytest.raises(
            TruncatedArchiveError,
            match=f"descriptor {index} of {len(table.sections)}$",
        ):
            parse_section_table(payload[:cut])
