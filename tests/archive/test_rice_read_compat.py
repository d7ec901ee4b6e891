"""Read compatibility: archives holding interleaved Rice blocks still decode.

Codecs write planar Rice blocks; archives written before the planar layout
existed hold interleaved ones.  The block layout is self-describing (bit 7
of its first byte), so no container, payload or codec version tells them
apart.  These tests mint streams whose chunks are re-encoded with the
legacy interleaved :func:`rice_encode_scalar` — all of them, or every other
one mixed with planar chunks — store them in both payload layouts, and
require bit-exact decodes through ``ArchiveReader.decode``,
``read_preview`` and ``decompress_frames`` under every entropy engine.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro.archive import (
    ArchiveReader,
    ArchiveWriter,
    LAYOUT_FRAME_MAJOR,
    LAYOUT_SUBBAND_MAJOR,
)
from repro.coding import LosslessWaveletCodec, STransformCodec
from repro.coding.pipeline import CompressedBatch, decompress_frames
from repro.coding.rice import (
    is_planar_block,
    rice_decode_array,
    rice_encode_scalar,
)
from repro.imaging import shepp_logan

from legacy_util import frame_major_writes

pytestmark = pytest.mark.archive

SCALES = 3
PREVIEW_SCALE = 2

CODECS = {
    "s-transform": (lambda: STransformCodec(scales=SCALES), {}),
    "coefficient": (
        lambda: LosslessWaveletCodec(bank="F2", scales=SCALES),
        {"bank": "F2"},
    ),
}


def _interleaved(payload: bytes) -> bytes:
    """The block an encoder predating the planar layout wrote for these symbols."""
    legacy = rice_encode_scalar(rice_decode_array(payload))
    assert not is_planar_block(legacy)
    return legacy


def _remint(stream, mint: str):
    """``stream`` with its chunks re-encoded interleaved (all, or every other)."""

    def convert(index: int, payload: bytes) -> bytes:
        if mint == "interleaved" or index % 2 == 0:
            return _interleaved(payload)
        return payload

    if isinstance(stream.chunks, dict):
        chunks = {
            key: convert(index, payload)
            for index, (key, payload) in enumerate(stream.chunks.items())
        }
    else:
        chunks = [
            dataclasses.replace(
                chunk,
                payload=convert(index, chunk.payload),
                run_payload=(
                    convert(index + 1, chunk.run_payload) if chunk.use_rle else b""
                ),
            )
            for index, chunk in enumerate(stream.chunks)
        ]
    return dataclasses.replace(stream, chunks=chunks)


def _block_layouts(stream):
    if isinstance(stream.chunks, dict):
        payloads = list(stream.chunks.values())
    else:
        payloads = [chunk.payload for chunk in stream.chunks]
        payloads += [chunk.run_payload for chunk in stream.chunks if chunk.use_rle]
    return {is_planar_block(payload) for payload in payloads}


@pytest.fixture(scope="module")
def image():
    return shepp_logan(64)


@pytest.mark.parametrize("engine", ["fast", "scalar"])
@pytest.mark.parametrize("layout", [LAYOUT_FRAME_MAJOR, LAYOUT_SUBBAND_MAJOR])
@pytest.mark.parametrize("mint", ["interleaved", "mixed"])
@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_legacy_rice_blocks_decode_bit_exactly(
    tmp_path, image, codec_name, mint, layout, engine
):
    factory, options = CODECS[codec_name]
    codec = factory()
    planar = codec.encode(image)
    legacy = _remint(planar, mint)
    expected_layouts = {False} if mint == "interleaved" else {False, True}
    assert _block_layouts(legacy) == expected_layouts
    expected_preview = codec.decode_preview(planar, PREVIEW_SCALE)

    path = tmp_path / "legacy.dwta"
    mint = (
        frame_major_writes() if layout == LAYOUT_FRAME_MAJOR else contextlib.nullcontext()
    )
    with mint, ArchiveWriter.create(
        path, codec=codec_name, scales=SCALES, **options
    ) as writer:
        writer.add_stream(legacy, name="legacy")

    with ArchiveReader(path, engine=engine) as reader:
        entry = reader.find("legacy")
        assert entry.layout == layout
        assert np.array_equal(reader.decode(entry), image)
        assert np.array_equal(
            reader.read_preview(entry, PREVIEW_SCALE), expected_preview
        )
        # Chunk payloads may be views of the reader's mapping: use them
        # before it closes.
        stored = reader.read_stream(entry)
        assert _block_layouts(stored) == expected_layouts
        batch = CompressedBatch.from_spec(reader.spec_for(entry), [stored])
        frames, _ = decompress_frames(batch, engine=engine)
    assert len(frames) == 1 and np.array_equal(frames[0], image)
