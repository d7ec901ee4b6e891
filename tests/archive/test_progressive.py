"""Progressive retrieval: subband-major payloads, strict-prefix previews, ROI.

Three layers of the tentpole property under test:

- the **wire**: a subband-major payload orders its independently CRC'd
  sections coarsest-first, so the bytes a scale-``k`` preview needs are a
  strict prefix (:func:`prefix_length` prices it, :func:`deserialize_prefix`
  decodes it, a full parse stays bit-exact with frame-major);
- the **readers**: ``read_preview`` advances ``bytes_read`` by exactly the
  prefix, ``read_roi`` matches a full-decode row slice, v1 frame-major
  archives keep decoding bit for bit, and the result is identical across
  entropy engines and worker counts;
- the **server**: ``GET /frames/<name>/preview`` returns byte-identical
  pixels to a direct ``read_preview``, the hot cache keys previews per
  scale with per-kind hit/miss counters, and an ingest invalidates them.
"""

import asyncio
import contextlib
import dataclasses
import json
import struct

import numpy as np
import pytest

from repro.archive import (
    ArchiveFormatError,
    ArchiveIntegrityError,
    ArchiveReader,
    ArchiveWriter,
    LAYOUT_FRAME_MAJOR,
    LAYOUT_SUBBAND_MAJOR,
    TruncatedArchiveError,
    deserialize_prefix,
    deserialize_stream,
    payload_layout,
    prefix_length,
    serialize_stream,
)
from repro.archive.format import require_write_layout
from repro.archive.replication import ReplicatedShardSet
from repro.archive.serialize import (
    PAYLOAD_HEAD_SIZE,
    _serialize_frame_major,
    parse_section_table,
)
from repro.archive.sharding import (
    ShardedArchiveReader,
    ShardedArchiveWriter,
    write_manifest,
)
from repro.coding import LosslessWaveletCodec, STransformCodec
from repro.imaging import ct_slice_series, shepp_logan
from legacy_util import frame_major_writes
from server_util import (
    HTTPClient,
    build_plain,
    ingest_body,
    response_frame,
    running_server,
    series,
)

pytestmark = pytest.mark.archive

SCALES = 3


@pytest.fixture(scope="module")
def image():
    return shepp_logan(64)


CODECS = {
    "s-transform": lambda: STransformCodec(scales=SCALES),
    "coefficient": lambda: LosslessWaveletCodec(bank="F2", scales=SCALES),
}


@pytest.fixture(params=sorted(CODECS))
def codec(request):
    return CODECS[request.param]()


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Wire level: the subband-major payload and its prefix property
# ---------------------------------------------------------------------------

class TestSubbandMajorPayload:
    def test_layouts_are_distinguishable(self, codec, image):
        stream = codec.encode(image)
        assert payload_layout(_serialize_frame_major(stream)) == LAYOUT_FRAME_MAJOR
        assert payload_layout(serialize_stream(stream)) == LAYOUT_SUBBAND_MAJOR

    def test_full_roundtrip_is_bit_exact(self, codec, image):
        payload = serialize_stream(codec.encode(image))
        assert np.array_equal(codec.decode(deserialize_stream(payload)), image)

    def test_sections_are_coarsest_first(self, codec, image):
        payload = serialize_stream(codec.encode(image))
        table = parse_section_table(payload)
        scales_seen = [s.scale for s in table.sections]
        assert scales_seen == sorted(scales_seen, reverse=True)
        assert table.sections[0].kind == "HH"
        assert table.sections[0].scale == SCALES

    def test_prefix_length_prices_every_scale(self, codec, image):
        payload = serialize_stream(codec.encode(image))
        lengths = [prefix_length(payload, k) for k in range(SCALES + 1)]
        # Scale 0 is the whole payload; every coarser preview is a strictly
        # shorter prefix of it.
        assert lengths[0] == len(payload)
        assert lengths == sorted(lengths, reverse=True)
        assert lengths[-1] < lengths[0]

    @pytest.mark.parametrize("at_scale", range(SCALES + 1))
    def test_prefix_bytes_decode_the_preview(self, codec, image, at_scale):
        stream = codec.encode(image)
        payload = serialize_stream(stream)
        # Hand deserialize_prefix EXACTLY the prefix — one byte fewer must
        # fail, so succeeding here proves the strict-prefix property.
        cut = payload[: prefix_length(payload, at_scale)]
        partial, spec = deserialize_prefix(cut, at_scale)
        assert spec.scales == SCALES
        expected = codec.decode_preview(stream, at_scale)
        assert np.array_equal(codec.decode_preview(partial, at_scale), expected)
        side = image.shape[0] >> at_scale
        assert expected.shape == (side, side)

    def test_one_byte_short_of_the_prefix_fails(self, codec, image):
        payload = serialize_stream(codec.encode(image))
        cut = payload[: prefix_length(payload, SCALES) - 1]
        with pytest.raises(TruncatedArchiveError, match="section"):
            deserialize_prefix(cut, SCALES)

    def test_scale_zero_prefix_equals_full_decode(self, codec, image):
        stream = codec.encode(image)
        payload = serialize_stream(stream)
        partial, _ = deserialize_prefix(payload, 0)
        assert np.array_equal(codec.decode(partial), image)

    def test_section_crc_guards_each_section(self, codec, image):
        payload = bytearray(serialize_stream(codec.encode(image)))
        table = parse_section_table(bytes(payload))
        payload[table.sections[0].offset] ^= 0xFF
        with pytest.raises(ArchiveIntegrityError, match="section 0"):
            deserialize_stream(bytes(payload))
        with pytest.raises(ArchiveIntegrityError, match="section 0"):
            deserialize_prefix(bytes(payload), SCALES)

    def test_meta_crc_guards_the_table(self, codec, image):
        payload = bytearray(serialize_stream(codec.encode(image)))
        payload[PAYLOAD_HEAD_SIZE] ^= 0x01  # first meta byte (the codec id)
        with pytest.raises((ArchiveIntegrityError, ArchiveFormatError)):
            parse_section_table(bytes(payload))

    def test_trailing_bytes_raise(self, codec, image):
        payload = serialize_stream(codec.encode(image))
        with pytest.raises(ArchiveFormatError, match="trailing"):
            deserialize_stream(payload + b"\x00")

    def test_declared_but_missing_sections_raise(self, codec, image):
        payload = serialize_stream(codec.encode(image))
        with pytest.raises(TruncatedArchiveError):
            deserialize_stream(payload[:-1])

    def test_out_of_order_sections_are_rejected(self, image):
        """A doctored table whose sections are not coarsest-first must be
        refused outright — the prefix property would silently not hold."""
        stream = STransformCodec(scales=SCALES).encode(image)
        payload = serialize_stream(stream)
        _, _, meta_len = struct.unpack_from("<IBI", payload, 0)
        meta = bytearray(payload[PAYLOAD_HEAD_SIZE : PAYLOAD_HEAD_SIZE + meta_len])
        # s-transform meta: 13-byte prologue then fixed 18-byte descriptors.
        prologue, desc = 13, 18
        meta[prologue : prologue + desc], meta[prologue + desc : prologue + 2 * desc] = (
            meta[prologue + desc : prologue + 2 * desc],
            meta[prologue : prologue + desc],
        )
        import zlib

        doctored = (
            payload[:PAYLOAD_HEAD_SIZE]
            + bytes(meta)
            + struct.pack("<I", zlib.crc32(bytes(meta)) & 0xFFFFFFFF)
            + payload[PAYLOAD_HEAD_SIZE + meta_len + 4 :]
        )
        with pytest.raises(ArchiveFormatError, match="coarsest-first"):
            parse_section_table(doctored)


# ---------------------------------------------------------------------------
# Cross-version matrix: v1 compatibility, engines, workers
# ---------------------------------------------------------------------------

class TestCrossVersionMatrix:
    FRAME_COUNT = 3

    def _write(self, path, layout, workers=1, **kwargs):
        frames = ct_slice_series(count=self.FRAME_COUNT, size=64, seed=7)
        mint = (
            frame_major_writes()
            if layout == LAYOUT_FRAME_MAJOR
            else contextlib.nullcontext()
        )
        with mint, ArchiveWriter.create(
            path, scales=SCALES, workers=workers, **kwargs
        ) as writer:
            writer.append_batch(list(frames), names=["a", "b", "c"])
        return list(frames)

    def test_frame_major_archive_stays_version_1(self, tmp_path):
        path = tmp_path / "v1.dwta"
        frames = self._write(path, LAYOUT_FRAME_MAJOR)
        with ArchiveReader(path) as reader:
            assert reader.header.version == 1
            for name, frame in zip(["a", "b", "c"], frames):
                entry = reader.find(name)
                assert entry.layout == LAYOUT_FRAME_MAJOR
                assert np.array_equal(reader.decode(entry), frame)

    def test_subband_major_archive_is_version_2(self, tmp_path):
        path = tmp_path / "v2.dwta"
        frames = self._write(path, LAYOUT_SUBBAND_MAJOR)
        with ArchiveReader(path) as reader:
            assert reader.header.version == 2
            for name, frame in zip(["a", "b", "c"], frames):
                entry = reader.find(name)
                assert entry.layout == LAYOUT_SUBBAND_MAJOR
                assert np.array_equal(reader.decode(entry), frame)

    @pytest.mark.parametrize("engine", ["scalar", "fast"])
    def test_layouts_decode_identically_under_every_engine(self, tmp_path, engine):
        v1, v2 = tmp_path / "v1.dwta", tmp_path / "v2.dwta"
        self._write(v1, LAYOUT_FRAME_MAJOR)
        self._write(v2, LAYOUT_SUBBAND_MAJOR)
        with ArchiveReader(v1, engine=engine) as a, ArchiveReader(v2, engine=engine) as b:
            for name in ["a", "b", "c"]:
                assert np.array_equal(a.decode(name), b.decode(name)), (engine, name)
                assert np.array_equal(
                    a.read_preview(name, 2), b.read_preview(name, 2)
                ), (engine, name)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_never_changes_the_bytes(self, tmp_path, workers):
        serial, pooled = tmp_path / "serial.dwta", tmp_path / "pooled.dwta"
        self._write(serial, LAYOUT_SUBBAND_MAJOR, workers=1)
        frames = self._write(pooled, LAYOUT_SUBBAND_MAJOR, workers=workers)
        assert serial.read_bytes() == pooled.read_bytes()
        with ArchiveReader(pooled) as reader:
            decoded, _ = reader.decode_all(workers=workers)
        assert len(decoded) == len(frames)
        for frame, image in zip(frames, decoded):
            assert np.array_equal(frame, image)

    def test_append_to_a_v1_archive_writes_subband_major(self, tmp_path):
        """Appending to a frame-major archive adds subband-major frames and
        turns the header into v2; the old frames still decode bit-exactly
        and preview through the full-read fallback."""
        path = tmp_path / "v1.dwta"
        frames = self._write(path, LAYOUT_FRAME_MAJOR)
        extra = ct_slice_series(count=1, size=64, seed=11)[0]
        with ArchiveWriter.append(path) as writer:
            writer.append_batch([extra], names=["d"])
        codec = STransformCodec(scales=SCALES)
        with ArchiveReader(path) as reader:
            assert reader.header.version == 2
            assert reader.find("d").layout == LAYOUT_SUBBAND_MAJOR
            assert np.array_equal(reader.decode("d"), extra)
            for name, frame in zip(["a", "b", "c"], frames):
                entry = reader.find(name)
                assert entry.layout == LAYOUT_FRAME_MAJOR
                assert np.array_equal(reader.decode(entry), frame)
                before = reader.bytes_read
                preview = reader.read_preview(entry, 1)
                assert reader.bytes_read - before == entry.length
                assert np.array_equal(
                    preview, codec.decode_preview(codec.encode(frame), 1)
                )

    def test_append_to_a_frame_major_set_keeps_its_manifest(self, tmp_path):
        """A set whose manifest says frame-major takes subband-major frames
        on append; the manifest bytes stay exactly as they were."""
        path = tmp_path / "v1.dwts"
        old = series(count=4, size=64, seed=3)
        with frame_major_writes():
            with ShardedArchiveWriter.create(path, shards=2, scales=SCALES) as writer:
                writer.append_batch(list(old.values()), names=list(old))
            # Writers only stamp subband-major manifests; mint the flag a
            # frame-major set's manifest carries.
            manifest = writer.manifest
            write_manifest(path, dataclasses.replace(manifest, layout=LAYOUT_FRAME_MAJOR))
        manifest_bytes = path.read_bytes()
        new = series(count=4, size=64, seed=9)
        names = [f"new_{name}" for name in new]
        with ShardedArchiveWriter.append(path) as writer:
            writer.append_batch(list(new.values()), names=names)
        assert path.read_bytes() == manifest_bytes
        with ShardedArchiveReader(path) as reader:
            assert reader.manifest.layout == LAYOUT_FRAME_MAJOR
            for name, frame in old.items():
                entry = reader.find(name)
                assert entry.layout == LAYOUT_FRAME_MAJOR
                assert np.array_equal(reader.decode(name), frame)
                assert reader.read_preview(name, 1).shape == (32, 32)
            for name, frame in zip(names, new.values()):
                assert reader.find(name).layout == LAYOUT_SUBBAND_MAJOR
                assert np.array_equal(reader.decode(name), frame)
        for shard_path in path.parent.glob("v1.shard*.dwta"):
            with ArchiveReader(shard_path) as shard:
                layouts = {entry.layout for entry in shard.frames}
                assert shard.header.version == (
                    2 if LAYOUT_SUBBAND_MAJOR in layouts else 1
                )

    def test_frame_major_is_read_only(self, tmp_path):
        with pytest.raises(ValueError, match="read-only"):
            require_write_layout(LAYOUT_FRAME_MAJOR)
        creates = {
            "archive": lambda: ArchiveWriter.create(
                tmp_path / "a.dwta", layout=LAYOUT_FRAME_MAJOR
            ),
            "sharded": lambda: ShardedArchiveWriter.create(
                tmp_path / "s.dwts", layout=LAYOUT_FRAME_MAJOR
            ),
            "replicated": lambda: ReplicatedShardSet.create(
                tmp_path / "r.dwts", layout=LAYOUT_FRAME_MAJOR
            ),
        }
        for kind, create in creates.items():
            with pytest.raises(ValueError, match="read-only"):
                create()
            # Rejected before a single byte lands on disk.
            assert not list(tmp_path.iterdir()), kind

    def test_append_inherits_the_layout(self, tmp_path):
        path = tmp_path / "inherit.dwta"
        self._write(path, LAYOUT_SUBBAND_MAJOR)
        extra = ct_slice_series(count=1, size=64, seed=12)[0]
        with ArchiveWriter.append(path) as writer:  # no explicit layout
            writer.append_batch([extra], names=["d"])
        with ArchiveReader(path) as reader:
            assert reader.find("d").layout == LAYOUT_SUBBAND_MAJOR


# ---------------------------------------------------------------------------
# Reader level: byte accounting, previews, ROI
# ---------------------------------------------------------------------------

class TestReaderProgressive:
    @pytest.fixture(params=sorted(CODECS))
    def archive(self, request, tmp_path, image):
        path = tmp_path / "prog.dwta"
        codec_name = request.param
        kwargs = {"bank": "F2"} if codec_name == "coefficient" else {}
        with ArchiveWriter.create(
            path,
            codec=codec_name,
            scales=SCALES,
            layout=LAYOUT_SUBBAND_MAJOR,
            **kwargs,
        ) as writer:
            writer.append_batch([image], names=["frame"])
        return path, image

    def test_preview_reads_exactly_the_prefix(self, archive):
        path, image = archive
        with ArchiveReader(path) as reader:
            entry = reader.find("frame")
            payload = bytes(reader.read_payload(entry))
            for at_scale in range(SCALES + 1):
                before = reader.bytes_read
                preview = reader.read_preview(entry, at_scale)
                assert reader.bytes_read - before == prefix_length(payload, at_scale)
                side = image.shape[0] >> at_scale
                assert preview.shape == (side, side)

    def test_preview_fraction_shrinks_with_scale(self, archive):
        path, _ = archive
        with ArchiveReader(path) as reader:
            entry = reader.find("frame")
            before = reader.bytes_read
            reader.read_preview(entry, 2)
            fraction = (reader.bytes_read - before) / entry.length
        # The acceptance gate is <= 0.35 at 512^2/4 scales; at 64^2/3 scales
        # the coarse sections are an even smaller share.
        assert fraction <= 0.35

    def test_preview_scale_zero_is_the_image(self, archive):
        path, image = archive
        with ArchiveReader(path) as reader:
            assert np.array_equal(reader.read_preview("frame", 0), image)

    def test_preview_out_of_range_scale_raises(self, archive):
        path, _ = archive
        with ArchiveReader(path) as reader:
            with pytest.raises(ValueError, match="at_scale"):
                reader.read_preview("frame", SCALES + 1)
            with pytest.raises(ValueError, match="at_scale"):
                reader.read_preview("frame", -1)

    def test_roi_matches_the_full_decode_rows(self, archive):
        path, image = archive
        with ArchiveReader(path) as reader:
            full = reader.decode("frame")
            for y0, y1 in [(0, 8), (13, 37), (32, 64), (0, 64)]:
                assert np.array_equal(reader.read_roi("frame", y0, y1), full[y0:y1])
        assert np.array_equal(full, image)

    def test_roi_rejects_bad_windows(self, archive):
        path, _ = archive
        with ArchiveReader(path) as reader:
            for y0, y1 in [(-1, 8), (8, 8), (9, 8), (0, 65)]:
                with pytest.raises(ValueError):
                    reader.read_roi("frame", y0, y1)

    def test_frame_major_preview_falls_back_to_full_read(self, tmp_path, image):
        path = tmp_path / "v1.dwta"
        with frame_major_writes(), ArchiveWriter.create(path, scales=SCALES) as writer:
            writer.append_batch([image], names=["frame"])
        with ArchiveReader(path) as reader:
            entry = reader.find("frame")
            before = reader.bytes_read
            preview = reader.read_preview(entry, 2)
            # No prefix property on v1: the whole payload is read, but the
            # preview itself is still the early-stopped synthesis.
            assert reader.bytes_read - before == entry.length
            assert preview.shape == (16, 16)


class TestShardedProgressive:
    @pytest.fixture()
    def sharded(self, tmp_path):
        path = tmp_path / "set.dwts"
        frames = series(count=6, size=64, seed=3)
        with ShardedArchiveWriter.create(
            path, shards=3, scales=SCALES, layout=LAYOUT_SUBBAND_MAJOR
        ) as writer:
            writer.append_batch(list(frames.values()), names=list(frames))
        return path, frames

    def test_routed_previews_and_rois(self, sharded):
        path, frames = sharded
        with ShardedArchiveReader(path) as reader:
            assert reader.manifest.layout == LAYOUT_SUBBAND_MAJOR
            for name in frames:
                full = reader.decode(name)
                preview = reader.read_preview(name, 1)
                assert preview.shape == (32, 32)
                assert np.array_equal(
                    reader.read_preview(name, 0), full
                )
                assert np.array_equal(reader.read_roi(name, 8, 24), full[8:24])


# ---------------------------------------------------------------------------
# Server level: the preview endpoint and the per-kind cache
# ---------------------------------------------------------------------------

class TestServerPreview:
    @pytest.fixture()
    def subband_archive(self, tmp_path):
        frames = series(count=4, size=64, seed=5)
        path = tmp_path / "prog.dwta"
        with ArchiveWriter.create(
            path, scales=SCALES, layout=LAYOUT_SUBBAND_MAJOR
        ) as writer:
            writer.append_batch(list(frames.values()), names=list(frames))
        return path, frames

    def test_preview_bytes_match_a_direct_read(self, subband_archive):
        path, frames = subband_archive
        with ArchiveReader(path) as reader:
            expected = {
                (name, k): reader.read_preview(name, k)
                for name in frames
                for k in range(SCALES + 1)
            }

        async def scenario():
            async with running_server(path) as server:
                async with HTTPClient(server.address) as client:
                    for (name, k), direct in expected.items():
                        status, headers, body = await client.request(
                            "GET", f"/frames/{name}/preview?scale={k}"
                        )
                        assert status == 200
                        assert headers["x-frame-scale"] == str(k)
                        assert headers["x-frame-layout"] == LAYOUT_SUBBAND_MAJOR
                        served = response_frame(headers, body)
                        assert body == direct.astype(direct.dtype).tobytes()
                        assert np.array_equal(served, direct), (name, k)

        run(scenario())

    def test_preview_defaults_to_scale_one(self, subband_archive):
        path, frames = subband_archive
        name = next(iter(frames))

        async def scenario():
            async with running_server(path) as server:
                status, headers, _ = await asyncio.wait_for(
                    self._get(server.address, f"/frames/{name}/preview"), 10
                )
                assert status == 200
                assert headers["x-frame-scale"] == "1"
                assert headers["x-frame-shape"] == "32x32"

        run(scenario())

    @staticmethod
    async def _get(address, target):
        async with HTTPClient(address) as client:
            return await client.request("GET", target)

    def test_roi_param_serves_the_row_band(self, subband_archive):
        path, frames = subband_archive
        name = next(iter(frames))
        with ArchiveReader(path) as reader:
            direct = reader.read_roi(name, 8, 24)

        async def scenario():
            async with running_server(path) as server:
                status, headers, body = await self._get(
                    server.address, f"/frames/{name}/preview?roi=8-24"
                )
                assert status == 200
                assert headers["x-frame-roi"] == "8-24"
                assert np.array_equal(response_frame(headers, body), direct)

        run(scenario())

    def test_bad_preview_requests_are_400(self, subband_archive):
        path, frames = subband_archive
        name = next(iter(frames))

        async def scenario():
            async with running_server(path) as server:
                for target in (
                    f"/frames/{name}/preview?scale=zz",
                    f"/frames/{name}/preview?scale={SCALES + 1}",
                    f"/frames/{name}/preview?scale=-1",
                    f"/frames/{name}/preview?roi=5",
                    f"/frames/{name}/preview?roi=8-4",
                    f"/frames/{name}/preview?scale=1&roi=0-8",
                ):
                    status, _, _ = await self._get(server.address, target)
                    assert status == 400, target
                status, _, _ = await self._get(
                    server.address, "/frames/no_such/preview?scale=1"
                )
                assert status == 404

        run(scenario())

    def test_cache_counts_preview_hits_per_kind(self, subband_archive):
        path, frames = subband_archive
        name = next(iter(frames))

        async def scenario():
            async with running_server(path) as server:
                async with HTTPClient(server.address) as client:
                    _, h1, _ = await client.request(
                        "GET", f"/frames/{name}/preview?scale=2"
                    )
                    _, h2, _ = await client.request(
                        "GET", f"/frames/{name}/preview?scale=2"
                    )
                    # A different scale is a different cache entry.
                    _, h3, _ = await client.request(
                        "GET", f"/frames/{name}/preview?scale=1"
                    )
                    await client.request("GET", f"/frames/{name}")
                    status, stats = await client.get_json("/stats")
                assert h1["x-archive-cache"] == "miss"
                assert h2["x-archive-cache"] == "hit"
                assert h3["x-archive-cache"] == "miss"
                assert status == 200
                kinds = stats["cache"]["kinds"]
                assert kinds["preview"] == {"hits": 1, "misses": 2}
                assert kinds["full"]["misses"] == 1

        run(scenario())

    def test_ingest_invalidates_cached_previews(self, subband_archive, tmp_path):
        path, frames = subband_archive
        name = next(iter(frames))
        new_frames = series(count=1, size=64, seed=99)
        body = ingest_body({"fresh_000": next(iter(new_frames.values()))})

        async def scenario():
            async with running_server(path) as server:
                async with HTTPClient(server.address) as client:
                    _, first, _ = await client.request(
                        "GET", f"/frames/{name}/preview?scale=2"
                    )
                    assert first["x-archive-cache"] == "miss"
                    _, warm, _ = await client.request(
                        "GET", f"/frames/{name}/preview?scale=2"
                    )
                    assert warm["x-archive-cache"] == "hit"
                    status, _, _ = await client.request(
                        "POST", "/ingest", body=body
                    )
                    assert status == 200
                    # The generation bumped: the cached preview is stale.
                    _, after, _ = await client.request(
                        "GET", f"/frames/{name}/preview?scale=2"
                    )
                    assert after["x-archive-cache"] == "miss"
                    # The ingested frame previews too.
                    status, headers, _ = await client.request(
                        "GET", "/frames/fresh_000/preview?scale=1"
                    )
                    assert status == 200
                    assert headers["x-frame-shape"] == "32x32"

        run(scenario())

    def test_meta_reports_the_layout(self, subband_archive):
        path, frames = subband_archive
        name = next(iter(frames))

        async def scenario():
            async with running_server(path) as server:
                async with HTTPClient(server.address) as client:
                    status, meta = await client.get_json(f"/frames/{name}/meta")
                assert status == 200
                assert meta["layout"] == LAYOUT_SUBBAND_MAJOR

        run(scenario())
