"""HTTP serving layer: endpoint matrix over every archive kind and backend.

The matrix is {plain, sharded, replicated} × {file, memory}: every
endpoint must behave identically whatever storage serves it, and — the
core acceptance — the frame bytes a client decodes from HTTP must be
identical to a direct :class:`ArchiveReader` decode of the same archive.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.archive import MemoryBackend, open_archive
from repro.archive.server import frame_to_wire, parse_range, HTTPError
from server_util import (
    HTTPClient,
    build_plain,
    build_replicated,
    build_sharded,
    chunk_encode,
    http_request,
    ingest_body,
    response_frame,
    running_server,
    series,
)

pytestmark = pytest.mark.archive

FRAMES = series(count=9, size=32, seed=5)

KINDS = ("plain", "sharded", "replicated")
BUILDERS = {
    "plain": build_plain,
    "sharded": build_sharded,
    "replicated": build_replicated,
}


def build_target(kind, storage, tmp_path):
    """One matrix leg: the service target + its extra service options.

    The memory legs serve preloaded :class:`MemoryBackend` buffers — a
    plain archive as the target itself, a sharded/replicated set through
    ``backend_factory`` (the manifest stays a file; each shard container
    resolves to an in-memory copy).  Memory legs are read-only by nature
    (ingest writes through paths), which the matrix respects.
    """
    path = tmp_path / ("set.dwts" if kind != "plain" else "arc.dwta")
    BUILDERS[kind](path, FRAMES)
    if storage == "file":
        return path, {}
    if kind == "plain":
        return MemoryBackend(path.read_bytes(), name=str(path)), {}
    blobs = {}

    def factory(shard_path):
        key = str(shard_path)
        if key not in blobs:
            blobs[key] = MemoryBackend(shard_path.read_bytes(), name=key)
        return blobs[key]

    return path, {"backend_factory": factory}


@pytest.fixture(params=[f"{kind}-{storage}" for kind in KINDS for storage in ("file", "memory")])
def matrix_leg(request, tmp_path):
    kind, storage = request.param.split("-")
    target, options = build_target(kind, storage, tmp_path)
    return kind, storage, target, options


def run(coro):
    return asyncio.run(coro)


class TestFrameByteIdentity:
    def test_http_decode_matches_direct_reader(self, matrix_leg, tmp_path):
        kind, storage, target, options = matrix_leg
        direct_path = tmp_path / ("set.dwts" if kind != "plain" else "arc.dwta")

        async def scenario():
            with open_archive(direct_path) as reader:
                expected = {name: reader.decode(name) for name in reader.names()}
            async with running_server(target, **options) as server:
                async with HTTPClient(server.address) as client:
                    for name, direct in expected.items():
                        status, headers, body = await client.request(
                            "GET", f"/frames/{name}"
                        )
                        assert status == 200
                        assert headers["x-frame-name"] == name
                        served = response_frame(headers, body)
                        assert served.dtype == direct.dtype
                        assert np.array_equal(served, direct), name

        run(scenario())

    def test_source_pixels_survive_the_round_trip(self, matrix_leg):
        _, _, target, options = matrix_leg

        async def scenario():
            async with running_server(target, **options) as server:
                status, headers, body = await http_request(
                    server.address, "GET", "/frames/slice_004"
                )
                assert status == 200
                assert np.array_equal(response_frame(headers, body), FRAMES["slice_004"])

        run(scenario())


class TestMetaAndManifest:
    def test_meta_matches_the_index_entry(self, matrix_leg, tmp_path):
        kind, _, target, options = matrix_leg
        direct_path = tmp_path / ("set.dwts" if kind != "plain" else "arc.dwta")

        async def scenario():
            with open_archive(direct_path) as reader:
                entry = reader.find("slice_002")
                spec = reader.spec_for(entry)
            async with running_server(target, **options) as server:
                status, _, body = await http_request(
                    server.address, "GET", "/frames/slice_002/meta"
                )
                assert status == 200
                meta = json.loads(body)
                assert meta["name"] == "slice_002"
                assert meta["shape"] == list(entry.shape)
                assert meta["stored_bytes"] == entry.length
                assert meta["crc32"] == f"{entry.crc32:08x}"
                assert meta["spec"]["codec"] == spec.to_dict()["codec"]
                assert meta["spec"]["scales"] == entry.scales
                if kind != "plain":
                    assert isinstance(meta["shard"], int)

        run(scenario())

    def test_manifest_lists_every_frame_and_the_layout(self, matrix_leg):
        kind, _, target, options = matrix_leg

        async def scenario():
            async with running_server(target, **options) as server:
                status, _, body = await http_request(server.address, "GET", "/manifest")
                assert status == 200
                manifest = json.loads(body)
                assert manifest["kind"] == kind
                assert sorted(f["name"] for f in manifest["frames"]) == sorted(FRAMES)
                shards = manifest["shards"]
                if kind == "plain":
                    assert shards["count"] == 1
                else:
                    assert shards["count"] == len(shards["names"])
                    assert shards["router"] == "hash"
                    replicas = shards["replicas"]
                    assert sorted(replicas) == sorted(shards["names"])
                    per_shard = {len(copies) for copies in replicas.values()}
                    assert per_shard == ({1} if kind == "replicated" else {0})
                assert manifest["spec"] is not None

        run(scenario())


class TestStatusTaxonomy:
    """404/405/400/416/411/505: every misuse maps to one deliberate status."""

    def test_unknown_frame_is_404(self, matrix_leg):
        _, _, target, options = matrix_leg

        async def scenario():
            async with running_server(target, **options) as server:
                async with HTTPClient(server.address) as client:
                    for path in ("/frames/nope", "/frames/nope/meta", "/bogus", "/frames/"):
                        status, _, body = await client.request("GET", path)
                        assert status == 404, path
                        assert "error" in json.loads(body)

        run(scenario())

    def test_wrong_method_is_405_with_allow(self, tmp_path):
        target = build_plain(tmp_path / "arc.dwta", FRAMES)

        async def scenario():
            async with running_server(target) as server:
                # Fresh connection per misuse: the server closes after a
                # POST error (the body may be unconsumed).
                status, headers, _ = await http_request(server.address, "POST", "/stats")
                assert status == 405
                assert headers["allow"] == "GET"
                status, headers, _ = await http_request(server.address, "GET", "/ingest")
                assert status == 405
                assert headers["allow"] == "POST"

        run(scenario())

    def test_bad_ranges_are_400_and_unsatisfiable_416(self, tmp_path):
        target = build_plain(tmp_path / "arc.dwta", FRAMES)

        async def scenario():
            async with running_server(target) as server:
                async with HTTPClient(server.address) as client:
                    for bad in ("bytes=5-2", "bytes=a-b", "frames=0-1", "bytes=1-2,4-5", "bytes=-"):
                        status, _, _ = await client.request(
                            "GET", "/frames/slice_000", headers={"Range": bad}
                        )
                        assert status == 400, bad
                    status, headers, _ = await client.request(
                        "GET", "/frames/slice_000", headers={"Range": "bytes=999999-"}
                    )
                    assert status == 416
                    assert headers["content-range"].startswith("bytes */")

        run(scenario())

    def test_ingest_without_length_is_411(self, tmp_path):
        target = build_plain(tmp_path / "arc.dwta", FRAMES)

        async def scenario():
            async with running_server(target) as server:
                status, _, _ = await http_request(server.address, "POST", "/ingest")
                assert status == 411

        run(scenario())

    def test_unsupported_http_version_is_505(self, tmp_path):
        target = build_plain(tmp_path / "arc.dwta", FRAMES)

        async def scenario():
            async with running_server(target) as server:
                async with HTTPClient(server.address) as client:
                    await client.send_raw(b"GET /stats HTTP/2.0\r\n\r\n")
                    status, _, _ = await client.read_response()
                    assert status == 505

        run(scenario())


class TestRangeReads:
    """Range slice reads touch only the requested payload window."""

    def test_slice_bytes_match_the_stored_payload(self, matrix_leg, tmp_path):
        kind, _, target, options = matrix_leg
        direct_path = tmp_path / ("set.dwts" if kind != "plain" else "arc.dwta")

        async def scenario():
            with open_archive(direct_path) as reader:
                payload = bytes(reader.read_payload("slice_003"))
            async with running_server(target, **options) as server:
                async with HTTPClient(server.address) as client:
                    status, headers, body = await client.request(
                        "GET", "/frames/slice_003", headers={"Range": "bytes=4-19"}
                    )
                    assert status == 206
                    assert body == payload[4:20]
                    assert headers["content-range"] == f"bytes 4-19/{len(payload)}"
                    # Open-ended and suffix forms.
                    status, _, tail = await client.request(
                        "GET", "/frames/slice_003", headers={"Range": "bytes=-8"}
                    )
                    assert status == 206 and tail == payload[-8:]
                    status, _, rest = await client.request(
                        "GET", "/frames/slice_003", headers={"Range": "bytes=10-"}
                    )
                    assert status == 206 and rest == payload[10:]

        run(scenario())

    def test_bytes_read_is_the_slice_not_the_payload(self, tmp_path):
        target = build_sharded(tmp_path / "set.dwts", FRAMES)

        async def scenario():
            async with running_server(target) as server:
                async with HTTPClient(server.address) as client:
                    _, stats0 = await client.get_json("/stats")
                    _, meta = await client.get_json("/frames/slice_001/meta")
                    payload_bytes = meta["stored_bytes"]
                    assert payload_bytes > 16
                    status, _, body = await client.request(
                        "GET", "/frames/slice_001", headers={"Range": "bytes=0-15"}
                    )
                    assert status == 206 and len(body) == 16
                    _, stats1 = await client.get_json("/stats")
                    delta = stats1["reader"]["bytes_read"] - stats0["reader"]["bytes_read"]
                    assert delta == 16
                    assert delta < payload_bytes

        run(scenario())


class TestHotFrameCache:
    def test_repeat_get_hits_the_cache(self, tmp_path):
        target = build_plain(tmp_path / "arc.dwta", FRAMES)

        async def scenario():
            async with running_server(target, cache_bytes=8 << 20) as server:
                async with HTTPClient(server.address) as client:
                    _, h1, b1 = await client.request("GET", "/frames/slice_000")
                    _, h2, b2 = await client.request("GET", "/frames/slice_000")
                    assert (h1["x-archive-cache"], h2["x-archive-cache"]) == ("miss", "hit")
                    assert b1 == b2
                    _, stats = await client.get_json("/stats")
                    assert stats["cache"]["hits"] == 1
                    assert stats["cache"]["entries"] == 1
                    assert stats["cache"]["bytes"] > 0

        run(scenario())

    def test_zero_budget_disables_caching(self, tmp_path):
        target = build_plain(tmp_path / "arc.dwta", FRAMES)

        async def scenario():
            async with running_server(target, cache_bytes=0) as server:
                async with HTTPClient(server.address) as client:
                    _, h1, _ = await client.request("GET", "/frames/slice_000")
                    _, h2, _ = await client.request("GET", "/frames/slice_000")
                    assert (h1["x-archive-cache"], h2["x-archive-cache"]) == ("miss", "miss")

        run(scenario())


class TestIngest:
    def test_content_length_ingest_roundtrip(self, tmp_path):
        target = build_replicated(tmp_path / "set.dwts", FRAMES)
        new = series(count=3, size=24, seed=9)
        renamed = {f"new_{name}": frame for name, frame in new.items()}

        async def scenario():
            async with running_server(target) as server:
                async with HTTPClient(server.address) as client:
                    # Warm the cache, so the append provably invalidates it.
                    _, h, _ = await client.request("GET", "/frames/slice_000")
                    _, h, _ = await client.request("GET", "/frames/slice_000")
                    assert h["x-archive-cache"] == "hit"
                    status, _, body = await client.request(
                        "POST", "/ingest", body=ingest_body(renamed)
                    )
                    assert status == 200
                    report = json.loads(body)
                    assert report["frames"] == len(renamed)
                    assert report["generation"] == 1
                    for name, frame in renamed.items():
                        status, headers, raw = await client.request(
                            "GET", f"/frames/{name}"
                        )
                        assert status == 200
                        assert np.array_equal(response_frame(headers, raw), frame)
                    # Same name, new generation: a fresh decode, not a stale hit.
                    _, h, _ = await client.request("GET", "/frames/slice_000")
                    assert h["x-archive-cache"] == "miss"
                    _, manifest = await client.get_json("/manifest")
                    assert len(manifest["frames"]) == len(FRAMES) + len(renamed)

        run(scenario())

    def test_chunked_ingest_roundtrip(self, tmp_path):
        target = build_plain(tmp_path / "arc.dwta", FRAMES)
        extra = {"chunked_0": series(count=1, size=24, seed=13)["slice_000"]}

        async def scenario():
            async with running_server(target) as server:
                async with HTTPClient(server.address) as client:
                    status, _, body = await client.request(
                        "POST",
                        "/ingest",
                        headers={"Transfer-Encoding": "chunked"},
                        body=chunk_encode(ingest_body(extra), chunk_size=97),
                    )
                    assert status == 200
                    assert json.loads(body)["frames"] == 1
                    status, headers, raw = await client.request("GET", "/frames/chunked_0")
                    assert status == 200
                    assert np.array_equal(response_frame(headers, raw), extra["chunked_0"])

        run(scenario())

    def test_readonly_rejects_ingest_with_403(self, tmp_path):
        target = build_plain(tmp_path / "arc.dwta", FRAMES)

        async def scenario():
            async with running_server(target, readonly=True) as server:
                status, _, _ = await http_request(
                    server.address, "POST", "/ingest", body=b"ignored"
                )
                assert status == 403

        run(scenario())

    def test_body_ending_mid_record_is_400(self, tmp_path):
        target = build_plain(tmp_path / "arc.dwta", FRAMES)
        body = ingest_body({"partial": series(count=1, size=24, seed=3)["slice_000"]})
        half = body[: len(body) // 2]

        async def scenario():
            async with running_server(target) as server:
                # Content-Length matches what is sent, but the last record
                # is cut short: a deliberate 400, not a hang or a 500.
                status, _, _ = await http_request(
                    server.address, "POST", "/ingest", body=half
                )
                assert status == 400
                # The service still serves afterwards.
                status, _, _ = await http_request(
                    server.address, "GET", "/frames/slice_000"
                )
                assert status == 200

        run(asyncio.wait_for(scenario(), timeout=30))

    def test_early_disconnect_mid_ingest_leaves_served_set_sane(self, tmp_path):
        target = build_plain(tmp_path / "arc.dwta", FRAMES)
        body = ingest_body({"partial": series(count=1, size=24, seed=3)["slice_000"]})

        async def scenario():
            async with running_server(target) as server:
                async with HTTPClient(server.address) as client:
                    head = f"POST /ingest HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
                    await client.send_raw(head.encode() + body[: len(body) // 2])
                # Connection dropped mid-body; the server must absorb the
                # incomplete read and keep serving.
                status, _, _ = await http_request(
                    server.address, "GET", "/frames/slice_000"
                )
                assert status == 200

        run(asyncio.wait_for(scenario(), timeout=30))


class TestStats:
    def test_request_and_response_counters_accumulate(self, tmp_path):
        target = build_sharded(tmp_path / "set.dwts", FRAMES)

        async def scenario():
            async with running_server(target) as server:
                async with HTTPClient(server.address) as client:
                    await client.request("GET", "/frames/slice_000")
                    await client.request("GET", "/frames/nope")
                    await client.request("GET", "/frames/slice_000/meta")
                    await client.request("GET", "/manifest")
                    _, stats = await client.get_json("/stats")
                    assert stats["kind"] == "sharded"
                    assert stats["requests"]["frames"] == 2
                    assert stats["requests"]["meta"] == 1
                    assert stats["requests"]["manifest"] == 1
                    assert stats["requests"]["stats"] == 1
                    assert stats["responses"]["404"] == 1
                    assert stats["reader"]["bytes_read"] > 0
                    assert stats["queues"]["capacity"] >= 1
                    assert len(stats["queues"]["depths"]) == 3
                    assert stats["ingest"]["generation"] == 0

        run(scenario())


class TestParseRange:
    """Unit coverage of the Range grammar, away from sockets."""

    @pytest.mark.parametrize(
        "value,size,expected",
        [
            ("bytes=0-9", 100, (0, 10)),
            ("bytes=10-", 100, (10, 90)),
            ("bytes=-7", 100, (93, 7)),
            ("bytes=0-0", 1, (0, 1)),
            ("bytes=90-500", 100, (90, 10)),  # stop clamps to the payload
            ("bytes=-500", 100, (0, 100)),
        ],
    )
    def test_valid_forms(self, value, size, expected):
        assert parse_range(value, size) == expected

    @pytest.mark.parametrize(
        "value,status",
        [
            ("bytes=5-2", 400),
            ("bytes=abc-2", 400),
            ("items=0-2", 400),
            ("bytes=1-2,3-4", 400),
            ("bytes=-", 400),
            ("bytes=", 400),
            ("bytes=100-", 416),
            ("bytes=-0", 416),
        ],
    )
    def test_rejections(self, value, status):
        with pytest.raises(HTTPError) as excinfo:
            parse_range(value, 100)
        assert excinfo.value.status == status


class TestFrameToWire:
    def test_body_is_a_view_of_the_pixels_not_a_copy(self):
        frame = np.arange(12, dtype="<i8").reshape(3, 4)
        dtype, shape, body = frame_to_wire(frame)
        assert (dtype, shape, len(body)) == ("<i8", (3, 4), frame.nbytes)
        assert bytes(body) == frame.tobytes()
        assert np.shares_memory(np.frombuffer(body, dtype=dtype), frame)

    def test_big_endian_and_strided_frames_go_out_little_endian_c_order(self):
        frame = np.arange(12, dtype=">u2").reshape(3, 4).T
        dtype, shape, body = frame_to_wire(frame)
        assert (dtype, shape) == ("<u2", (4, 3))
        rebuilt = np.frombuffer(body, dtype=dtype).reshape(shape)
        assert np.array_equal(rebuilt, frame)
