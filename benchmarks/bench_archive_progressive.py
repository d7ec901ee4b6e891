"""Progressive retrieval benchmark: strict-prefix previews on a v2 archive.

The perf claim behind the subband-major payload layout: a client that wants
a coarse preview of a frame must not pay for the frame.  On a 512x512,
4-scale frame stored subband-major, ``read_preview(at_scale=2)`` is gated
two ways —

- **bytes**: the preview reads at most 35% of the payload (in practice
  ~10%: the coarse sections are a small share of a detail-heavy payload),
  and the reader's ``bytes_read`` counter must advance by *exactly* the
  section table's priced prefix, proving the strict-prefix access pattern;
- **time**: the preview decode beats the full decode by at least 3x (less
  entropy decoding and a 4x-smaller synthesis).

Correctness is asserted before any timing: the subband-major full decode is
bit-exact against the same frame's frame-major twin, minted in memory with
the read-compat serialiser (layout is a wire concern, never a pixel
concern), and the scale-0 "preview" is the image.
The measured numbers land in
``benchmarks/reports/bench_archive_progressive.json`` so the progressive
trajectory is diffable across PRs, like every other bench in this suite.
"""

import time

import numpy as np
import pytest

from repro.archive import (
    ArchiveReader,
    ArchiveWriter,
    LAYOUT_SUBBAND_MAJOR,
    deserialize_stream_with_spec,
    prefix_length,
)
from repro.archive.serialize import _serialize_frame_major
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive

FRAME_SIZE = 512
SCALES = 4
PREVIEW_SCALE = 2
#: Ceiling on the payload fraction a scale-2 preview may read.
MAX_PREFIX_FRACTION = 0.35
#: Floor on the preview decode's speedup over the full decode.
MIN_PREVIEW_SPEEDUP = 3.0


def _min_seconds(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - began)
    return best


def test_preview_reads_a_prefix_and_beats_full_decode(tmp_path, save_json_record):
    frame = ct_slice_series(count=1, size=FRAME_SIZE, seed=20260808)[0]
    subband = tmp_path / "subband.dwta"
    with ArchiveWriter.create(
        subband, codec="s-transform", scales=SCALES, layout=LAYOUT_SUBBAND_MAJOR
    ) as writer:
        writer.append_batch([frame], names=["slice"])

    with ArchiveReader(subband) as reader:
        # Correctness before timing: the layout changes bytes, never pixels.
        entry = reader.find("slice")
        legacy, legacy_spec = deserialize_stream_with_spec(
            _serialize_frame_major(reader.read_stream(entry))
        )
        assert np.array_equal(reader.decode("slice"), frame)
        assert np.array_equal(
            reader.decode("slice"), legacy_spec.build_codec().decode(legacy)
        )
        assert np.array_equal(reader.read_preview("slice", 0), frame)

        payload_bytes = entry.length
        priced_prefix = prefix_length(reader.read_payload(entry), PREVIEW_SCALE)

        # The access-pattern proof: one preview reads exactly the prefix.
        reader.bytes_read = 0
        preview = reader.read_preview(entry, PREVIEW_SCALE)
        bytes_per_preview = reader.bytes_read
        assert bytes_per_preview == priced_prefix
        side = FRAME_SIZE >> PREVIEW_SCALE
        assert preview.shape == (side, side)

        prefix_fraction = bytes_per_preview / payload_bytes
        assert prefix_fraction <= MAX_PREFIX_FRACTION, (
            f"scale-{PREVIEW_SCALE} preview reads {prefix_fraction:.1%} of the "
            f"payload ({bytes_per_preview} of {payload_bytes} bytes); the gate "
            f"is {MAX_PREFIX_FRACTION:.0%}"
        )

        full_seconds = _min_seconds(lambda: reader.decode(entry), repeats=5)
        preview_seconds = _min_seconds(
            lambda: reader.read_preview(entry, PREVIEW_SCALE), repeats=5
        )
        speedup = full_seconds / preview_seconds
        assert speedup >= MIN_PREVIEW_SPEEDUP, (
            f"scale-{PREVIEW_SCALE} preview only {speedup:.1f}x over the full "
            f"decode ({preview_seconds * 1e3:.2f} ms vs "
            f"{full_seconds * 1e3:.1f} ms)"
        )

        # Recorded, not gated: the whole preview ladder's byte pricing.
        payload = reader.read_payload(entry)
        ladder = {
            str(k): prefix_length(payload, k) / payload_bytes
            for k in range(SCALES + 1)
        }

    save_json_record(
        "bench_archive_progressive",
        {
            "frame_size": FRAME_SIZE,
            "scales": SCALES,
            "preview_scale": PREVIEW_SCALE,
            "payload_layout": LAYOUT_SUBBAND_MAJOR,
            "payload_bytes": payload_bytes,
            "preview_bytes_read": bytes_per_preview,
            "prefix_fraction": prefix_fraction,
            "prefix_fraction_by_scale": ladder,
            "full_decode_seconds": full_seconds,
            "preview_decode_seconds": preview_seconds,
            "preview_speedup": speedup,
        },
    )
