"""Golden pin for the read-compat fixtures: minted v1 bytes are real v1 bytes.

Frame-major payloads are no longer written by any production path; tests
mint them with ``_serialize_frame_major`` (and, for whole containers,
:func:`legacy_util.frame_major_writes`).  These digests were taken from the
writer that still produced frame-major archives
(``ArchiveWriter.create(layout="frame-major")``), so a drift in the minting
path — which would make every read-compat test prove nothing — fails here.
"""

import hashlib

import pytest

from legacy_util import frame_major_writes
from repro.archive import LAYOUT_FRAME_MAJOR, ArchiveReader, ArchiveWriter
from repro.archive.serialize import _serialize_frame_major
from repro.coding.pipeline import compress_frames
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive

CONFIGS = {
    "s-transform": {"codec": "s-transform", "scales": 3},
    "coefficient-rle": {"codec": "coefficient", "scales": 3, "bank": "F2", "use_rle": True},
    "coefficient-raw": {"codec": "coefficient", "scales": 3, "bank": "F2", "use_rle": False},
}

#: config -> (SHA-256 of the concatenated frame payloads, SHA-256 of the
#: whole two-frame container), both from the frame-major writer.
GOLDEN = {
    "s-transform": (
        "a8e3c4b54e25f1a9288b8248b89fa762161ba4778881e213cf399451266a0146",
        "37981ba8f528172396d97e7be9467c81d8f54c24941a67c758638915d0e2b71c",
    ),
    "coefficient-rle": (
        "99afa5572a841f386f5e3abc5185552dfa8ffb686cee050b2be4c56c5394147f",
        "3ff3a80e285b34e467227771d6f26ab612825fa85aaea59df3a44c32584494dc",
    ),
    "coefficient-raw": (
        "c818e269e048742435e660f46b41b1891a194d37246c51f6e85cea2b8e7cac12",
        "c545808cc15f1e3ebbbd4964c4365eca2dd879ab20c2301e857928cce6d09625",
    ),
}


@pytest.fixture(scope="module")
def frames():
    return ct_slice_series(count=2, size=64, seed=19)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_minted_payloads_match_the_frame_major_writer(frames, config):
    streams = compress_frames(frames, **CONFIGS[config]).streams
    payloads = b"".join(_serialize_frame_major(stream) for stream in streams)
    assert hashlib.sha256(payloads).hexdigest() == GOLDEN[config][0]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_minted_container_matches_the_frame_major_writer(tmp_path, frames, config):
    path = tmp_path / "v1.dwta"
    with frame_major_writes():
        with ArchiveWriter.create(path, **CONFIGS[config]) as writer:
            writer.append_batch(frames, names=["a", "b"])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[config][1]
    with ArchiveReader(path) as reader:
        assert reader.header.version == 1
        assert {entry.layout for entry in reader.frames} == {LAYOUT_FRAME_MAJOR}
