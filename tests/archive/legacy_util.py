"""Read-compat fixtures: mint real version-1 frame-major archives.

Writers store every new frame subband-major; the version-1 frame-major
payload layout is read-only.  :func:`frame_major_writes` swaps the payload
serialiser the archive writer calls for the version-1 one
(:func:`repro.archive.serialize._serialize_frame_major`), so inside the
block ``ArchiveWriter`` — and every set writer built on it — mints
frame-major frames and version-1 headers exactly as writers of that format
did.
"""

from contextlib import contextmanager
from unittest import mock

import repro.archive.writer as writer_module
from repro.archive.serialize import _serialize_frame_major


@contextmanager
def frame_major_writes():
    """Within the block, archive writers serialise frame-major payloads."""
    with mock.patch.object(writer_module, "serialize_stream", _serialize_frame_major):
        yield
