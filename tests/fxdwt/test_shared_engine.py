"""One coefficient codec shared by threads gives every thread the serial
result.

Codec instances are shared across threads (the pipeline's instance cache,
the two ingest threads, the server's decode threads), so the fixed-point
passes must keep every buffer per call.  Two threads round-trip different
frames through one ``LosslessWaveletCodec`` with a short switch interval,
so the interpreter hands over between threads inside the passes, and each
stream and each decoded frame must equal the one a serial run made.
"""

import sys
import threading

import numpy as np

from repro.coding.codec import LosslessWaveletCodec
from repro.imaging.phantoms import ct_slice_series

ROUNDS = 50
JOIN_TIMEOUT_S = 120.0


def test_threads_sharing_one_codec_match_the_serial_results():
    codec = LosslessWaveletCodec()
    frames = [ct_slice_series(count=2, size=128, seed=seed) for seed in (5, 6)]
    serial = [
        [(stream, codec.decode(stream)) for stream in map(codec.encode, series)]
        for series in frames
    ]
    mismatches = [0, 0]
    finished = [0, 0]
    errors = []

    def round_trips(worker):
        series, expected = frames[worker], serial[worker]
        try:
            for n in range(ROUNDS):
                k = n % len(series)
                stream = codec.encode(series[k])
                decoded = codec.decode(stream)
                want_stream, want_pixels = expected[k]
                if stream != want_stream or not np.array_equal(decoded, want_pixels):
                    mismatches[worker] += 1
                finished[worker] += 1
        except Exception as exc:  # reported by the main thread below
            errors.append(f"thread {worker}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=round_trips, args=(w,)) for w in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert finished == [ROUNDS, ROUNDS]
    assert mismatches == [0, 0]
    for series, expected in zip(frames, serial):
        for frame, (_, pixels) in zip(series, expected):
            assert np.array_equal(pixels, frame)
