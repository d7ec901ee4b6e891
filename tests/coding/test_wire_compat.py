"""Bitstream wire-compatibility: every engine tier against every other.

Every block coder ships a vectorised (``fast``) and a bit-by-bit
(``scalar``) implementation; these tests pin the contract that they are
drop-in interchangeable at the byte level — identical encoded streams, and
each decoder accepts each encoder's output — on random inputs and on
phantom-image workloads.  The legacy interleaved Rice layout has one
minter, the bit-by-bit :func:`rice_encode_scalar`; both decoder tiers must
read its blocks back.
"""

import numpy as np
import pytest

from repro.coding.codec import LosslessWaveletCodec
from repro.coding.mapper import zigzag_encode
from repro.coding.rice import (
    is_planar_block,
    rice_decode,
    rice_decode_scalar,
    rice_encode_planar,
    rice_encode_planar_scalar,
    rice_encode_scalar,
)
from repro.coding.rle import (
    events_to_arrays,
    rle_decode,
    rle_decode_arrays,
    rle_encode,
    rle_encode_arrays,
)
from repro.coding.s_transform import STransformCodec
from repro.imaging.phantoms import (
    ct_slice_series,
    gradient_image,
    random_image,
    shepp_logan,
)


def _phantom_symbols():
    """Zig-zagged detail-like samples from a real phantom image."""
    image = shepp_logan(64).astype(np.int64)
    return zigzag_encode(np.diff(image, axis=1).ravel())


class TestRiceWireCompat:
    @pytest.fixture(params=["random", "geometric", "phantom", "zeros", "empty"])
    def symbols(self, request, rng):
        return {
            "random": rng.integers(0, 4096, size=700),
            "geometric": rng.geometric(0.1, size=500) - 1,
            "phantom": _phantom_symbols(),
            "zeros": np.zeros(300, dtype=np.int64),
            "empty": np.zeros(0, dtype=np.int64),
        }[request.param]

    def test_scalar_encode_scalar_decode(self, symbols):
        assert rice_decode_scalar(rice_encode_scalar(symbols)) == symbols.tolist()

    def test_scalar_encode_fast_decode(self, symbols):
        assert rice_decode(rice_encode_scalar(symbols)) == symbols.tolist()

    @pytest.mark.parametrize("k", [0, 1, 5, 11, 18, 26])
    def test_explicit_parameter(self, rng, k):
        symbols = rng.integers(0, 2000, size=400)
        encoded = rice_encode_scalar(symbols, k=k)
        for decode in (rice_decode, rice_decode_scalar):
            assert decode(encoded) == symbols.tolist()


class TestPlanarRiceWireCompat:
    @pytest.fixture(params=["random", "geometric", "phantom", "zeros", "empty"])
    def symbols(self, request, rng):
        return {
            "random": rng.integers(0, 4096, size=700),
            "geometric": rng.geometric(0.1, size=500) - 1,
            "phantom": _phantom_symbols(),
            "zeros": np.zeros(300, dtype=np.int64),
            "empty": np.zeros(0, dtype=np.int64),
        }[request.param]

    def test_streams_byte_identical(self, symbols):
        encoded = rice_encode_planar(symbols)
        assert encoded == rice_encode_planar_scalar(symbols)
        assert is_planar_block(encoded)

    def test_cross_decode(self, symbols):
        expected = symbols.tolist()
        for encode in (rice_encode_planar, rice_encode_planar_scalar):
            encoded = encode(symbols)
            for decode in (rice_decode, rice_decode_scalar):
                assert decode(encoded) == expected

    def test_at_most_one_byte_longer_than_interleaved(self, symbols):
        interleaved = len(rice_encode_scalar(symbols))
        assert interleaved <= len(rice_encode_planar(symbols)) <= interleaved + 1

    @pytest.mark.parametrize("k", [0, 1, 5, 11, 18, 26, 30])
    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 400])
    def test_explicit_parameter(self, rng, k, size):
        # Quotients stay below 8 so the bit-by-bit coders stay quick; sizes
        # straddle the eight-remainder groups the fast coder packs.
        symbols = rng.integers(0, 1 << (k + 3), size=size)
        encoded = rice_encode_planar(symbols, k=k)
        assert encoded == rice_encode_planar_scalar(symbols, k=k)
        for decode in (rice_decode, rice_decode_scalar):
            assert decode(encoded) == symbols.tolist()


class TestRleWireCompat:
    @pytest.fixture(params=["sparse", "dense", "all_zero", "phantom"])
    def values(self, request, rng):
        sparse = rng.integers(-5, 6, size=900)
        sparse[rng.uniform(size=900) < 0.7] = 0
        return {
            "sparse": sparse,
            "dense": rng.integers(1, 9, size=300),
            "all_zero": np.zeros(500, dtype=np.int64),
            "phantom": np.diff(shepp_logan(32).astype(np.int64), axis=0).ravel(),
        }[request.param]

    def test_arrays_match_events(self, values):
        runs, literals = rle_encode_arrays(values)
        runs_ref, literals_ref = events_to_arrays(rle_encode(values))
        assert runs.tolist() == runs_ref.tolist()
        assert literals.tolist() == literals_ref.tolist()

    def test_array_decode_inverts_event_encode(self, values):
        runs, literals = events_to_arrays(rle_encode(values))
        assert np.array_equal(rle_decode_arrays(runs, literals), values)

    def test_event_decode_inverts_array_encode(self, values):
        runs, literals = rle_encode_arrays(values)
        from repro.coding.rle import LITERAL, ZERO_RUN, RleEvent

        events, literal_index = [], 0
        for run in runs.tolist():
            if run > 0:
                events.append(RleEvent(ZERO_RUN, run))
            else:
                events.append(RleEvent(LITERAL, int(literals[literal_index])))
                literal_index += 1
        assert np.array_equal(rle_decode(events), values)

    @pytest.mark.parametrize("max_run", [1, 3, 16])
    def test_max_run_splitting_matches(self, values, max_run):
        runs, literals = rle_encode_arrays(values, max_run=max_run)
        runs_ref, literals_ref = events_to_arrays(rle_encode(values, max_run=max_run))
        assert runs.tolist() == runs_ref.tolist()
        assert literals.tolist() == literals_ref.tolist()


ENGINES = ("fast", "scalar")


class TestSTransformCodecWireCompat:
    @pytest.mark.parametrize(
        "image_factory",
        [shepp_logan, gradient_image, lambda size: random_image(size, seed=5)],
        ids=["ct", "gradient", "random"],
    )
    def test_engines_byte_identical_and_cross_decode(self, image_factory):
        image = image_factory(64)
        codecs = {name: STransformCodec(scales=3, engine=name) for name in ENGINES}
        streams = {name: codec.encode(image) for name, codec in codecs.items()}
        for name in ENGINES[1:]:
            assert streams[name].chunks == streams["fast"].chunks
        # Full cross matrix: each tier decodes each tier's stream.
        for codec in codecs.values():
            for stream in streams.values():
                assert np.array_equal(codec.decode(stream), image)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            STransformCodec(engine="simd")


class TestLosslessCodecWireCompat:
    @pytest.mark.parametrize("use_rle", [True, False], ids=["rle", "no-rle"])
    @pytest.mark.parametrize(
        "image_factory",
        [shepp_logan, lambda size: random_image(size, seed=11)],
        ids=["ct", "random"],
    )
    def test_engines_byte_identical_and_cross_decode(self, image_factory, use_rle):
        image = image_factory(32)
        codecs = {
            name: LosslessWaveletCodec("F2", scales=2, use_rle=use_rle, engine=name)
            for name in ENGINES
        }
        streams = {name: codec.encode(image) for name, codec in codecs.items()}
        for name in ENGINES[1:]:
            assert streams[name].chunks == streams["fast"].chunks
        for codec in codecs.values():
            for stream in streams.values():
                assert np.array_equal(codec.decode(stream), image)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            LosslessWaveletCodec("F2", scales=2, engine="simd")


class TestCodecsWritePlanarRice:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_chunk_is_planar(self, engine):
        image = shepp_logan(32)
        s_stream = STransformCodec(scales=2, engine=engine).encode(image)
        c_stream = LosslessWaveletCodec(
            "F2", scales=2, use_rle=True, engine=engine
        ).encode(image)
        payloads = list(s_stream.chunks.values())
        for chunk in c_stream.chunks:
            payloads.append(chunk.payload)
            if chunk.use_rle:
                payloads.append(chunk.run_payload)
        assert payloads and all(is_planar_block(payload) for payload in payloads)


class TestBatchedPyramidEncode:
    """The fast engine codes a whole pyramid in one batched Rice call; the
    scalar engine codes it block by block, bit by bit.  Same bytes."""

    FRAMES = {
        "ct": lambda size: ct_slice_series(count=1, size=size, seed=size)[0],
        "random": lambda size: random_image(size, seed=size + 1),
    }

    @pytest.mark.parametrize("size", [64, 128, 256])
    @pytest.mark.parametrize("frame", sorted(FRAMES))
    def test_s_transform_pyramid(self, frame, size):
        image = self.FRAMES[frame](size)
        codecs = [STransformCodec(scales=4, engine=name) for name in ENGINES]
        pyramid = codecs[0].forward_transform(image)
        fast, scalar = (codec.encode_pyramid(pyramid, image.shape) for codec in codecs)
        assert list(fast.chunks.items()) == list(scalar.chunks.items())
        assert fast.shapes == scalar.shapes

    @pytest.mark.parametrize("use_rle", [True, False], ids=["rle", "no-rle"])
    @pytest.mark.parametrize("size", [64, 128, 256])
    @pytest.mark.parametrize("frame", sorted(FRAMES))
    def test_coefficient_pyramid(self, frame, size, use_rle):
        image = self.FRAMES[frame](size)
        codecs = [
            LosslessWaveletCodec("F2", scales=4, use_rle=use_rle, engine=name)
            for name in ENGINES
        ]
        pyramid = codecs[0].forward_transform(image)
        fast, scalar = (codec.encode_pyramid(pyramid, image.shape) for codec in codecs)
        assert fast.chunks == scalar.chunks
