"""The S-transform codec lifts in the narrowest word its bit depth allows.

``STransformCodec.forward_transform`` lifts in place in ``int16`` up to
14-bit pixels and in ``int32`` for 15 and 16 bits, and ``encode_pyramid``
zig-zags each band straight into its slice of one symbol buffer in the
unsigned word of the same width, which the Rice coder takes whole.  The reference here is
the plain ``int64`` lifting (transposed 1-D steps, ``int64`` zig-zag): the
narrow pyramid must equal it value for value and the stored bytes must not
change.  The 0/max checkerboard drives the GG band to its bound,
``2 * (2**bit_depth - 1)``, the largest value the word has to hold.

Decode mirrors it: the Rice blocks decode into ``int32`` under the symbol
limit ``4 * (2**bit_depth - 1)``, zig-zag decodes in place, and the
inverse lifts in that word, so only the image is ``int64``.  The
reference there is a plain ``int64`` inverse (``floor_divide``, transposed
steps): ``decode``, ``decode_preview`` and ``decode_roi`` must equal it on
both tiers, and so must the ``int32`` inverse of random bands anywhere in
the decodable range, which is what the word's growth bound covers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive.serialize import serialize_stream
from repro.coding import STransformCodec
from repro.coding.mapper import zigzag_encode
from repro.coding.rice import rice_encode_planar_blocks, rice_encode_planar_scalar
from repro.coding.s_transform import (
    CompressedSImage,
    STransformPyramid,
    _symbol_limit,
    _zigzag_bands,
    s_transform_forward_1d,
    s_transform_forward_2d,
    s_transform_inverse_2d,
    s_transform_inverse_roi,
)
from repro.imaging import ct_slice_series

SIZE = 64
SCALES = range(1, 7)  # every dyadic depth of a 64x64 image
DEPTHS = (12, 14, 15, 16)


def _checkerboard(bit_depth):
    rows, columns = np.indices((SIZE, SIZE))
    return np.where((rows + columns) % 2, (1 << bit_depth) - 1, 0).astype(np.int64)


def _ct_slice(bit_depth):
    frame = ct_slice_series(count=1, size=SIZE, seed=7)[0].astype(np.int64)
    return frame * ((1 << bit_depth) - 1) // 4095


IMAGES = {"checkerboard": _checkerboard, "ct": _ct_slice}


def _int64_pyramid(image, scales):
    """Row step, then column step on transposed views, all in ``int64``."""
    data = np.asarray(image, dtype=np.int64)
    details = []
    for _ in range(scales):
        row_lo, row_hi = s_transform_forward_1d(data)
        ll, lh = s_transform_forward_1d(row_lo.T)
        hl, hh = s_transform_forward_1d(row_hi.T)
        details.append({"HG": lh.T, "GH": hl.T, "GG": hh.T})
        data = ll.T
    return data, details


def _int64_stream(image, scales, bit_depth, engine):
    """The stream the ``int64`` path codes: the same band order, ``int64``
    zig-zag, the same Rice coders."""
    approximation, details = _int64_pyramid(image, scales)
    bands = [(("HH", scales), approximation)] + [
        ((kind, scale), band)
        for scale, entry in enumerate(details, start=1)
        for kind, band in entry.items()
    ]
    blocks = [zigzag_encode(band.ravel()) for _, band in bands]
    if engine == "scalar":
        payloads = [rice_encode_planar_scalar(block) for block in blocks]
    else:
        payloads = rice_encode_planar_blocks(blocks)
    return CompressedSImage(
        scales=scales,
        image_shape=image.shape,
        bit_depth=bit_depth,
        chunks={key: payload for (key, _), payload in zip(bands, payloads)},
        shapes={key: band.shape for key, band in bands},
    )


@pytest.mark.parametrize("bit_depth", range(1, 17))
def test_the_lifting_word_is_pinned_per_bit_depth(bit_depth):
    image = _checkerboard(bit_depth)
    pyramid = STransformCodec(scales=2, bit_depth=bit_depth).forward_transform(image)
    word = np.int16 if bit_depth <= 14 else np.int32
    assert pyramid.approximation.dtype == word
    for bands in pyramid.details:
        assert {band.dtype for band in bands.values()} == {np.dtype(word)}


@pytest.mark.parametrize("bit_depth", DEPTHS)
@pytest.mark.parametrize("image_name", sorted(IMAGES))
def test_the_narrow_pyramid_equals_the_int64_lifting(image_name, bit_depth):
    image = IMAGES[image_name](bit_depth)
    for scales in SCALES:
        pyramid = STransformCodec(scales=scales, bit_depth=bit_depth).forward_transform(
            image
        )
        approximation, details = _int64_pyramid(image, scales)
        np.testing.assert_array_equal(pyramid.approximation, approximation)
        for narrow, wide in zip(pyramid.details, details, strict=True):
            for kind in ("HG", "GH", "GG"):
                np.testing.assert_array_equal(narrow[kind], wide[kind])


@pytest.mark.parametrize("bit_depth", DEPTHS)
def test_the_checkerboard_reaches_the_bound_the_word_holds(bit_depth):
    _, details = _int64_pyramid(_checkerboard(bit_depth), 1)
    assert np.abs(details[0]["GG"]).max() == 2 * ((1 << bit_depth) - 1)


@pytest.mark.parametrize("bit_depth", DEPTHS)
@pytest.mark.parametrize("image_name", sorted(IMAGES))
def test_the_stored_bytes_equal_the_int64_path(image_name, bit_depth):
    image = IMAGES[image_name](bit_depth)
    for scales in SCALES:
        codec = STransformCodec(scales=scales, bit_depth=bit_depth, engine="fast")
        stream = codec.encode(image)
        reference = _int64_stream(image, scales, bit_depth, "fast")
        assert stream.chunks == reference.chunks
        assert serialize_stream(stream) == serialize_stream(reference)
        np.testing.assert_array_equal(codec.decode(stream), image)


@pytest.mark.parametrize("bit_depth", range(1, 17))
def test_encode_pyramid_codes_the_symbol_buffer_like_the_int64_path(bit_depth):
    """``encode_pyramid`` zig-zags every band into one buffer of the lifting
    word and hands it to the Rice coder whole: the bytes are those of the
    ``int64`` bands, at every bit depth and scale."""
    for image_name in sorted(IMAGES):
        image = IMAGES[image_name](bit_depth)
        for scales in SCALES:
            codec = STransformCodec(scales=scales, bit_depth=bit_depth, engine="fast")
            stream = codec.encode_pyramid(codec.forward_transform(image), image.shape)
            reference = _int64_stream(image, scales, bit_depth, "fast")
            assert stream.chunks == reference.chunks, (image_name, scales)


def test_the_symbol_buffer_is_one_word_end_to_end():
    bands = [
        np.array([[0, -1], [1, -32768]], dtype=np.int16),
        np.array([[7, -7]], dtype=np.int16),
        np.array([], dtype=np.int16).reshape(0, 2),
    ]
    symbols, counts = _zigzag_bands(bands)
    assert symbols.dtype == np.uint16 and counts == [4, 2, 0]
    assert symbols.tolist() == [0, 1, 2, 0xFFFF, 14, 13]
    # A wider band widens the buffer; each band keeps its zig-zag value.
    symbols, _ = _zigzag_bands(bands[:1] + [np.array([[1 << 20]], dtype=np.int32)])
    assert symbols.dtype == np.uint32
    assert symbols.tolist() == [0, 1, 2, 0xFFFF, 1 << 21]


@pytest.mark.parametrize("bit_depth", DEPTHS)
def test_the_scalar_tier_codes_the_narrow_bands_alike(bit_depth):
    image = _ct_slice(bit_depth)
    stream = STransformCodec(scales=3, bit_depth=bit_depth, engine="scalar").encode(image)
    assert stream.chunks == _int64_stream(image, 3, bit_depth, "scalar").chunks


def test_an_int64_pyramid_still_encodes_to_the_same_bytes():
    """``encode_pyramid`` takes any signed pyramid, e.g. the public
    ``int64`` :func:`s_transform_forward_2d` one."""
    image = _ct_slice(16)
    codec = STransformCodec(scales=4, bit_depth=16)
    wide = codec.encode_pyramid(s_transform_forward_2d(image, 4), image.shape)
    assert wide.chunks == codec.encode(image).chunks


def test_the_int64_pyramid_bands_own_their_memory():
    """Keeping one band of :func:`s_transform_forward_2d` (a preview's
    approximation, say) must not keep the image-sized buffer alive."""
    pyramid = s_transform_forward_2d(_ct_slice(12), 3)
    bands = [pyramid.approximation] + [
        band for entry in pyramid.details for band in entry.values()
    ]
    assert all(band.flags.owndata and band.flags.c_contiguous for band in bands)


# -- decode -----------------------------------------------------------------------------

def _unlift(approx, detail):
    """The inverse 1-D step along axis 0, in ``int64``, with ``floor_divide``."""
    even = approx - np.floor_divide(detail, 2)
    out = np.empty((2 * approx.shape[0], *approx.shape[1:]), dtype=np.int64)
    out[0::2], out[1::2] = even, detail + even
    return out


def _int64_inverse(approximation, details):
    """Columns, then rows on transposed arrays, every value in ``int64``."""
    data = np.asarray(approximation, dtype=np.int64)
    for bands in reversed(details):
        hg, gh, gg = (np.asarray(bands[kind], dtype=np.int64) for kind in ("HG", "GH", "GG"))
        data = _unlift(_unlift(data, hg).T, _unlift(gh, gg).T).T
    return data


#: The scalar tier decodes bit by bit, so it runs on the checkerboard
#: alone: its bands reach the symbol limit.
TIER_IMAGES = {"fast": sorted(IMAGES), "scalar": ["checkerboard"]}


@pytest.mark.parametrize("engine", sorted(TIER_IMAGES))
@pytest.mark.parametrize("bit_depth", range(1, 17))
def test_every_decode_call_equals_the_int64_reference(engine, bit_depth):
    for image_name in TIER_IMAGES[engine]:
        image = IMAGES[image_name](bit_depth)
        for scales in SCALES:
            codec = STransformCodec(scales=scales, bit_depth=bit_depth, engine=engine)
            stream = codec.encode(image)
            pyramid = codec.decode_pyramid(stream)
            approximation, details = _int64_pyramid(image, scales)
            np.testing.assert_array_equal(_int64_inverse(approximation, details), image)
            np.testing.assert_array_equal(codec.decode(stream), image)
            for at_scale in range(scales + 1):
                preview = _int64_pyramid(image, at_scale)[0] if at_scale else image
                np.testing.assert_array_equal(
                    codec.decode_preview(stream, at_scale), preview
                )
            for y0, y1 in ((0, SIZE), (5, 6), (17, 42), (SIZE - 3, SIZE)):
                np.testing.assert_array_equal(
                    codec.decode_roi(stream, y0, y1), image[y0:y1]
                )
            assert pyramid.approximation.dtype == np.int32
            assert {
                band.dtype for bands in pyramid.details for band in bands.values()
            } == {np.dtype(np.int32)}


@pytest.mark.parametrize("engine", ["fast", "scalar"])
def test_decode_outputs_are_int64(engine):
    image = _ct_slice(12)
    codec = STransformCodec(scales=3, bit_depth=12, engine=engine)
    stream = codec.encode(image)
    assert codec.decode(stream).dtype == np.int64
    assert codec.inverse_transform(codec.decode_pyramid(stream)).dtype == np.int64
    for at_scale in range(4):
        assert codec.decode_preview(stream, at_scale).dtype == np.int64
    assert codec.decode_roi(stream, 3, 30).dtype == np.int64


def _random_bands(rng, bit_depth, scales, side, extremes):
    """A pyramid of ``int32`` bands drawn from the decodable range
    ``+-(limit / 2)``, or from its two ends only."""
    edge = _symbol_limit(bit_depth) // 2

    def band(size):
        if extremes:
            return rng.choice(np.array([-edge, edge], dtype=np.int32), size=(size, size))
        return rng.integers(-edge, edge + 1, size=(size, size), dtype=np.int32)

    return band(side >> scales), [
        {kind: band(side >> scale) for kind in ("HG", "GH", "GG")}
        for scale in range(1, scales + 1)
    ]


@settings(max_examples=60, deadline=None)
@given(
    bit_depth=st.integers(1, 16),
    scales=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    extremes=st.booleans(),
    rows=st.tuples(st.integers(0, SIZE - 1), st.integers(1, SIZE)),
)
def test_random_bands_lift_in_int32_like_int64(bit_depth, scales, seed, extremes, rows):
    """No image behind the bands: every band value anywhere in the range a
    stream of this depth decodes to.  The ``int32`` inverse, the windowed
    one and the codec's decode of the same bands equal the ``int64``
    reference."""
    rng = np.random.default_rng(seed)
    approximation, details = _random_bands(rng, bit_depth, scales, SIZE, extremes)
    reference = _int64_inverse(approximation, details)
    pyramid = STransformPyramid(approximation=approximation, details=details)
    np.testing.assert_array_equal(s_transform_inverse_2d(pyramid), reference)
    y0, y1 = min(rows), max(rows)
    if y0 < y1:
        np.testing.assert_array_equal(
            s_transform_inverse_roi(pyramid, y0, y1), reference[y0:y1]
        )
    wide = STransformPyramid(
        approximation=approximation.astype(np.int64),
        details=[{k: b.astype(np.int64) for k, b in d.items()} for d in details],
    )
    np.testing.assert_array_equal(s_transform_inverse_2d(wide), reference)
    codec = STransformCodec(scales=scales, bit_depth=bit_depth, engine="fast")
    stream = codec.encode_pyramid(pyramid, reference.shape)
    np.testing.assert_array_equal(codec.decode(stream), reference)


@pytest.mark.parametrize("engine", ["fast", "scalar"])
def test_extreme_bands_decode_alike_on_both_tiers(engine):
    """Bands at the ends of the 16-bit decodable range, alternating in
    sign, through six scales: the largest growth the word has to hold."""
    rng = np.random.default_rng(3)
    approximation, details = _random_bands(rng, 16, 6, SIZE, extremes=True)
    reference = _int64_inverse(approximation, details)
    assert np.abs(reference).max() > 1 << 17
    codec = STransformCodec(scales=6, bit_depth=16, engine=engine)
    stream = codec.encode_pyramid(
        STransformPyramid(approximation=approximation, details=details), reference.shape
    )
    np.testing.assert_array_equal(codec.decode(stream), reference)
    np.testing.assert_array_equal(codec.decode_roi(stream, 9, 50), reference[9:50])
