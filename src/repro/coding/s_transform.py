"""Reversible integer S-transform codec (compressive lossless extension).

The paper's filter banks operate on fixed-point words whose full precision
must be retained for a lossless round trip, so coefficient-exact coding does
not reduce the stored size (see :mod:`repro.coding.codec`).  The classical
route to *compressive* lossless wavelet coding of medical images — the one
the paper's reference [17] (Hilton, Jawerth & Sengupta) describes — is to
use a reversible integer-to-integer transform instead.  This module
implements the simplest member of that family, the S-transform (integer
Haar via lifting with floor rounding):

.. math::

    d = x_{odd} - x_{even}, \\qquad a = x_{even} + \\lfloor d / 2 \\rfloor

which is exactly invertible in integer arithmetic and maps 12-bit pixels to
small integers that zig-zag + Rice coding shrinks well on smooth medical
content.  The 2-D multi-scale version applies the 1-D step to rows then
columns and recurses on the LL band, mirroring the Mallat pyramid of Fig. 1.

Each codec stage keeps one proven word.  The forward lifting runs in place
in ``int16`` (up to 14-bit pixels) or ``int32``, and the bands are
zig-zagged into one unsigned symbol buffer of that width.  Decode mirrors
it: the Rice blocks decode straight into ``int32`` under the symbol limit
``4 * (2**bit_depth - 1)`` (:func:`_symbol_limit`), zig-zag decodes in
place, so ``decode_pyramid``'s bands are ``int32``, and the inverse lifts
in that word (its growth bound is proved in :func:`_synthesis_word`) with
one scratch buffer per decode.  Only the image that ``decode``,
``decode_preview`` and ``decode_roi`` return is ``int64``.

This is an **extension** to make the library usable as an actual compressor;
it is clearly not part of the DATE'98 paper's contribution and no paper
number is derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..dwt.subbands import check_band_shapes
from .mapper import zigzag_decode_inplace
from .rice import (
    rice_decode_planar_blocks,
    rice_decode_scalar,
    rice_encode_planar_flat,
    rice_encode_planar_scalar,
)

__all__ = [
    "s_transform_forward_1d",
    "s_transform_inverse_1d",
    "s_transform_forward_2d",
    "s_transform_inverse_2d",
    "s_transform_inverse_roi",
    "STransformPyramid",
    "STransformCodec",
    "CompressedSImage",
]


# ---------------------------------------------------------------------------
# 1-D lifting steps
# ---------------------------------------------------------------------------

def s_transform_forward_1d(signal: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One forward S-transform step along the last axis.

    Returns ``(approximation, detail)`` halves; the input length along the
    last axis must be even.  Exactly invertible in integer arithmetic.
    """
    signal = np.asarray(signal)
    if not np.issubdtype(signal.dtype, np.integer):
        raise ValueError("the S-transform operates on integer signals")
    if signal.shape[-1] % 2:
        raise ValueError("signal length must be even")
    even = signal[..., 0::2].astype(np.int64)
    odd = signal[..., 1::2].astype(np.int64)
    detail = odd - even
    approx = even + np.floor_divide(detail, 2)
    return approx, detail


def _lift_pair(
    approx: np.ndarray, detail: np.ndarray, even: np.ndarray, odd: np.ndarray
) -> None:
    """One inverse lifting step written into the ``even`` and ``odd``
    views: ``even = approx - floor(detail / 2)``, ``odd = detail + even``
    (an arithmetic shift is that floor).  No temporaries: ``even`` holds
    the shifted detail first.  The views' word is the step's word."""
    np.right_shift(detail, 1, out=even)
    np.subtract(approx, even, out=even)
    np.add(detail, even, out=odd)


def s_transform_inverse_1d(
    approx: np.ndarray, detail: np.ndarray, axis: int = -1
) -> np.ndarray:
    """Inverse of :func:`s_transform_forward_1d` along ``axis`` (default: last).

    The even and odd samples are computed straight into their interleaved
    slots of the ``int64`` result, so a column step (``axis=0``) needs no
    transposed copies and no temporaries.
    """
    approx = np.asarray(approx, dtype=np.int64)
    detail = np.asarray(detail, dtype=np.int64)
    if approx.shape != detail.shape:
        raise ValueError("approximation and detail must have the same shape")
    axis %= approx.ndim
    shape = list(approx.shape)
    shape[axis] *= 2
    out = np.empty(shape, dtype=np.int64)
    even_slots = [slice(None)] * approx.ndim
    odd_slots = list(even_slots)
    even_slots[axis] = slice(0, None, 2)
    odd_slots[axis] = slice(1, None, 2)
    _lift_pair(approx, detail, out[tuple(even_slots)], out[tuple(odd_slots)])
    return out


def _synthesis_word(bands: Sequence[np.ndarray]) -> np.dtype:
    """The word the inverse lifts ``bands`` in: their own signed word, at
    least ``int32``.

    ``int32`` is proven wide enough for every band within ``+-D``, ``D =
    2**(bd + 1)``: the bands a ``bd``-bit stream decodes to (its Rice
    symbols are at most :func:`_symbol_limit`) and the ``int16`` ones its
    forward lifting makes (``D = 2**15``).  One synthesis scale takes an
    approximation bounded by ``A`` to at most ``A + 5.25 D``, and every
    value it writes on the way stays within that: the column steps give
    ``A + D/2`` and ``A + 3D/2`` (LL with HG), ``3D/2`` and ``5D/2`` (GH
    with GG), the row step ``A + 11D/4`` and then ``A + 21D/4``.  From
    ``A = D`` at the coarsest scale, ``s`` scales stay within ``(1 +
    5.25 s) D``: at 16 bits and 13 scales (the most a frame within
    ``MAX_FRAME_PIXELS`` halves into) that is under ``70 * 2**17``, far
    below ``2**31``.  ``int64`` bands (:func:`s_transform_forward_2d`)
    lift in ``int64``.
    """
    word = np.result_type(np.int32, *(band.dtype for band in bands))
    return word if word.kind == "i" else np.dtype(np.int64)


def _integer_band(band) -> np.ndarray:
    band = np.asarray(band)
    return band if band.dtype.kind == "i" else band.astype(np.int64)


def _synthesize(
    approximation: np.ndarray,
    details: Sequence[Dict[str, np.ndarray]],
    rows: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """The ``int64`` image the inverse S-transform makes of
    ``approximation`` and ``details`` (coarsest scale first), or just its
    output rows ``rows = (y0, y1)``.

    Each scale runs the two column steps (LL with HG, GH with GG) into two
    halves, then the row step out of them: the analysis order reversed.
    Every step lifts in :func:`_synthesis_word`, and only the last one's
    samples are copied into the ``int64`` image.  One scratch buffer,
    allocated once for the largest scale, holds the two halves and a
    third region for the row step's output (the next scale's
    approximation, and the last step's even samples).  The S-transform is
    non-overlapping (each output row pair draws on one coefficient row),
    so a row window contracts exactly by ``(a, b) -> (a // 2, (b - 1) //
    2 + 1)`` per scale and never clamps.
    """
    approximation = _integer_band(approximation)
    details = [
        {kind: _integer_band(bands[kind]) for kind in ("HG", "GH", "GG")}
        for bands in details
    ]
    scales = len(details)
    width = approximation.shape[1] << scales
    windows = [rows or (0, approximation.shape[0] << scales)]
    for _ in range(scales):
        a, b = windows[-1]
        windows.append((a // 2, (b - 1) // 2 + 1))
    data = approximation[windows[-1][0] : windows[-1][1]]
    image = np.empty((windows[0][1] - windows[0][0], width), dtype=np.int64)
    if not scales:
        image[...] = data
        return image
    word = _synthesis_word([approximation, *(b for d in details for b in d.values())])
    size = max(
        2 * (b - a) * (width >> level)
        for level, (a, b) in enumerate(windows[1:], start=1)
    )
    scratch = np.empty(3 * size, dtype=word)
    for level, bands in zip(range(scales, 0, -1), details):
        a, b = windows[level]
        hg, gh, gg = (bands[kind][a:b] for kind in ("HG", "GH", "GG"))
        low, high = (
            scratch[offset : offset + 2 * data.size].reshape(-1, data.shape[1])
            for offset in (0, size)
        )
        _lift_pair(data, hg, low[0::2], low[1::2])
        _lift_pair(gh, gg, high[0::2], high[1::2])
        start, stop = (edge - 2 * a for edge in windows[level - 1])
        low, high = low[start:stop], high[start:stop]
        if level > 1:
            data = scratch[2 * size : 2 * size + 2 * low.size].reshape(len(low), -1)
            _lift_pair(low, high, data[:, 0::2], data[:, 1::2])
    # The last row step: even samples into the third region, odd ones
    # over the LL-with-HG half, then both into the image.
    even = scratch[2 * size : 2 * size + low.size].reshape(low.shape)
    _lift_pair(low, high, even, low)
    image[:, 0::2] = even
    image[:, 1::2] = low
    return image


# ---------------------------------------------------------------------------
# 2-D multi-scale transform
# ---------------------------------------------------------------------------

@dataclass
class STransformPyramid:
    """Subband container of the multi-scale 2-D S-transform."""

    approximation: np.ndarray
    details: List[Dict[str, np.ndarray]] = field(default_factory=list)

    @property
    def scales(self) -> int:
        return len(self.details)


def _check_dyadic(image: np.ndarray, scales: int) -> None:
    """Reject anything but a 2-D image that halves ``scales`` times."""
    if image.ndim != 2:
        raise ValueError("expected a 2-D image")
    if scales < 1:
        raise ValueError("scales must be >= 1")
    for size in image.shape:
        if size % (1 << scales):
            raise ValueError(
                f"image dimension {size} does not support {scales} dyadic scales"
            )


def _lift_in_place(data: np.ndarray, scales: int) -> STransformPyramid:
    """The multi-scale forward S-transform of ``data``, lifted in place.

    Each scale lifts the current LL view along axis 1 (the odd column of a
    pair becomes its detail, the even one its approximation), then along
    axis 0, so the scale's subbands interleave in the view: LL at
    ``[0::2, 0::2]``, HG at ``[1::2, 0::2]``, GH at ``[0::2, 1::2]`` and GG
    at ``[1::2, 1::2]``.  The returned bands are strided views of ``data``:
    nothing is transposed or copied.  Each step writes only coefficients
    that the transform keeps, so ``data``'s word need only hold those.
    """
    shifted = np.empty(data.size // 2, dtype=data.dtype)
    details: List[Dict[str, np.ndarray]] = []
    for _ in range(scales):
        for even, odd in (
            (data[:, 0::2], data[:, 1::2]),
            (data[0::2], data[1::2]),
        ):
            # detail = odd - even; approximation = even + floor(detail / 2).
            np.subtract(odd, even, out=odd)
            half = shifted[: even.size].reshape(even.shape)
            np.right_shift(odd, 1, out=half)
            np.add(even, half, out=even)
        details.append(
            {"HG": data[1::2, 0::2], "GH": data[0::2, 1::2], "GG": data[1::2, 1::2]}
        )
        data = data[0::2, 0::2]
    return STransformPyramid(approximation=data, details=details)


def s_transform_forward_2d(image: np.ndarray, scales: int) -> STransformPyramid:
    """Multi-scale 2-D forward S-transform (rows then columns, recurse on LL),
    in ``int64``.

    Each band is its own contiguous array, so a caller that keeps one band
    (a preview's approximation, say) does not keep the image-sized lifting
    buffer alive.
    """
    image = np.asarray(image)
    _check_dyadic(image, scales)
    lifted = _lift_in_place(image.astype(np.int64), scales)
    return STransformPyramid(
        approximation=lifted.approximation.copy(),
        details=[
            {kind: band.copy() for kind, band in bands.items()}
            for bands in lifted.details
        ],
    )


def s_transform_inverse_2d(pyramid: STransformPyramid) -> np.ndarray:
    """Inverse of :func:`s_transform_forward_2d`, as an ``int64`` image.

    Lifts in the bands' own word, at least ``int32``
    (:func:`_synthesis_word`): ``int64`` for an ``int64`` pyramid.  The
    ``int32`` word is proven for bands within ``+-2**17``; pass wider
    values as ``int64``.
    """
    return _synthesize(pyramid.approximation, pyramid.details[::-1])


def s_transform_inverse_roi(
    pyramid: STransformPyramid, y0: int, y1: int
) -> np.ndarray:
    """Inverse S-transform restricted to output rows ``[y0, y1)``.

    Only the coefficient rows the window draws on are lifted
    (:func:`_synthesize`).  The result is bit-exact to
    ``s_transform_inverse_2d(pyramid)[y0:y1]``.
    """
    height = pyramid.approximation.shape[0] << pyramid.scales
    if not 0 <= y0 < y1 <= height:
        raise ValueError(
            f"row band [{y0}, {y1}) is not within the {height}-row image"
        )
    return _synthesize(pyramid.approximation, pyramid.details[::-1], (y0, y1))


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

def _lifting_word(bit_depth: int) -> type:
    """The narrowest signed word for the forward lifting of
    ``bit_depth``-bit pixels.

    Approximations stay in pixel range and a first difference takes one
    bit more; only GG, the difference of two differences, reaches
    ``2 * (2**bit_depth - 1)``, which needs ``bit_depth + 2`` signed bits:
    ``int16`` up to 14-bit pixels, ``int32`` for 15 and 16.
    """
    return np.int16 if bit_depth <= 14 else np.int32


def _symbol_limit(bit_depth: int) -> int:
    """The largest Rice symbol a ``bit_depth``-bit stream holds:
    ``4 * (2**bit_depth - 1)``, the zig-zag of GG's extreme ``2 *
    (2**bit_depth - 1)`` (:func:`_lifting_word`).  Below ``2**18``, so
    the decoder reads every band in ``int32``, and every decoded value
    lies within ``+-2**(bit_depth + 1)`` (:func:`_synthesis_word`)."""
    return 4 * ((1 << bit_depth) - 1)


def _zigzag_word(band: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`~repro.coding.mapper.zigzag_encode` of a band, flat, in the
    unsigned word of the band's own width, or written into ``out`` (a flat
    unsigned array of the band's size, at least as wide as the band).

    Zig-zag maps the ``n``-bit signed integers one to one onto the ``n``-bit
    unsigned ones, so the fold is exact in any width: ``(v << 1) ^ (v >>
    (n - 1))`` with the shift done unsigned.  A strided band is read in
    place; the result is contiguous.
    """
    band = np.asarray(band)
    if band.dtype.kind != "i":
        band = band.astype(np.int64)
    if out is None:
        out = np.empty(band.size, dtype=f"u{band.itemsize}")
    elif out.itemsize != band.itemsize:
        band = band.astype(f"i{out.itemsize}")
    symbols = out.reshape(band.shape)
    np.left_shift(band.view(out.dtype), 1, out=symbols)
    sign = np.right_shift(band, 8 * band.itemsize - 1)
    np.bitwise_xor(symbols, sign.view(out.dtype), out=symbols)
    return out


def _zigzag_bands(bands: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[int]]:
    """Every band's :func:`_zigzag_word` symbols, laid end to end in one
    buffer of the widest band's unsigned word, and the band sizes."""
    bands = [np.asarray(band) for band in bands]
    width = max(
        (band.itemsize if band.dtype.kind == "i" else 8 for band in bands), default=8
    )
    counts = [band.size for band in bands]
    symbols = np.empty(sum(counts), dtype=f"u{width}")
    offset = 0
    for band in bands:
        _zigzag_word(band, out=symbols[offset : offset + band.size])
        offset += band.size
    return symbols, counts


@dataclass
class CompressedSImage:
    """Compressed representation produced by :class:`STransformCodec`."""

    scales: int
    image_shape: Tuple[int, int]
    bit_depth: int
    chunks: Dict[Tuple[str, int], bytes] = field(default_factory=dict)
    shapes: Dict[Tuple[str, int], Tuple[int, int]] = field(default_factory=dict)

    @property
    def compressed_bytes(self) -> int:
        return sum(len(payload) for payload in self.chunks.values())

    @property
    def original_bytes(self) -> int:
        pixels = self.image_shape[0] * self.image_shape[1]
        return (pixels * self.bit_depth + 7) // 8

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes

    @property
    def bits_per_pixel(self) -> float:
        pixels = self.image_shape[0] * self.image_shape[1]
        return 8.0 * self.compressed_bytes / pixels if pixels else 0.0


class STransformCodec:
    """Compressive lossless codec: integer S-transform + zig-zag + Rice.

    ``engine`` selects the entropy-coding implementation tier: ``"fast"``
    (the vectorised NumPy coder) or ``"scalar"`` (the bit-by-bit reference).
    Both produce byte-identical streams; either engine decodes the other's
    output.  Resolved by
    :func:`repro.coding.spec.resolve_engine` (``None``, the default, means
    :func:`~repro.coding.spec.default_engine`).
    """

    def __init__(
        self, scales: int = 4, bit_depth: int = 12, engine: Optional[str] = None
    ) -> None:
        # Imported here, not at module top: the registry module imports this
        # one while it initialises (see spec._register_builtin_families).
        from .spec import resolve_engine

        if scales < 1:
            raise ValueError("scales must be >= 1")
        if not 1 <= bit_depth <= 16:
            raise ValueError("bit_depth must be in [1, 16]")
        self.scales = scales
        self.bit_depth = bit_depth
        self.engine = resolve_engine(engine)

    # -- stage API (used by the batched pipeline for per-stage timing) ------------------
    def forward_transform(self, image: np.ndarray) -> STransformPyramid:
        """Validate the image and run the multi-scale forward S-transform in
        the narrowest word that holds every coefficient
        (:func:`_lifting_word`); the bands are views of that one buffer."""
        image = np.asarray(image)
        if image.ndim != 2:
            raise ValueError("the codec compresses 2-D images")
        if image.min() < 0 or image.max() >= (1 << self.bit_depth):
            raise ValueError(
                f"image values outside the declared {self.bit_depth}-bit range"
            )
        _check_dyadic(image, self.scales)
        return _lift_in_place(image.astype(_lifting_word(self.bit_depth)), self.scales)

    def encode_pyramid(
        self, pyramid: STransformPyramid, image_shape: Tuple[int, int]
    ) -> CompressedSImage:
        """Entropy code every subband of a transformed pyramid."""
        compressed = CompressedSImage(
            scales=self.scales,
            image_shape=(int(image_shape[0]), int(image_shape[1])),
            bit_depth=self.bit_depth,
        )
        bands = [("HH", self.scales, pyramid.approximation)]
        for scale_index, details in enumerate(pyramid.details, start=1):
            bands.extend((kind, scale_index, band) for kind, band in details.items())
        payloads = self._rice_encode(*_zigzag_bands([band for *_, band in bands]))
        for (kind, scale, band), payload in zip(bands, payloads):
            compressed.chunks[(kind, scale)] = payload
            compressed.shapes[(kind, scale)] = (int(band.shape[0]), int(band.shape[1]))
        return compressed

    def decode_pyramid(self, compressed: CompressedSImage) -> STransformPyramid:
        """Entropy decode a stream back into a subband pyramid of ``int32``
        bands (a symbol above the :func:`_symbol_limit` of the stream's
        declared bit depth raises ``ValueError``)."""
        self._check_stream_config(compressed)
        approximation, details = self._decode_bands(
            compressed, range(1, self.scales + 1)
        )
        return STransformPyramid(approximation=approximation, details=details)

    def inverse_transform(self, pyramid: STransformPyramid) -> np.ndarray:
        """Run the inverse S-transform (:func:`s_transform_inverse_2d`): in
        the ``int32`` word of decoded bands, into an ``int64`` image."""
        return s_transform_inverse_2d(pyramid)

    # -- whole-image API ----------------------------------------------------------------
    def encode(self, image: np.ndarray) -> CompressedSImage:
        """Compress an integer image losslessly."""
        image = np.asarray(image)
        pyramid = self.forward_transform(image)
        return self.encode_pyramid(pyramid, image.shape)

    def decode(self, compressed: CompressedSImage) -> np.ndarray:
        """Reconstruct the original image bit for bit."""
        return self.inverse_transform(self.decode_pyramid(compressed))

    def decode_preview(self, compressed: CompressedSImage, at_scale: int) -> np.ndarray:
        """Decode the scale-``at_scale`` approximation image.

        Only the approximation and the detail subbands coarser than
        ``at_scale`` are entropy decoded, so a prefix-decoded stream holding
        just those chunks suffices.  The S-transform averages (rather than
        sums) on analysis, so the preview stays in pixel range.
        ``at_scale=0`` equals :meth:`decode` bit for bit.
        """
        self._check_stream_config(compressed)
        if not 0 <= at_scale <= self.scales:
            raise ValueError(
                f"at_scale must be within [0, {self.scales}], got {at_scale}"
            )
        return _synthesize(
            *self._decode_bands(compressed, range(self.scales, at_scale, -1))
        )

    def decode_roi(self, compressed: CompressedSImage, y0: int, y1: int) -> np.ndarray:
        """Decode just the output row band ``[y0, y1)``.

        Bit-exact to ``decode(compressed)[y0:y1]``; every subband still
        entropy decodes, but the inverse transform runs windowed
        (:func:`s_transform_inverse_roi`).
        """
        return s_transform_inverse_roi(self.decode_pyramid(compressed), y0, y1)

    def roundtrip(self, image: np.ndarray) -> Tuple[np.ndarray, CompressedSImage]:
        compressed = self.encode(image)
        return self.decode(compressed), compressed

    # -- helpers ------------------------------------------------------------------------
    def _check_stream_config(self, compressed: CompressedSImage) -> None:
        """Reject a stream of another depth, one declaring a bit depth
        outside ``[1, 16]`` (its symbol limit sizes the decode word), or one
        whose declared band shapes do not fit its image, before anything is
        decoded."""
        if compressed.scales != self.scales:
            raise ValueError(
                f"stream has {compressed.scales} scales, codec configured for {self.scales}"
            )
        if not 1 <= compressed.bit_depth <= 16:
            raise ValueError(
                f"stream declares bit depth {compressed.bit_depth}, outside [1, 16]"
            )
        check_band_shapes(
            compressed.image_shape,
            self.scales,
            ((kind, scale, shape) for (kind, scale), shape in compressed.shapes.items()),
        )

    def _rice_encode(self, symbols: np.ndarray, counts: List[int]) -> List[bytes]:
        """The Rice blocks of the bands laid end to end in ``symbols``."""
        if self.engine == "scalar":
            return [
                rice_encode_planar_scalar(block)
                for block in np.split(symbols, np.cumsum(counts)[:-1])
            ]
        return rice_encode_planar_flat(symbols, counts)

    def _rice_decode_blocks(
        self, payloads: List[bytes], limit: int
    ) -> Iterator[np.ndarray]:
        """The decoded ``int32`` blocks in order, every symbol checked
        against ``limit``.  The scalar tier decodes each one as it is
        taken; the fast tier decodes the frame in one batch and drops each
        block once taken, so a batch's output is freed with its last band
        and the decode peaks near one copy of the frame, not two."""
        if self.engine == "scalar":
            for payload in payloads:
                yield np.asarray(rice_decode_scalar(payload, limit), dtype=np.int32)
            return
        blocks = rice_decode_planar_blocks(payloads, limit)[::-1]
        while blocks:
            yield blocks.pop()

    def _decode_bands(
        self, compressed: CompressedSImage, scales: Sequence[int]
    ) -> Tuple[np.ndarray, List[Dict[str, np.ndarray]]]:
        """The approximation and the detail bands of ``scales`` (in that
        order), their Rice blocks decoded in one batch under the symbol
        limit of the stream's declared bit depth (:func:`_symbol_limit`)
        and zig-zag decoded in place."""
        keys = [("HH", self.scales)] + [
            (kind, scale) for scale in scales for kind in ("HG", "GH", "GG")
        ]
        try:
            payloads = [compressed.chunks[key] for key in keys]
            shapes = [compressed.shapes[key] for key in keys]
        except KeyError as exc:
            kind, scale = exc.args[0]
            raise KeyError(f"compressed stream has no subband {kind}@{scale}") from exc
        blocks = self._rice_decode_blocks(payloads, _symbol_limit(compressed.bit_depth))
        bands = iter(
            [
                zigzag_decode_inplace(symbols).reshape(shape)
                for symbols, shape in zip(blocks, shapes)
            ]
        )
        approximation = next(bands)
        details = [
            {kind: next(bands) for kind in ("HG", "GH", "GG")} for _ in scales
        ]
        return approximation, details
