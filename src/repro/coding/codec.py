"""Coefficient-domain lossless codec (library extension, not a paper result).

The paper designs the transform hardware for "lossless compression of
medical images" but does not describe the entropy-coding back end.  This
module supplies the coefficient-exact back end:

1. the image is transformed with the bit-exact fixed-point DWT
   (:class:`~repro.fxdwt.transform.FixedPointDWT`, the same arithmetic the
   hardware performs),
2. each subband of stored integer coefficients is mapped to non-negative
   symbols (zig-zag) and entropy coded with a per-subband Rice code
   (optionally preceded by zero run-length coding),
3. decoding reverses the steps and finishes with the fixed-point inverse
   transform, recovering the original 12-bit image bit for bit.

The codec never quantises, so losslessness follows directly from the
lossless transform round trip that the paper's word-length analysis
guarantees — which is exactly the property the test suite asserts.

Note on compressed size: the stored coefficients keep all the fractional
bits the 32-bit word-length plan requires, so this *coefficient-exact*
stream is a faithful model of what the paper's hardware would hand to a
back-end coder but is generally **larger** than the raw 12-bit image.  For
an extension codec that genuinely shrinks medical images losslessly, use
:class:`repro.coding.s_transform.STransformCodec`, which replaces the
filter-bank transform with a reversible integer (lifting) transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..dwt.subbands import ScaleDetails, check_band_shapes
from ..filters.catalog import get_bank
from ..filters.qmf import BiorthogonalBank
from ..fixedpoint.wordlength import WordLengthPlan, plan_word_lengths
from ..fxdwt.transform import FixedPointDWT, FixedPointPyramid
from .mapper import zigzag_decode, zigzag_encode
from .rice import (
    is_rice_zero_block,
    rice_declared_count,
    rice_decode_planar_blocks,
    rice_decode_scalar,
    rice_encode_planar_flat,
    rice_encode_planar_scalar,
    rice_zero_block,
)
from .rle import (
    LITERAL,
    ZERO_RUN,
    RleEvent,
    check_rle_size,
    check_zero_free_size,
    events_to_arrays,
    rle_decode,
    rle_decode_arrays,
    rle_encode,
    rle_encode_arrays,
)

__all__ = ["SubbandChunk", "CompressedImage", "LosslessWaveletCodec"]


@dataclass(frozen=True)
class SubbandChunk:
    """One entropy-coded subband."""

    kind: str          # "HH", "HG", "GH" or "GG"
    scale: int
    shape: Tuple[int, int]
    use_rle: bool
    payload: bytes
    run_payload: bytes = b""

    @property
    def byte_size(self) -> int:
        return len(self.payload) + len(self.run_payload)


@dataclass
class CompressedImage:
    """Complete compressed representation of one image."""

    bank_name: str
    scales: int
    image_shape: Tuple[int, int]
    bit_depth: int
    chunks: List[SubbandChunk] = field(default_factory=list)

    @property
    def compressed_bytes(self) -> int:
        """Payload size (entropy-coded subbands, excluding the tiny header)."""
        return sum(chunk.byte_size for chunk in self.chunks)

    @property
    def original_bytes(self) -> int:
        """Size of the raw image at its native bit depth (rounded up to bytes)."""
        pixels = self.image_shape[0] * self.image_shape[1]
        return (pixels * self.bit_depth + 7) // 8

    @property
    def compression_ratio(self) -> float:
        """original / compressed (> 1 means the codec saved space)."""
        if self.compressed_bytes == 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes

    @property
    def bits_per_pixel(self) -> float:
        pixels = self.image_shape[0] * self.image_shape[1]
        return 8.0 * self.compressed_bytes / pixels if pixels else 0.0

    def chunk(self, kind: str, scale: int) -> SubbandChunk:
        for chunk in self.chunks:
            if chunk.kind == kind and chunk.scale == scale:
                return chunk
        raise KeyError(f"no chunk for subband {kind}@{scale}")

    def size_by_scale(self) -> Dict[int, int]:
        """Compressed bytes per scale (diagnostics for the examples)."""
        sizes: Dict[int, int] = {}
        for chunk in self.chunks:
            sizes[chunk.scale] = sizes.get(chunk.scale, 0) + chunk.byte_size
        return sizes


def _check_rle_counts(chunk: SubbandChunk) -> None:
    """Reject an RLE chunk whose Rice headers cannot describe its band.

    Every literal takes one run-stream entry (a 0 marker) and every entry
    covers at least one pixel, so a valid chunk declares
    ``literals <= entries <= pixels``.  Checked from the two blocks'
    declared counts before any block is decoded, so a hostile run stream
    fails without the work of decoding the bands in front of it.  A block
    too short for a header is left to the decoder, which rejects it.
    """
    literals = rice_declared_count(chunk.payload)
    entries = rice_declared_count(chunk.run_payload)
    if literals is None or entries is None:
        return
    pixels = chunk.shape[0] * chunk.shape[1]
    if not literals <= entries <= pixels:
        raise ValueError(
            f"RLE chunk {chunk.kind}@{chunk.scale} declares {literals} literals "
            f"in {entries} run entries for a {pixels}-pixel band"
        )


class LosslessWaveletCodec:
    """Lossless compressor built on the bit-exact fixed-point DWT.

    Parameters
    ----------
    bank:
        Filter bank (a :class:`BiorthogonalBank` or a Table I name).
    scales:
        Number of decomposition scales.
    bit_depth:
        Bit depth of the input images (12 for the paper's medical images).
    use_rle:
        Whether to run zero run-length coding before the Rice coder on the
        detail subbands (the approximation subband is never run-length coded,
        it has essentially no zeros).  A zero-free detail band (every band
        of a CT slice, whose coefficients keep their fractional bits)
        carries the canonical run block of one literal marker per pixel,
        :func:`~repro.coding.rice.rice_zero_block`: the fast tier writes it
        from the band's pixel count and reads such a band as its literals,
        coding and decoding no run symbol.
    plan:
        Optional word-length plan override for the underlying transform.
    engine:
        Entropy-coding implementation tier: ``"fast"`` (vectorised) or
        ``"scalar"`` (the bit-by-bit reference).  Both produce
        byte-identical streams; either engine decodes the other's output.
        Resolved by :func:`repro.coding.spec.resolve_engine` (``None``, the
        default, means :func:`~repro.coding.spec.default_engine`).
    """

    def __init__(
        self,
        bank: BiorthogonalBank | str = "F2",
        scales: int = 4,
        bit_depth: int = 12,
        use_rle: bool = True,
        plan: Optional[WordLengthPlan] = None,
        engine: Optional[str] = None,
    ) -> None:
        # Imported here, not at module top: the registry module imports this
        # one while it initialises (see spec._register_builtin_families).
        from .spec import resolve_engine

        if isinstance(bank, str):
            bank = get_bank(bank)
        if bit_depth < 1 or bit_depth > 16:
            raise ValueError("bit_depth must be in [1, 16]")
        self.bank = bank
        self.scales = scales
        self.bit_depth = bit_depth
        self.use_rle = use_rle
        self.engine = resolve_engine(engine)
        self.plan = plan if plan is not None else plan_word_lengths(bank, scales)
        self.transform = FixedPointDWT(bank, scales, plan=self.plan)

    # -- stage API (used by the batched pipeline for per-stage timing) ------------------
    def forward_transform(self, image: np.ndarray) -> FixedPointPyramid:
        """Check shape and declared bit-depth range, then run the bit-exact
        fixed-point forward DWT."""
        image = np.asarray(image)
        if image.ndim != 2:
            raise ValueError("the codec compresses 2-D images")
        if image.min() < 0 or image.max() >= (1 << self.bit_depth):
            raise ValueError(
                f"image values outside the declared {self.bit_depth}-bit range"
            )
        return self.transform.forward(np.asarray(image, dtype=np.int64))

    def encode_pyramid(
        self, pyramid: FixedPointPyramid, image_shape: Tuple[int, int]
    ) -> CompressedImage:
        """Entropy code every subband of a transformed pyramid."""
        compressed = CompressedImage(
            bank_name=self.bank.name,
            scales=self.scales,
            image_shape=(int(image_shape[0]), int(image_shape[1])),
            bit_depth=self.bit_depth,
        )
        bands = [("HH", self.scales, pyramid.approximation, False)]
        for entry in reversed(pyramid.details):
            bands.extend(
                (kind, entry.scale, band, self.use_rle)
                for kind, band in entry.as_dict().items()
            )
        # Every band's Rice blocks are coded in one batch: the (zig-zagged)
        # literals of each band, then its run stream if it is RLE coded,
        # laid end to end.  A block already written (a zero-free band's
        # run block) stays out of the batch.  The per-band arrays go
        # before the coder runs, so the batch holds one copy of the
        # frame's symbols, not two.
        blocks: List[np.ndarray | bytes] = []
        for _, _, band, use_rle in bands:
            blocks.extend(self._band_blocks(band, use_rle))
        arrays = [block for block in blocks if isinstance(block, np.ndarray)]
        counts = [array.size for array in arrays]
        symbols = np.concatenate(arrays)
        del arrays
        written = [block if isinstance(block, bytes) else None for block in blocks]
        del blocks
        coded = iter(self._rice_encode(symbols, counts))
        payloads = iter([next(coded) if block is None else block for block in written])
        for kind, scale, band, use_rle in bands:
            compressed.chunks.append(
                SubbandChunk(
                    kind=kind,
                    scale=scale,
                    shape=(int(band.shape[0]), int(band.shape[1])),
                    use_rle=use_rle,
                    payload=next(payloads),
                    run_payload=next(payloads) if use_rle else b"",
                )
            )
        return compressed

    def decode_pyramid(self, compressed: CompressedImage) -> FixedPointPyramid:
        """Entropy decode a stream back into a fixed-point pyramid."""
        self._check_stream_config(compressed)
        approximation, details = self._decode_bands(
            compressed, range(1, self.scales + 1)
        )
        return FixedPointPyramid(
            plan=self.plan, approximation=approximation, details=details
        )

    def inverse_transform(self, pyramid: FixedPointPyramid) -> np.ndarray:
        """Run the bit-exact fixed-point inverse DWT."""
        return self.transform.inverse(pyramid)

    # -- encoding -----------------------------------------------------------------------
    def encode(self, image: np.ndarray) -> CompressedImage:
        """Compress a 2-D integer image losslessly."""
        image = np.asarray(image)
        pyramid = self.forward_transform(image)
        return self.encode_pyramid(pyramid, image.shape)

    def _rice_encode(self, symbols: np.ndarray, counts: List[int]) -> List[bytes]:
        """The Rice blocks laid end to end in ``symbols``."""
        if self.engine == "scalar":
            return [
                rice_encode_planar_scalar(block)
                for block in np.split(symbols, np.cumsum(counts)[:-1])
            ]
        return rice_encode_planar_flat(symbols, counts)

    def _rice_decode_blocks(self, payloads: List[bytes]) -> Iterator[np.ndarray]:
        """The decoded blocks in order.  The scalar tier decodes each one as
        it is taken; the fast tier decodes the frame in one batch and drops
        each block once taken, so a batch's output is freed with its last
        band and the decode peaks near one copy of the frame, not two."""
        if self.engine == "scalar":
            for payload in payloads:
                yield np.asarray(rice_decode_scalar(payload), dtype=np.int64)
            return
        blocks = rice_decode_planar_blocks(payloads)[::-1]
        while blocks:
            yield blocks.pop()

    def _band_blocks(
        self, band: np.ndarray, use_rle: bool
    ) -> List[np.ndarray | bytes]:
        """The Rice blocks of one band: its symbols, or literals then runs.

        On the fast tier a zero-free band's run stream (one literal marker
        per pixel) comes back as its written block,
        :func:`~repro.coding.rice.rice_zero_block`.
        """
        flat = np.asarray(band, dtype=np.int64).ravel()
        if not use_rle:
            return [zigzag_encode(flat)]
        # Run lengths and literal values go into two Rice blocks; the event
        # kinds need no extra bitmap because a literal of value 0 never
        # occurs (zeros always join runs), so a 0 in the run stream
        # unambiguously marks the next literal.
        if self.engine == "scalar":
            run_symbols, literals = events_to_arrays(rle_encode(flat))
        elif flat.all():
            return [zigzag_encode(flat), rice_zero_block(flat.size)]
        else:
            run_symbols, literals = rle_encode_arrays(flat)
        return [zigzag_encode(literals), run_symbols]

    # -- decoding -----------------------------------------------------------------------
    def decode(self, compressed: CompressedImage) -> np.ndarray:
        """Reconstruct the original image bit for bit."""
        return self.inverse_transform(self.decode_pyramid(compressed))

    def _check_stream_config(self, compressed: CompressedImage) -> None:
        """Reject a stream of another configuration, or one whose declared
        band shapes do not fit its image, before anything is decoded."""
        if compressed.bank_name != self.bank.name or compressed.scales != self.scales:
            raise ValueError(
                "compressed stream was produced with a different codec configuration "
                f"({compressed.bank_name}/{compressed.scales} vs "
                f"{self.bank.name}/{self.scales})"
            )
        check_band_shapes(
            compressed.image_shape,
            self.scales,
            ((chunk.kind, chunk.scale, chunk.shape) for chunk in compressed.chunks),
        )

    def decode_preview(self, compressed: CompressedImage, at_scale: int) -> np.ndarray:
        """Decode only the subbands a scale-``at_scale`` preview needs.

        Entropy decodes the approximation plus the detail subbands coarser
        than ``at_scale`` — a prefix-decoded stream holding just those
        chunks suffices — and stops the synthesis ladder early
        (:meth:`FixedPointDWT.inverse_preview`).  ``at_scale=0`` decodes
        every chunk and equals :meth:`decode` bit for bit.
        """
        self._check_stream_config(compressed)
        if not 0 <= at_scale <= self.scales:
            raise ValueError(
                f"at_scale must be within [0, {self.scales}], got {at_scale}"
            )
        approximation, decoded = self._decode_bands(
            compressed, range(at_scale + 1, self.scales + 1)
        )
        details: List[Optional[ScaleDetails]] = [None] * at_scale + decoded
        pyramid = FixedPointPyramid(
            plan=self.plan, approximation=approximation, details=details
        )
        return self.transform.inverse_preview(pyramid, at_scale)

    def decode_roi(self, compressed: CompressedImage, y0: int, y1: int) -> np.ndarray:
        """Decode just the output row band ``[y0, y1)``.

        Every subband still entropy decodes (a row band draws on all
        scales), but the synthesis runs windowed
        (:meth:`FixedPointDWT.inverse_roi`), so the result is bit-exact to
        ``decode(compressed)[y0:y1]`` at a fraction of the synthesis work.
        """
        return self.transform.inverse_roi(self.decode_pyramid(compressed), y0, y1)

    def _decode_bands(
        self, compressed: CompressedImage, scales: Sequence[int]
    ) -> Tuple[np.ndarray, List[ScaleDetails]]:
        """The approximation and the detail bands of ``scales``.

        Every Rice block they need (each band's literals, then its run
        stream if it is RLE coded) is decoded in one batch, as
        :meth:`encode_pyramid` codes them.  On the fast tier a run stream
        that is the canonical block of one literal marker per pixel
        (:func:`~repro.coding.rice.rice_zero_block`) is not decoded: its
        band is its literals.
        """
        chunks = [compressed.chunk("HH", self.scales)] + [
            compressed.chunk(kind, scale)
            for scale in scales
            for kind in ("HG", "GH", "GG")
        ]
        for chunk in chunks:
            if chunk.use_rle:
                _check_rle_counts(chunk)
        runs_coded = [self._runs_coded(chunk) for chunk in chunks]
        payloads: List[bytes] = []
        for chunk, coded in zip(chunks, runs_coded):
            payloads.append(chunk.payload)
            if coded:
                payloads.append(chunk.run_payload)
        symbols = self._rice_decode_blocks(payloads)
        bands = iter(
            [
                self._band(chunk, next(symbols), next(symbols) if coded else None)
                for chunk, coded in zip(chunks, runs_coded)
            ]
        )
        approximation = next(bands)
        details = [
            ScaleDetails(scale=scale, hg=next(bands), gh=next(bands), gg=next(bands))
            for scale in scales
        ]
        return approximation, details

    def _runs_coded(self, chunk: SubbandChunk) -> bool:
        """Whether ``chunk``'s run stream goes through the Rice decoder:
        every RLE chunk's on the scalar tier, and on the fast tier every
        one but a canonical zero-run block."""
        if not chunk.use_rle:
            return False
        return self.engine == "scalar" or not is_rice_zero_block(
            chunk.run_payload, chunk.shape[0] * chunk.shape[1]
        )

    def _band(
        self,
        chunk: SubbandChunk,
        symbols: np.ndarray,
        run_symbols: Optional[np.ndarray],
    ) -> np.ndarray:
        """One band from its decoded literal symbols and run stream (``None``
        for an RLE band whose run stream is the canonical zero-run block)."""
        pixels = chunk.shape[0] * chunk.shape[1]
        if not chunk.use_rle:
            flat = zigzag_decode(symbols)
        elif run_symbols is None:
            check_zero_free_size(symbols.size, pixels)
            flat = zigzag_decode(symbols)
        else:
            literals = zigzag_decode(symbols)
            check_rle_size(run_symbols, literals.size, pixels)
            if self.engine != "scalar":
                flat = rle_decode_arrays(run_symbols, literals)
            else:
                events: List[RleEvent] = []
                literal_index = 0
                for run in run_symbols.tolist():
                    if run > 0:
                        events.append(RleEvent(ZERO_RUN, run))
                    else:
                        events.append(RleEvent(LITERAL, int(literals[literal_index])))
                        literal_index += 1
                flat = rle_decode(events)
        return np.asarray(flat, dtype=np.int64).reshape(chunk.shape)

    # -- convenience -----------------------------------------------------------------------
    def roundtrip(self, image: np.ndarray) -> Tuple[np.ndarray, CompressedImage]:
        """Compress and immediately decompress; returns (reconstruction, stream)."""
        compressed = self.encode(image)
        return self.decode(compressed), compressed
