"""Lossless wavelet codecs (library extension beyond the paper).

Public API
----------
``LosslessWaveletCodec``
    Coefficient-exact back end for the paper's fixed-point DWT (bit-exact
    round trip; models the hardware-to-coder hand-off, does not shrink).
``STransformCodec``
    Compressive lossless codec based on the reversible integer S-transform.
``compress_frames`` / ``decompress_frames``
    Batched end-to-end pipeline over many frames with per-stage timing.
``CompressedImage`` / ``CompressedSImage`` / ``SubbandChunk``
    Compressed-stream containers with size/ratio accounting.
``rice_decode`` / ``rle_encode`` and friends
    The underlying entropy-coding primitives.  Every block coder ships a
    vectorised NumPy implementation and a bit-by-bit ``*_scalar`` reference
    producing byte-identical streams.  ``rice_encode_scalar`` mints the
    legacy interleaved Rice layout, which every Rice decoder still reads.
"""

from .bitstream import BitReader, BitWriter
from .codec import CompressedImage, LosslessWaveletCodec, SubbandChunk
from .executor import (
    ParallelExecutor,
    default_workers,
    is_socket_workers,
    make_executor,
)
from .pipeline import (
    CompressedBatch,
    PipelineStats,
    compress_frames,
    decompress_frames,
    max_dyadic_scales,
)
from .spec import (
    ENGINE_NAMES,
    CodecFamily,
    CodecSpec,
    UnknownCodecError,
    codec_names,
    default_engine,
    get_family,
    register_codec,
    resolve_engine,
)
from .s_transform import (
    CompressedSImage,
    STransformCodec,
    STransformPyramid,
    s_transform_forward_1d,
    s_transform_forward_2d,
    s_transform_inverse_1d,
    s_transform_inverse_2d,
    s_transform_inverse_roi,
)
from .mapper import flatten_pyramid, pyramid_scan, zigzag_decode, zigzag_encode
from .rice import (
    optimal_rice_parameter,
    rice_code_length,
    rice_cost_matrix,
    rice_decode,
    rice_decode_array,
    rice_decode_scalar,
    rice_encode_scalar,
)
from .rle import (
    LITERAL,
    ZERO_RUN,
    RleEvent,
    rle_decode,
    rle_decode_arrays,
    rle_encode,
    rle_encode_arrays,
    zero_fraction,
)


def __getattr__(name: str):
    # Resolved through the registry on access (not snapshotted at package
    # import) so `repro.coding.CODEC_NAMES` stays truthful after
    # register_codec(); codec_names() is the explicit call-time view.
    if name == "CODEC_NAMES":
        return codec_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BitReader",
    "BitWriter",
    "CompressedImage",
    "LosslessWaveletCodec",
    "SubbandChunk",
    "CODEC_NAMES",
    "CompressedBatch",
    "PipelineStats",
    "compress_frames",
    "decompress_frames",
    "max_dyadic_scales",
    "ENGINE_NAMES",
    "CodecFamily",
    "CodecSpec",
    "UnknownCodecError",
    "codec_names",
    "default_engine",
    "get_family",
    "register_codec",
    "resolve_engine",
    "ParallelExecutor",
    "default_workers",
    "is_socket_workers",
    "make_executor",
    "CompressedSImage",
    "STransformCodec",
    "STransformPyramid",
    "s_transform_forward_1d",
    "s_transform_forward_2d",
    "s_transform_inverse_1d",
    "s_transform_inverse_2d",
    "s_transform_inverse_roi",
    "flatten_pyramid",
    "pyramid_scan",
    "zigzag_decode",
    "zigzag_encode",
    "optimal_rice_parameter",
    "rice_code_length",
    "rice_cost_matrix",
    "rice_decode",
    "rice_decode_array",
    "rice_decode_scalar",
    "rice_encode_scalar",
    "LITERAL",
    "ZERO_RUN",
    "RleEvent",
    "rle_decode",
    "rle_decode_arrays",
    "rle_encode",
    "rle_encode_arrays",
    "zero_fraction",
]
