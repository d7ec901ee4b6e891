"""Subband containers for the 2-D wavelet pyramid.

The forward 2-D DWT of an ``N x N`` image over ``S`` scales produces, for
each scale ``j = 1..S``, three directional detail subimages ``dHG_j``,
``dGH_j`` and ``dGG_j`` of size ``N/2^j``, plus a final average subimage
``dHH_S`` (Fig. 1 of the paper).  :class:`WaveletPyramid` holds exactly that
set, provides shape/consistency validation, and offers the "mosaic" layout
(all subbands packed into one ``N x N`` array, averages in the top-left
corner) that is convenient for storage, entropy coding and visual checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

__all__ = [
    "MAX_FRAME_PIXELS",
    "ScaleDetails",
    "WaveletPyramid",
    "check_band_shapes",
    "check_image_shape",
]

#: The three detail orientations in the naming of the paper.
DETAIL_KEYS: Tuple[str, str, str] = ("HG", "GH", "GG")


#: The largest frame, in pixels, that the library reads or writes (8192 x
#: 8192, 128 MiB at the ingest wire's 2 bytes a pixel).  A stream stores
#: its rows and columns as 32-bit fields, and the decoders size the image
#: and its bands from them, so this ceiling is what bounds a decode.
MAX_FRAME_PIXELS = 1 << 26


def check_image_shape(image_shape: Tuple[int, int]) -> None:
    """Raise ``ValueError`` unless ``image_shape`` holds at most
    :data:`MAX_FRAME_PIXELS` pixels (and neither side is negative or above
    it on its own)."""
    height, width = (int(size) for size in image_shape)
    if not (
        0 <= height <= MAX_FRAME_PIXELS
        and 0 <= width <= MAX_FRAME_PIXELS
        and height * width <= MAX_FRAME_PIXELS
    ):
        raise ValueError(
            f"image shape {height}x{width} exceeds the {MAX_FRAME_PIXELS}-pixel "
            "frame ceiling"
        )


def check_band_shapes(
    image_shape: Tuple[int, int],
    scales: int,
    bands: Iterable[Tuple[str, int, Tuple[int, int]]],
) -> None:
    """Raise ``ValueError`` unless the image is within the frame ceiling
    (:func:`check_image_shape`) and every ``(kind, scale, shape)`` band fits
    the dyadic pyramid of an ``image_shape`` image over ``scales`` scales.

    A scale-``j`` band of an ``h x w`` image is ``(h >> j, w >> j)``, with
    ``j`` in ``1..scales``.  Decoders check a stream's declared band shapes
    with this before any entropy decode sizes a band from them, so a
    doctored shape fails in time and memory bounded by the stream itself,
    and a huge image with consistent bands fails at the ceiling.
    """
    check_image_shape(image_shape)
    height, width = image_shape
    for kind, scale, shape in bands:
        if not 1 <= scale <= scales:
            raise ValueError(f"subband {kind}@{scale} lies outside scales 1..{scales}")
        expected = (height >> scale, width >> scale)
        if tuple(shape) != expected:
            raise ValueError(
                f"subband {kind}@{scale} declares shape {tuple(shape)}, expected "
                f"{expected} for a {height}x{width} image"
            )


@dataclass
class ScaleDetails:
    """The three detail subimages produced at one scale.

    Following Fig. 1: rows are filtered first, then columns.  ``hg`` is the
    subband obtained with the low-pass on rows and high-pass on columns,
    ``gh`` the opposite, ``gg`` high-pass on both.
    """

    scale: int
    hg: np.ndarray
    gh: np.ndarray
    gg: np.ndarray

    def __post_init__(self) -> None:
        self.hg = np.asarray(self.hg)
        self.gh = np.asarray(self.gh)
        self.gg = np.asarray(self.gg)
        shapes = {self.hg.shape, self.gh.shape, self.gg.shape}
        if len(shapes) != 1:
            raise ValueError(f"detail subbands at scale {self.scale} have mixed shapes: {shapes}")
        if self.hg.ndim != 2:
            raise ValueError("detail subbands must be 2-D arrays")

    @property
    def shape(self) -> Tuple[int, int]:
        return self.hg.shape

    def as_dict(self) -> Dict[str, np.ndarray]:
        return {"HG": self.hg, "GH": self.gh, "GG": self.gg}

    def max_abs(self) -> float:
        """Largest absolute coefficient across the three orientations."""
        return float(
            max(np.abs(self.hg).max(), np.abs(self.gh).max(), np.abs(self.gg).max())
        )


@dataclass
class WaveletPyramid:
    """Complete output of a 2-D forward DWT over ``scales`` scales."""

    approximation: np.ndarray
    details: List[ScaleDetails] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.approximation = np.asarray(self.approximation)
        if self.approximation.ndim != 2:
            raise ValueError("approximation must be a 2-D array")
        self.validate()

    # -- structure -----------------------------------------------------------
    @property
    def scales(self) -> int:
        """Number of decomposition scales ``S``."""
        return len(self.details)

    @property
    def image_shape(self) -> Tuple[int, int]:
        """Shape of the original image this pyramid decomposes."""
        rows, cols = self.approximation.shape
        factor = 2 ** self.scales
        return rows * factor, cols * factor

    def detail(self, scale: int) -> ScaleDetails:
        """Details of ``scale`` (1-based, as in the paper)."""
        if not 1 <= scale <= self.scales:
            raise IndexError(f"scale {scale} outside 1..{self.scales}")
        return self.details[scale - 1]

    def validate(self) -> None:
        """Check the dyadic consistency of all subband shapes."""
        if not self.details:
            return
        rows, cols = self.image_shape
        for entry in self.details:
            expected = (rows // (2 ** entry.scale), cols // (2 ** entry.scale))
            if entry.shape != expected:
                raise ValueError(
                    f"scale {entry.scale} details have shape {entry.shape}, "
                    f"expected {expected} for a {rows}x{cols} image"
                )
        expected = (rows // (2 ** self.scales), cols // (2 ** self.scales))
        if self.approximation.shape != expected:
            raise ValueError(
                f"approximation has shape {self.approximation.shape}, expected {expected}"
            )

    # -- iteration / statistics ----------------------------------------------
    def iter_subbands(self) -> Iterator[Tuple[str, int, np.ndarray]]:
        """Yield ``(kind, scale, array)`` for every subband, coarse first.

        ``kind`` is ``"HH"`` for the approximation (scale ``S``) and
        ``"HG"``/``"GH"``/``"GG"`` for the details.
        """
        yield "HH", self.scales, self.approximation
        for entry in reversed(self.details):
            for kind, band in entry.as_dict().items():
                yield kind, entry.scale, band

    def coefficient_count(self) -> int:
        """Total number of coefficients (equals the original pixel count)."""
        total = self.approximation.size
        for entry in self.details:
            total += entry.hg.size + entry.gh.size + entry.gg.size
        return int(total)

    def max_abs_per_scale(self) -> Dict[int, float]:
        """Largest absolute coefficient per scale (scale ``S`` includes the
        approximation).  Used by the dynamic-range experiments."""
        out: Dict[int, float] = {}
        for entry in self.details:
            out[entry.scale] = entry.max_abs()
        out[self.scales] = max(
            out.get(self.scales, 0.0), float(np.abs(self.approximation).max())
        )
        return out

    def energy_per_scale(self) -> Dict[int, float]:
        """Sum of squared detail coefficients per scale (compression diagnostics)."""
        out: Dict[int, float] = {}
        for entry in self.details:
            out[entry.scale] = float(
                (entry.hg ** 2).sum() + (entry.gh ** 2).sum() + (entry.gg ** 2).sum()
            )
        return out

    # -- mosaic layout ---------------------------------------------------------
    def to_mosaic(self) -> np.ndarray:
        """Pack all subbands into a single array of the original image size.

        The approximation occupies the top-left ``N/2^S`` corner; the details
        of scale ``j`` occupy the three quadrants of the ``N/2^(j-1)`` block,
        in the conventional wavelet mosaic arrangement.
        """
        rows, cols = self.image_shape
        mosaic = np.zeros((rows, cols), dtype=self.approximation.dtype)
        r, c = self.approximation.shape
        mosaic[:r, :c] = self.approximation
        for entry in reversed(self.details):
            r, c = entry.shape
            mosaic[:r, c : 2 * c] = entry.hg
            mosaic[r : 2 * r, :c] = entry.gh
            mosaic[r : 2 * r, c : 2 * c] = entry.gg
        return mosaic

    @classmethod
    def from_mosaic(cls, mosaic: np.ndarray, scales: int) -> "WaveletPyramid":
        """Inverse of :meth:`to_mosaic`."""
        mosaic = np.asarray(mosaic)
        if mosaic.ndim != 2:
            raise ValueError("mosaic must be 2-D")
        rows, cols = mosaic.shape
        if rows % (2 ** scales) or cols % (2 ** scales):
            raise ValueError(
                f"mosaic of shape {mosaic.shape} cannot hold {scales} dyadic scales"
            )
        details: List[ScaleDetails] = []
        for scale in range(1, scales + 1):
            r = rows // (2 ** scale)
            c = cols // (2 ** scale)
            details.append(
                ScaleDetails(
                    scale=scale,
                    hg=mosaic[:r, c : 2 * c].copy(),
                    gh=mosaic[r : 2 * r, :c].copy(),
                    gg=mosaic[r : 2 * r, c : 2 * c].copy(),
                )
            )
        r = rows // (2 ** scales)
        c = cols // (2 ** scales)
        approximation = mosaic[:r, :c].copy()
        return cls(approximation=approximation, details=details)
