"""First-class codec configuration: :class:`CodecSpec` and the codec registry.

Every layer of the reproduction used to describe "how a frame is
compressed" with its own pile of stringly-typed keywords (``codec=``,
``engine=``, ``options=``) validated against its own copy of the legal
names.  This module replaces all of that with two pieces:

* a **codec registry** — one :class:`CodecFamily` entry per codec the
  pipeline and the archive container support, carrying the family's wire
  id, stream type, constructor and legal options.  Registry lookups raise
  :class:`UnknownCodecError` (a :class:`ValueError`), so every layer
  rejects a bad codec name with the same message;
* :class:`CodecSpec` — a frozen, validated, serializable description of a
  *complete* compression configuration: codec family, entropy-coding
  engine, decomposition depth, bit depth, filter bank and RLE policy, plus
  open extension options.

A spec is the unit of configuration everywhere downstream: the batched
pipeline (:mod:`repro.coding.pipeline`) compresses with it, the parallel
executor (:mod:`repro.coding.executor`) ships it to worker processes, and
the archive container (:mod:`repro.archive`) stores and reconstructs it per
frame.  The old keyword signatures keep working through
:meth:`CodecSpec.from_kwargs`, the compatibility shim every public entry
point funnels through.

Stored spec JSON (every shard manifest carries one) still holds the
``"transform"``/``"transform_engine"`` keys of a retired second transform
back end, the cycle-accurate architecture model, whose output was
bit-identical to the software transform.  :meth:`CodecSpec.to_dict` writes
their fixed software values so stored bytes do not change, and
:meth:`CodecSpec.from_dict` reads every value that back end ever stored as
the one spec.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..filters.qmf import BiorthogonalBank

__all__ = [
    "ENGINE_NAMES",
    "default_engine",
    "resolve_engine",
    "UnknownCodecError",
    "CodecFamily",
    "register_codec",
    "get_family",
    "family_for_stream",
    "codec_names",
    "codec_wire_ids",
    "reject_spec_overrides",
    "resolve_spec",
    "CodecSpec",
]

#: Entropy-coding engine tiers every codec ships: ``"fast"`` (vectorised
#: NumPy) and ``"scalar"`` (bit-by-bit reference).  Both are byte-identical
#: on the wire.
ENGINE_NAMES = ("fast", "scalar")

#: The retired transform keys of stored spec JSON and every value they
#: ever held; the first value of each is what :meth:`CodecSpec.to_dict`
#: writes.
_STORED_TRANSFORM_KEYS = {
    "transform": ("software", "accelerator"),
    "transform_engine": ENGINE_NAMES,
}


def resolve_engine(engine: Optional[str]) -> str:
    """The entropy-coding engine tier ``engine`` names.

    ``None`` resolves through :func:`default_engine`; ``"turbo"`` — once a
    third tier that ran the fast coders — is read as ``"fast"`` so stored
    manifest specs and ``REPRO_ENGINE=turbo`` still load.  Any other name
    outside :data:`ENGINE_NAMES` raises :class:`ValueError`.  Every layer
    that takes an ``engine=`` resolves it here.
    """
    if engine is None:
        return default_engine()
    # Read-compat alias of the retired turbo tier.
    if engine == "turbo":
        return "fast"
    if engine not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {engine!r} (expected one of {ENGINE_NAMES})"
        )
    return engine


def default_engine() -> str:
    """The process-wide default entropy-coding engine.

    ``"fast"`` unless the ``REPRO_ENGINE`` environment variable forces a
    tier — the seam the CI engine matrix uses to run the whole coding and
    archive suites under each tier without touching any call site.
    """
    engine = os.environ.get("REPRO_ENGINE", "").strip()
    if not engine:
        return "fast"
    try:
        return resolve_engine(engine)
    except ValueError as exc:
        raise ValueError(f"REPRO_ENGINE: {exc}") from None


class UnknownCodecError(ValueError):
    """A codec name that no registered :class:`CodecFamily` claims."""


@dataclass(frozen=True)
class CodecFamily:
    """Registry entry for one codec family.

    ``wire_id`` is the identifier stored in archive frame payloads and
    index entries (:mod:`repro.archive.format` derives its id tables from
    the registry, so the registry is the single source of truth).
    ``option_names`` are the constructor keywords the family accepts beyond
    ``scales``/``engine``; anything else in a spec is rejected up front
    instead of exploding inside the constructor.
    """

    name: str
    wire_id: int
    stream_type: type
    factory: Callable[..., object]
    option_names: Tuple[str, ...]
    uses_bank: bool
    description: str = ""


_REGISTRY: Dict[str, CodecFamily] = {}


def register_codec(family: CodecFamily) -> CodecFamily:
    """Register a codec family (name and wire id must both be unused)."""
    if family.name in _REGISTRY:
        raise ValueError(f"codec {family.name!r} is already registered")
    if any(f.wire_id == family.wire_id for f in _REGISTRY.values()):
        raise ValueError(f"wire id {family.wire_id} is already registered")
    _REGISTRY[family.name] = family
    return family


def get_family(codec: str) -> CodecFamily:
    """Look a codec family up by name; raises :class:`UnknownCodecError`."""
    try:
        return _REGISTRY[codec]
    except KeyError:
        raise UnknownCodecError(
            f"unknown codec {codec!r} (expected one of {codec_names()})"
        ) from None


def family_for_stream(stream: object) -> CodecFamily:
    """The family whose stream type produced ``stream``."""
    for family in _REGISTRY.values():
        if isinstance(stream, family.stream_type):
            return family
    raise TypeError(f"not a compressed stream: {type(stream).__name__}")


def codec_names() -> Tuple[str, ...]:
    """Registered codec names, in registration order."""
    return tuple(_REGISTRY)


def codec_wire_ids() -> Dict[str, int]:
    """Mapping of codec name to archive wire id (fresh dict each call)."""
    return {name: family.wire_id for name, family in _REGISTRY.items()}


def reject_spec_overrides(codec_options: Mapping[str, Any], **named: Any) -> None:
    """Raise if any legacy keyword was passed next to an explicit spec.

    Entry points that accept both a ready-made :class:`CodecSpec` and the
    legacy keyword style give the keywords ``None`` defaults and call this
    when a spec was supplied: any keyword that is not ``None`` (plus any
    ``**codec_options``) is rejected loudly instead of being silently
    ignored in favour of the spec.
    """
    explicit = {name: value for name, value in named.items() if value is not None}
    explicit.update(codec_options)
    if explicit:
        raise ValueError(
            "pass configuration either as a CodecSpec or as keywords, "
            f"not both (got spec= and {sorted(explicit)})"
        )


def resolve_spec(
    spec: Optional["CodecSpec"],
    codec: Optional[str] = None,
    scales: Optional[int] = None,
    engine: Optional[str] = None,
    **codec_options: Any,
) -> "CodecSpec":
    """The one :class:`CodecSpec` an entry point taking both styles means.

    An explicit ``spec`` wins, and any legacy keyword next to it is
    rejected (:func:`reject_spec_overrides`).  Otherwise the keywords build
    the spec, with the library defaults for those left ``None``:
    s-transform, 4 scales, :func:`default_engine`.
    """
    if spec is not None:
        # The legacy keywords all default to None so an explicit value is
        # distinguishable — mixing them with spec= is rejected instead of
        # silently losing the keyword.
        reject_spec_overrides(codec_options, codec=codec, scales=scales, engine=engine)
        return spec
    return CodecSpec.from_kwargs(
        codec=codec if codec is not None else "s-transform",
        scales=scales if scales is not None else 4,
        # None falls through to CodecSpec's default_engine() resolution
        # (fast, unless REPRO_ENGINE forces a tier).
        engine=engine,
        **codec_options,
    )


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _register_builtin_families() -> None:
    # Imported lazily so ``repro.coding.spec`` can be imported while the
    # package is still initialising (the codec modules import nothing back).
    from .codec import CompressedImage, LosslessWaveletCodec
    from .s_transform import CompressedSImage, STransformCodec

    register_codec(
        CodecFamily(
            name="s-transform",
            wire_id=1,
            stream_type=CompressedSImage,
            factory=STransformCodec,
            option_names=("bit_depth",),
            uses_bank=False,
            description="compressive reversible-integer S-transform codec",
        )
    )
    register_codec(
        CodecFamily(
            name="coefficient",
            wire_id=2,
            stream_type=CompressedImage,
            factory=LosslessWaveletCodec,
            option_names=("bit_depth", "bank", "use_rle", "plan"),
            uses_bank=True,
            description="coefficient-exact fixed-point DWT codec",
        )
    )


_register_builtin_families()


# ---------------------------------------------------------------------------
# CodecSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CodecSpec:
    """Frozen, validated description of one full compression configuration.

    Parameters
    ----------
    codec:
        Registered codec family name (see :func:`codec_names`).
    scales:
        Requested decomposition depth (clamped per frame by the pipeline to
        what each frame's geometry supports).
    engine:
        Entropy-coding engine tier, ``"fast"`` or ``"scalar"`` (both
        byte-identical on the wire), resolved by :func:`resolve_engine`:
        ``None`` (the default) means ``"fast"`` unless the ``REPRO_ENGINE``
        environment variable forces a tier.
    bit_depth:
        Input image bit depth.
    bank:
        Filter bank — a Table I catalog name or a
        :class:`~repro.filters.qmf.BiorthogonalBank` instance — for
        families that use one; normalised to ``None`` otherwise.
    use_rle:
        Zero run-length coding policy for families that support it;
        normalised to ``None`` otherwise.
    extras:
        Any further constructor options (e.g. a word-length ``plan``
        override), stored as a sorted tuple of ``(name, value)`` pairs.

    Instances are immutable, comparable and hashable; a ``bank`` given as
    a :class:`BiorthogonalBank` *instance* takes part in equality by its
    catalog name (bank objects carry coefficient arrays, which have no
    scalar equality — the instance itself still flows into the codec
    untouched).  :meth:`to_dict` / :meth:`from_dict` (and the JSON twins)
    round-trip every serialisable configuration, which is how the archive
    container and the parallel executor move specs across file and process
    boundaries.
    """

    codec: str = "s-transform"
    scales: int = 4
    engine: Optional[str] = None
    bit_depth: int = 12
    bank: Optional[Any] = None
    use_rle: Optional[bool] = None
    extras: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        family = get_family(self.codec)
        if self.scales < 1:
            raise ValueError("scales must be >= 1")
        if not 1 <= self.bit_depth <= 16:
            raise ValueError("bit_depth must be in [1, 16]")
        object.__setattr__(self, "engine", resolve_engine(self.engine))
        # Normalise family-irrelevant fields so equal configurations compare
        # (and serialise) equal regardless of how they were spelled.
        if family.uses_bank:
            object.__setattr__(self, "bank", self.bank if self.bank is not None else "F2")
            object.__setattr__(
                self, "use_rle", True if self.use_rle is None else bool(self.use_rle)
            )
        else:
            if self.bank is not None:
                raise ValueError(f"codec {self.codec!r} does not take a filter bank")
            if self.use_rle is not None:
                raise ValueError(f"codec {self.codec!r} does not take use_rle")
        if not isinstance(self.extras, tuple):
            object.__setattr__(self, "extras", tuple(sorted(dict(self.extras).items())))
        for name, _ in self.extras:
            if name in ("bit_depth", "bank", "use_rle"):
                raise ValueError(f"option {name!r} is a CodecSpec field, not an extra")
            if name not in family.option_names:
                raise ValueError(
                    f"codec {self.codec!r} does not take option {name!r} "
                    f"(accepted: {family.option_names})"
                )

    # -- equality / hashing -------------------------------------------------------------
    def _compare_key(self) -> Tuple:
        return (
            self.codec,
            self.scales,
            self.engine,
            self.bit_depth,
            self.bank_name,
            self.use_rle,
            self.extras,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodecSpec):
            return NotImplemented
        return self._compare_key() == other._compare_key()

    def __hash__(self) -> int:
        # Extras values may be arbitrary objects (e.g. a word-length plan);
        # hashing only their names keeps equal specs hashing equal without
        # demanding hashable option values.
        key = self._compare_key()[:-1] + (tuple(name for name, _ in self.extras),)
        return hash(key)

    # -- derived views ------------------------------------------------------------------
    @property
    def family(self) -> CodecFamily:
        return get_family(self.codec)

    @property
    def bank_name(self) -> str:
        """Catalog name of the configured filter bank ("" when bank-less)."""
        if self.bank is None:
            return ""
        if isinstance(self.bank, BiorthogonalBank):
            return self.bank.name
        return str(self.bank)

    def codec_kwargs(self) -> Dict[str, Any]:
        """Constructor keywords (beyond ``scales``/``engine``) for the codec."""
        kwargs: Dict[str, Any] = {"bit_depth": self.bit_depth}
        if self.family.uses_bank:
            kwargs["bank"] = self.bank
            kwargs["use_rle"] = self.use_rle
        kwargs.update(dict(self.extras))
        return kwargs

    # -- construction helpers -----------------------------------------------------------
    def replace(self, **overrides: Any) -> "CodecSpec":
        """A new spec with ``overrides`` applied (re-validated)."""
        return replace(self, **overrides)

    def with_scales(self, scales: int) -> "CodecSpec":
        """The same configuration at a different decomposition depth."""
        return self if scales == self.scales else self.replace(scales=scales)

    def replace_options(self, **codec_options: Any) -> "CodecSpec":
        """Apply legacy codec-option keywords on top of this spec.

        Routes the spec-field options (``bit_depth``/``bank``/``use_rle``)
        to their fields and everything else into ``extras`` — the same
        split :meth:`from_kwargs` performs, kept in one place so inherit-
        and-override paths (e.g. ``ArchiveWriter.append``) cannot drift.
        """
        known = {
            name: codec_options.pop(name)
            for name in ("bit_depth", "bank", "use_rle")
            if name in codec_options
        }
        if codec_options:
            merged = dict(self.extras)
            merged.update(codec_options)
            known["extras"] = tuple(sorted(merged.items()))
        return self.replace(**known) if known else self

    def build_codec(self, scales: Optional[int] = None):
        """Instantiate the configured codec (at ``scales`` if given)."""
        return self.family.factory(
            scales=self.scales if scales is None else scales,
            engine=self.engine,
            **self.codec_kwargs(),
        )

    @classmethod
    def from_kwargs(
        cls,
        codec: str = "s-transform",
        scales: int = 4,
        engine: Optional[str] = None,
        **codec_options: Any,
    ) -> "CodecSpec":
        """Compatibility shim: build a spec from the legacy keyword style.

        This is the exact signature :func:`~repro.coding.pipeline.compress_frames`
        and :meth:`~repro.archive.writer.ArchiveWriter.create` used to take,
        so existing call sites keep working unchanged.
        """
        options = dict(codec_options)
        known = {
            name: options.pop(name)
            for name in ("bit_depth", "bank", "use_rle")
            if name in options
        }
        return cls(
            codec=codec,
            scales=scales,
            engine=engine,
            bit_depth=known.get("bit_depth", 12),
            bank=known.get("bank"),
            use_rle=known.get("use_rle"),
            extras=tuple(sorted(options.items())),
        )

    @classmethod
    def for_stream(cls, stream: object, **overrides: Any) -> "CodecSpec":
        """The spec that (re)produces ``stream``'s configuration."""
        family = family_for_stream(stream)
        fields: Dict[str, Any] = {
            "codec": family.name,
            "scales": int(stream.scales),
            "bit_depth": int(stream.bit_depth),
        }
        if family.uses_bank:
            fields["bank"] = stream.bank_name
            fields["use_rle"] = any(chunk.use_rle for chunk in stream.chunks)
        fields.update(overrides)
        return cls(**fields)

    # -- serialisation ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready when extras and bank are plain)."""
        return {
            "codec": self.codec,
            "scales": self.scales,
            "engine": self.engine,
            **{key: values[0] for key, values in _STORED_TRANSFORM_KEYS.items()},
            "bit_depth": self.bit_depth,
            "bank": self.bank_name or None,
            "use_rle": self.use_rle,
            "options": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CodecSpec":
        """The one resolver for stored specs (manifests, job payloads).

        The retired transform keys may hold any value they ever held — all
        of them produced the same bytes — and load as the one spec; any
        other value is rejected, as these are bytes from outside the
        process.
        """
        data = dict(data)
        options = data.pop("options", {}) or {}
        for key, values in _STORED_TRANSFORM_KEYS.items():
            value = data.get(key, values[0])
            if value not in values:
                raise ValueError(
                    f"unknown stored {key} {value!r} (expected one of {values})"
                )
        return cls(
            codec=data.get("codec", "s-transform"),
            scales=data.get("scales", 4),
            engine=data.get("engine", "fast"),
            bit_depth=data.get("bit_depth", 12),
            bank=data.get("bank"),
            use_rle=data.get("use_rle"),
            extras=tuple(sorted(options.items())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CodecSpec":
        return cls.from_dict(json.loads(text))

    # -- display ------------------------------------------------------------------------
    def describe(self) -> str:
        """Compact one-line rendering for CLIs and logs."""
        parts = [self.codec]
        if self.family.uses_bank:
            parts.append(f"bank={self.bank_name}")
        parts.append(f"scales={self.scales}")
        parts.append(f"bits={self.bit_depth}")
        if self.use_rle is not None:
            parts.append("rle" if self.use_rle else "no-rle")
        parts.append(f"engine={self.engine}")
        for name, value in self.extras:
            parts.append(f"{name}={value!r}")
        return " ".join(parts)
