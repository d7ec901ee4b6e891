"""Tests for the unified codec configuration (repro.coding.spec)."""

import json

import pytest

from repro.coding import compress_frames
from repro.coding.codec import CompressedImage, LosslessWaveletCodec
from repro.coding.pipeline import CODEC_NAMES
from repro.coding.s_transform import CompressedSImage, STransformCodec
from repro.coding.spec import (
    CodecFamily,
    CodecSpec,
    UnknownCodecError,
    codec_names,
    codec_wire_ids,
    family_for_stream,
    get_family,
    default_engine,
    register_codec,
    resolve_engine,
)
from repro.filters.catalog import get_bank
from repro.imaging.phantoms import shepp_logan


class TestRegistry:
    def test_builtin_families_registered(self):
        assert codec_names() == ("s-transform", "coefficient")
        assert get_family("s-transform").factory is STransformCodec
        assert get_family("coefficient").factory is LosslessWaveletCodec

    def test_wire_ids_stable(self):
        # The wire ids are the archive container's on-disk codec ids;
        # changing them breaks every existing archive.
        assert codec_wire_ids() == {"s-transform": 1, "coefficient": 2}

    def test_unknown_codec_raises(self):
        with pytest.raises(UnknownCodecError, match="jpeg2000"):
            get_family("jpeg2000")
        assert issubclass(UnknownCodecError, ValueError)

    def test_family_for_stream(self):
        s = CompressedSImage(scales=2, image_shape=(32, 32), bit_depth=12)
        c = CompressedImage(bank_name="F2", scales=2, image_shape=(32, 32), bit_depth=12)
        assert family_for_stream(s).name == "s-transform"
        assert family_for_stream(c).name == "coefficient"
        with pytest.raises(TypeError, match="not a compressed stream"):
            family_for_stream(object())

    def test_duplicate_registration_rejected(self):
        family = get_family("coefficient")
        with pytest.raises(ValueError, match="already registered"):
            register_codec(family)
        with pytest.raises(ValueError, match="wire id"):
            register_codec(
                CodecFamily(
                    name="coefficient-2",
                    wire_id=family.wire_id,
                    stream_type=CompressedImage,
                    factory=LosslessWaveletCodec,
                    option_names=(),
                    uses_bank=True,
                )
            )

    def test_pipeline_and_format_tables_derive_from_registry(self):
        from repro.archive.format import CODEC_IDS

        assert CODEC_NAMES == codec_names()
        assert CODEC_IDS == codec_wire_ids()

    def test_format_tables_are_live_registry_views(self, monkeypatch):
        """Registering a family makes its wire id valid in the archive
        format tables immediately — they are views, not import-time
        snapshots."""
        import repro.coding.spec as spec_module
        from repro.archive.format import CODEC_IDS, CODEC_NAMES_BY_ID

        family = CodecFamily(
            name="test-live-view",
            wire_id=240,
            stream_type=CompressedSImage,
            factory=STransformCodec,
            option_names=("bit_depth",),
            uses_bank=False,
        )
        registry = dict(spec_module._REGISTRY)
        registry[family.name] = family
        monkeypatch.setattr(spec_module, "_REGISTRY", registry)
        assert CODEC_IDS["test-live-view"] == 240
        assert CODEC_NAMES_BY_ID[240] == "test-live-view"
        assert 240 in CODEC_NAMES_BY_ID
        import repro.coding as coding_package
        import repro.coding.pipeline as pipeline_module

        assert "test-live-view" in pipeline_module.CODEC_NAMES
        assert "test-live-view" in coding_package.CODEC_NAMES


class TestValidation:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        spec = CodecSpec()
        assert spec.codec == "s-transform"
        assert spec.scales == 4
        assert spec.engine == "fast"
        assert spec.bank is None and spec.use_rle is None

    def test_engine_default_resolves_through_environment(self, monkeypatch):
        from repro.coding.spec import default_engine

        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        assert default_engine() == "scalar"
        assert CodecSpec().engine == "scalar"
        # An explicit engine always beats the environment override.
        assert CodecSpec(engine="fast").engine == "fast"
        # The retired turbo tier is read as fast.
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        assert default_engine() == "fast"
        assert CodecSpec().engine == "fast"
        monkeypatch.setenv("REPRO_ENGINE", "simd")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            CodecSpec()

    def test_turbo_engine_accepted_entropy_only(self):
        assert resolve_engine("turbo") == "fast"
        assert CodecSpec(engine="turbo").engine == "fast"
        # A spec stored while turbo was a tier loads as the fast spec.
        stored = CodecSpec(codec="coefficient", scales=3).to_dict()
        stored["engine"] = "turbo"
        assert CodecSpec.from_json(json.dumps(stored)) == CodecSpec(
            codec="coefficient", scales=3, engine="fast"
        )

    def test_coefficient_normalises_bank_and_rle(self):
        spec = CodecSpec(codec="coefficient")
        assert spec.bank == "F2"
        assert spec.use_rle is True
        assert spec.bank_name == "F2"

    def test_unknown_codec(self):
        with pytest.raises(UnknownCodecError):
            CodecSpec(codec="jpeg2000")

    def test_bad_engine(self):
        with pytest.raises(ValueError, match="unknown"):
            CodecSpec(engine="quantum")

    def test_bad_transform(self):
        # There is one transform path: a transform keyword is an unknown
        # codec option, rejected when the spec is built.
        with pytest.raises(ValueError, match="transform"):
            CodecSpec.from_kwargs(codec="coefficient", transform="fpga")

    def test_scales_and_bit_depth_ranges(self):
        with pytest.raises(ValueError, match="scales"):
            CodecSpec(scales=0)
        with pytest.raises(ValueError, match="bit_depth"):
            CodecSpec(bit_depth=0)
        with pytest.raises(ValueError, match="bit_depth"):
            CodecSpec(bit_depth=17)

    def test_bankless_codec_rejects_bank_fields(self):
        with pytest.raises(ValueError, match="filter bank"):
            CodecSpec(codec="s-transform", bank="F2")
        with pytest.raises(ValueError, match="use_rle"):
            CodecSpec(codec="s-transform", use_rle=True)

    def test_unknown_extra_rejected(self):
        with pytest.raises(ValueError, match="quality"):
            CodecSpec(codec="coefficient", extras=(("quality", 5),))

    def test_field_masquerading_as_extra_rejected(self):
        with pytest.raises(ValueError, match="bit_depth"):
            CodecSpec(codec="coefficient", extras=(("bit_depth", 8),))

    def test_frozen(self):
        spec = CodecSpec()
        with pytest.raises(AttributeError):
            spec.scales = 2


class TestCompatShim:
    def test_from_kwargs_matches_direct_construction(self):
        assert CodecSpec.from_kwargs() == CodecSpec()
        assert CodecSpec.from_kwargs(
            codec="coefficient", scales=3, engine="scalar", bank="F1",
            bit_depth=10, use_rle=False,
        ) == CodecSpec(
            codec="coefficient", scales=3, engine="scalar", bank="F1",
            bit_depth=10, use_rle=False,
        )

    def test_from_kwargs_forwards_extras(self):
        from repro.fixedpoint.wordlength import plan_word_lengths

        plan = plan_word_lengths(get_bank("F2"), 2)
        spec = CodecSpec.from_kwargs(codec="coefficient", scales=2, plan=plan)
        assert dict(spec.extras) == {"plan": plan}
        codec = spec.build_codec()
        assert codec.plan is plan

    def test_bank_object_accepted(self):
        bank = get_bank("F1")
        spec = CodecSpec.from_kwargs(codec="coefficient", bank=bank)
        assert spec.bank is bank
        assert spec.bank_name == "F1"

    def test_compress_frames_rejects_spec_plus_kwargs(self):
        with pytest.raises(ValueError, match="not both"):
            compress_frames([shepp_logan(32)], spec=CodecSpec(), bit_depth=12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scales": 6},
            {"codec": "coefficient"},
            {"engine": "scalar"},
            {"transform": "software"},
        ],
    )
    def test_spec_plus_explicit_keyword_never_silently_ignored(self, kwargs):
        with pytest.raises(ValueError, match="not both"):
            compress_frames([shepp_logan(32)], spec=CodecSpec(), **kwargs)

    def test_writer_rejects_spec_plus_keywords(self, tmp_path):
        from repro.archive import ArchiveWriter

        with pytest.raises(ValueError, match="not both"):
            ArchiveWriter.create(tmp_path / "x.dwta", spec=CodecSpec(), scales=2)
        path = tmp_path / "y.dwta"
        with ArchiveWriter.create(path, spec=CodecSpec(scales=2)) as writer:
            writer.append_batch([shepp_logan(32)])
        with pytest.raises(ValueError, match="not both"):
            ArchiveWriter.append(path, spec=CodecSpec(), engine="scalar")
        # The rejected append must not leak its open file handle.
        import warnings, gc

        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            gc.collect()
        # And the archive is still appendable afterwards.
        with ArchiveWriter.append(path) as writer:
            assert writer.spec.scales == 2


class TestResolveEngine:
    """``resolve_engine`` is the one place an ``engine=`` name is checked."""

    @pytest.mark.parametrize(
        "name, expected",
        [(None, "fast"), ("fast", "fast"), ("scalar", "scalar"), ("turbo", "fast")],
    )
    def test_names(self, monkeypatch, name, expected):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(name) == expected

    @pytest.mark.parametrize(
        "name", ["", "FAST", "Turbo", "huffman", "simd", " fast", "scalar ", "turbo2"]
    )
    def test_unknown_names_rejected(self, name):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine(name)

    @pytest.mark.parametrize(
        "value, expected",
        [("", "fast"), ("   ", "fast"), ("fast", "fast"), ("scalar", "scalar"),
         ("turbo", "fast"), (" scalar\n", "scalar")],
    )
    def test_environment_default(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_ENGINE", value)
        assert default_engine() == expected
        assert resolve_engine(None) == expected
        assert CodecSpec().engine == expected

    @pytest.mark.parametrize("value", ["bogus", "huffman", "FAST"])
    def test_bad_environment_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_ENGINE", value)
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            resolve_engine(None)

    @pytest.mark.parametrize("value", ["fast", "scalar", "turbo", "bogus"])
    def test_explicit_name_ignores_environment(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_ENGINE", value)
        assert resolve_engine("scalar") == "scalar"
        assert resolve_engine("turbo") == "fast"
        assert CodecSpec(engine="fast").engine == "fast"

    @pytest.mark.parametrize("factory", [STransformCodec, LosslessWaveletCodec])
    @pytest.mark.parametrize(
        "name, expected", [(None, "fast"), ("scalar", "scalar"), ("turbo", "fast")]
    )
    def test_codecs_resolve_their_engine(self, monkeypatch, factory, name, expected):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert factory(scales=2, engine=name).engine == expected

    @pytest.mark.parametrize("factory", [STransformCodec, LosslessWaveletCodec])
    def test_codecs_reject_unknown_engine(self, factory):
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            factory(scales=2, engine="bogus")

    @pytest.mark.parametrize("codec", ["s-transform", "coefficient"])
    def test_stored_turbo_spec_builds_the_fast_codec(self, codec):
        stored = CodecSpec(codec=codec, scales=3).to_dict()
        stored["engine"] = "turbo"
        spec = CodecSpec.from_json(json.dumps(stored))
        assert spec.engine == "fast"
        assert spec.to_dict()["engine"] == "fast"
        assert spec.build_codec().engine == "fast"


class TestBuildAndReplace:
    def test_build_codec_at_clamped_scales(self):
        spec = CodecSpec(codec="coefficient", scales=4, engine="scalar")
        codec = spec.build_codec(2)
        assert isinstance(codec, LosslessWaveletCodec)
        assert codec.scales == 2
        assert codec.engine == "scalar"
        assert codec.bank.name == "F2"

    def test_with_scales_identity(self):
        spec = CodecSpec(scales=4)
        assert spec.with_scales(4) is spec
        assert spec.with_scales(2).scales == 2

    def test_replace_revalidates(self):
        spec = CodecSpec(codec="coefficient")
        with pytest.raises(ValueError):
            spec.replace(engine="quantum")


class TestSerialisation:
    @pytest.mark.parametrize(
        "spec",
        [
            CodecSpec(),
            CodecSpec(codec="s-transform", scales=6, engine="scalar", bit_depth=8),
            CodecSpec(codec="coefficient", bank="F1", use_rle=False, bit_depth=10),
            CodecSpec(codec="coefficient", scales=2, engine="scalar"),
        ],
    )
    def test_json_roundtrip(self, spec):
        assert CodecSpec.from_json(spec.to_json()) == spec
        assert CodecSpec.from_dict(spec.to_dict()) == spec

    def test_bank_object_serialises_by_name(self):
        spec = CodecSpec(codec="coefficient", bank=get_bank("F1"))
        restored = CodecSpec.from_json(spec.to_json())
        assert restored.bank == "F1"
        assert restored.bank_name == spec.bank_name

    def test_for_stream(self):
        frames = [shepp_logan(32)]
        coeff = compress_frames(frames, codec="coefficient", scales=2, use_rle=False)
        spec = CodecSpec.for_stream(coeff.streams[0])
        assert spec.codec == "coefficient"
        assert spec.scales == 2
        assert spec.use_rle is False
        s = compress_frames(frames, codec="s-transform", scales=2)
        assert CodecSpec.for_stream(s.streams[0]).codec == "s-transform"

    def test_bank_instance_specs_compare_and_hash(self):
        """Equality/hash must not choke on bank objects (they carry
        coefficient arrays); instances compare by catalog name."""
        import dataclasses

        a = CodecSpec(codec="coefficient", bank=get_bank("F2"))
        b = CodecSpec(codec="coefficient", bank=dataclasses.replace(get_bank("F2")))
        assert a == b
        assert hash(a) == hash(b)
        assert a == CodecSpec(codec="coefficient", bank="F2")
        assert a != CodecSpec(codec="coefficient", bank="F1")
        assert a != "not a spec"
        assert len({a, b}) == 1

    def test_replace_options_routes_fields_and_extras(self):
        from repro.fixedpoint.wordlength import plan_word_lengths

        spec = CodecSpec(codec="coefficient", scales=2)
        plan = plan_word_lengths(get_bank("F2"), 2)
        updated = spec.replace_options(bit_depth=10, use_rle=False, plan=plan)
        assert updated.bit_depth == 10
        assert updated.use_rle is False
        assert dict(updated.extras) == {"plan": plan}
        assert spec.replace_options() is spec

    def test_describe_is_compact(self):
        text = CodecSpec(codec="coefficient", engine="scalar").describe()
        assert "coefficient" in text and "bank=F2" in text
        assert "engine=scalar" in text
        assert "\n" not in text


#: ``tests/archive/test_spec_roundtrip.py``'s SPECS (at the fast tier) and
#: their JSON as the pipeline wrote it while it still had a second
#: transform back end: manifests hold these bytes, so they must not move.
STORED_JSON = [
    (
        CodecSpec(codec="s-transform", scales=3, bit_depth=12, engine="fast"),
        '{"bank": null, "bit_depth": 12, "codec": "s-transform", "engine": "fast", '
        '"options": {}, "scales": 3, "transform": "software", '
        '"transform_engine": "fast", "use_rle": null}',
    ),
    (
        CodecSpec(
            codec="coefficient", scales=2, bank="F1", use_rle=False, bit_depth=12,
            engine="fast",
        ),
        '{"bank": "F1", "bit_depth": 12, "codec": "coefficient", "engine": "fast", '
        '"options": {}, "scales": 2, "transform": "software", '
        '"transform_engine": "fast", "use_rle": false}',
    ),
    (
        CodecSpec(
            codec="coefficient", scales=3, bank="F2", use_rle=True, bit_depth=12,
            engine="fast",
        ),
        '{"bank": "F2", "bit_depth": 12, "codec": "coefficient", "engine": "fast", '
        '"options": {}, "scales": 3, "transform": "software", '
        '"transform_engine": "fast", "use_rle": true}',
    ),
]


class TestStoredTransformKeys:
    """Stored spec JSON keeps the keys of the retired accelerator transform
    back end, whose streams were bit-identical to the software transform."""

    @pytest.mark.parametrize("spec, golden", STORED_JSON, ids=["s-transform", "F1", "F2"])
    def test_to_json_bytes_unchanged(self, spec, golden):
        assert spec.to_json() == golden
        assert CodecSpec.from_json(golden) == spec

    def test_accelerator_spec_loads_as_the_software_spec(self):
        stored = json.loads(STORED_JSON[2][1])
        stored.update(transform="accelerator", transform_engine="scalar")
        spec = CodecSpec.from_json(json.dumps(stored, sort_keys=True))
        assert spec == STORED_JSON[2][0]
        assert spec.to_json() == STORED_JSON[2][1]

    @pytest.mark.parametrize("transform", ["software", "accelerator"])
    @pytest.mark.parametrize("transform_engine", ["fast", "scalar"])
    def test_every_stored_value_loads(self, transform, transform_engine):
        stored = json.loads(STORED_JSON[0][1])
        stored.update(transform=transform, transform_engine=transform_engine)
        assert CodecSpec.from_dict(stored) == STORED_JSON[0][0]

    def test_keys_may_be_absent(self):
        stored = json.loads(STORED_JSON[1][1])
        del stored["transform"], stored["transform_engine"]
        assert CodecSpec.from_dict(stored) == STORED_JSON[1][0]

    @pytest.mark.parametrize("key", ["transform", "transform_engine"])
    @pytest.mark.parametrize("value", ["fpga", "turbo"])
    def test_unknown_stored_value_rejected(self, key, value):
        stored = json.loads(STORED_JSON[2][1])
        stored[key] = value
        with pytest.raises(ValueError, match=key):
            CodecSpec.from_json(json.dumps(stored))


class TestBatchSpec:
    def test_compress_frames_attaches_spec(self):
        batch = compress_frames([shepp_logan(32)], codec="coefficient", scales=2)
        assert batch.spec == CodecSpec(codec="coefficient", scales=2)
        assert batch.resolved_spec() is batch.spec
        # Legacy mirror fields stay in sync with the spec.
        assert batch.codec == "coefficient"
        assert batch.codec_options["bank"] == "F2"

    def test_resolved_spec_from_legacy_fields(self):
        from repro.coding.pipeline import CompressedBatch, PipelineStats

        batch = CompressedBatch(
            codec="coefficient",
            engine="scalar",
            codec_options={"bit_depth": 10, "bank": "F1"},
            streams=[],
            stats=PipelineStats(),
        )
        spec = batch.resolved_spec()
        assert spec.codec == "coefficient"
        assert spec.engine == "scalar"
        assert spec.bank == "F1"
        assert spec.bit_depth == 10
