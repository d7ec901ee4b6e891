"""Process-wide codec LRU: amortisation across runs and layers."""

import pytest

from repro.coding.pipeline import (
    CodecResources,
    clear_resource_cache,
    compress_frames,
    decompress_frames,
    resource_cache_info,
)
from repro.coding.spec import CodecSpec
from repro.filters.catalog import get_bank
from repro.imaging import shepp_logan


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_resource_cache()
    yield
    clear_resource_cache()


def test_codec_shared_across_resource_instances():
    spec = CodecSpec(codec="coefficient", scales=2, bank="F2")
    first = CodecResources(spec).codec_for(2)
    second = CodecResources(spec).codec_for(2)
    assert first is second  # word-length planning ran once, not twice
    info = resource_cache_info()
    assert info["misses"] == 1 and info["hits"] == 1


def test_equal_specs_share_even_when_rebuilt():
    """Two separately-constructed equal specs hit the same cache slot."""
    a = CodecSpec(codec="coefficient", scales=3, bank="F2")
    b = CodecSpec.from_json(a.to_json())
    assert CodecResources(a).codec_for(3) is CodecResources(b).codec_for(3)


def test_different_scales_are_distinct_entries():
    spec = CodecSpec(codec="s-transform", scales=4)
    resources = CodecResources(spec)
    assert resources.codec_for(2) is not resources.codec_for(3)
    assert resource_cache_info()["size"] == 2


def test_pipeline_runs_amortise_across_batches():
    """Two compress_frames calls with the same spec build the codec once."""
    frames = [shepp_logan(32)]
    spec = CodecSpec(codec="coefficient", scales=2, bank="F2")
    compress_frames(frames, spec=spec)
    misses_after_first = resource_cache_info()["misses"]
    compress_frames(frames, spec=spec)
    info = resource_cache_info()
    assert info["misses"] == misses_after_first  # second batch: all hits
    assert info["hits"] > 0


def test_decode_reuses_the_encode_codec():
    """A batch decodes with the spec it was written under, so the codec its
    encode built serves its decode too."""
    spec = CodecSpec(codec="coefficient", scales=2, bank="F2")
    batch = compress_frames([shepp_logan(32)], spec=spec)
    misses_after_encode = resource_cache_info()["misses"]
    decompress_frames(batch)
    assert resource_cache_info()["misses"] == misses_after_encode


def test_instance_bank_specs_stay_local():
    """Specs carrying live bank objects must not alias in the shared cache:
    they compare by catalog name, which would collide two different banks."""
    bank = get_bank("F2")
    spec = CodecSpec(codec="coefficient", scales=2, bank=bank)
    resources = CodecResources(spec)
    codec = resources.codec_for(2)
    assert resources.codec_for(2) is codec  # still cached, but locally
    assert resource_cache_info()["size"] == 0


def test_lru_evicts_oldest():
    from repro.coding import pipeline

    original = pipeline._RESOURCE_CACHE.maxsize
    pipeline._RESOURCE_CACHE.maxsize = 2
    try:
        resources = CodecResources(CodecSpec(codec="s-transform", scales=4))
        resources.codec_for(1)
        resources.codec_for(2)
        resources.codec_for(3)  # evicts scales=1
        assert resource_cache_info()["size"] == 2
        resources.codec_for(1)  # rebuilt: a miss, not a hit
        assert resource_cache_info()["misses"] == 4
    finally:
        pipeline._RESOURCE_CACHE.maxsize = original
