"""Robustness primitives: RetryPolicy schedules and deterministic fault injection."""

import errno
import os

import pytest

from repro.archive import (
    ArchiveIntegrityError,
    ArchiveReader,
    ArchiveWriter,
    Fault,
    FaultInjectionBackend,
    FileBackend,
    MemoryBackend,
    RetryPolicy,
    TruncatedArchiveError,
    seeded_fault_plan,
)
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive

# Chaos seeds: the CI chaos job widens this set via REPRO_FAULT_SEED.
SEEDS = [3, 11, 42]
if os.environ.get("REPRO_FAULT_SEED"):
    SEEDS = sorted({*SEEDS, int(os.environ["REPRO_FAULT_SEED"])})


class RecordingSleep:
    """An injectable sleep that records the schedule instead of waiting."""

    def __init__(self):
        self.delays = []

    def __call__(self, seconds):
        self.delays.append(seconds)


class TestRetryPolicy:
    def test_backoff_schedule_is_exact(self):
        sleep = RecordingSleep()
        policy = RetryPolicy(attempts=4, base_delay=0.01, factor=2.0, sleep=sleep)
        calls = []

        def flaky():
            calls.append(len(calls))
            if len(calls) < 4:
                raise OSError(errno.EIO, "transient")
            return "payload"

        assert policy.run(flaky) == "payload"
        assert calls == [0, 1, 2, 3]
        # Exponential: 0.01, 0.02, 0.04 — asserted, not trusted.
        assert sleep.delays == pytest.approx([0.01, 0.02, 0.04])
        assert policy.delays() == pytest.approx([0.01, 0.02, 0.04])

    def test_max_delay_caps_the_schedule(self):
        policy = RetryPolicy(attempts=6, base_delay=0.5, factor=4.0, max_delay=1.0, sleep=lambda s: None)
        assert policy.delays() == pytest.approx([0.5, 1.0, 1.0, 1.0, 1.0])

    def test_exhausted_attempts_reraise_the_last_error(self):
        sleep = RecordingSleep()
        policy = RetryPolicy(attempts=3, base_delay=0.01, sleep=sleep)
        with pytest.raises(OSError, match="persistent"):
            policy.run(lambda: (_ for _ in ()).throw(OSError(errno.EIO, "persistent")))
        assert len(sleep.delays) == 2  # slept between attempts, not after the last

    def test_give_up_on_wins_over_retry_on(self):
        """A missing file is not transient: no retries, no sleeping."""
        sleep = RecordingSleep()
        policy = RetryPolicy(attempts=5, sleep=sleep)

        def missing():
            raise FileNotFoundError("gone")

        with pytest.raises(FileNotFoundError):
            policy.run(missing)
        assert sleep.delays == []

    def test_non_retryable_errors_propagate_immediately(self):
        sleep = RecordingSleep()
        policy = RetryPolicy(attempts=5, sleep=sleep)
        with pytest.raises(ArchiveIntegrityError):
            policy.run(lambda: (_ for _ in ()).throw(ArchiveIntegrityError("rot")))
        assert sleep.delays == []

    def test_on_retry_counts_absorbed_faults(self):
        absorbed = []
        policy = RetryPolicy(attempts=3, sleep=lambda s: None)
        state = {"calls": 0}

        def flaky():
            state["calls"] += 1
            if state["calls"] < 3:
                raise OSError(errno.EIO, "blip")
            return state["calls"]

        assert policy.run(flaky, on_retry=absorbed.append) == 3
        assert len(absorbed) == 2
        assert all(isinstance(exc, OSError) for exc in absorbed)

    def test_none_is_single_attempt(self):
        policy = RetryPolicy.none()
        assert policy.attempts == 1 and policy.delays() == []
        with pytest.raises(OSError):
            policy.run(lambda: (_ for _ in ()).throw(OSError("once")))

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="gamma-ray")

    def test_zero_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            Fault(kind="io-error", times=0)

    def test_bad_mask_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            Fault(kind="bit-flip", mask=0)


@pytest.fixture()
def small_archive(tmp_path):
    path = tmp_path / "faulty.dwta"
    frames = ct_slice_series(count=3, size=32, seed=2)
    with ArchiveWriter.create(path, scales=2) as writer:
        writer.add_frames(frames, names=["a", "b", "c"])
    return path, frames


class TestFaultInjectionBackend:
    def test_io_error_fires_on_exactly_the_nth_read(self):
        backend = FaultInjectionBackend(
            MemoryBackend(b"0123456789"), faults=(Fault(kind="io-error", at_read=2),)
        )
        fh = backend.open_read()
        assert fh.read(2) == b"01"
        assert fh.read(2) == b"23"
        with pytest.raises(OSError):
            fh.read(2)  # read #2 (0-based)
        assert fh.read(2) == b"45"  # fires once, then heals
        assert backend.reads == 4
        assert [index for index, _ in backend.fired] == [2]

    def test_fail_then_succeed_fires_k_times(self):
        backend = FaultInjectionBackend(
            MemoryBackend(b"abcdef"), faults=(Fault(kind="io-error", at_read=0, times=3),)
        )
        fh = backend.open_read()
        for _ in range(3):
            with pytest.raises(OSError):
                fh.read(1)
        assert fh.read(1) == b"a"

    def test_bit_flip_corrupts_the_read_not_the_store(self):
        inner = MemoryBackend(b"\x00" * 8)
        backend = FaultInjectionBackend(
            inner, faults=(Fault(kind="bit-flip", offset=3, mask=0x80),)
        )
        fh = backend.open_read()
        assert fh.read() == b"\x00\x00\x00\x80\x00\x00\x00\x00"
        assert inner.getvalue() == b"\x00" * 8  # bit rot, not a write

    def test_truncate_clamps_reads_and_end_seeks(self):
        backend = FaultInjectionBackend(
            MemoryBackend(b"0123456789"), faults=(Fault(kind="truncate", offset=4),)
        )
        fh = backend.open_read()
        fh.seek(0, 2)
        assert fh.tell() == 4
        fh.seek(0)
        assert fh.read() == b"0123"

    def test_reader_surfaces_bit_flip_as_integrity_error(self, small_archive):
        path, _ = small_archive
        with ArchiveReader(path) as clean:
            entry = clean.find("b")
        backend = FaultInjectionBackend(
            FileBackend(path),
            faults=(Fault(kind="bit-flip", offset=entry.offset + 1, mask=0x04),),
        )
        with ArchiveReader(backend) as reader:
            with pytest.raises(ArchiveIntegrityError, match="checksum"):
                reader.read_payload("b")
            # The other frames are untouched by the single flipped bit.
            reader.read_payload("a")

    def test_reader_surfaces_truncation(self, small_archive):
        path, _ = small_archive
        size = path.stat().st_size
        backend = FaultInjectionBackend(
            FileBackend(path), faults=(Fault(kind="truncate", offset=size - 5),)
        )
        with pytest.raises(TruncatedArchiveError):
            ArchiveReader(backend)

    def test_retry_absorbs_transient_io_error(self, small_archive):
        """The fail-then-succeed shape the retry ladder exists for."""
        path, frames = small_archive
        backend = FaultInjectionBackend(
            FileBackend(path), faults=(Fault(kind="io-error", at_read=2, times=2),)
        )
        sleep = RecordingSleep()
        policy = RetryPolicy(attempts=3, base_delay=0.01, sleep=sleep)
        with ArchiveReader(backend, retry=policy) as reader:
            import numpy as np

            assert np.array_equal(reader.decode("a"), frames[0])
            assert reader.retries == 2
        assert len(sleep.delays) == 2

    def test_unretried_reader_fails_where_retried_succeeds(self, small_archive):
        path, _ = small_archive

        def faulted():
            return FaultInjectionBackend(
                FileBackend(path), faults=(Fault(kind="io-error", at_read=0, times=1),)
            )

        with pytest.raises(OSError):
            ArchiveReader(faulted())
        reader = ArchiveReader(faulted(), retry=RetryPolicy(attempts=2, sleep=lambda s: None))
        assert reader.retries == 1
        reader.close()


class TestSeededPlans:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_same_plan(self, seed):
        first = seeded_fault_plan(seed, file_size=4096, faults=4)
        second = seeded_fault_plan(seed, file_size=4096, faults=4)
        assert first == second
        assert len(first) == 4

    def test_different_seeds_differ(self):
        plans = {tuple(seeded_fault_plan(seed, 4096, faults=3)) for seed in range(20)}
        assert len(plans) > 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_plan_fields_in_range(self, seed):
        size = 512
        for fault in seeded_fault_plan(seed, size, faults=16):
            if fault.kind == "truncate":
                assert 1 <= fault.offset < size
            elif fault.kind == "bit-flip":
                assert 0 <= fault.offset < size
                assert fault.mask and fault.mask & (fault.mask - 1) == 0  # one bit
            else:
                assert 0 <= fault.at_read < 8 and 1 <= fault.times <= 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_run_replays_identically(self, seed, small_archive):
        """The whole faulted read workload — not just the plan — replays
        byte for byte from the seed: same fired log, same outcomes."""
        path, _ = small_archive
        plan = seeded_fault_plan(seed, path.stat().st_size, faults=2)

        def run_once():
            backend = FaultInjectionBackend(FileBackend(path), faults=plan)
            outcomes = []
            try:
                reader = ArchiveReader(
                    backend, retry=RetryPolicy(attempts=3, sleep=lambda s: None)
                )
            except Exception as exc:
                return [f"open:{type(exc).__name__}"], backend.fired
            with reader:
                for name in ("a", "b", "c"):
                    try:
                        reader.read_payload(name)
                        outcomes.append(f"{name}:ok")
                    except Exception as exc:
                        outcomes.append(f"{name}:{type(exc).__name__}")
            return outcomes, backend.fired

        assert run_once() == run_once()

    def test_rejects_tiny_files(self):
        with pytest.raises(ValueError, match="file_size"):
            seeded_fault_plan(0, file_size=1)


class TestMidSessionDisappearance:
    """A path that existed and then vanished is archive damage, not a
    configuration mistake: it must surface as ``ArchiveTruncatedError``
    (alias of ``TruncatedArchiveError``) so the retry → failover → 503
    ladder handles it — never as a raw ``FileNotFoundError``."""

    def test_alias_names_the_same_class(self):
        from repro.archive import ArchiveTruncatedError

        assert ArchiveTruncatedError is TruncatedArchiveError

    def test_open_archive_on_vanished_path(self, small_archive):
        """The file exists when its magic is probed, then disappears before
        the reader's own open (modelled via backend_factory, which runs in
        exactly that window)."""
        from repro.archive import open_archive

        path, _ = small_archive

        def vanish(p):
            p.unlink()
            return FileBackend(p)

        with pytest.raises(TruncatedArchiveError, match="disappeared"):
            open_archive(path, backend_factory=vanish)
        assert not path.exists()

    def test_open_archive_on_never_existing_path(self, tmp_path):
        """A path that never existed is still the caller's mistake: a plain
        ``FileNotFoundError``, untouched."""
        from repro.archive import open_archive

        with pytest.raises(FileNotFoundError):
            open_archive(tmp_path / "never_was.dwta")

    def test_deleted_shard_copy_surfaces_in_the_taxonomy(self, tmp_path):
        """An unreplicated shard file deleted mid-session: the manifest
        names it, so reads of its frames raise ``TruncatedArchiveError``."""
        from repro.archive import ShardedArchiveReader, ShardedArchiveWriter

        frames = ct_slice_series(count=8, size=32, seed=4)
        path = tmp_path / "bare.dwts"
        with ShardedArchiveWriter.create(path, shards=3, scales=2) as writer:
            writer.append_batch(frames, names=[f"s{i}" for i in range(8)])
        with ShardedArchiveReader(path) as reader:
            victim_shard = reader.router.route("s0")
            reader.shard_paths[victim_shard].unlink()
            with pytest.raises(TruncatedArchiveError, match="missing"):
                reader.decode("s0")

    def test_replicated_set_fails_over_past_a_deleted_copy(self, tmp_path):
        """With a replica, the deleted primary is absorbed by failover."""
        import numpy as np

        from repro.archive import ShardedArchiveReader
        from repro.archive.replication import ReplicatedShardSet

        frames = ct_slice_series(count=8, size=32, seed=4)
        path = tmp_path / "healer.dwts"
        with ReplicatedShardSet.create(path, shards=3, replicas=1, scales=2) as writer:
            writer.append_batch(frames, names=[f"s{i}" for i in range(8)])
        with ShardedArchiveReader(path) as reader:
            victim_shard = reader.router.route("s0")
            reader.copy_paths[victim_shard][0].unlink()
            assert np.array_equal(reader.decode("s0"), frames[0])
            assert reader.failovers == 1


class TestSubbandMajorTruncationSweep:
    """Truncation sweep over the v2 subband-major payload's structure.

    Every cut point in the payload must map to ``TruncatedArchiveError``
    naming where the bytes end — the head, the table prologue, a specific
    section descriptor, or a specific section — and a cut *after* a
    preview's prefix must leave that preview decodable: the prefix
    property is exactly what makes partial payloads useful rather than
    merely diagnosable."""

    @pytest.fixture(scope="class")
    def payload(self):
        from repro.archive import serialize_stream
        from repro.coding import STransformCodec
        from repro.imaging import shepp_logan

        stream = STransformCodec(scales=3).encode(shepp_logan(64))
        return serialize_stream(stream)

    def test_cut_inside_the_head(self, payload):
        from repro.archive.serialize import PAYLOAD_HEAD_SIZE, parse_section_table

        for cut in range(PAYLOAD_HEAD_SIZE):
            with pytest.raises(TruncatedArchiveError, match="head"):
                parse_section_table(payload[:cut])

    def test_cut_inside_the_prologue(self, payload):
        from repro.archive.serialize import PAYLOAD_HEAD_SIZE, parse_section_table

        with pytest.raises(TruncatedArchiveError, match="prologue"):
            parse_section_table(payload[: PAYLOAD_HEAD_SIZE + 5])

    def test_cut_inside_each_descriptor_names_its_index(self, payload):
        from repro.archive.serialize import PAYLOAD_HEAD_SIZE, parse_section_table

        table = parse_section_table(payload)
        # s-transform meta block: 13-byte prologue, then one fixed 18-byte
        # descriptor per section.
        prologue, descriptor = 13, 18
        for index in range(len(table.sections)):
            cut = PAYLOAD_HEAD_SIZE + prologue + index * descriptor + descriptor // 2
            with pytest.raises(
                TruncatedArchiveError,
                match=f"descriptor {index} of {len(table.sections)}",
            ):
                parse_section_table(payload[:cut])

    def test_cut_inside_the_table_checksum(self, payload):
        from repro.archive.serialize import parse_section_table

        table = parse_section_table(payload)
        with pytest.raises(TruncatedArchiveError, match="checksum"):
            parse_section_table(payload[: table.body_offset - 2])

    def test_cut_at_each_section_boundary(self, payload):
        """Sweep the cut across every section boundary: previews whose
        prefix survived the cut decode; the first missing section is named
        for the ones that did not."""
        from repro.archive.serialize import deserialize_prefix, parse_section_table

        table = parse_section_table(payload)
        scales = table.scales
        for section in table.sections:
            cut = payload[: section.offset + section.length]
            for at_scale in range(scales, -1, -1):
                needed = table.prefix_length(at_scale)
                if needed <= len(cut):
                    stream, _ = deserialize_prefix(cut, at_scale)
                    kinds = (
                        stream.chunks
                        if isinstance(stream.chunks, dict)
                        else {(c.kind, c.scale) for c in stream.chunks}
                    )
                    assert ("HH", scales) in kinds
                else:
                    # Prefix sections are a leading run, so the first one the
                    # cut lost is the section right after the boundary.
                    with pytest.raises(
                        TruncatedArchiveError,
                        match=f"section {section.index + 1} ",
                    ):
                        deserialize_prefix(cut, at_scale)

    def test_cut_mid_section_names_that_section(self, payload):
        from repro.archive.serialize import deserialize_prefix, parse_section_table

        table = parse_section_table(payload)
        for section in table.sections:
            if section.length < 2:
                continue
            cut = payload[: section.offset + section.length // 2]
            with pytest.raises(
                TruncatedArchiveError, match=f"section {section.index} "
            ):
                deserialize_prefix(cut, 0)

    def test_reader_guards_an_inflated_section_table(self, tmp_path):
        """A bit flip that inflates ``meta_len`` past the stored payload
        must surface as ``TruncatedArchiveError`` before any parse."""
        from repro.archive import LAYOUT_SUBBAND_MAJOR
        from repro.imaging import shepp_logan

        path = tmp_path / "prog.dwta"
        with ArchiveWriter.create(
            path, scales=3, layout=LAYOUT_SUBBAND_MAJOR
        ) as writer:
            writer.append_batch([shepp_logan(64)], names=["frame"])
        with ArchiveReader(path) as clean:
            entry = clean.find("frame")
        backend = FaultInjectionBackend(
            FileBackend(path),
            # Head layout "<IBI": offset 7 is the third byte of meta_len,
            # so the flip adds 0x400000 — far past the payload's length.
            faults=(Fault(kind="bit-flip", offset=entry.offset + 7, mask=0x40),),
        )
        with ArchiveReader(backend) as reader:
            with pytest.raises(TruncatedArchiveError, match="section table"):
                reader.read_preview("frame", 2)
