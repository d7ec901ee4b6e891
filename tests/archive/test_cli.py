"""End-to-end CLI: pack, list, extract, verify against real files."""

import json

import numpy as np
import pytest

from repro.archive.cli import main
from repro.imaging import read_pgm, shepp_logan, write_pgm

pytestmark = pytest.mark.archive


@pytest.fixture()
def pgm_dir(tmp_path):
    directory = tmp_path / "scans"
    directory.mkdir()
    for index in range(3):
        image = np.clip(shepp_logan(64) + index, 0, 4095)
        write_pgm(directory / f"scan_{index}.pgm", image, max_value=4095)
    return directory


def test_pack_list_extract_verify(tmp_path, pgm_dir, capsys):
    archive = tmp_path / "cli.dwta"
    inputs = sorted(str(p) for p in pgm_dir.glob("*.pgm"))

    assert main(["pack", str(archive), *inputs]) == 0
    out = capsys.readouterr().out
    assert "packed 3 frames" in out
    assert archive.exists()

    assert main(["list", str(archive)]) == 0
    out = capsys.readouterr().out
    assert "scan_1" in out and "s-transform" in out and "3 frames" in out

    assert main(["list", str(archive), "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in records] == ["scan_0", "scan_1", "scan_2"]
    assert records[0]["bit_depth"] == 12

    extracted = tmp_path / "scan_1_out.pgm"
    assert main(["extract", str(archive), "scan_1", "-o", str(extracted)]) == 0
    assert np.array_equal(read_pgm(extracted), read_pgm(pgm_dir / "scan_1.pgm"))

    assert main(["verify", str(archive), "--deep"]) == 0
    assert "OK" in capsys.readouterr().out


def test_pack_synthetic_and_append(tmp_path, capsys):
    archive = tmp_path / "synthetic.dwta"
    assert main(["pack", str(archive), "--synthetic", "4", "--size", "32"]) == 0
    assert main(["pack", str(archive), "--synthetic", "2", "--size", "32", "--seed", "9", "--append"]) == 0
    capsys.readouterr()
    assert main(["list", str(archive), "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 6


def test_append_inherits_codec_and_scales(tmp_path, pgm_dir, capsys):
    """--append without --codec/--scales keeps the archive's configuration."""
    archive = tmp_path / "inherit.dwta"
    inputs = sorted(str(p) for p in pgm_dir.glob("*.pgm"))
    assert main(["pack", str(archive), inputs[0], "--codec", "coefficient", "--scales", "2"]) == 0
    assert main(["pack", str(archive), inputs[1], "--append"]) == 0
    capsys.readouterr()
    assert main(["list", str(archive), "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert {r["codec"] for r in records} == {"coefficient"}
    assert {r["scales"] for r in records} == {2}
    assert {r["bank"] for r in records} == {"F2"}


def test_extract_all_to_directory(tmp_path, capsys):
    archive = tmp_path / "all.dwta"
    assert main(["pack", str(archive), "--synthetic", "3", "--size", "32"]) == 0
    out_dir = tmp_path / "extracted"
    assert main(["extract", str(archive), "-o", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.glob("*.pgm")) == [
        "slice_000.pgm",
        "slice_001.pgm",
        "slice_002.pgm",
    ]


def test_extract_by_index(tmp_path, capsys):
    archive = tmp_path / "byidx.dwta"
    assert main(["pack", str(archive), "--synthetic", "2", "--size", "32"]) == 0
    out = tmp_path / "frame.pgm"
    assert main(["extract", str(archive), "1", "-o", str(out)]) == 0
    assert out.exists()


def test_coefficient_pack_roundtrip(tmp_path, pgm_dir, capsys):
    archive = tmp_path / "coeff.dwta"
    inputs = sorted(str(p) for p in pgm_dir.glob("*.pgm"))[:1]
    assert main(["pack", str(archive), *inputs, "--codec", "coefficient", "--bank", "F2", "--scales", "2"]) == 0
    out = tmp_path / "back.pgm"
    assert main(["extract", str(archive), "scan_0", "-o", str(out)]) == 0
    assert np.array_equal(read_pgm(out), read_pgm(inputs[0]))


def test_pack_with_workers_matches_serial(tmp_path, capsys):
    """--workers N packs a byte-identical archive (just sharded)."""
    serial = tmp_path / "serial.dwta"
    parallel = tmp_path / "parallel.dwta"
    assert main(["pack", str(serial), "--synthetic", "4", "--size", "32"]) == 0
    assert main(["pack", str(parallel), "--synthetic", "4", "--size", "32", "--workers", "2"]) == 0
    assert "2 workers" in capsys.readouterr().out
    assert serial.read_bytes() == parallel.read_bytes()


def test_pack_rejects_non_positive_workers(tmp_path, capsys):
    archive = tmp_path / "w0.dwta"
    with pytest.raises(SystemExit):
        main(["pack", str(archive), "--synthetic", "2", "--size", "32", "--workers", "0"])
    assert "must be >= 1" in capsys.readouterr().err
    assert not archive.exists()  # rejected before the file was created


def test_list_verbose_prints_spec(tmp_path, capsys):
    archive = tmp_path / "verbose.dwta"
    assert main(["pack", str(archive), "--synthetic", "2", "--size", "32", "--codec", "coefficient", "--scales", "2"]) == 0
    capsys.readouterr()

    assert main(["list", str(archive), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "spec:" in out and "bank=F2" in out and "scales=2" in out

    assert main(["list", str(archive), "--json", "--verbose"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records[0]["spec"]["codec"] == "coefficient"
    assert records[0]["spec"]["bank"] == "F2"
    assert records[0]["spec"]["use_rle"] is True


def test_pack_sharded_list_extract_verify(tmp_path, capsys):
    """--shards N: pack a sharded set and run every command against it."""
    manifest = tmp_path / "set.dwts"
    assert main(["pack", str(manifest), "--synthetic", "6", "--size", "32", "--shards", "3"]) == 0
    out = capsys.readouterr().out
    assert "3 shards" in out
    assert sorted(p.name for p in tmp_path.glob("set.shard*.dwta")) == [
        "set.shard000.dwta",
        "set.shard001.dwta",
        "set.shard002.dwta",
    ]

    assert main(["list", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "6 frames in 3 shards" in out and "hash-routed" in out

    assert main(["list", str(manifest), "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in records] == [f"slice_{i:03d}" for i in range(6)]
    assert {r["shard"] for r in records} <= {0, 1, 2}

    out_pgm = tmp_path / "one.pgm"
    assert main(["extract", str(manifest), "slice_004", "-o", str(out_pgm)]) == 0
    assert out_pgm.exists()

    assert main(["verify", str(manifest), "--deep"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "3 shards" in out


def test_sharded_append_inherits_manifest(tmp_path, capsys):
    manifest = tmp_path / "set.dwts"
    assert main(["pack", str(manifest), "--synthetic", "3", "--size", "32", "--shards", "2", "--scales", "2"]) == 0
    assert main(["pack", str(manifest), "--synthetic", "2", "--size", "32", "--seed", "7", "--append"]) == 0
    capsys.readouterr()
    assert main(["list", str(manifest), "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 5
    assert {r["scales"] for r in records} == {2}


def test_sharded_append_rejects_config_overrides(tmp_path, capsys):
    manifest = tmp_path / "set.dwts"
    assert main(["pack", str(manifest), "--synthetic", "2", "--size", "32", "--shards", "2"]) == 0
    capsys.readouterr()
    base = ["pack", str(manifest), "--synthetic", "1", "--size", "32", "--append"]
    # Every configuration flag is rejected loudly, never silently dropped.
    for flags in (["--codec", "s-transform"], ["--scales", "3"], ["--bit-depth", "16"], ["--no-rle"]):
        with pytest.raises(SystemExit, match="manifest"):
            main([*base, *flags])
    # --engine is an execution choice (byte-identical streams), so it passes.
    assert main([*base, "--seed", "7", "--engine", "scalar"]) == 0


def test_codec_value_errors_exit_cleanly(tmp_path, capsys):
    """Codec-layer ValueErrors keep the single-line/exit-1 CLI contract."""
    import numpy as np

    from repro.imaging import write_pgm

    deep = tmp_path / "deep.pgm"
    write_pgm(deep, np.full((32, 32), 60000, dtype=np.int64), max_value=65535)
    archive = tmp_path / "narrow.dwta"
    assert main(["pack", str(archive), str(deep), "--bit-depth", "8"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sharded_pack_with_workers_matches_serial(tmp_path, capsys):
    common = ["--synthetic", "6", "--size", "32", "--shards", "3"]
    assert main(["pack", str(tmp_path / "serial.dwts"), *common]) == 0
    assert main(["pack", str(tmp_path / "parallel.dwts"), *common, "--workers", "3"]) == 0
    for a, b in zip(
        sorted(tmp_path.glob("serial.shard*.dwta")),
        sorted(tmp_path.glob("parallel.shard*.dwta")),
    ):
        assert a.read_bytes() == b.read_bytes()


def test_stream_pack_matches_batch(tmp_path, capsys):
    batch = tmp_path / "batch.dwta"
    stream = tmp_path / "stream.dwta"
    common = ["--synthetic", "5", "--size", "32"]
    assert main(["pack", str(batch), *common]) == 0
    assert main(["pack", str(stream), *common, "--stream", "--queue-depth", "2"]) == 0
    assert "streamed" in capsys.readouterr().out
    assert batch.read_bytes() == stream.read_bytes()


def test_stream_pack_sharded(tmp_path, capsys):
    manifest = tmp_path / "set.dwts"
    assert main(["pack", str(manifest), "--synthetic", "4", "--size", "32", "--shards", "2", "--stream"]) == 0
    capsys.readouterr()
    assert main(["verify", str(manifest), "--deep"]) == 0
    assert "OK" in capsys.readouterr().out


def test_stream_rejects_workers(tmp_path):
    with pytest.raises(SystemExit, match="serially"):
        main(["pack", str(tmp_path / "x.dwta"), "--synthetic", "2", "--size", "32", "--stream", "--workers", "2"])


def test_verify_workers_single_archive(tmp_path, capsys):
    archive = tmp_path / "par.dwta"
    assert main(["pack", str(archive), "--synthetic", "4", "--size", "32"]) == 0
    capsys.readouterr()
    assert main(["verify", str(archive), "--deep", "--workers", "2"]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_sharded_isolates_damage(tmp_path, capsys):
    manifest = tmp_path / "set.dwts"
    assert main(["pack", str(manifest), "--synthetic", "6", "--size", "32", "--shards", "3"]) == 0
    capsys.readouterr()
    shards = sorted(tmp_path.glob("set.shard*.dwta"))
    victim = shards[0]
    victim.write_bytes(victim.read_bytes()[:-5])
    assert main(["verify", str(manifest), "--deep"]) == 1
    captured = capsys.readouterr()
    assert victim.name in captured.err
    assert "DAMAGED" in captured.out and "verified clean" in captured.out


def _replicated_set(tmp_path, capsys, shards=3, replicas=1, frames=6):
    manifest = tmp_path / "set.dwts"
    assert (
        main(
            [
                "pack",
                str(manifest),
                "--synthetic",
                str(frames),
                "--size",
                "32",
                "--shards",
                str(shards),
                "--replicas",
                str(replicas),
            ]
        )
        == 0
    )
    capsys.readouterr()
    return manifest


def test_pack_replicas_creates_copies(tmp_path, capsys):
    manifest = _replicated_set(tmp_path, capsys)
    primaries = sorted(p.name for p in tmp_path.glob("set.shard???.dwta"))
    replicas = sorted(p.name for p in tmp_path.glob("set.shard???.r0.dwta"))
    assert len(primaries) == 3 and len(replicas) == 3
    for primary, replica in zip(primaries, replicas):
        assert (tmp_path / primary).read_bytes() == (tmp_path / replica).read_bytes()
    assert main(["verify", str(manifest), "--deep"]) == 0


def test_pack_replicas_requires_shards(tmp_path):
    with pytest.raises(SystemExit, match="--shards"):
        main(["pack", str(tmp_path / "x.dwts"), "--synthetic", "2", "--size", "32", "--replicas", "1"])


def test_verify_json_contract(tmp_path, capsys):
    """--json: per-shard status map, exit 1 iff any shard is damaged."""
    manifest = _replicated_set(tmp_path, capsys)
    assert main(["verify", str(manifest), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert set(report["shard_status"].values()) == {"ok"}
    assert report["copies"] == 6 and report["shards"] == 3

    victim = sorted(tmp_path.glob("set.shard???.dwta"))[0]
    victim.write_bytes(victim.read_bytes()[:-5])
    assert main(["verify", str(manifest), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["shard_status"][victim.name] == "damaged"
    assert victim.name in report["failures"]


def test_verify_json_single_archive(tmp_path, capsys):
    archive = tmp_path / "one.dwta"
    assert main(["pack", str(archive), "--synthetic", "2", "--size", "32"]) == 0
    capsys.readouterr()
    assert main(["verify", str(archive), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and report["frames"] == 2


def test_repair_heals_and_exits_zero(tmp_path, capsys):
    """The repair --verify contract: exit 0 after a successful heal."""
    manifest = _replicated_set(tmp_path, capsys)
    victim = sorted(tmp_path.glob("set.shard???.dwta"))[0]
    pristine = victim.read_bytes()
    victim.write_bytes(pristine[:-9])

    assert main(["verify", str(manifest)]) == 1
    capsys.readouterr()

    assert main(["repair", str(manifest), "--verify"]) == 0
    out = capsys.readouterr().out
    assert f"repaired {victim.name}" in out and "re-verified clean" in out
    assert victim.read_bytes() == pristine

    assert main(["verify", str(manifest), "--deep"]) == 0


def test_repair_json_statuses(tmp_path, capsys):
    manifest = _replicated_set(tmp_path, capsys)
    victim = sorted(tmp_path.glob("set.shard???.dwta"))[0]
    victim.write_bytes(victim.read_bytes()[:-9])
    assert main(["repair", str(manifest), "--verify", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and report["verified"] is True
    assert report["shard_status"][victim.name] == "repaired"
    assert set(report["shard_status"].values()) <= {"ok", "repaired"}
    assert report["repaired"][victim.name].endswith(".r0.dwta")


def test_repair_exits_one_when_unrepairable(tmp_path, capsys):
    manifest = _replicated_set(tmp_path, capsys)
    victims = sorted(tmp_path.glob("set.shard000.*dwta"))
    assert len(victims) == 2  # primary + replica
    for victim in victims:
        victim.write_bytes(victim.read_bytes()[:-9])
    assert main(["repair", str(manifest), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["shard_status"]["set.shard000.dwta"] == "damaged"
    assert sorted(report["unrepairable"]) == [v.name for v in victims]


def test_repair_rejects_single_archives(tmp_path, capsys):
    archive = tmp_path / "single.dwta"
    assert main(["pack", str(archive), "--synthetic", "1", "--size", "32"]) == 0
    with pytest.raises(SystemExit, match="manifest"):
        main(["repair", str(archive)])


def test_errors_exit_nonzero(tmp_path, capsys):
    missing = tmp_path / "missing.dwta"
    assert main(["verify", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err

    garbage = tmp_path / "garbage.dwta"
    garbage.write_bytes(b"\x00" * 128)
    assert main(["list", str(garbage)]) == 1
    assert "error:" in capsys.readouterr().err

    archive = tmp_path / "ok.dwta"
    assert main(["pack", str(archive), "--synthetic", "1", "--size", "32"]) == 0
    capsys.readouterr()
    assert main(["extract", str(archive), "nope", "-o", str(tmp_path / "x.pgm")]) == 1
    assert "no frame named" in capsys.readouterr().err
    # Refuses to clobber without --overwrite.
    assert main(["pack", str(archive), "--synthetic", "1", "--size", "32"]) == 1


def test_engine_flags_accept_both_tiers_byte_identically(tmp_path, capsys):
    outputs = {}
    for engine in ("fast", "scalar"):
        archive = tmp_path / f"{engine}.dwta"
        args = ["pack", str(archive), "--synthetic", "2", "--size", "32"]
        assert main(args + ["--engine", engine]) == 0
        outputs[engine] = archive.read_bytes()
    assert outputs["fast"] == outputs["scalar"]


@pytest.mark.parametrize("command", ["pack", "serve"])
def test_engine_flags_reject_the_retired_turbo_tier(tmp_path, capsys, command):
    with pytest.raises(SystemExit):
        main([command, str(tmp_path / "x.dwta"), "--engine", "turbo"])
    assert "invalid choice: 'turbo'" in capsys.readouterr().err
    assert not (tmp_path / "x.dwta").exists()


def test_pack_rejects_the_read_only_frame_major_layout(tmp_path, capsys):
    archive = tmp_path / "x.dwta"
    with pytest.raises(SystemExit) as exc:
        main(["pack", str(archive), "--synthetic", "1", "--layout", "frame-major"])
    assert exc.value.code == 2
    assert "invalid choice: 'frame-major'" in capsys.readouterr().err
    assert not archive.exists()


def test_pack_append_onto_a_v1_archive_lists_both_layouts(tmp_path, capsys):
    from legacy_util import frame_major_writes

    archive = tmp_path / "v1.dwta"
    with frame_major_writes():
        assert main(["pack", str(archive), "--synthetic", "2", "--size", "32"]) == 0
    assert main(
        ["pack", str(archive), "--synthetic", "1", "--size", "32", "--seed", "9", "--append"]
    ) == 0
    capsys.readouterr()
    assert main(["list", str(archive), "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["layout"] for r in records] == ["frame-major", "frame-major", "subband-major"]
    assert main(["list", str(archive)]) == 0
    assert "3 frames, format v2" in capsys.readouterr().out
    assert main(["verify", str(archive), "--deep"]) == 0
