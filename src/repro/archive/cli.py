"""Command-line front end: ``python -m repro.archive <command>``.

Runs the medical-archive scenario end to end against real files:

``pack``
    Compress PGM files (or a synthetic CT series) into an archive, creating
    it or appending to it; ``--workers N`` shards the batch across a
    process pool (byte-identical output).  ``--shards N`` creates a
    *sharded archive set* instead (manifest + N containers, one compress
    job per shard on the ``--workers`` executor), and ``--stream`` feeds the
    frames through the bounded-queue streaming ingest front end
    (``--queue-depth`` raw frames in memory at most) instead of batching.
``list``
    Show the index table — per-frame codec/filter metadata and sizes —
    without decoding anything (``--json`` for machine-readable output,
    ``--verbose`` to print each frame's stored ``CodecSpec``).
``extract``
    Random-access decode selected frames (by name or index) and write them
    as 16-bit PGM files; only the requested frames' payloads are read —
    on a sharded set, only the routed shard is even opened.
``verify``
    Check every frame's checksum; ``--deep`` additionally decodes every
    frame and cross-checks its geometry against the index; ``--workers N``
    parallelises across shard copies/frames; ``--json`` emits the report
    machine-readably (on a sharded set with a per-shard ``ok``/``damaged``
    status map).  On a sharded set, damage is isolated per shard copy:
    every healthy copy is still verified and reported, and exit status is
    1 iff any shard is damaged.
``repair``
    Self-healing for replicated sets (``pack --shards N --replicas R``):
    verify every copy, rebuild each damaged copy byte-identically from a
    healthy sibling, and with ``--verify`` re-check the whole set.  Exit 0
    iff every shard is healthy afterwards (``--json`` for the per-shard
    ``ok``/``repaired``/``damaged`` statuses).

``serve``
    Run the asyncio HTTP front end (:mod:`repro.archive.server`) on an
    archive or sharded/replicated set: frame decodes with a hot-frame
    cache, ``Range:`` payload slice reads, manifest/stats JSON, streaming
    ingest — ``--readonly`` rejects ingest, ``--cache-bytes 0`` disables
    the cache.  Runs until interrupted (Ctrl-C exits cleanly).

``list``, ``extract``, ``verify``, ``repair`` and ``serve`` accept either a
single container or a shard-set manifest — told apart by their magic bytes;
``list``, ``extract`` and ``verify`` read a single container as a one-shard
set, through the same code as a set.

Exit status is 0 on success and 1 on any archive error (bad format,
truncation, checksum mismatch), reported as a single-line message on
stderr — suitable for scripting an archive's health check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..coding.spec import ENGINE_NAMES, codec_names
from ..imaging.dataset import archive_dataset
from ..imaging.io_pgm import read_pgm, write_pgm
from .format import LAYOUT_SUBBAND_MAJOR, ArchiveError
from .ingest import ingest_frames
from .serialize import frame_spec
from .sharding import ShardedArchiveReader, ShardedArchiveWriter, is_sharded, open_archive
from .writer import ArchiveWriter

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _workers_value(text: str):
    """A ``--workers`` value: a pool width (``4``) or socket worker
    addresses (``host:port,host:port`` — the work runs on those remote
    workers, see ``python -m repro.netexec worker``)."""
    if ":" in text:
        from ..coding.netexec import parse_worker_addresses

        try:
            parse_worker_addresses(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text
    return _positive_int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.archive",
        description="Persistent DWT image archive: pack, list, extract, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pack = sub.add_parser("pack", help="compress images into an archive")
    pack.add_argument("archive", help="archive file to create or append to")
    pack.add_argument("inputs", nargs="*", help="input PGM files")
    pack.add_argument("--append", action="store_true", help="append to an existing archive")
    pack.add_argument("--overwrite", action="store_true", help="replace an existing archive")
    pack.add_argument(
        "--codec",
        # Derived from the codec registry at parser-build time, like every
        # other layer's codec validation.
        choices=codec_names(),
        default=None,
        help="compression codec (default: s-transform, the compressive one; "
        "with --append, inherited from the archive's last frame)",
    )
    pack.add_argument(
        "--scales",
        type=int,
        default=None,
        help="decomposition depth (default 4; with --append, inherited)",
    )
    pack.add_argument(
        "--bank",
        default=None,
        help="filter bank for the coefficient codec (default F2)",
    )
    pack.add_argument(
        "--no-rle",
        action="store_true",
        help="disable zero run-length coding (coefficient codec only)",
    )
    pack.add_argument(
        "--bit-depth",
        type=int,
        default=None,
        help="input bit depth (default: inferred from the PGM maxval)",
    )
    pack.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default=None,
        help="entropy-coding engine tier (default: REPRO_ENGINE or fast)",
    )
    pack.add_argument(
        "--layout",
        choices=(LAYOUT_SUBBAND_MAJOR,),
        default=LAYOUT_SUBBAND_MAJOR,
        help="payload layout: subband-major, the only one written (sections "
        "coarsest-first, so 'extract --scale k' and the server's preview "
        "endpoint decode from a strict payload prefix); frame-major is "
        "read-only, and appends to a frame-major archive add subband-major "
        "frames",
    )
    pack.add_argument(
        "--workers",
        type=_workers_value,
        default=1,
        help="compress across N worker processes, or across socket workers "
        "given as host:port,host:port (default 1 = serial; streams are "
        "byte-identical in every mode; with --shards, one compress job "
        "per shard)",
    )
    pack.add_argument(
        "--place",
        default=None,
        metavar="NODE,NODE",
        help="with --shards: store a placement map dealing shards "
        "round-robin onto these worker node ids (manifest v3); "
        "distributed appends/verifies then route each shard to its "
        "placed worker first",
    )
    pack.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help="create a sharded archive set: ARCHIVE becomes the manifest "
        "and N container files are created next to it (hash-routed by "
        "frame name; per-frame bytes identical to a single archive)",
    )
    pack.add_argument(
        "--replicas",
        type=_positive_int,
        default=None,
        metavar="R",
        help="with --shards: keep R byte-identical replicas of every shard "
        "(reads fail over to a replica on damage; 'repair' rebuilds "
        "damaged copies from the survivors)",
    )
    pack.add_argument(
        "--stream",
        action="store_true",
        help="feed frames through the streaming ingest front end (bounded "
        "memory: at most --queue-depth raw frames held at once) instead "
        "of materialising the whole batch",
    )
    pack.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=4,
        help="streaming ingest read-ahead bound (default 4; only with --stream)",
    )
    pack.add_argument(
        "--synthetic",
        type=int,
        metavar="N",
        default=0,
        help="instead of input files, pack N synthetic 12-bit CT slices",
    )
    pack.add_argument("--size", type=int, default=128, help="synthetic slice size (default 128)")
    pack.add_argument("--seed", type=int, default=0, help="synthetic series seed")

    list_cmd = sub.add_parser("list", help="list an archive's frames without decoding")
    list_cmd.add_argument("archive")
    list_cmd.add_argument("--json", action="store_true", help="machine-readable output")
    list_cmd.add_argument(
        "--verbose",
        action="store_true",
        help="also show each frame's stored codec configuration (CodecSpec)",
    )

    extract = sub.add_parser("extract", help="random-access decode frames to PGM files")
    extract.add_argument("archive")
    extract.add_argument(
        "frames", nargs="*", help="frame names or indices (default: all frames)"
    )
    extract.add_argument(
        "-o",
        "--output",
        required=True,
        help="output PGM file (single frame) or directory (several frames)",
    )
    extract.add_argument(
        "--scale",
        type=int,
        default=None,
        metavar="K",
        help="decode a 1/2^K-resolution preview instead of the full frame "
        "(on subband-major archives this reads only a strict prefix of "
        "each payload; 0 = full resolution)",
    )
    extract.add_argument(
        "--roi",
        default=None,
        metavar="Y0-Y1",
        help="decode only the slice rows [Y0, Y1) of each frame "
        "(full-resolution region-of-interest synthesis)",
    )

    verify = sub.add_parser("verify", help="check the archive's integrity")
    verify.add_argument("archive")
    verify.add_argument(
        "--deep", action="store_true", help="also decode every frame and check geometry"
    )
    verify.add_argument(
        "--workers",
        type=_workers_value,
        default=1,
        help="verify across N worker processes, or across socket workers "
        "given as host:port,host:port (one per shard copy on a sharded "
        "set, frame-sharded on a single archive; default 1 = serial)",
    )
    verify.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report (sharded sets: per-shard status map)",
    )

    repair = sub.add_parser(
        "repair", help="rebuild damaged shard copies from healthy replicas"
    )
    repair.add_argument("archive", help="shard-set manifest (replicated sets heal)")
    repair.add_argument(
        "--deep",
        action="store_true",
        help="detect damage with a full decode, not just checksums",
    )
    repair.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="verify across N worker processes while detecting damage",
    )
    repair.add_argument(
        "--verify",
        action="store_true",
        help="re-verify the whole set strictly after repairing",
    )
    repair.add_argument(
        "--json", action="store_true", help="machine-readable repair report"
    )

    serve_cmd = sub.add_parser(
        "serve", help="serve the archive over HTTP (asyncio, stdlib only)"
    )
    serve_cmd.add_argument("archive", help="archive file or shard-set manifest")
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve_cmd.add_argument(
        "--port", type=int, default=8765, help="bind port (default 8765; 0 = ephemeral)"
    )
    serve_cmd.add_argument(
        "--cache-bytes",
        type=int,
        default=64 << 20,
        metavar="N",
        help="hot-frame cache budget in bytes (default 64 MiB; 0 disables)",
    )
    serve_cmd.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="reader worker tasks per shard (default 2)",
    )
    serve_cmd.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=16,
        help="per-shard request queue bound (default 16; a full queue "
        "defers new requests instead of growing unbounded)",
    )
    serve_cmd.add_argument(
        "--readonly",
        action="store_true",
        help="reject POST /ingest with 403 (serve a frozen set)",
    )
    serve_cmd.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default=None,
        help="decode engine tier (default: REPRO_ENGINE or fast)",
    )
    return parser


def _unique_names(names: List[str], taken_names) -> List[str]:
    # Appending a second series can reuse source names (slice_000, ...);
    # suffix duplicates so every stored frame keeps a unique name.
    taken = set(taken_names)
    unique: List[str] = []
    for name in names:
        candidate, suffix = name, 1
        while candidate in taken:
            candidate = f"{name}_{suffix}"
            suffix += 1
        taken.add(candidate)
        unique.append(candidate)
    return unique


def _cmd_pack(args: argparse.Namespace) -> int:
    if bool(args.inputs) == bool(args.synthetic):
        raise SystemExit("pack needs either input PGM files or --synthetic N, not both")
    if args.shards and args.append:
        raise SystemExit(
            "--shards applies when creating a set; --append reads the shard "
            "layout from the existing manifest"
        )
    if args.replicas and not args.shards:
        raise SystemExit("--replicas needs --shards (it replicates shard files)")
    if args.place and not args.shards:
        raise SystemExit("--place needs --shards (it places shard files on workers)")
    if args.stream and args.workers != 1:
        raise SystemExit("--stream ingests serially; drop --workers")
    placement = None
    if args.place:
        from .placement import assign_round_robin
        from .sharding import shard_file_names

        nodes = [node for node in args.place.split(",") if node.strip()]
        if not nodes:
            raise SystemExit("--place needs at least one worker node id")
        placement = assign_round_robin(
            shard_file_names(args.archive, args.shards), nodes
        )
    if args.synthetic:
        dataset = archive_dataset(slices=args.synthetic, size=args.size, seed=args.seed)
        names = dataset.names()
        bit_depth = args.bit_depth or dataset.bit_depth

        def load(position: int):
            return dataset.get(names[position])

    else:
        paths = list(args.inputs)
        names = [Path(p).stem for p in paths]
        if args.stream:
            if args.bit_depth:
                bit_depth = args.bit_depth
            else:
                # Streaming never materialises the batch, so the bit depth
                # is taken from the first input (or given explicitly).
                _, max_value = read_pgm(paths[0], return_max_value=True)
                bit_depth = max_value.bit_length()
        else:
            images, max_values = [], []
            for input_path in paths:
                image, max_value = read_pgm(input_path, return_max_value=True)
                images.append(image)
                max_values.append(max_value)
            bit_depth = args.bit_depth or max(value.bit_length() for value in max_values)

        def load(position: int):
            if not args.stream:
                return images[position]
            return read_pgm(paths[position])

    options = {"bit_depth": bit_depth}
    if args.codec == "coefficient":
        options.update(bank=args.bank or "F2", use_rle=not args.no_rle)
    if args.append and is_sharded(args.archive):
        overridden = [
            flag
            for flag, given in (
                ("--codec", args.codec is not None),
                ("--scales", args.scales is not None),
                ("--bit-depth", args.bit_depth is not None),
                ("--bank", args.bank is not None),
                ("--no-rle", args.no_rle),
            )
            if given
        ]
        if overridden:
            # Never silently drop an explicit flag: the sharded set's
            # configuration is the manifest's, end of story.
            raise SystemExit(
                "a sharded set inherits its configuration from the manifest; "
                f"drop {'/'.join(overridden)} when appending"
            )
        writer = ShardedArchiveWriter.append(
            args.archive, workers=args.workers, engine=args.engine
        )
    elif args.append:
        # codec/scales stay None unless given explicitly, so the writer
        # inherits the archive's own configuration.
        writer = ArchiveWriter.append(
            args.archive,
            codec=args.codec,
            scales=args.scales,
            engine=args.engine,
            workers=args.workers,
            **options,
        )
    elif args.shards:
        if args.replicas:
            from .replication import ReplicatedShardSet

            writer = ReplicatedShardSet.create(
                args.archive,
                shards=args.shards,
                replicas=args.replicas,
                codec=args.codec or "s-transform",
                scales=args.scales if args.scales is not None else 4,
                engine=args.engine,
                overwrite=args.overwrite,
                workers=args.workers,
                placement=placement,
                **options,
            )
        else:
            writer = ShardedArchiveWriter.create(
                args.archive,
                shards=args.shards,
                codec=args.codec or "s-transform",
                scales=args.scales if args.scales is not None else 4,
                engine=args.engine,
                overwrite=args.overwrite,
                workers=args.workers,
                placement=placement,
                **options,
            )
    else:
        writer = ArchiveWriter.create(
            args.archive,
            codec=args.codec or "s-transform",
            scales=args.scales if args.scales is not None else 4,
            engine=args.engine,
            overwrite=args.overwrite,
            workers=args.workers,
            **options,
        )
    with writer:
        unique = _unique_names(names, writer.frame_names)
        if args.stream:
            feed = ((unique[i], load(i)) for i in range(len(unique)))
            report = ingest_frames(writer, feed, queue_depth=args.queue_depth)
            stats, packed = report.stats, report.frames
            mode_note = (
                f", streamed (peak {report.max_in_flight} of "
                f"{report.queue_depth} frames in flight)"
            )
        else:
            entries = writer.append_batch(
                [load(i) for i in range(len(unique))], names=unique
            )
            stats, packed = writer.stats, len(entries)
            mode_note = f", {stats.workers} workers" if stats.workers > 1 else ""
    shard_note = (
        f" ({writer.shard_count} shards)" if isinstance(writer, ShardedArchiveWriter) else ""
    )
    print(
        f"packed {packed} frames into {args.archive}{shard_note} "
        f"({stats.raw_bytes / 1024:.1f} kB -> {stats.compressed_bytes / 1024:.1f} kB, "
        f"ratio {stats.compression_ratio:.2f}{mode_note})"
    )
    print(stats.render())
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    with open_archive(args.archive) as reader:
        if args.json:
            records = []
            for e in reader:
                shard = reader.router.route(e.name)
                record = {
                    "index": e.index,
                    "name": e.name,
                    "codec": e.codec,
                    "scales": e.scales,
                    "bit_depth": e.bit_depth,
                    "shape": list(e.shape),
                    "bank": e.bank_name,
                    "use_rle": e.use_rle,
                    "offset": e.offset,
                    "stored_bytes": e.length,
                    "raw_bytes": e.raw_bytes,
                    "crc32": f"{e.crc32:08x}",
                    "layout": e.layout,
                    "shard": shard,
                }
                placed = reader.manifest.placement.get(reader.manifest.shard_names[shard])
                if placed:
                    record["placed_node"] = placed
                if args.verbose:
                    record["spec"] = frame_spec(e).to_dict()
                records.append(record)
            print(json.dumps(records, indent=2))
            return 0
        header = (
            f"{'idx':>4} {'name':<20} {'codec':<12} {'size':<10} "
            f"{'sc':>2} {'bits':>4} {'raw kB':>8} {'stored kB':>10} {'ratio':>6}"
        )
        print(f"{args.archive}: {reader.summary()}")
        print(header)
        print("-" * len(header))
        for e in reader:
            size = f"{e.shape[0]}x{e.shape[1]}"
            print(
                f"{e.index:>4} {e.name:<20} {e.codec:<12} {size:<10} "
                f"{e.scales:>2} {e.bit_depth:>4} {e.raw_bytes / 1024:>8.1f} "
                f"{e.length / 1024:>10.1f} {e.compression_ratio:>6.2f}"
            )
            if args.verbose:
                print(f"     spec: {frame_spec(e).describe()}")
        print("-" * len(header))
        ratio = reader.raw_bytes / reader.compressed_bytes if reader.compressed_bytes else 0.0
        print(
            f"{'':>4} {'TOTAL':<20} {'':<12} {'':<10} {'':>2} {'':>4} "
            f"{reader.raw_bytes / 1024:>8.1f} {reader.compressed_bytes / 1024:>10.1f} "
            f"{ratio:>6.2f}"
        )
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    if args.scale is not None and args.roi:
        raise SystemExit("--scale and --roi are mutually exclusive")
    if args.scale is not None and args.scale < 0:
        raise SystemExit(f"--scale must be >= 0, got {args.scale}")
    roi: Optional[tuple] = None
    if args.roi:
        y0_text, sep, y1_text = args.roi.partition("-")
        try:
            if not sep:
                raise ValueError
            roi = (int(y0_text), int(y1_text))
        except ValueError:
            raise SystemExit(f"--roi expects Y0-Y1 (e.g. 128-256), got {args.roi!r}")
    with open_archive(args.archive) as reader:
        keys: List = list(args.frames) if args.frames else list(range(len(reader)))
        keys = [int(key) if isinstance(key, str) and key.lstrip("-").isdigit() else key for key in keys]
        output = Path(args.output)
        single = len(keys) == 1 and not output.is_dir()
        if not single:
            output.mkdir(parents=True, exist_ok=True)
        for key in keys:
            entry = reader.find(key)
            max_value = (1 << entry.bit_depth) - 1
            note = ""
            if args.scale is not None:
                image = reader.read_preview(entry, args.scale)
                # Coefficient-codec previews carry the analysis DC gain, so
                # clip into the frame's declared range before writing PGM.
                image = np.clip(image, 0, max_value)
                note = f" preview @ scale {args.scale}"
            elif roi is not None:
                image = reader.read_roi(entry, roi[0], roi[1])
                note = f" rows [{roi[0]}, {roi[1]})"
            else:
                image = reader.decode(entry)
            path = output if single else output / f"{entry.name}.pgm"
            write_pgm(path, image, max_value=max_value)
            print(
                f"extracted {entry.name} ({image.shape[0]}x{image.shape[1]}"
                f"{note}) -> {path}"
            )
        print(f"read {reader.bytes_read} of {reader.compressed_bytes} payload bytes")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    mode = "deep (checksums + full decode)" if args.deep else "checksums"
    with open_archive(args.archive) as reader:
        # strict=False: scan every copy and report, instead of raising at
        # the first damaged one — damage is isolated, not contagious.
        report = reader.verify(deep=args.deep, workers=args.workers, strict=False)
        plain = reader.kind == "plain"
    failures = report["failures"]
    damaged = sorted(
        name for name, status in report["shard_status"].items() if status == "damaged"
    )
    if args.json:
        print(
            json.dumps(
                {
                    "archive": args.archive,
                    "ok": not damaged,
                    "frames": report["frames"],
                    "payload_bytes": report["payload_bytes"],
                    "deep": report["deep"],
                    "shards": report["shards"],
                    "copies": report["copies"],
                    "shard_status": report["shard_status"],
                    "failures": failures,
                },
                indent=2,
            )
        )
        return 1 if damaged else 0
    if failures and plain:
        (error,) = failures.values()
        print(f"error: {error}", file=sys.stderr)
        print(f"{args.archive}: DAMAGED ({mode})")
        return 1
    if failures:
        for copy_name, error in sorted(failures.items()):
            print(f"error: shard {copy_name}: {error}", file=sys.stderr)
        print(
            f"{args.archive}: {len(damaged)} of {report['shards']} shards "
            f"DAMAGED; {report['frames']} frames in the other shards "
            f"verified clean ({mode})"
        )
        return 1
    across = "" if plain else f" across {report['shards']} shards"
    print(
        f"{args.archive}: OK — {report['frames']} frames{across}, "
        f"{report['payload_bytes']} payload bytes verified ({mode})"
    )
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from .replication import repair_set

    if not is_sharded(args.archive):
        raise SystemExit(
            f"{args.archive} is not a shard-set manifest; repair heals "
            "replicated sharded sets (pack --shards N --replicas R)"
        )
    result = repair_set(args.archive, deep=args.deep, workers=args.workers)
    verified = None
    if args.verify and result.ok:
        with ShardedArchiveReader(args.archive) as reader:
            post = reader.verify(deep=args.deep, workers=args.workers, strict=False)
        verified = not post["failures"]
    if args.json:
        record = result.to_dict()
        record["archive"] = args.archive
        if verified is not None:
            record["verified"] = verified
        print(json.dumps(record, indent=2))
    else:
        for copy_name, source in sorted(result.repaired.items()):
            print(f"repaired {copy_name} from {source}")
        for copy_name in sorted(result.unrepairable):
            print(f"error: {copy_name} unrepairable (no healthy copy)", file=sys.stderr)
        counts = {
            status: sum(1 for s in result.shard_status.values() if s == status)
            for status in ("ok", "repaired", "damaged")
        }
        note = " — set re-verified clean" if verified else ""
        print(
            f"{args.archive}: {counts['ok']} shards ok, "
            f"{counts['repaired']} repaired, {counts['damaged']} damaged{note}"
        )
    if verified is False:  # pragma: no cover - repair_set re-verifies already
        return 1
    return 0 if result.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .server import ArchiveHTTPServer, ArchiveService

    async def run() -> None:
        service = ArchiveService(
            args.archive,
            cache_bytes=args.cache_bytes,
            workers_per_shard=args.workers,
            queue_depth=args.queue_depth,
            readonly=args.readonly,
            engine=args.engine,
        )
        server = ArchiveHTTPServer(service, host=args.host, port=args.port)
        await server.start()
        host, port = server.address
        print(
            f"serving {args.archive} ({service.kind}, "
            f"{service.shard_count} shard(s){', read-only' if args.readonly else ''}) "
            f"on http://{host}:{port}"
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


_COMMANDS = {
    "pack": _cmd_pack,
    "list": _cmd_list,
    "extract": _cmd_extract,
    "verify": _cmd_verify,
    "repair": _cmd_repair,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ArchiveError, OSError, KeyError, ValueError) as exc:
        # KeyError's str() wraps the message in quotes; OSError's carries
        # the strerror and filename.  ValueError covers configuration
        # mismatches raised by the codec layer (e.g. frame values outside
        # the declared bit depth) — still the single-line/exit-1 contract,
        # not a traceback.
        message = (
            exc.args[0]
            if isinstance(exc, (ArchiveError, KeyError, ValueError)) and exc.args
            else str(exc)
        )
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
