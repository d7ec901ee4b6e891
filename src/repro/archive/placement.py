"""Shard placement maps: shard name → preferred worker/node id.

Manifest version 3 can carry a **placement table** — one node id per
primary shard (``""`` = unplaced) — naming the socket worker
(:mod:`repro.coding.netexec`) that each shard's distributed work should
route to first.  The same shard always landing on the same worker keeps
that worker's page cache, accelerator state and (for a future remote
store) its local shard bytes warm — the data-placement half of the
scale-out story, exactly like parameter/shard placement in distributed
training stacks.

Placement is **advisory**: the byte-identity guarantee never depends on
*which* worker ran a shard, so when a placed node is down (or the
placement names no live worker) the pool silently degrades to any-worker
routing and the caller's ``placement_fallbacks`` counter records each
miss — the set keeps ingesting and verifying at full width, just without
the affinity win.

Helpers here normalise user-facing placement inputs into the manifest's
aligned-tuple form and assign default placements:

* :func:`normalize_placement` — dict keyed by shard file name, or a
  sequence aligned with the shard list, → one node id per shard;
* :func:`assign_round_robin` — deal shards onto a node list in order, the
  default when creating a placed set without an explicit map.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "normalize_placement",
    "assign_round_robin",
    "placement_of",
]

PlacementLike = Union[Mapping[str, str], Sequence[str], None]


def normalize_placement(
    placement: PlacementLike, shard_names: Sequence[str]
) -> Tuple[str, ...]:
    """Normalise a placement input to one node id per shard, in shard order.

    ``placement`` may be a mapping of shard file name → node id (shards it
    omits are unplaced), a sequence of node ids aligned with
    ``shard_names`` (``""`` or ``None`` = unplaced), or ``None``/empty.
    Returns ``()`` when no shard ends up placed — the form under which the
    manifest stays at version 2 and keeps its pre-placement bytes.
    """
    if not placement:
        return ()
    if isinstance(placement, Mapping):
        unknown = sorted(set(placement) - set(shard_names))
        if unknown:
            raise ValueError(
                f"placement names unknown shards {unknown} "
                f"(set has {list(shard_names)})"
            )
        node_ids = tuple(str(placement.get(name, "") or "") for name in shard_names)
    else:
        if len(placement) != len(shard_names):
            raise ValueError(
                f"placement lists {len(placement)} node ids for "
                f"{len(shard_names)} shards"
            )
        node_ids = tuple(str(node or "") for node in placement)
    return node_ids if any(node_ids) else ()


def assign_round_robin(
    shard_names: Sequence[str], nodes: Sequence[str]
) -> Dict[str, str]:
    """Deal shards onto ``nodes`` round-robin: shard *i* → node *i % N*.

    The default placement when a set is created against a known worker
    fleet (``python -m repro.archive create --place node0,node1``): every
    node gets an equal share of shards and the assignment is stable across
    runs because it depends only on the orderings.
    """
    nodes = [str(node) for node in nodes if str(node)]
    if not nodes:
        raise ValueError("no node ids to place shards on")
    return {
        name: nodes[i % len(nodes)] for i, name in enumerate(shard_names)
    }


def placement_of(manifest) -> Dict[str, str]:
    """The manifest's placement map (shard file name → node id), ``{}``
    when unplaced — tolerant of pre-v3 manifests without ``node_ids``."""
    node_ids = getattr(manifest, "node_ids", ()) or ()
    return {
        name: node
        for name, node in zip(manifest.shard_names, node_ids)
        if node
    }


def count_placement(
    prefer: Sequence[Optional[str]], runs: Sequence[Tuple[object, Optional[str]]]
) -> Tuple[int, int]:
    """``(hits, fallbacks)`` of one executor run: placed jobs that a remote
    worker ran on their preferred node, or elsewhere.  Local runs report
    ``node=None`` and count as neither."""
    hits = fallbacks = 0
    for preferred, (_, node) in zip(prefer, runs):
        if node is not None and preferred is not None:
            if node == preferred:
                hits += 1
            else:
                fallbacks += 1
    return hits, fallbacks
