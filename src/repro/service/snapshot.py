"""Versioned, deterministic snapshots of CAM content.

A snapshot captures *exactly* the state that determines match
behaviour: the stored entries of every logical group **in insertion
order, holes included**. The hardware's content address equals the
insertion index (sequential fill within a block, round-robin across a
group's blocks), and delete-by-content leaves dead slots that are only
reclaimed by reset -- so a faithful snapshot must preserve hole
positions, not just the live entries. Restoring a snapshot therefore
reproduces bit-identical match vectors, priority encoding *and* the
address-reuse behaviour of the original backend.

One recursive container, :class:`CamSnapshot`, covers every backend:

- ``kind="unit"``     -- one :class:`~repro.core.CamSession` /
  :class:`~repro.core.batch.BatchSession` (one entry list per
  independent group; a single shared list in replicated mode);
- ``kind="reference"``-- a :class:`~repro.core.ReferenceCam`;
- ``kind="wide"``     -- a :class:`~repro.core.wide.WideCamSession`
  (children are the per-lane unit snapshots);
- ``kind="sharded"``  -- a :class:`~repro.service.sharded.ShardedCam`
  (children are the per-shard snapshots, plus the global address
  tables that preserve cross-shard priority order).

Entries are canonicalised to ``(value & care, care, live)`` triples at
the DSP comparison width: bits outside the care mask never influence
matching, and dead slots are stored as ``(0, 0, False)`` -- so two
backends holding equivalent content always serialise to the *same*
bytes, which is what makes :meth:`CamSnapshot.content_hash` usable for
replica divergence detection (:mod:`repro.service.replica`).

Two interchangeable wire formats:

- **JSON** (:meth:`to_json` / :meth:`from_json`) -- canonical (sorted
  keys, fixed separators), human-diffable, pinned by the golden
  fixture under ``tests/service/goldens/``;
- **binary** (:meth:`to_binary` / :meth:`from_binary`) -- a compact
  little-endian framing (17 bytes per entry) for large CAMs.

:meth:`save` / :meth:`load` pick the format from the file extension
(``.json`` vs anything else).
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple

import numpy as np

from repro.core.config import unit_for_entries
from repro.core.mask import CamEntry
from repro.core.types import CamType, Encoding
from repro.dsp import ALL_ONES
from repro.errors import SnapshotError

#: Format version written into every snapshot; bumped on layout changes.
SNAPSHOT_VERSION = 1

#: Magic prefix of the binary framing.
SNAPSHOT_MAGIC = b"DSPCAMSNAP"

#: Recognised node kinds.
KINDS = ("unit", "reference", "wide", "sharded")

#: One slot in the binary framing and the content hash: value, care,
#: live flag, little-endian and packed (17 bytes).
_ENTRY = np.dtype([("value", "<u8"), ("care", "<u8"), ("live", "u1")])


def slot_table(slots: List["SnapshotEntry"]) -> np.ndarray:
    """One group's slots as a structured array in the binary framing's
    entry layout (``value``, ``care``, ``live`` columns)."""
    count = len(slots)
    table = np.empty(count, dtype=_ENTRY)
    try:
        table["value"] = np.fromiter([e.value for e in slots], np.uint64, count)
        table["care"] = np.fromiter([e.care for e in slots], np.uint64, count)
    except (OverflowError, TypeError) as exc:
        raise SnapshotError(f"malformed snapshot slot: {exc}") from exc
    table["live"] = np.fromiter([e.live for e in slots], bool, count)
    return table


class SnapshotEntry(NamedTuple):
    """One CAM slot: canonical ``(value, care, live)`` triple.

    ``care`` holds the compared bit positions at the 48-bit DSP width
    (the complement of the entry's ignore mask); ``value`` is masked to
    ``care``. Dead slots (delete-by-content holes) are all-zero with
    ``live=False`` -- their original content can never influence a
    match, so canonicalising it keeps snapshots deterministic.
    """

    value: int
    care: int
    live: bool

    @classmethod
    def dead(cls) -> "SnapshotEntry":
        return cls(value=0, care=0, live=False)

    @classmethod
    def from_value_care(cls, value: int, care: int) -> "SnapshotEntry":
        care &= ALL_ONES
        return cls(value=value & care, care=care, live=True)

    @classmethod
    def from_entry(cls, entry) -> "SnapshotEntry":
        """Canonicalise a :class:`~repro.core.mask.CamEntry` (or None)."""
        if entry is None:
            return cls.dead()
        return cls.from_value_care(entry.value, ~entry.mask & ALL_ONES)

    def to_entry(self, data_width: int):
        """Rebuild a :class:`~repro.core.mask.CamEntry` (None if dead)."""
        if not self.live:
            return None
        return CamEntry(value=self.value, mask=ALL_ONES ^ self.care,
                        width=data_width)


@dataclass
class CamSnapshot:
    """Recursive snapshot node (see the module docstring for kinds)."""

    kind: str
    meta: Dict[str, Any] = field(default_factory=dict)
    groups: List[List[SnapshotEntry]] = field(default_factory=list)
    children: List["CamSnapshot"] = field(default_factory=list)
    version: int = SNAPSHOT_VERSION

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SnapshotError(
                f"unknown snapshot kind {self.kind!r}; expected one of {KINDS}"
            )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def total_entries(self) -> int:
        """Slots captured in this node and all children (holes included)."""
        own = sum(len(group) for group in self.groups)
        return own + sum(child.total_entries for child in self.children)

    @property
    def live_entries(self) -> int:
        own = sum(1 for group in self.groups for e in group if e.live)
        return own + sum(child.live_entries for child in self.children)

    def describe(self) -> str:
        """One-line human summary (used by the CLI)."""
        parts = [f"kind={self.kind}", f"v{self.version}"]
        if self.kind == "sharded":
            parts.append(f"shards={self.meta.get('shards')}")
            parts.append(f"policy={self.meta.get('policy')}")
        if self.kind == "wide":
            parts.append(f"lanes={len(self.children)}")
            parts.append(f"key_width={self.meta.get('key_width')}")
        if "engine" in self.meta:
            parts.append(f"engine={self.meta['engine']}")
        parts.append(f"entries={self.live_entries}/{self.total_entries}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # content hashing (replica divergence beats)
    # ------------------------------------------------------------------
    def content_hash(self) -> str:
        """SHA-256 over the match-relevant content, canonically framed.

        Covers kind, group structure and every slot triple of the node
        and its children -- but *not* engine names, session names or
        other provenance metadata, so two replicas holding identical
        content always agree regardless of how they were built.
        """
        digest = hashlib.sha256()
        self._hash_into(digest)
        return digest.hexdigest()

    def _hash_into(self, digest) -> None:
        digest.update(self.kind.encode("ascii"))
        digest.update(struct.pack("<II", len(self.groups),
                                  len(self.children)))
        for group in self.groups:
            digest.update(struct.pack("<I", len(group)))
            digest.update(slot_table(group).tobytes())
        for child in self.children:
            child._hash_into(digest)

    # ------------------------------------------------------------------
    # JSON codec (canonical)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.cam_snapshot",
            "version": self.version,
            "kind": self.kind,
            "meta": self.meta,
            "groups": [
                [[e.value, e.care, 1 if e.live else 0] for e in group]
                for group in self.groups
            ],
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CamSnapshot":
        if not isinstance(data, dict):
            raise SnapshotError(f"snapshot must be an object, got "
                                f"{type(data).__name__}")
        if data.get("schema") != "repro.cam_snapshot":
            raise SnapshotError(
                f"not a CAM snapshot (schema={data.get('schema')!r})"
            )
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {version!r} not supported "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        try:
            groups = [
                [SnapshotEntry(value=int(v), care=int(c), live=bool(l))
                 for v, c, l in group]
                for group in data["groups"]
            ]
            children = [cls.from_dict(child) for child in data["children"]]
            return cls(kind=data["kind"], meta=dict(data["meta"]),
                       groups=groups, children=children, version=version)
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed snapshot: {exc}") from exc

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, fixed separators, one newline."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CamSnapshot":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"snapshot is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # binary codec (compact)
    # ------------------------------------------------------------------
    def to_binary(self) -> bytes:
        out = [SNAPSHOT_MAGIC, struct.pack("<H", self.version)]
        self._encode_node(out)
        return b"".join(out)

    def _encode_node(self, out: List[bytes]) -> None:
        header = json.dumps({"kind": self.kind, "meta": self.meta},
                            sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
        out.append(struct.pack("<I", len(header)))
        out.append(header)
        out.append(struct.pack("<I", len(self.groups)))
        for group in self.groups:
            out.append(struct.pack("<I", len(group)))
            out.append(slot_table(group).tobytes())
        out.append(struct.pack("<I", len(self.children)))
        for child in self.children:
            child._encode_node(out)

    @classmethod
    def from_binary(cls, blob: bytes) -> "CamSnapshot":
        if not blob.startswith(SNAPSHOT_MAGIC):
            raise SnapshotError("not a binary CAM snapshot (bad magic)")
        offset = len(SNAPSHOT_MAGIC)
        cls._need(blob, offset, 2, "version")
        (version,) = struct.unpack_from("<H", blob, offset)
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {version} not supported "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        snapshot, offset = cls._decode_node(blob, offset + 2, version)
        if offset != len(blob):
            raise SnapshotError(
                f"trailing bytes after snapshot ({len(blob) - offset})"
            )
        return snapshot

    @staticmethod
    def _need(blob: bytes, offset: int, count: int, what: str) -> None:
        """Bounds guard: a hostile or truncated length prefix must fail
        fast with the typed error, not loop for billions of iterations
        or surface a bare ``struct.error``."""
        if count < 0 or len(blob) - offset < count:
            raise SnapshotError(
                f"truncated binary snapshot: {what} needs {count} bytes, "
                f"{len(blob) - offset} remain"
            )

    @classmethod
    def _u32(cls, blob: bytes, offset: int, what: str):
        """A guarded little-endian u32 and the offset past it."""
        cls._need(blob, offset, 4, what)
        return struct.unpack_from("<I", blob, offset)[0], offset + 4

    @classmethod
    def _decode_node(cls, blob: bytes, offset: int, version: int):
        header_len, offset = cls._u32(blob, offset, "node header length")
        cls._need(blob, offset, header_len, "node header")
        try:
            header = json.loads(blob[offset:offset + header_len])
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SnapshotError(f"malformed snapshot header: {exc}") from exc
        offset += header_len
        num_groups, offset = cls._u32(blob, offset, "group count")
        groups: List[List[SnapshotEntry]] = []
        for _ in range(num_groups):
            count, offset = cls._u32(blob, offset, "entry count")
            cls._need(blob, offset, count * _ENTRY.itemsize, "entries")
            table = np.frombuffer(blob, dtype=_ENTRY, count=count,
                                  offset=offset)
            offset += count * _ENTRY.itemsize
            groups.append(list(map(SnapshotEntry, table["value"].tolist(),
                                   table["care"].tolist(),
                                   (table["live"] != 0).tolist())))
        num_children, offset = cls._u32(blob, offset, "child count")
        children = []
        for _ in range(num_children):
            child, offset = cls._decode_node(blob, offset, version)
            children.append(child)
        return cls(kind=header["kind"], meta=dict(header["meta"]),
                   groups=groups, children=children, version=version), offset

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write to ``path``; ``.json`` selects JSON, else binary."""
        if str(path).endswith(".json"):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(self.to_json())
        else:
            with open(path, "wb") as handle:
                handle.write(self.to_binary())

    @classmethod
    def load(cls, path: str) -> "CamSnapshot":
        """Read a snapshot; the format is sniffed from the content."""
        with open(path, "rb") as handle:
            blob = handle.read()
        if blob.startswith(SNAPSHOT_MAGIC):
            return cls.from_binary(blob)
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(
                f"{path}: neither binary nor JSON snapshot"
            ) from exc
        return cls.from_json(text)


# ----------------------------------------------------------------------
# construction / validation helpers shared by the backends
# ----------------------------------------------------------------------
def unit_meta(config, engine: str, num_groups: int) -> Dict[str, Any]:
    """The metadata a unit-level snapshot carries (enough to rebuild a
    compatible :class:`~repro.core.config.UnitConfig` via the CLI)."""
    return {
        "engine": engine,
        "data_width": config.data_width,
        "cam_type": config.block.cell.cam_type.value,
        "encoding": config.block.encoding.value,
        "num_groups": num_groups,
        "replicated": bool(config.replicate_updates),
        "capacity": config.group_capacity(num_groups),
        "total_entries": config.total_entries,
        "block_size": config.block.block_size,
        "bus_width": config.unit_bus_width,
    }


def unit_config(meta: Dict[str, Any], **overrides):
    """The unit geometry ``meta`` records (inverse of :func:`unit_meta`);
    a set ``entries``/``block_size``/``data_width`` override wins."""
    def pick(key: str, override: str = "") -> int:
        return int(overrides.get(override or key) or meta[key])

    return unit_for_entries(
        pick("total_entries", "entries"), block_size=pick("block_size"),
        data_width=pick("data_width"), bus_width=pick("bus_width"),
        cam_type=CamType(meta["cam_type"]),
        encoding=Encoding(meta["encoding"]))


def geometry_line(snapshot: CamSnapshot) -> str:
    """One ``key=value`` summary of the geometry a snapshot records (a
    sharded one by its first shard's unit)."""
    meta = (snapshot.children[0].meta if snapshot.kind == "sharded"
            else snapshot.meta)
    if snapshot.kind == "reference":
        return f"kind=reference capacity={meta.get('capacity')}"
    return (f"kind={snapshot.kind} entries={meta.get('total_entries')} "
            f"block_size={meta.get('block_size')} "
            f"data_width={meta.get('data_width')} "
            f"cam_type={meta.get('cam_type')}")


def check_unit_compatible(snapshot: CamSnapshot, config,
                          name: str) -> None:
    """Validate that ``snapshot`` can be restored into ``config``."""
    if snapshot.kind != "unit":
        raise SnapshotError(
            f"{name}: cannot restore a {snapshot.kind!r} snapshot into a "
            "single CAM unit"
        )
    meta = snapshot.meta
    if meta.get("data_width") != config.data_width:
        raise SnapshotError(
            f"{name}: snapshot data width {meta.get('data_width')} != "
            f"unit data width {config.data_width}"
        )
    if meta.get("cam_type") != config.block.cell.cam_type.value:
        raise SnapshotError(
            f"{name}: snapshot CAM type {meta.get('cam_type')!r} != unit "
            f"type {config.block.cell.cam_type.value!r}"
        )
    num_groups = int(meta.get("num_groups", 1))
    if num_groups < 1 or config.num_blocks % num_groups:
        raise SnapshotError(
            f"{name}: snapshot group count {num_groups} does not divide "
            f"{config.num_blocks} blocks"
        )
    if bool(meta.get("replicated", True)) != bool(config.replicate_updates):
        raise SnapshotError(
            f"{name}: snapshot replication mode "
            f"{meta.get('replicated')} != unit mode "
            f"{config.replicate_updates}"
        )
    capacity = config.group_capacity(num_groups)
    for index, group in enumerate(snapshot.groups):
        if len(group) > capacity:
            raise SnapshotError(
                f"{name}: snapshot group {index} holds {len(group)} slots, "
                f"unit group capacity is {capacity}"
            )
    expected_lists = 1 if config.replicate_updates else num_groups
    if len(snapshot.groups) != expected_lists:
        raise SnapshotError(
            f"{name}: snapshot carries {len(snapshot.groups)} entry lists, "
            f"expected {expected_lists}"
        )


__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "CamSnapshot",
    "SnapshotEntry",
    "check_unit_compatible",
    "geometry_line",
    "slot_table",
    "unit_config",
    "unit_meta",
]
