"""Flow-record ingestion: CSV parsing with schema mapping, invariant
validation, label vocabulary handling, feature encoding, and the binary
flow cache.

Features are restricted to what a standard flow exporter reports per flow:
timestamps, endpoints, ports, protocol, byte/packet totals, cumulative TCP
flags, and duration. Endpoint addresses are opaque keys used only for graph
structure, never encoded as features.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from collections import namedtuple
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

UNLABELED = -1
BENIGN_NAME = "Benign"

#: Numeric feature fields, z-scored by the codec in this order.
NUMERIC_FEATURES = ("duration", "in_bytes", "out_bytes", "in_pkts", "out_pkts",
                    "src_port", "dst_port")

REQUIRED_FIELDS = ("start_time", "end_time", "src_ip", "dst_ip", "src_port",
                   "dst_port", "protocol", "in_bytes", "out_bytes", "in_pkts",
                   "out_pkts", "tcp_flags")
OPTIONAL_FIELDS = ("flow_id", "duration", "attack_name", "label")


class SchemaError(ValueError):
    """A mapped CSV column is missing or the schema itself is malformed."""


class FormatError(ValueError):
    """A binary flow cache or checkpoint is malformed: truncated, with bytes
    after its end, invalid UTF-8, a bad magic or version, or an index
    beyond its table. The message names the file and the byte offset."""


@dataclass(frozen=True, slots=True)
class FlowRecord:
    flow_id: int
    start_time: float
    end_time: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    in_bytes: int
    out_bytes: int
    in_pkts: int
    out_pkts: int
    tcp_flags: int
    duration: float
    label: int = UNLABELED
    attack_name: str | None = None

    def validate(self) -> str | None:
        """Return a violation message, or None if all invariants hold and
        every field fits its flow-cache slot."""
        return _violation(self)


#: a record's fields before it is built, in FlowRecord field order
_ParsedRow = namedtuple("_ParsedRow", [f.name for f in fields(FlowRecord)])
#: every field but the label and attack name, in FlowRecord field order
_UNLABELED_FIELDS = attrgetter(*_ParsedRow._fields[:-2])


def _violation(r: FlowRecord | _ParsedRow) -> str | None:
    """`FlowRecord.validate` of a record or of its parsed fields."""
    for name in ("start_time", "end_time", "duration"):
        if not math.isfinite(getattr(r, name)):
            return f"{name} {getattr(r, name)} not finite"
    if r.end_time < r.start_time:
        return f"end_time {r.end_time} < start_time {r.start_time}"
    if abs(r.duration - (r.end_time - r.start_time)) > 1e-6:
        return (f"duration {r.duration} inconsistent with "
                f"end-start {r.end_time - r.start_time}")
    for name, lo, hi in _FIELD_RANGES:
        if not lo <= getattr(r, name) < hi:
            return f"{name} {getattr(r, name)} outside [{lo}, {hi})"
    for name in ("src_ip", "dst_ip", "attack_name"):
        if len((getattr(r, name) or "").encode("utf-8")) > 0xFFFF:
            return f"{name} longer than 65535 UTF-8 bytes"
    return None


#: (field, lowest, highest + 1) of each integer field, per its cache slot
_FIELD_RANGES = (("flow_id", 0, 2 ** 64),
                 *((name, 0, 2 ** 63) for name in
                   ("in_bytes", "out_bytes", "in_pkts", "out_pkts")),
                 ("src_port", 0, 65536), ("dst_port", 0, 65536),
                 ("protocol", 0, 256), ("tcp_flags", 0, 256),
                 ("label", -2 ** 31, 2 ** 31))


@dataclass(frozen=True)
class LoadResult:
    records: tuple[FlowRecord, ...]
    accepted: int
    rejected: int
    diagnostics: tuple[str, ...]


def _parse_timestamp_mode(value: str) -> str:
    try:
        float(value)
        return "epoch"
    except ValueError:
        return "iso"


def _parse_timestamp(value: str, mode: str) -> float:
    if mode == "epoch":
        return float(value)
    dt = datetime.fromisoformat(value)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def load_flow_csv(path: str | Path, schema: Mapping[str, str]) -> LoadResult:
    """Load a UTF-8 CSV of flow records through a column-name mapping.

    `schema` maps canonical field names to CSV column names. Rows violating
    record invariants are rejected with a per-row diagnostic; the surviving
    records come back sorted by (start_time, flow_id). Timestamp columns are
    auto-detected as ISO-8601 or epoch floats on their first value and the
    choice is then fixed for the whole file.
    """
    path = Path(path)
    for field in schema:
        if field not in REQUIRED_FIELDS and field not in OPTIONAL_FIELDS:
            raise SchemaError(f"unknown schema field {field!r}")
    for field in REQUIRED_FIELDS:
        if field not in schema:
            raise SchemaError(f"schema does not map required field {field!r}")

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return LoadResult((), 0, 0, ())
        for field, column in schema.items():
            if column not in reader.fieldnames:
                raise SchemaError(f"column {column!r} (field {field!r}) "
                                  f"missing from {path.name}")
        rows = list(reader)

    has_flow_id = "flow_id" in schema
    has_duration = "duration" in schema
    has_attack = "attack_name" in schema
    has_label = "label" in schema

    ts_modes: dict[str, str] = {}
    raw: list[_ParsedRow] = []
    diagnostics: list[str] = []
    rejected = 0
    for lineno, row in enumerate(rows, start=2):  # header is line 1
        try:
            def col(field):
                return row[schema[field]]

            for ts_field in ("start_time", "end_time"):
                if ts_field not in ts_modes:
                    ts_modes[ts_field] = _parse_timestamp_mode(col(ts_field))
            start = _parse_timestamp(col("start_time"), ts_modes["start_time"])
            end = _parse_timestamp(col("end_time"), ts_modes["end_time"])
            duration = float(col("duration")) if has_duration else end - start
            attack = col("attack_name").strip() if has_attack else None
            if attack == "":
                attack = None
            record = _ParsedRow(
                flow_id=int(col("flow_id")) if has_flow_id else 0,
                start_time=start,
                end_time=end,
                src_ip=col("src_ip"),
                dst_ip=col("dst_ip"),
                src_port=int(col("src_port")),
                dst_port=int(col("dst_port")),
                protocol=int(col("protocol")),
                in_bytes=int(col("in_bytes")),
                out_bytes=int(col("out_bytes")),
                in_pkts=int(col("in_pkts")),
                out_pkts=int(col("out_pkts")),
                tcp_flags=int(col("tcp_flags")),
                duration=duration,
                label=int(col("label")) if has_label else UNLABELED,
                attack_name=attack,
            )
        except (ValueError, KeyError) as exc:
            diagnostics.append(f"line {lineno}: unparseable row ({exc})")
            rejected += 1
            continue
        violation = _violation(record)
        if violation is not None:
            diagnostics.append(f"line {lineno}: {violation}")
            rejected += 1
            continue
        raw.append(record)

    if has_flow_id:
        ids = [r.flow_id for r in raw]
        if len(set(ids)) != len(ids):
            seen: set[int] = set()
            kept = []
            for r in raw:
                if r.flow_id in seen:
                    diagnostics.append(f"duplicate flow_id {r.flow_id}: row dropped")
                    rejected += 1
                else:
                    seen.add(r.flow_id)
                    kept.append(r)
            raw = kept
        raw.sort(key=lambda r: (r.start_time, r.flow_id))
        records = [FlowRecord(*r) for r in raw]
    else:
        # No id column: sort by full content so identical inputs in any row
        # order produce identical sequences, then assign sequential ids.
        # The content is the fields from start_time to tcp_flags.
        raw.sort(key=lambda r: r[1:13])
        records = [FlowRecord(i, *r[1:]) for i, r in enumerate(raw)]

    return LoadResult(tuple(records), len(records), rejected, tuple(diagnostics))


# ---------------------------------------------------------------------------
# labels


@dataclass(frozen=True)
class LabelVocabulary:
    """Ordered class names; index 0 is always the benign class."""

    classes: tuple[str, ...]

    def __post_init__(self):
        if not self.classes or self.classes[0] != BENIGN_NAME:
            raise ValueError(f"class 0 must be {BENIGN_NAME!r}")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate class names")

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def index_of(self, name: str) -> int:
        try:
            return self.classes.index(name)
        except ValueError:
            raise KeyError(f"unknown class name {name!r}") from None

    def name_of(self, index: int) -> str:
        return self.classes[index]


def build_label_vocabulary(records: Iterable[FlowRecord]) -> LabelVocabulary:
    """Benign plus every observed attack name, attacks in sorted order."""
    attacks = sorted({r.attack_name for r in records
                      if r.attack_name is not None and r.attack_name != BENIGN_NAME})
    return LabelVocabulary((BENIGN_NAME, *attacks))


def label_records(records: Sequence[FlowRecord],
                  vocab: LabelVocabulary) -> tuple[FlowRecord, ...]:
    """Fill `label` from `attack_name`; records without a name stay unlabeled.
    A record whose label is already right comes back as the same object."""
    index = {name: i for i, name in enumerate(vocab.classes)}
    out = []
    for r in records:
        if r.attack_name is None:
            out.append(r)
            continue
        # `index_of` raises the KeyError naming an unknown class
        label = index[r.attack_name] if r.attack_name in index \
            else vocab.index_of(r.attack_name)
        out.append(r if r.label == label else
                   FlowRecord(*_UNLABELED_FIELDS(r), label, r.attack_name))
    return tuple(out)


def strip_labels(records: Sequence[FlowRecord]) -> tuple[FlowRecord, ...]:
    """Remove labels and attack names (pre-training input hygiene)."""
    return tuple(FlowRecord(*_UNLABELED_FIELDS(r), UNLABELED, None)
                 for r in records)


# ---------------------------------------------------------------------------
# feature codec


@dataclass(frozen=True)
class FeatureCodec:
    """Deterministic flow-feature encoder fitted on a training split.

    Vector layout: [z-scored numerics | protocol one-hot | 8 flag bits].
    Standard deviations are clamped to >= 1e-8 at fit time.
    """

    numeric_features: tuple[str, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    protocol_vocab: tuple[int, ...]

    @property
    def feature_dim(self) -> int:
        return len(self.numeric_features) + len(self.protocol_vocab) + 8

    def to_json(self) -> str:
        payload = {
            "numeric_features": list(self.numeric_features),
            "means": [float(m).hex() for m in self.means],
            "stds": [float(s).hex() for s in self.stds],
            "protocol_vocab": list(self.protocol_vocab),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FeatureCodec":
        payload = json.loads(text)
        return cls(
            numeric_features=tuple(payload["numeric_features"]),
            means=tuple(float.fromhex(m) for m in payload["means"]),
            stds=tuple(float.fromhex(s) for s in payload["stds"]),
            protocol_vocab=tuple(int(p) for p in payload["protocol_vocab"]),
        )

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def fit_codec(records: Sequence[FlowRecord]) -> FeatureCodec:
    """Fit means/stds (population) and the protocol vocabulary on a split."""
    if not records:
        raise ValueError("cannot fit codec on empty split")
    columns = np.array([[float(getattr(r, f)) for f in NUMERIC_FEATURES]
                        for r in records])
    means = columns.mean(axis=0)
    stds = np.maximum(columns.std(axis=0), 1e-8)
    protocols = tuple(sorted({r.protocol for r in records}))
    return FeatureCodec(NUMERIC_FEATURES, tuple(means), tuple(stds), protocols)


def encode_flows(records: Sequence[FlowRecord],
                 codec: FeatureCodec) -> np.ndarray:
    """One feature row per record, in record order. A protocol absent from
    the vocabulary encodes as an all-zero one-hot block (no error)."""
    out = np.zeros((len(records), codec.feature_dim))
    if not records:
        return out
    base = len(codec.numeric_features)
    if base:
        numeric = np.array(list(map(attrgetter(*codec.numeric_features),
                                    records)), dtype=np.float64)
        out[:, :base] = (numeric.reshape(len(records), base)
                         - np.array(codec.means)) / np.array(codec.stds)
    slot: dict[int, int] = {}
    for i, protocol in enumerate(codec.protocol_vocab):
        slot.setdefault(protocol, i)
    column = np.array([slot.get(r.protocol, -1) for r in records],
                      dtype=np.int64)
    known = np.flatnonzero(column >= 0)
    out[known, base + column[known]] = 1.0
    base += len(codec.protocol_vocab)
    flags = np.array([r.tcp_flags for r in records], dtype=np.int64)
    out[:, base:base + 8] = (flags[:, None] >> np.arange(8)) & 1
    return out


# ---------------------------------------------------------------------------
# binary flow cache ("PPTF")
#
# Little-endian layout (see docs/flow-cache-format.md):
#   magic "PPTF" | u32 version | u64 record count
#   u32 key count  | key table:  per key  u16 length + UTF-8 bytes
#   u32 name count | name table: per name u16 length + UTF-8 bytes
#   record count x 86-byte records (struct format below); endpoint keys and
#   attack names are table indices, 0xFFFFFFFF meaning "no attack name".

CACHE_MAGIC = b"PPTF"
CACHE_VERSION = 1
_RECORD_FMT = "<QddIIHHBBqqqqdiI"
_RECORD_SIZE = struct.calcsize(_RECORD_FMT)
_NO_NAME = 0xFFFFFFFF


def _write_table(out: list[bytes], entries: Sequence[str]) -> None:
    out.append(struct.pack("<I", len(entries)))
    for entry in entries:
        raw = entry.encode("utf-8")
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)


def write_flow_cache(records: Sequence[FlowRecord], path: str | Path) -> None:
    keys: dict[str, int] = {}
    names: dict[str, int] = {}
    for r in records:
        for key in (r.src_ip, r.dst_ip):
            if key not in keys:
                keys[key] = len(keys)
        if r.attack_name is not None and r.attack_name not in names:
            names[r.attack_name] = len(names)

    out: list[bytes] = [CACHE_MAGIC, struct.pack("<I", CACHE_VERSION),
                        struct.pack("<Q", len(records))]
    _write_table(out, list(keys))
    _write_table(out, list(names))
    for r in records:
        out.append(struct.pack(
            _RECORD_FMT, r.flow_id, r.start_time, r.end_time,
            keys[r.src_ip], keys[r.dst_ip], r.src_port, r.dst_port,
            r.protocol, r.tcp_flags, r.in_bytes, r.out_bytes,
            r.in_pkts, r.out_pkts, r.duration, r.label,
            _NO_NAME if r.attack_name is None else names[r.attack_name]))
    Path(path).write_bytes(b"".join(out))


class ByteReader:
    """Bounded reads over a whole binary file. Reading past its end, or
    `finish` with bytes left over, raises FormatError naming the offset."""

    def __init__(self, path: str | Path, kind: str):
        self.path, self.kind, self.offset = path, kind, 0
        self.buf = memoryview(Path(path).read_bytes())

    def take(self, size: int) -> memoryview:
        if self.offset + size > len(self.buf):
            raise FormatError(f"{self.path}: truncated {self.kind}: {size} "
                             f"bytes needed at offset {self.offset}, file "
                             f"ends at {len(self.buf)}")
        self.offset += size
        return self.buf[self.offset - size:self.offset]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, size: int) -> str:
        """The next `size` bytes decoded as UTF-8; invalid UTF-8 raises
        FormatError naming the offset of the first bad byte."""
        start = self.offset
        try:
            return str(self.take(size), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: invalid UTF-8 in {self.kind} at "
                             f"offset {start + exc.start}") from None

    def finish(self) -> None:
        if self.offset != len(self.buf):
            raise FormatError(f"{self.path}: {len(self.buf) - self.offset} "
                             f"trailing bytes after offset {self.offset}")


def _read_table(reader: ByteReader) -> list[str]:
    (count,) = reader.unpack("<I")
    return [reader.text(reader.unpack("<H")[0]) for _ in range(count)]


def read_flow_cache(path: str | Path) -> tuple[FlowRecord, ...]:
    """Inverse of `write_flow_cache`. A file that ends early, has invalid
    UTF-8 in a key or attack name, has bytes after the last record, or has a
    record naming a key or attack name beyond its table raises FormatError
    with the byte offset."""
    reader = ByteReader(path, "flow cache")
    if reader.take(4) != CACHE_MAGIC:
        raise FormatError(f"{path}: not a flow cache (bad magic)")
    (version,) = reader.unpack("<I")
    if version != CACHE_VERSION:
        raise FormatError(f"{path}: unsupported cache version {version}")
    (count,) = reader.unpack("<Q")
    keys = _read_table(reader)
    names = _read_table(reader)
    start = reader.offset
    block = reader.take(count * _RECORD_SIZE)
    reader.finish()
    records = []
    for i, (flow_id, start_time, end, src_k, dst_k, sport, dport, proto, flags,
            in_b, out_b, in_p, out_p, duration, label, name_idx) in \
            enumerate(struct.iter_unpack(_RECORD_FMT, block)):
        try:
            records.append(FlowRecord(
                flow_id=flow_id, start_time=start_time, end_time=end,
                src_ip=keys[src_k], dst_ip=keys[dst_k],
                src_port=sport, dst_port=dport, protocol=proto,
                in_bytes=in_b, out_bytes=out_b, in_pkts=in_p, out_pkts=out_p,
                tcp_flags=flags, duration=duration, label=label,
                attack_name=None if name_idx == _NO_NAME else names[name_idx]))
        except IndexError:
            raise FormatError(f"{path}: record at offset "
                             f"{start + i * _RECORD_SIZE} names a key or "
                             f"attack name beyond its table") from None
    return tuple(records)
