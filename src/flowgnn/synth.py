"""Synthetic flow datasets with planted, documented generative rules.

Three families, each isolating one signal path of the pipeline:

* feature_pattern  -- labels follow a flow feature (byte volume); topology
  is random noise. A flat per-flow classifier should match the graph model.
* topology_pattern -- labels follow graph structure (one high-fanout source
  per window); all per-flow features are drawn from a single distribution,
  so a flat classifier is at chance while spatial message passing is not.
* temporal_pattern -- labels follow a flow's position inside a same-source
  burst (late half vs early half); features are noise and bursts from
  different sources interleave inside each window, so only the ordered
  intra-window chains carry the signal reliably.

All generators are fully deterministic per seed and return records sorted
by (start_time, flow_id) with both `label` and `attack_name` populated.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .ingest import BENIGN_NAME, FlowRecord
from .tensor import Rng

#: canonical field -> CSV column mapping used by the exported datasets
CSV_SCHEMA = {
    "start_time": "start", "end_time": "end", "src_ip": "src",
    "dst_ip": "dst", "src_port": "sport", "dst_port": "dport",
    "protocol": "proto", "in_bytes": "in_bytes", "out_bytes": "out_bytes",
    "in_pkts": "in_pkts", "out_pkts": "out_pkts", "tcp_flags": "flags",
    "attack_name": "attack",
}


def _sorted_with_ids(rows: list[dict]) -> tuple[FlowRecord, ...]:
    rows.sort(key=lambda r: (r["start_time"], r["src_ip"], r["dst_ip"],
                             r["src_port"]))
    return tuple(FlowRecord(flow_id=i, **row) for i, row in enumerate(rows))


def _noise_fields(rng: Rng) -> dict:
    """Feature fields drawn identically for every class (pure noise)."""
    return {
        "src_port": int(rng.integers(1024, 65536)),
        "dst_port": int(rng.integers(1, 1024)),
        "protocol": 6,
        "in_bytes": int(rng.integers(200, 2000)),
        "out_bytes": int(rng.integers(100, 1000)),
        "in_pkts": int(rng.integers(1, 20)),
        "out_pkts": int(rng.integers(1, 20)),
        "tcp_flags": int(rng.integers(0, 256)),
    }


def feature_pattern(n_flows: int = 200, seed: int = 0,
                    window_size: float = 5.0,
                    attack_fraction: float = 0.5) -> tuple[FlowRecord, ...]:
    """Linearly separable by volume: attack flows move ~8x more bytes.

    Arrivals are uniform at ~3 flows/s over a small random topology, so
    graph structure carries no label information.
    """
    rng = Rng(seed).child("feature")
    hosts = [f"h{i}" for i in range(8)]
    rows = []
    for i in range(n_flows):
        is_attack = rng.uniform(0.0, 1.0) < attack_fraction
        start = i * 0.33 + float(rng.uniform(0.0, 0.05))
        duration = float(rng.uniform(0.02, 0.2))
        src = hosts[int(rng.integers(0, len(hosts)))]
        dst = hosts[int(rng.integers(0, len(hosts) - 1))]
        if dst == src:
            dst = hosts[-1]
        base = _noise_fields(rng)
        base["in_bytes"] = int(rng.integers(6000, 8000)) if is_attack \
            else int(rng.integers(400, 1200))
        rows.append(dict(
            start_time=start, end_time=start + duration, src_ip=src,
            dst_ip=dst, duration=duration,
            label=1 if is_attack else 0,
            attack_name="Exfil" if is_attack else BENIGN_NAME,
            **base))
    return _sorted_with_ids(rows)


def topology_pattern(n_windows: int = 30, seed: int = 0,
                     window_size: float = 5.0) -> tuple[FlowRecord, ...]:
    """One scanner per window fans out to many destinations; its flows are
    the attack class. Every feature field is class-independent noise."""
    rng = Rng(seed).child("topology")
    hosts = [f"h{i}" for i in range(16)]
    rows = []
    for w in range(n_windows):
        w_start = w * window_size
        scanner = hosts[int(rng.integers(0, len(hosts)))]
        n_scan = int(rng.integers(8, 13))
        for _ in range(n_scan):
            start = w_start + float(rng.uniform(0.1, window_size - 0.3))
            duration = float(rng.uniform(0.01, 0.1))
            dst = hosts[int(rng.integers(0, len(hosts)))]
            rows.append(dict(start_time=start, end_time=start + duration,
                             src_ip=scanner, dst_ip=dst, duration=duration,
                             label=1, attack_name="Scan",
                             **_noise_fields(rng)))
        for _ in range(int(rng.integers(6, 10))):
            src = hosts[int(rng.integers(0, len(hosts)))]
            if src == scanner:
                continue
            start = w_start + float(rng.uniform(0.1, window_size - 0.3))
            duration = float(rng.uniform(0.01, 0.1))
            dst = hosts[int(rng.integers(0, len(hosts)))]
            rows.append(dict(start_time=start, end_time=start + duration,
                             src_ip=src, dst_ip=dst, duration=duration,
                             label=0, attack_name=BENIGN_NAME,
                             **_noise_fields(rng)))
    return _sorted_with_ids(rows)


def temporal_pattern(n_windows: int = 40, sources_per_window: int = 3,
                     burst_len: int = 4, seed: int = 0,
                     window_size: float = 5.0,
                     network: str = "net0") -> tuple[FlowRecord, ...]:
    """Same-source bursts of `burst_len` flows; the late half of each burst
    is the attack class.

    Burst start offsets are random inside the window so bursts from
    different sources interleave, decorrelating a flow's global
    within-window ordinal from its position inside its own burst. The
    `network` tag names a disjoint endpoint universe, giving independent
    datasets for out-of-context pre-training.
    """
    rng = Rng(seed).child(f"temporal:{network}")
    hosts = [f"{network}-h{i}" for i in range(12)]
    gap = 0.3
    span = burst_len * gap
    rows = []
    for w in range(n_windows):
        w_start = w * window_size
        picks = list(rng.permutation(len(hosts))[:sources_per_window])
        for s in picks:
            src = hosts[int(s)]
            offset = float(rng.uniform(0.1, window_size - span - 0.2))
            for p in range(burst_len):
                start = w_start + offset + p * gap + float(rng.uniform(0.0, 0.04))
                duration = float(rng.uniform(0.01, 0.05))
                dst = hosts[int(rng.integers(0, len(hosts)))]
                if dst == src:
                    dst = hosts[(int(s) + 1) % len(hosts)]
                late = p >= burst_len // 2
                rows.append(dict(start_time=start, end_time=start + duration,
                                 src_ip=src, dst_ip=dst, duration=duration,
                                 label=1 if late else 0,
                                 attack_name="LateBurst" if late else BENIGN_NAME,
                                 **_noise_fields(rng)))
    return _sorted_with_ids(rows)


def write_flow_csv(records: Sequence[FlowRecord], path: str | Path) -> Path:
    """Export records as a CSV matching CSV_SCHEMA (for the ingest command).

    The flow_id column is intentionally omitted; ingestion assigns ids
    deterministically from content order.
    """
    path = Path(path)
    header = ",".join(CSV_SCHEMA[f] for f in CSV_SCHEMA)
    lines = [header]
    for r in records:
        lines.append(",".join([
            repr(r.start_time), repr(r.end_time), r.src_ip, r.dst_ip,
            str(r.src_port), str(r.dst_port), str(r.protocol),
            str(r.in_bytes), str(r.out_bytes), str(r.in_pkts),
            str(r.out_pkts), str(r.tcp_flags), r.attack_name or ""]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_schema_file(path: str | Path) -> Path:
    path = Path(path)
    lines = [f"{field} = {column}" for field, column in CSV_SCHEMA.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
