"""Hierarchical spatio-temporal GNN over windowed flow graphs.

Each layer runs a temporal node-update step over the four temporal edge
types (same-source / same-destination intra-window chains, inter-window IP
and flow recurrences) followed by a spatial step over the four bipartite
flow<->IP edge types. Per edge type e, a destination node v with at least
one incoming e-edge receives

    W1_e @ h_v + W2_e @ agg({h_u : u -> v via e})

and the per-type results are summed across edge types before the
non-linearity. Nodes untouched by a step pass through unchanged. Final
target-window flow states feed a small MLP classifier.

Each step runs on a per-graph plan that `prepare_graph` builds once. The
classifier reads only the target window's rows, so the plan is built back
from them: the last step keeps only the edges into the rows read after it,
those edges' sources join the read set of the step before, and so on; a
step whose read set covers every destination of its phase runs the
unrestricted plan. Rows outside a step's read set are left stale, as no
later step reads them. Pre-training scores edges on every node, so it plans
a read of every row, and every step is unrestricted.

Within a step, an edge type that gives every destination row exactly one
in-edge has that source state as its aggregate under every aggregator, so
its W2 product is taken once per distinct source and copied to the
destination rows; every other type sums (or maxes) its in-neighbour states
with a sparse operator and takes W2 on its destination rows. W1 is taken on
destination rows. One sparse placement operator then sums each touched
row's per-type terms in edge-type order, and the activated sums replace the
touched rows. Each row's arithmetic is the same whichever rows the step
keeps, so the target logits are bitwise those of the unrestricted plan.
"""

from __future__ import annotations

import json
import math
import struct
import typing
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from . import tensor as T
from .ingest import ByteReader, FeatureCodec, FormatError, LabelVocabulary
from .tensor import Tensor
from .windows import (GraphBuildConfig, INTER_EDGE_TYPES, INTRA_EDGE_TYPES,
                      SPATIAL_EDGE_TYPES, TEMPORAL_EDGE_TYPES, TemporalGraph,
                      cyclical_encode)

if typing.TYPE_CHECKING:
    from scipy import sparse

NEIGHBOR_AGGREGATORS = ("sum", "mean", "max")


class CompatibilityError(ValueError):
    """Checkpoint tensors or metadata do not match the requested setup."""


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int
    num_layers: int = 2
    hidden_size: int = 128
    classifier_layers: int = 2
    classifier_hidden: int = 128
    neighbor_aggregator: str = "mean"
    activation: str = "leaky_relu"

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        for name in ("num_layers", "hidden_size", "classifier_layers",
                     "classifier_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.neighbor_aggregator not in NEIGHBOR_AGGREGATORS:
            raise ValueError(f"neighbor_aggregator must be one of "
                             f"{NEIGHBOR_AGGREGATORS}")
        if self.activation not in T.ACTIVATIONS:
            raise ValueError(f"activation must be one of "
                             f"{tuple(T.ACTIVATIONS)}")


# ---------------------------------------------------------------------------
# graph -> dense arrays


def _sum_matrix(row: np.ndarray, col: np.ndarray, shape) -> sparse.csr_array:
    """CSR matrix with one entry 1 at (row[e], col[e]) per edge e; each row
    keeps its entries in edge order, so it sums them in that order."""
    # imported on first use: it doubles the import time of this module, and
    # commands that build no graph (ingest) do not need it
    from scipy import sparse

    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=shape[0]), out=indptr[1:])
    # numpy's stable sort is a radix sort for 16-bit keys, several times
    # faster than its merge sort of int64 keys
    key = row.astype(np.uint16) if shape[0] <= 1 << 16 else row
    return sparse.csr_array((np.ones(len(row)),
                             col[np.argsort(key, kind="stable")], indptr),
                            shape=shape)


@dataclass(frozen=True)
class SparseOperator:
    """A constant 0/1 sparse operator for `T.spmm`, with one entry at
    (row[e], col[e]) per index e.

    `matrix` is its (m, n) CSR matrix and `transpose` the (n, m) CSR
    matrix of its transpose, each row holding its entries in index order,
    so both the forward product and the backward one sum each row in that
    order. Only the backward pass reads `transpose`, so it is built on
    first use, and a forward-only pass builds none.
    """

    row: np.ndarray
    col: np.ndarray
    shape: tuple[int, int]
    matrix: sparse.csr_array = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           _sum_matrix(self.row, self.col, self.shape))

    @cached_property
    def transpose(self) -> sparse.csr_array:
        return _sum_matrix(self.col, self.row, self.shape[::-1])


@dataclass(frozen=True)
class EdgeOperator(SparseOperator):
    """Sum aggregation over one edge type's edges, for `T.spmm`: edge e
    runs from node col[e] to node rows[row[e]], so row i of `matrix` sums
    the states of the in-neighbours of node rows[i], in edge order."""

    rows: np.ndarray            # sorted distinct destination rows
    degree: np.ndarray          # in-degree of each row, float64

    @cached_property
    def gather(self) -> SparseOperator:
        """The source state of every edge, in edge order, for `max`."""
        return row_gather(self.col, self.shape[1])


def row_gather(idx: np.ndarray, num_rows: int) -> SparseOperator:
    """Row gather `x[idx]` as `T.spmm(gather, x)`: a (len(idx), num_rows)
    one-hot matrix; its transpose sums the gradient rows of a repeated
    index in index order."""
    return SparseOperator(np.arange(len(idx)), idx, (len(idx), num_rows))


def row_place(slot: np.ndarray, num_rows: int) -> SparseOperator:
    """Row i of x summed into row slot[i] of a (num_rows, d) result, each
    row in index order, as `T.spmm(place, x)`: the transpose of
    `row_gather(slot, num_rows)`."""
    return SparseOperator(slot, np.arange(len(slot)), (num_rows, len(slot)))


def _distinct(rows: np.ndarray, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(rows, return_inverse=True)` for node rows below
    `num_nodes`, by marking them instead of sorting."""
    present = np.zeros(num_nodes, dtype=bool)
    present[rows] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[rows]


def _edge_operator(src: np.ndarray, rows: np.ndarray, slot: np.ndarray,
                   num_nodes: int) -> EdgeOperator:
    """The `EdgeOperator` of edges src[e] -> rows[slot[e]]."""
    return EdgeOperator(slot, src, (len(rows), num_nodes), rows,
                        np.bincount(slot, minlength=len(rows)).astype(np.float64))


@dataclass(frozen=True)
class SourceProjection:
    """The neighbour input of an edge type that gives each destination row
    exactly one in-edge. Its aggregate is that edge's source state under
    every aggregator, so W2 multiplies the states of `sources` once and
    `spread`, a one-hot gather, copies the products to the destination
    rows."""

    rows: np.ndarray            # sorted distinct destination rows
    sources: np.ndarray         # sorted distinct source rows
    spread: SparseOperator


def neighbour_operator(src: np.ndarray, dst: np.ndarray, num_nodes: int) \
        -> EdgeOperator | SourceProjection:
    """A `SourceProjection` when no destination repeats, else the type's
    `EdgeOperator`."""
    rows, slot = _distinct(dst, num_nodes)
    if len(rows) < len(dst):
        return _edge_operator(src, rows, slot, num_nodes)
    by_row = np.empty_like(src)
    by_row[slot] = src
    sources, spread = _distinct(by_row, num_nodes)
    return SourceProjection(rows, sources, row_gather(spread, len(sources)))


@dataclass(frozen=True)
class StepPlan:
    """One message-passing step: its edge types with at least one edge, in
    phase order, with each type's (src, dst) edges and their
    `neighbour_operator`; the sorted distinct rows they reach; and the
    operator that sums the stacked per-type terms (each type's rows in the
    order of its operator's `rows`) into those rows in edge-type order."""

    etypes: tuple[str, ...]
    edges: tuple                # per type, its (src rows, dst rows)
    operators: tuple            # per type, EdgeOperator | SourceProjection
    rows: np.ndarray
    place: SparseOperator


PHASES = {"temporal": TEMPORAL_EDGE_TYPES, "spatial": SPATIAL_EDGE_TYPES}


def step_plan(edges: Mapping[str, tuple[np.ndarray, np.ndarray]],
              num_nodes: int) -> StepPlan:
    """The `StepPlan` of one phase's (src, dst) edges, by edge type."""
    etypes = tuple(e for e, (src, _) in edges.items() if len(src))
    operators = tuple(neighbour_operator(*edges[e], num_nodes) for e in etypes)
    term_rows = np.concatenate([op.rows for op in operators]
                               + [np.zeros(0, np.int64)])
    rows, slot = _distinct(term_rows, num_nodes)
    return StepPlan(etypes, tuple(edges[e] for e in etypes), operators, rows,
                    row_place(slot, len(rows)))


@dataclass(frozen=True)
class MessagePlan:
    """The `StepPlan` of every message-passing step of one graph.

    A step's read set, the rows of its input that it or a later step reads,
    depends only on the steps after it, so a plan for the target rows runs
    back from the last layer: `last[j][phase]` is the plan of that phase in
    the layer j places before the last. A plan for a read of every row has
    no `last` layers, and every layer runs `rest`, the unrestricted
    per-phase plans.
    """

    last: tuple[dict[str, StepPlan], ...]
    rest: dict[str, StepPlan] | None

    def step(self, back: int, phase: str) -> StepPlan:
        """The plan of `phase` in the layer `back` places before the last."""
        if back < len(self.last):
            return self.last[back][phase]
        if self.rest is None:
            raise ValueError(f"the message plan covers the last "
                             f"{len(self.last)} layers only, not "
                             f"{back + 1}")
        return self.rest[phase]


def message_plan(edges: Mapping[str, tuple[np.ndarray, np.ndarray]],
                 num_nodes: int, target_rows: np.ndarray | None = None,
                 num_layers: int | None = None) -> MessagePlan:
    """The plan of a model whose output reads `target_rows` after the last
    of its `num_layers` layers; of a read of every row, with every step
    unrestricted, when `num_layers` is None.

    Going back from the output, each step keeps the edges whose destination
    is in the read set, and their sources join the read set of the step
    before. A step whose read set covers every destination of its phase
    runs the unrestricted plan, built once per phase and only when a step
    runs it.
    """
    full: dict[str, StepPlan] = {}

    def unrestricted(phase):
        if phase not in full:
            full[phase] = step_plan({e: edges[e] for e in PHASES[phase]},
                                    num_nodes)
        return full[phase]

    if num_layers is None:
        return MessagePlan((), {phase: unrestricted(phase) for phase in PHASES})
    read = np.zeros(num_nodes, dtype=bool)
    read[target_rows] = True
    last = []
    for _ in range(num_layers):
        layer = {}
        for phase in reversed(PHASES):     # spatial runs last in a layer
            keep = {e: read[edges[e][1]] for e in PHASES[phase]}
            if all(k.all() for k in keep.values()):
                layer[phase] = unrestricted(phase)
            else:
                layer[phase] = step_plan({e: (edges[e][0][k], edges[e][1][k])
                                          for e, k in keep.items()}, num_nodes)
            for src, _ in layer[phase].edges:
                read[src] = True
        last.append(layer)
    return MessagePlan(tuple(last), None)


@dataclass(frozen=True)
class GraphArrays:
    """A TemporalGraph flattened to global node indices and edge arrays,
    with the message-passing plan of `message_plan`.

    Flow nodes occupy rows [0, n_flows), IP nodes [n_flows, n_flows+n_ips),
    each kind window by window: the nodes of kind k in window w are rows
    [window_bounds[k][w], window_bounds[k][w + 1]). Pure function of
    (graph, graph config, planned layers); prepare once, reuse per epoch.
    """

    n_flows: int
    n_ips: int
    flow_input: np.ndarray      # features || flow cyclical encoding
    ip_input: np.ndarray        # ones || window cyclical encoding
    edges: dict                 # edge type -> (src rows, dst rows)
    plan: MessagePlan
    window_bounds: dict         # node kind -> first row of each window, end row
    target_rows: np.ndarray
    target_flow_ids: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return self.n_flows + self.n_ips


# (source, destination) node kind of each edge type
ENDPOINT_KINDS = {"flow_to_src": ("flow", "ip"), "src_to_flow": ("ip", "flow"),
                  "flow_to_dst": ("flow", "ip"), "dst_to_flow": ("ip", "flow"),
                  "intra_src": ("flow", "flow"), "intra_dst": ("flow", "flow"),
                  "inter_ip": ("ip", "ip"), "inter_flow": ("flow", "flow")}


def prepare_graph(graph: TemporalGraph, graph_config: GraphBuildConfig,
                  num_layers: int | None = None) -> GraphArrays:
    """Flatten `graph` and plan its message passing: for the classifier's
    read of the target rows through `num_layers` layers, or for a read of
    every row when `num_layers` is None (pre-training scores every edge)."""
    snaps = graph.snapshots
    flow_bounds = np.cumsum([0] + [s.num_flows for s in snaps], dtype=np.int64)
    n_flows = int(flow_bounds[-1])
    ip_bounds = np.cumsum([n_flows] + [s.num_ips for s in snaps],
                          dtype=np.int64)
    n_ips = int(ip_bounds[-1]) - n_flows
    bounds = {"flow": flow_bounds, "ip": ip_bounds}

    flow_input = np.concatenate([s.flow_input for s in snaps]) if n_flows \
        else np.zeros((0, graph_config.flow_encoding_dim))
    target_global = graph.target.window_index
    ip_input = np.concatenate([
        np.tile(np.concatenate([[1.0], cyclical_encode(
            target_global - s.window_index, graph_config.window_memory,
            graph_config.window_encoding_dim)]), (s.num_ips, 1))
        for s in snaps])

    edges: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for etype in SPATIAL_EDGE_TYPES + INTRA_EDGE_TYPES:
        blocks = [getattr(s, etype) for s in snaps]
        counts = [len(b) for b in blocks]
        pairs = np.concatenate(blocks)
        edges[etype] = tuple(
            pairs[:, side] + np.repeat(bounds[kind][:-1], counts)
            for side, kind in enumerate(ENDPOINT_KINDS[etype]))
    for etype in INTER_EDGE_TYPES:
        first = bounds[ENDPOINT_KINDS[etype][0]]
        a, i, b, j = getattr(graph, f"{etype}_edges").reshape(-1, 4).T
        edges[etype] = (first[a] + i, first[b] + j)

    target_rows = flow_bounds[graph.target_index] + np.arange(
        graph.target.num_flows, dtype=np.int64)
    return GraphArrays(
        n_flows=n_flows, n_ips=n_ips,
        flow_input=flow_input, ip_input=ip_input, edges=edges,
        plan=message_plan(edges, n_flows + n_ips, target_rows, num_layers),
        window_bounds=bounds,
        target_rows=target_rows,
        target_flow_ids=tuple(graph.target.flow_ids.tolist()),
    )


# ---------------------------------------------------------------------------
# parameters


def _glorot(rng: T.Rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def _linear_params(rng: T.Rng, name: str, fan_in: int, fan_out: int,
                   params: dict) -> None:
    params[f"{name}.W"] = Tensor(_glorot(rng, fan_in, fan_out))
    params[f"{name}.b"] = Tensor(np.zeros(fan_out))


def classifier_dims(config: ModelConfig) -> list[tuple[int, int]]:
    dims = [config.hidden_size] + \
        [config.classifier_hidden] * (config.classifier_layers - 1) + \
        [config.num_classes]
    return list(zip(dims[:-1], dims[1:]))


def init_params(model_config: ModelConfig, feature_dim: int,
                graph_config: GraphBuildConfig, rng: T.Rng) -> dict[str, Tensor]:
    """Fresh ParameterSet with the stable naming scheme
    layer{k}.{temporal|spatial}.{edge_type}.{W1|W2} used for transfer."""
    h = model_config.hidden_size
    params: dict[str, Tensor] = {}
    _linear_params(rng.child("encoder.flow"), "encoder.flow",
                   feature_dim + graph_config.flow_encoding_dim, h, params)
    _linear_params(rng.child("encoder.ip"), "encoder.ip",
                   1 + graph_config.window_encoding_dim, h, params)
    for k in range(model_config.num_layers):
        for phase, etypes in PHASES.items():
            for etype in etypes:
                base = f"layer{k}.{phase}.{etype}"
                r = rng.child(base)
                params[f"{base}.W1"] = Tensor(_glorot(r.child("W1"), h, h))
                params[f"{base}.W2"] = Tensor(_glorot(r.child("W2"), h, h))
    for i, (fan_in, fan_out) in enumerate(classifier_dims(model_config)):
        _linear_params(rng.child(f"classifier.{i}"), f"classifier.{i}",
                       fan_in, fan_out, params)
    return params


def trunk_names(params: Mapping[str, Tensor]) -> list[str]:
    """Encoder and message-passing tensors (shared between task heads)."""
    return [n for n in params if n.startswith(("encoder.", "layer"))]


def copy_params(params: Mapping[str, Tensor]) -> dict[str, Tensor]:
    return {name: Tensor(p.data.copy()) for name, p in params.items()}


# ---------------------------------------------------------------------------
# forward


def init_node_states(arrays: GraphArrays, params: Mapping[str, Tensor],
                     model_config: ModelConfig) -> Tensor:
    """Encode raw node inputs into hidden_size states for all nodes."""
    act = T.ACTIVATIONS[model_config.activation]
    hidden = params["encoder.flow.W"].data.shape[1]
    if arrays.n_flows > 0:
        enc_in = params["encoder.flow.W"].data.shape[0]
        if arrays.flow_input.shape[1] != enc_in:
            raise ValueError(f"flow encoder expects input dim {enc_in}, "
                             f"graph provides {arrays.flow_input.shape[1]}")
        flow_h = act(T.add(T.matmul(Tensor(arrays.flow_input),
                                    params["encoder.flow.W"]),
                           params["encoder.flow.b"]))
    else:
        flow_h = Tensor(np.zeros((0, hidden)))
    if arrays.n_ips > 0:
        ip_h = act(T.add(T.matmul(Tensor(arrays.ip_input),
                                  params["encoder.ip.W"]),
                         params["encoder.ip.b"]))
    else:
        ip_h = Tensor(np.zeros((0, hidden)))
    return T.concat_rows([flow_h, ip_h])


def _aggregate(states: Tensor, op: EdgeOperator, aggregator: str) -> Tensor:
    """In-neighbour states aggregated per destination row of `op`."""
    if aggregator == "max":
        return T.segment_max(T.spmm(op.gather, states), op.row, len(op.rows))
    total = T.spmm(op, states)
    return total if aggregator == "sum" else T.div_const(total, op.degree[:, None])


def _neighbour_term(states: Tensor, op, w2: Tensor, aggregator: str) -> Tensor:
    """The aggregated in-neighbour states of `op.rows` times W2."""
    if isinstance(op, SourceProjection):
        return T.spmm(op.spread, T.matmul(T.take_rows(states, op.sources), w2))
    return T.matmul(_aggregate(states, op, aggregator), w2)


def _hetero_step(states: Tensor, arrays: GraphArrays,
                 params: Mapping[str, Tensor], layer: int, phase: str,
                 config: ModelConfig) -> Tensor:
    plan = arrays.plan.step(config.num_layers - 1 - layer, phase)
    if not plan.etypes:
        return states
    terms = []
    for etype, op in zip(plan.etypes, plan.operators):
        base = f"layer{layer}.{phase}.{etype}"
        terms.append((T.take_rows(states, op.rows), params[f"{base}.W1"],
                      _neighbour_term(states, op, params[f"{base}.W2"],
                                      config.neighbor_aggregator)))
    act = T.ACTIVATIONS[config.activation]
    return T.replace_rows(states, plan.rows,
                          act(T.spmm(plan.place, T.stack_affine(terms))))


def temporal_step(states: Tensor, arrays: GraphArrays,
                  params: Mapping[str, Tensor], layer: int,
                  config: ModelConfig) -> Tensor:
    """Temporal node update; nodes with no incoming temporal edge of any
    type pass through unchanged."""
    return _hetero_step(states, arrays, params, layer, "temporal", config)


def spatial_step(states: Tensor, arrays: GraphArrays,
                 params: Mapping[str, Tensor], layer: int,
                 config: ModelConfig) -> Tensor:
    """Spatial node update over the four flow<->IP edge types, consuming
    the states produced by the temporal step of the same layer."""
    return _hetero_step(states, arrays, params, layer, "spatial", config)


def classify(states: Tensor, rows: np.ndarray, params: Mapping[str, Tensor],
             config: ModelConfig) -> Tensor:
    """Classifier logits of the distinct node `rows`."""
    act = T.ACTIVATIONS[config.activation]
    x = T.take_rows(states, rows)
    n_layers = len(classifier_dims(config))
    for i in range(n_layers):
        x = T.add(T.matmul(x, params[f"classifier.{i}.W"]),
                  params[f"classifier.{i}.b"])
        if i < n_layers - 1:
            x = act(x)
    return x


def final_states(arrays: GraphArrays, params: Mapping[str, Tensor],
                 config: ModelConfig) -> Tensor:
    """Node states after stacked (temporal, spatial) layers; temporal
    always runs first in a layer. Under a plan for the target rows only
    those rows are final; the plan leaves the others stale."""
    states = init_node_states(arrays, params, config)
    for k in range(config.num_layers):
        states = temporal_step(states, arrays, params, k, config)
        states = spatial_step(states, arrays, params, k, config)
    return states


def forward_prepared(arrays: GraphArrays, params: Mapping[str, Tensor],
                     config: ModelConfig) -> tuple[tuple[int, ...], Tensor]:
    """Classifier logits over the target window's final flow states."""
    return arrays.target_flow_ids, classify(
        final_states(arrays, params, config), arrays.target_rows, params,
        config)


def forward(graph: TemporalGraph, params: Mapping[str, Tensor],
            model_config: ModelConfig,
            graph_config: GraphBuildConfig) -> tuple[tuple[int, ...], Tensor]:
    """Per-flow logits, (flow_id, ...) aligned with logits rows, for the
    target window only."""
    return forward_prepared(
        prepare_graph(graph, graph_config, model_config.num_layers), params,
        model_config)


# ---------------------------------------------------------------------------
# checkpoints ("PPTG"; see docs/checkpoint-format.md)

CHECKPOINT_MAGIC = b"PPTG"
CHECKPOINT_VERSION = 1
_DTYPE_F64 = 0


def metadata_text(metadata: Mapping[str, str]) -> str:
    lines = []
    for key in sorted(metadata):
        value = metadata[key]
        if "\n" in value:
            raise ValueError(f"metadata value for {key!r} contains a newline")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def parse_metadata(text: str) -> dict[str, str]:
    meta = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition(" = ")
        meta[key] = value
    return meta


def _config_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def parse_config_text(key: str, text: str, kind):
    """The value of config `key` from its text, by its declared type `kind`;
    a `ValueError` names the key."""
    if kind is bool:
        if text.lower() not in ("true", "false"):
            raise ValueError(f"{key} must be true or false, got {text!r}")
        return text.lower() == "true"
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(parse_config_text(key, x.strip(), item)
                     for x in text.split(",") if x.strip())
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{key} must be {kind.__name__}, got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {text!r}")
    return value


def config_items(prefix: str, cfg) -> dict[str, str]:
    """One `prefix.field: text` item per field of a config dataclass; the
    form of config values in config files and checkpoint metadata."""
    return {f"{prefix}.{f.name}": _config_text(getattr(cfg, f.name))
            for f in fields(cfg)}


def config_from_items(cls, prefix: str, items: Mapping[str, str], **given):
    """Inverse of `config_items`: each field not in `given` is parsed from
    its `prefix.field` item by its declared type. Other items are ignored;
    a missing one raises CompatibilityError naming the key. A range check
    of `cls` (its message starts with the field name) gets `prefix.`."""
    hints = typing.get_type_hints(cls)
    values = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        key = f"{prefix}.{f.name}"
        if key not in items:
            raise CompatibilityError(f"missing config key {key!r}")
        values[f.name] = parse_config_text(key, items[key], hints[f.name])
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{prefix}.{exc}") from None


def save_checkpoint(params: Mapping[str, Tensor], metadata: Mapping[str, str],
                    path: str | Path) -> None:
    """Bit-exact round trip: little-endian magic, version, length-prefixed
    canonical metadata text, then named tensors sorted by name."""
    meta_raw = metadata_text(metadata).encode("utf-8")
    out = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
           struct.pack("<Q", len(meta_raw)), meta_raw,
           struct.pack("<I", len(params))]
    for name in sorted(params):
        data = params[name].data
        raw_name = name.encode("utf-8")
        out.append(struct.pack("<H", len(raw_name)))
        out.append(raw_name)
        out.append(struct.pack("<BB", _DTYPE_F64, data.ndim))
        out.append(struct.pack(f"<{data.ndim}Q", *data.shape))
        out.append(np.ascontiguousarray(data, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(out))


def load_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], dict[str, str]]:
    """Inverse of `save_checkpoint`. A file that ends early, has a length
    field pointing past its end, invalid UTF-8 in its metadata or a tensor
    name, or bytes after the last tensor raises FormatError with the byte
    offset."""
    reader = ByteReader(path, "checkpoint")
    if reader.take(4) != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    (version,) = reader.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,) = reader.unpack("<Q")
    metadata = parse_metadata(reader.text(meta_len))
    (count,) = reader.unpack("<I")
    params: dict[str, Tensor] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len)
        dtype, rank = reader.unpack("<BB")
        if dtype != _DTYPE_F64:
            raise FormatError(f"{path}: unknown dtype tag {dtype} for {name!r}")
        dims = reader.unpack(f"<{rank}Q")
        data = np.frombuffer(reader.take(8 * math.prod(dims)), dtype="<f8")
        params[name] = Tensor(data.reshape(dims).copy())
    reader.finish()
    return params, metadata


def build_metadata(model_config: ModelConfig, graph_config: GraphBuildConfig,
                   codec: FeatureCodec, vocab: LabelVocabulary,
                   extra: Mapping[str, str] | None = None) -> dict[str, str]:
    meta = {
        "format": "flowgnn-checkpoint",
        **config_items("model", model_config),
        **config_items("graph", graph_config),
        "codec.hash": codec.digest(),
        "codec.json": codec.to_json(),
        "vocab.classes": json.dumps(list(vocab.classes)),
    }
    if extra:
        meta.update(extra)
    return meta


def configs_from_metadata(meta: Mapping[str, str]) \
        -> tuple[ModelConfig, GraphBuildConfig, FeatureCodec, LabelVocabulary]:
    """Configs, codec and vocabulary recorded in checkpoint metadata. A
    missing key or a malformed value raises CompatibilityError naming it."""
    for key in ("codec.json", "codec.hash", "vocab.classes"):
        if key not in meta:
            raise CompatibilityError(f"missing metadata key {key!r}")
    try:
        model_config = config_from_items(ModelConfig, "model", meta)
        graph_config = config_from_items(GraphBuildConfig, "graph", meta)
    except CompatibilityError:
        raise
    except ValueError as exc:
        raise CompatibilityError(f"checkpoint metadata: {exc}") from exc
    codec = _parse_metadata_value(meta, "codec.json", FeatureCodec.from_json)
    if codec.digest() != meta["codec.hash"]:
        raise CompatibilityError("codec hash mismatch in checkpoint metadata")
    vocab = _parse_metadata_value(
        meta, "vocab.classes",
        lambda text: LabelVocabulary(tuple(json.loads(text))))
    return model_config, graph_config, codec, vocab


def _parse_metadata_value(meta: Mapping[str, str], key: str, parse):
    try:
        return parse(meta[key])
    except (ValueError, KeyError, TypeError) as exc:
        raise CompatibilityError(f"checkpoint metadata: malformed {key!r}: "
                                 f"{exc!r}") from exc
