"""Minimal dense numerical substrate: float64 tensors with reverse-mode
gradients over the fixed set of operations the flow-graph model needs
(`add`, `scale`, `div_const`, `matmul`, `stack_affine`, the activations,
`concat_rows`, `take_rows`/`replace_rows` on distinct rows, `spmm`,
`pair_mlp`, `segment_max` and `sum_all`), plus losses, the Adam optimizer
and a seeded RNG.

Everything is numpy under the hood, except that `spmm` multiplies by a
scipy CSR operator the caller builds (a neighbour sum, a one-hot row
gather whose indices may repeat, or its transpose, a row placement), and
`pair_mlp`'s backward pass by two such placements;
gradients are implemented per operation on a small tape (parent links +
backward closures). The forward products of `matmul` and `stack_affine`
give each row the same bits whatever the row count, so a row computed
among fewer rows matches the same row computed among all.

Inside `no_grad()` the tape is off: a new tensor keeps no parents and no
backward closure, so a forward-only pass frees each intermediate array as
soon as the next operation has used it, and computes the same values.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1

#: False inside `no_grad()`: new tensors record no parents and no backward
_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Turn the tape off for the block (process-wide) and restore the
    previous mode on leaving it, also when the block raises."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A float64 ndarray plus an accumulated gradient.

    Tensors are immutable through the public ops; building an op records
    parent links and a backward closure so that a later `backward()` call
    on a scalar result fills `.grad` on every tensor that contributed.
    Inside `no_grad()` both are dropped at construction.
    """

    __slots__ = ("data", "grad", "_owns_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._owns_grad = False
        if not _recording:
            parents, backward = (), None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g: np.ndarray, rows: np.ndarray | None = None) -> None:
        """Add `g` into the gradient, or into its `rows` (which must be
        distinct) when given.

        The first whole gradient is borrowed, not copied: `g` may be another
        tensor's gradient or a view of one, so a borrowed gradient is never
        written in place. The next one replaces it by a new sum, which the
        tensor owns and adds later gradients into in place.
        """
        if rows is None:
            if self.grad is None:
                self.grad = np.asarray(g, dtype=np.float64)
                self._owns_grad = False
            elif self._owns_grad:
                self.grad += g
            else:
                self.grad, self._owns_grad = self.grad + g, True
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        elif not self._owns_grad:
            self.grad = self.grad.copy()
        self._owns_grad = True
        self.grad[rows] += g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output."""
        if not _recording:
            raise ValueError("backward() called inside no_grad()")
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        # Iterative topological order (graphs can chain many adds).
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        self._owns_grad = True
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


# ---------------------------------------------------------------------------
# primitive ops


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also covers the (n, d) + (d,) bias pattern."""
    out_data = a.data + b.data

    def bw(g):
        a._accum(g if a.data.shape == g.shape else g.sum(axis=0))
        b._accum(g if b.data.shape == g.shape else g.sum(axis=0))

    return Tensor(out_data, parents=(a, b), backward=bw)


def scale(a: Tensor, s: float) -> Tensor:
    def bw(g):
        a._accum(g * s)

    return Tensor(a.data * s, parents=(a,), backward=bw)


def div_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Divide by a non-differentiated constant (per-row degrees)."""
    c = np.asarray(c, dtype=np.float64)

    def bw(g):
        a._accum(g / c)

    return Tensor(a.data / c, parents=(a,), backward=bw)


def _row_product(x: np.ndarray, w: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """`x @ w` for a matrix `x`, each row rounded the same whatever the
    row count: numpy sends a one-row product to gemv, which rounds
    differently from gemm, so one row is multiplied as two."""
    if x.ndim != 2 or x.shape[0] != 1:
        return np.matmul(x, w, out=out)
    product = np.matmul(np.concatenate([x, x]), w)[:1]
    if out is None:
        return product
    out[...] = product
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")

    def bw(g):
        a._accum(g @ b.data.T)
        b._accum(a.data.T @ g)

    return Tensor(_row_product(a.data, b.data), parents=(a, b), backward=bw)


def stack_affine(parts: Sequence[tuple[Tensor, Tensor, Tensor]]) -> Tensor:
    """`concat_rows([add(matmul(x, w), y) for x, w, y in parts])`, written
    into one buffer without keeping each product and sum apart."""
    bounds = np.cumsum([0] + [x.data.shape[0] for x, _, _ in parts])
    out = np.empty((bounds[-1], parts[0][1].data.shape[1]))
    for (x, w, y), lo, hi in zip(parts, bounds[:-1], bounds[1:]):
        _row_product(x.data, w.data, out=out[lo:hi])
        out[lo:hi] += y.data

    def bw(g):
        for (x, w, y), lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            x._accum(g[lo:hi] @ w.data.T)
            w._accum(x.data.T @ g[lo:hi])
            y._accum(g[lo:hi])

    return Tensor(out, parents=tuple(t for part in parts for t in part),
                  backward=bw)


def leaky_relu(x: Tensor) -> Tensor:
    """max(x, slope*x) elementwise, for slope 0.01; subgradient `slope` at
    the kink."""

    def bw(g):
        x._accum(g * np.where(x.data > 0, 1.0, 0.01))

    out = 0.01 * x.data
    return Tensor(np.maximum(x.data, out, out=out), parents=(x,), backward=bw)


def identity(x: Tensor) -> Tensor:
    return x


ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "leaky_relu": leaky_relu,
    "identity": identity,
}


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    sizes = [p.data.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p._accum(g[lo:hi])

    return Tensor(np.concatenate([p.data for p in parts], axis=0),
                  parents=tuple(parts), backward=bw)


def take_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """x[rows] for distinct `rows`, so the backward pass writes each
    gradient row once instead of scatter-adding."""

    def bw(g):
        x._accum(g, rows)

    return Tensor(x.data[rows], parents=(x,), backward=bw)


def replace_rows(x: Tensor, rows: np.ndarray, values: Tensor) -> Tensor:
    """x with row rows[i] (distinct) replaced by row i of `values`; the
    gradient of a replaced row goes to `values` alone."""
    out = x.data.copy()
    out[rows] = values.data

    def bw(g):
        kept = g.copy()
        kept[rows] = 0.0
        x._accum(kept)
        values._accum(g[rows])

    return Tensor(out, parents=(x, values), backward=bw)


def spmm(op, x: Tensor) -> Tensor:
    """Sparse-dense product `op.matrix @ x` by a constant sparse operator.

    `op.matrix` is an (m, n) scipy CSR matrix and `op.transpose` its (n, m)
    transpose, also CSR, so the backward pass `op.transpose @ g` is a
    row-wise sum as well; only the backward pass reads `op.transpose`.
    Each output row sums its stored entries in storage order.
    """

    def bw(g):
        x._accum(op.transpose @ g)

    return Tensor(op.matrix @ x.data, parents=(x,), backward=bw)


def pair_mlp(top: Tensor, bottom: Tensor, src, dst, b0: Tensor, w1: Tensor,
             b1: Tensor, activation: str) -> Tensor:
    """`act(top[src.row] + bottom[dst.row] + b0) @ w1 + b1`, one row per
    pair, for `src` and `dst` row placements as `spmm` takes them: pair e
    reads row src.row[e] of `top`, and `src.matrix` sums the gradient rows
    of the pairs that read a row of `top` in pair order.

    Bitwise equal to the composed ops (two `spmm` gathers, `add`s, the
    activation, `matmul`), but the gathers, sums and activation share one
    buffer, and the tape keeps only the activated rows: the leaky slope in
    backward comes from their sign, as y > 0 exactly where x > 0.
    """
    if activation not in ("leaky_relu", "identity"):
        raise ValueError(f"pair_mlp has no fused {activation!r}")
    leaky = activation == "leaky_relu"
    hidden = np.take(top.data, src.row, axis=0)
    hidden += np.take(bottom.data, dst.row, axis=0)
    hidden += b0.data
    if leaky:
        np.maximum(hidden, 0.01 * hidden, out=hidden)
    out = _row_product(hidden, w1.data)
    out += b1.data

    def bw(g):
        b1._accum(g.sum(axis=0))
        w1._accum(hidden.T @ g)
        g = g @ w1.data.T
        if leaky:
            g *= np.where(hidden > 0, 1.0, 0.01)
        b0._accum(g.sum(axis=0))
        top._accum(src.matrix @ g)
        bottom._accum(dst.matrix @ g)

    return Tensor(out, parents=(top, bottom, b0, w1, b1), backward=bw)


def segment_max(x: Tensor, seg: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment columnwise max; gradient routes to the first row
    attaining the max (deterministic tie-break). Empty segments are zero.
    """
    seg = np.asarray(seg, dtype=np.int64)
    n_rows, d = x.data.shape
    out = np.full((num_segments, d), -np.inf)
    np.maximum.at(out, seg, x.data)
    counts = np.bincount(seg, minlength=num_segments)
    out[counts == 0] = 0.0

    def bw(g):
        is_max = x.data == out[seg]
        cand = np.where(is_max, np.arange(n_rows)[:, None], n_rows)
        argmin = np.full((num_segments, d), n_rows, dtype=np.int64)
        np.minimum.at(argmin, seg, cand)
        buf = np.zeros_like(x.data)
        s_idx, c_idx = np.nonzero(argmin < n_rows)
        buf_rows = argmin[s_idx, c_idx]
        np.add.at(buf, (buf_rows, c_idx), g[s_idx, c_idx])
        x._accum(buf)

    return Tensor(out, parents=(x,), backward=bw)


def sum_all(x: Tensor) -> Tensor:
    def bw(g):
        x._accum(np.full_like(x.data, float(g)))

    return Tensor(np.sum(x.data), parents=(x,), backward=bw)


# ---------------------------------------------------------------------------
# losses


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  class_weights: np.ndarray | None = None,
                  reduction: str = "mean") -> Tensor:
    """Mean (or sum) over rows of the weighted negative log-softmax of the
    target class, stabilized by max-subtraction.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n, num_classes = logits.data.shape
    if num_classes < 2:
        raise ValueError("cross_entropy needs at least 2 classes")
    if targets.min(initial=0) < 0 or (n > 0 and targets.max() >= num_classes):
        raise ValueError(f"target index out of range for {num_classes} classes")
    if class_weights is not None:
        class_weights = np.asarray(class_weights, dtype=np.float64)
        if np.any(class_weights <= 0):
            raise ValueError("class weights must be positive")
        row_w = class_weights[targets]
    else:
        row_w = np.ones(n)

    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    nll = lse - z[np.arange(n), targets]
    total = float(np.sum(row_w * nll))
    denom = float(n) if reduction == "mean" else 1.0
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")

    def bw(g):
        dz = _softmax(z)
        dz[np.arange(n), targets] -= 1.0
        dz *= row_w[:, None]
        logits._accum(dz * (float(g) / denom))

    return Tensor(total / denom, parents=(logits,), backward=bw)


def binary_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean sigmoid BCE from logits, stabilized via the log-sum-exp
    identity."""
    t = np.asarray(targets, dtype=np.float64).reshape(-1)
    z = logits.data.reshape(-1)
    if z.shape != t.shape:
        raise ValueError(f"logit/target shape mismatch: {z.shape} vs {t.shape}")
    n = z.shape[0]
    per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    total = float(per.sum())
    denom = float(n)

    def bw(g):
        sig = 1.0 / (1.0 + np.exp(-z))
        logits._accum(((sig - t) * (float(g) / denom)).reshape(logits.data.shape))

    return Tensor(total / denom, parents=(logits,), backward=bw)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Per-parameter Adam moments keyed by parameter name."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place on `params` and `state`.

    A parameter without a gradient counts as a zero gradient. One that has
    no moments yet would get an update of exactly zero, so it is skipped
    and gets its moments with its first gradient. The update is computed in
    two scratch buffers shared by all parameters, operation by operation
    as `lr * m_hat / (sqrt(v_hat) + eps)`.
    """
    state.step += 1
    t = state.step
    size = max((p.data.size for p in params.values()), default=0)
    scratch = np.empty((2, size))
    for name in params:
        p = params[name]
        g = grads.get(name)
        if g is None and name not in state.m:
            continue
        g = np.zeros_like(p.data) if g is None else np.asarray(g)
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}: "
                             f"{g.shape} vs {p.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        a, b = (buf[:p.data.size].reshape(p.data.shape) for buf in scratch)
        m *= state.beta1
        m += np.multiply(1.0 - state.beta1, g, out=a)
        v *= state.beta2
        np.multiply(1.0 - state.beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, 1.0 - state.beta1 ** t, out=a)
        np.multiply(state.lr, a, out=a)
        np.divide(v, 1.0 - state.beta2 ** t, out=b)
        np.sqrt(b, out=b)
        b += state.eps
        p.data -= np.divide(a, b, out=a)


def zero_grads(params: Mapping[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


# ---------------------------------------------------------------------------
# rng


def derive_seed(seed: int, tag: str) -> int:
    """Stable 64-bit child seed from a parent seed and a string tag."""
    h = hashlib.blake2b(f"{seed & _MASK64}:{tag}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


class Rng:
    """Seeded random stream backed by PCG64.

    Identical seeds produce identical streams on every platform; `child`
    derives independent, reproducible sub-streams by tag.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, tag: str) -> "Rng":
        return Rng(derive_seed(self.seed, tag))

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=None):
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
