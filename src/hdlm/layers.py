"""Neural building blocks: linear maps, an LSTM cell, embeddings, and
additive soft attention over spatial locations.

Layer parameters are plain ``Tensor`` leaves grouped in small dataclasses;
each exposes ``named(prefix)`` so the model can assemble a flat, uniquely
named parameter dictionary for checkpointing.  Functional ops take batched
rows (rank 2); a single example is a one-row batch, and rank-1 input raises
``ShapeError``.

Initialization follows one convention throughout: uniform in
[-INIT_RANGE, INIT_RANGE] from a seeded generator, except LSTM forget-gate
biases which start at 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    add,
    add_bias,
    gather_rows,
    matmul,
    mul,
    mul_colvec,
    repeat_rows,
    reshape,
    sigmoid,
    slice_cols,
    softmax_lastdim,
    sum_rowgroups,
    tanh,
    transpose,
)

INIT_RANGE = 0.08


def _uniform(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape))


@dataclass
class LinearLayer:
    """y = x W^T (+ bias)."""

    weight: Tensor
    bias: Tensor | None = None

    @classmethod
    def create(cls, out_dim: int, in_dim: int, rng: np.random.Generator, bias: bool = True):
        return cls(_uniform(rng, (out_dim, in_dim)), _uniform(rng, (out_dim,)) if bias else None)

    def apply(self, x: Tensor) -> Tensor:
        """[S, in] rows -> [S, out] rows."""
        y = matmul(x, transpose(self.weight))
        if self.bias is not None:
            y = add_bias(y, self.bias)
        return y

    __call__ = apply

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = [(f"{prefix}.weight", self.weight)]
        if self.bias is not None:
            out.append((f"{prefix}.bias", self.bias))
        return out


@dataclass
class LSTMCellParams:
    """Gate order along the 4H axis is fixed: input, forget, cell, output."""

    w_input: Tensor  # [4H, I]
    w_recur: Tensor  # [4H, H]
    bias: Tensor  # [4H]

    @property
    def hidden_size(self) -> int:
        return self.w_recur.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_input.shape[1]

    @classmethod
    def create(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        bias = rng.uniform(-INIT_RANGE, INIT_RANGE, size=4 * hidden_dim)
        bias[hidden_dim:2 * hidden_dim] = 1.0  # forget gate opens at init
        return cls(
            _uniform(rng, (4 * hidden_dim, input_dim)),
            _uniform(rng, (4 * hidden_dim, hidden_dim)),
            Tensor(bias),
        )

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.w_input", self.w_input),
            (f"{prefix}.w_recur", self.w_recur),
            (f"{prefix}.bias", self.bias),
        ]


def lstm_step(params: LSTMCellParams, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step on [S, ·] rows: c' = f*c + i*g, h' = o*tanh(c')."""
    hs = params.hidden_size
    if (x.data.ndim != 2 or h.data.ndim != 2 or x.shape[1] != params.input_size
            or h.shape != (x.shape[0], hs) or c.shape != h.shape):
        raise ShapeError(
            f"lstm_step shapes x={x.shape} h={h.shape} c={c.shape} do not fit "
            f"cell (I={params.input_size}, H={hs})"
        )
    z = add_bias(add(matmul(x, transpose(params.w_input)), matmul(h, transpose(params.w_recur))), params.bias)
    i = sigmoid(slice_cols(z, 0, hs))
    f = sigmoid(slice_cols(z, hs, 2 * hs))
    g = tanh(slice_cols(z, 2 * hs, 3 * hs))
    o = sigmoid(slice_cols(z, 3 * hs, 4 * hs))
    c_new = add(mul(f, c), mul(i, g))
    h_new = mul(o, tanh(c_new))
    return h_new, c_new


@dataclass
class EmbeddingTable:
    matrix: Tensor  # [V, E]

    @classmethod
    def create(cls, vocab_size: int, embed_dim: int, rng: np.random.Generator):
        return cls(_uniform(rng, (vocab_size, embed_dim)))

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[0]

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.matrix", self.matrix)]


def embed(table: EmbeddingTable, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    bad = (ids < 0) | (ids >= table.vocab_size)
    if bad.any():
        raise IndexError(f"token id {int(ids[bad][0])} outside vocabulary of size {table.vocab_size}")
    return gather_rows(table.matrix, ids)


@dataclass
class AttentionParams:
    """Additive attention: e_l = score . tanh(W_loc v_l + W_state h)."""

    w_location: Tensor  # [A, D]
    w_state: Tensor  # [A, H]
    score: Tensor  # [A]

    @classmethod
    def create(cls, attn_dim: int, feature_dim: int, state_dim: int, rng: np.random.Generator):
        return cls(
            _uniform(rng, (attn_dim, feature_dim)),
            _uniform(rng, (attn_dim, state_dim)),
            _uniform(rng, (attn_dim,)),
        )

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.w_location", self.w_location),
            (f"{prefix}.w_state", self.w_state),
            (f"{prefix}.score", self.score),
        ]


def soft_attention_batch(
    params: AttentionParams, v_e: Tensor, h_prev: Tensor, locations: int
) -> tuple[Tensor, Tensor]:
    """Attend over ``locations`` consecutive rows per batch element.

    v_e: [B*L, D] stacked location embeddings; h_prev: [B, H].
    Returns (context [B, D], weights [B, L]).
    """
    if locations < 1:
        raise ShapeError("soft_attention_batch needs at least one location")
    if v_e.data.ndim != 2 or h_prev.data.ndim != 2 or v_e.shape[0] != h_prev.shape[0] * locations:
        raise ShapeError(
            f"soft_attention_batch shapes do not agree: v_e={v_e.shape}, "
            f"h_prev={h_prev.shape}, locations={locations}"
        )
    batch = h_prev.shape[0]
    attn_dim = params.score.shape[0]
    pre = add(matmul(v_e, transpose(params.w_location)), repeat_rows(matmul(h_prev, transpose(params.w_state)), locations))
    scores = reshape(matmul(tanh(pre), reshape(params.score, (attn_dim, 1))), (batch, locations))
    weights = softmax_lastdim(scores)
    context = sum_rowgroups(mul_colvec(v_e, reshape(weights, (batch * locations, 1))), locations)
    return context, weights
