"""Neural building blocks: linear maps, one ``linear`` op per call with its
bias; an LSTM cell whose every call, one step or a whole sequence, is one
recurrence op; embeddings; and additive soft attention over spatial
locations, one ``attention`` op per call.

Layer parameters are plain ``Tensor`` leaves grouped in small dataclasses;
``named(layer, prefix)`` lists them so the model can assemble a flat,
uniquely named parameter dictionary for checkpointing.  Functional ops take
batched rows (rank 2); a single example is a one-row batch, and rank-1 input
raises ``ShapeError``.

Initialization follows one convention throughout: uniform in
[-INIT_RANGE, INIT_RANGE] from a seeded generator, except LSTM forget-gate
biases which start at 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .tensor import ShapeError, Tensor, attention, gather_rows, linear, lstm, matmul

INIT_RANGE = 0.08


def named(layer, prefix: str) -> list[tuple[str, Tensor]]:
    """``(prefix.field, tensor)`` for each parameter field in declaration
    order; an absent (``None``) bias is left out."""
    tensors = ((f.name, getattr(layer, f.name)) for f in fields(layer))
    return [(f"{prefix}.{name}", t) for name, t in tensors if t is not None]


def _uniform(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape))


@dataclass
class LinearLayer:
    """y = x W^T (+ bias), one ``linear`` op."""

    weight: Tensor
    bias: Tensor | None = None

    @classmethod
    def create(cls, out_dim: int, in_dim: int, rng: np.random.Generator, bias: bool = True):
        return cls(_uniform(rng, (out_dim, in_dim)), _uniform(rng, (out_dim,)) if bias else None)

    def __call__(self, x: Tensor | np.ndarray) -> Tensor:
        """[S, in] rows -> [S, out] rows; a plain-array ``x`` is a constant."""
        return linear(x, self.weight, self.bias)


@dataclass
class LSTMCellParams:
    """Gate order along the 4H axis is fixed: input, forget, cell, output."""

    w_input: Tensor  # [4H, I]
    w_recur: Tensor  # [4H, H]
    bias: Tensor  # [4H]

    @property
    def hidden_size(self) -> int:
        return self.w_recur.shape[1]

    @classmethod
    def create(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        bias = rng.uniform(-INIT_RANGE, INIT_RANGE, size=4 * hidden_dim)
        bias[hidden_dim:2 * hidden_dim] = 1.0  # forget gate opens at init
        return cls(
            _uniform(rng, (4 * hidden_dim, input_dim)),
            _uniform(rng, (4 * hidden_dim, hidden_dim)),
            Tensor(bias),
        )


def lstm_step(params: LSTMCellParams, x: Tensor, h: Tensor, c: Tensor,
              rows: list[int] | None = None) -> tuple[Tensor, Tensor]:
    """The cell run from the state (h, c) [S, H] over input rows stacked
    step-major, T steps of S rows, or step k of ``rows[k]`` rows that never
    grow (see ``lstm``): (every step's h' stacked, the last c').  All inputs
    are projected in one product, and the recurrence is one op."""
    return lstm(linear(x, params.w_input), params.w_recur, params.bias, h, c, rows)


@dataclass
class EmbeddingTable:
    matrix: Tensor  # [V, E]

    @classmethod
    def create(cls, vocab_size: int, embed_dim: int, rng: np.random.Generator):
        return cls(_uniform(rng, (vocab_size, embed_dim)))

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[0]


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


def attention_keys(params: AttentionParams, img_embed: LinearLayer, features: np.ndarray) -> Tensor:
    """Keys ``W_loc (W_img x + b)`` [B*L, A] of the constant [B*L, C]
    features, from the composed matrix ``W_loc W_img`` and bias ``W_loc b``,
    so the [B*L, D] location embeddings are never formed.  The keys do not
    depend on the sentence state: one product serves every sentence step."""
    w = params.w_location
    return linear(features, matmul(w, img_embed.weight), matmul(w, img_embed.bias))


def soft_attention_batch(
    params: AttentionParams, features: np.ndarray, keys: Tensor, h_prev: Tensor, locations: int
) -> tuple[Tensor, np.ndarray]:
    """Attend over ``locations`` consecutive rows per batch element.

    features: [G*L, C] constant rows of the first G batch elements; keys: the
    batch's ``attention_keys`` [B*L, A]; h_prev: [B, H], of which the leading
    G states attend.  Returns (attended features [G, C], weights [G, L] as a
    plain array); the weights sum to one, so embedding the attended row
    equals attending over the embedded locations.  One ``attention`` op."""
    if locations < 1 or len(features) % locations or len(features) > len(h_prev.data) * locations:
        raise ShapeError(f"soft_attention_batch needs {locations} >= 1 locations per state, got features "
                         f"{features.shape} and h_prev {h_prev.shape}")
    grouped = features.reshape(-1, locations, *features.shape[1:])
    return attention(grouped, keys, h_prev, params.w_state, params.score)
