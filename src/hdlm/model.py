"""Hierarchical report generator.

Spatial visual features are pooled by additive attention, embedded by a
linear map, and fed to a sentence-level LSTM.  As the map is linear, the
attention mixes the raw features, with keys from the composed matrix
``W_loc W_img`` formed once per batch; each sentence step attends in one
tape op.  Each sentence state yields a topic vector, a stop logit,
and an abnormality logit; the topic primes one of two word-level LSTMs
(abnormal or normal) that share an embedding table but keep separate
recurrent weights and output projections.  A multi-label tag head reads
the embedding of the mean feature.

Training minimizes

    L = lambda_stop * L_stop + lambda_hier * L_words
        + lambda_abn * L_abnormal + lambda_mti * L_tags

where every term is a sigmoid or softmax cross-entropy summed within a
record and averaged over the batch.  With ``dual_enabled`` off the abnormal
term is dropped entirely and all sentences route through the normal branch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import BOS_ID, ConfigError
from .layers import (
    AttentionParams,
    EmbeddingTable,
    LinearLayer,
    LSTMCellParams,
    attention_keys,
    embed,
    lstm_step,
    named,
    soft_attention_batch,
)
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat_rows,
    gather_rows,
    relu,
    scale,
    seeded_rng,
    sigmoid_ce,
    slice_rows,
    softmax_ce,
    tanh,
    zeros,
)

BRANCH_NAMES = ("abnormal", "normal")
# checkpoint name prefixes of the ModelParams fields not named as they are
_PREFIXES = {
    "stop_prev": "stop.prev", "stop_cur": "stop.cur", "stop_out": "stop.out",
    "word_abnormal": "word_abnormal.lstm", "word_abnormal_out": "word_abnormal.out",
    "word_normal": "word_normal.lstm", "word_normal_out": "word_normal.out",
}


@dataclass
class ModelConfig:
    """Shape and loss-weight settings.

    ``dual_enabled=False`` collapses the model to a single word decoder: the
    abnormal loss weight is forced to zero and the abnormal branch is never
    evaluated, so its parameters cannot influence any result.
    """

    vocab_size: int
    mti_labels: int = 121
    channels: int = 1024
    embed_dim: int = 512
    hidden_dim: int = 512
    locations: int = 196
    max_sentences: int = 8
    max_words: int = 24
    lambda_stop: float = 1.0
    lambda_hierarchical: float = 1.0
    lambda_abnormal: float = 1.0
    lambda_mti: float = 10.0
    dual_enabled: bool = True

    def __post_init__(self):
        dims = (
            "vocab_size", "mti_labels", "channels", "embed_dim",
            "hidden_dim", "locations", "max_sentences", "max_words",
        )
        for name in dims:
            if int(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.vocab_size < 4:
            raise ConfigError(
                f"vocab_size must cover the four reserved ids, got {self.vocab_size}"
            )
        weights = ("lambda_stop", "lambda_hierarchical", "lambda_abnormal", "lambda_mti")
        for name in weights:
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")
        if not self.dual_enabled:
            self.lambda_abnormal = 0.0


@dataclass
class ModelParams:
    img_embed: LinearLayer
    attn: AttentionParams
    sent_lstm: LSTMCellParams
    topic: LinearLayer
    stop_prev: LinearLayer
    stop_cur: LinearLayer
    stop_out: LinearLayer
    abnormal_head: LinearLayer
    embedding: EmbeddingTable
    word_abnormal: LSTMCellParams
    word_abnormal_out: LinearLayer
    word_normal: LSTMCellParams
    word_normal_out: LinearLayer
    mti_head: LinearLayer

    @staticmethod
    def create(config: ModelConfig, seed: int = 0) -> "ModelParams":
        """Fixed creation order so one seed pins every weight."""
        rng = seeded_rng(seed)
        d, h, v = config.embed_dim, config.hidden_dim, config.vocab_size
        return ModelParams(
            img_embed=LinearLayer.create(d, config.channels, rng),
            attn=AttentionParams.create(h, d, h, rng),
            sent_lstm=LSTMCellParams.create(d, h, rng),
            topic=LinearLayer.create(d, h, rng, bias=False),
            stop_prev=LinearLayer.create(h, h, rng, bias=False),
            stop_cur=LinearLayer.create(h, h, rng, bias=False),
            stop_out=LinearLayer.create(1, h, rng, bias=False),
            abnormal_head=LinearLayer.create(1, h, rng),
            embedding=EmbeddingTable.create(v, d, rng),
            word_abnormal=LSTMCellParams.create(d, h, rng),
            word_abnormal_out=LinearLayer.create(v, h, rng),
            word_normal=LSTMCellParams.create(d, h, rng),
            word_normal_out=LinearLayer.create(v, h, rng),
            mti_head=LinearLayer.create(config.mti_labels, d, rng),
        )

    def named_parameters(self) -> dict[str, Tensor]:
        return {name: t for f in fields(self)
                for name, t in named(getattr(self, f.name), _PREFIXES.get(f.name, f.name))}

    def word_branch(self, branch: str) -> tuple[LSTMCellParams, LinearLayer]:
        if branch == "abnormal":
            return self.word_abnormal, self.word_abnormal_out
        if branch == "normal":
            return self.word_normal, self.word_normal_out
        raise ValueError(f"unknown word branch {branch!r}")


# ---------------------------------------------------------------------------
# forward pieces


def stack_features(config: ModelConfig, records) -> np.ndarray:
    """Stack every record's [L, C] feature map into one [B*L, C] array.

    Each map must match the model's grid; a record with a different ``L``
    would otherwise be silently grouped with its neighbours' locations.
    """
    want = (config.locations, config.channels)
    feats = []
    for r in records:
        feat = r.feature_map()
        if feat.shape != want:
            raise ShapeError(
                f"record {r.id!r}: feature map {feat.shape} does not match model {want}"
            )
        feats.append(feat)
    return np.concatenate(feats, axis=0)


def sentence_heads(params: ModelParams, h_prev: Tensor, h_new: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """(topic [S, D], stop logits [S, 1], abnormal logits [S, 1]) for rows of
    sentence states ``h_new``, one step of a batch or every step stacked.
    The stop logit also reads ``h_prev``, the state before each row."""
    topic = relu(params.topic(h_new))
    stop = params.stop_out(tanh(add(params.stop_prev(h_prev), params.stop_cur(h_new))))
    return topic, stop, params.abnormal_head(h_new)


def sentence_forward(params: ModelParams, config: ModelConfig, records, depth: int) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Run the sentence LSTM ``depth`` steps for a batch of records.

    The recurrence reads only its own state and the attended image, never
    the words, so every step runs before any word is decoded.  Each step
    attends over the raw [B*L, C] features and embeds the [B, C] result.
    Returns (the embedded mean feature [B, D], topics [depth*B, D], stop
    logits and abnormal logits [depth*B, 1]); head row m * B + b is record
    b's sentence m.
    """
    features = stack_features(config, records)
    keys = attention_keys(params.attn, params.img_embed, features)
    v_hat = params.img_embed(features.reshape(len(records), config.locations, -1).mean(axis=1))
    h = zeros((len(records), config.hidden_dim))
    c = zeros((len(records), config.hidden_dim))
    states = [h]
    for _ in range(depth):
        attended, _ = soft_attention_batch(params.attn, features, keys, h, config.locations)
        h, c = lstm_step(params.sent_lstm, params.img_embed(attended), h, c)
        states.append(h)
    # the heads run once on every step's states
    return (v_hat, *sentence_heads(params, concat_rows(states[:-1]), concat_rows(states[1:])))


def word_step(
    params: ModelParams, branch: str, x: Tensor, h: Tensor, c: Tensor
) -> tuple[Tensor, Tensor, Tensor]:
    """One word-decoder step on ``branch``: input rows -> (logits, h', c')."""
    cell, proj = params.word_branch(branch)
    h_new, c_new = lstm_step(cell, x, h, c)
    return proj(h_new), h_new, c_new


# ---------------------------------------------------------------------------
# training losses


@dataclass
class LossBundle:
    """Each field is a scalar Tensor still attached to the active tape."""

    stop: Tensor
    hierarchical: Tensor
    abnormal: Tensor
    mti: Tensor
    total: Tensor

    def numbers(self) -> dict[str, float]:
        keys = ("stop", "hierarchical", "abnormal", "mti", "total")
        return {k: float(getattr(self, k).data) for k in keys}


def _branch_word_loss(params: ModelParams, branch: str, topics: Tensor, batch: int, specs) -> Tensor:
    """Masked word cross-entropy summed over every sentence routed to ``branch``.

    ``specs`` holds (record index, sentence index, token ids); topic rows live
    at ``sentence * batch + record`` inside the stacked ``topics`` tensor.
    """
    cell, proj = params.word_branch(branch)
    golds = [[BOS_ID] + list(sent) for _, _, sent in specs]
    count = len(specs)
    longest = max(len(g) for g in golds)
    # step 0 consumes the topic, step t >= 1 the embedding of gold[t-1]; one
    # lstm_step runs every step, and the output head reads all but step 0
    ids_in = [g[t - 1] if t < len(g) else 0 for t in range(1, longest) for g in golds]
    x = concat_rows([
        gather_rows(topics, [m * batch + b for b, m, _ in specs]),
        embed(params.embedding, ids_in),
    ])
    h = zeros((count, cell.hidden_size))
    states, _ = lstm_step(cell, x, h, zeros(h.shape))
    logits = proj(slice_rows(states, count, states.shape[0]))
    targets = [g[t] if t < len(g) else 0 for t in range(1, longest) for g in golds]
    mask = np.array([1.0 if t < len(g) else 0.0 for t in range(1, longest) for g in golds])
    return softmax_ce(logits, targets, mask)


def compute_losses(params: ModelParams, config: ModelConfig, records) -> LossBundle:
    """All training losses for a batch of records.

    Every term sums over a record's sentences/words/labels and averages over
    the batch.  Stop targets are 1 only at each record's last sentence.  With
    ``dual_enabled`` off, the abnormal term is a detached zero and the
    abnormal branch contributes no computation at all.
    """
    if len(records) == 0:
        raise ValueError("compute_losses needs a nonempty batch")
    batch = len(records)
    lengths = np.array([len(r.sentences) for r in records])
    depth = int(lengths.max())

    v_hat, topics, stop_logits, abn_logits = sentence_forward(params, config, records, depth)
    step = np.arange(depth)[:, None]
    exists = (step < lengths).astype(np.float64).reshape(-1, 1)
    is_last = (step == lengths - 1).astype(np.float64).reshape(-1, 1)
    stop_sum = sigmoid_ce(stop_logits, is_last, exists)
    if config.dual_enabled:
        flags = np.zeros((depth, batch))
        for b, r in enumerate(records):
            flags[:len(r.sentences), b] = r.abnormal_flags
        abnormal_sum = sigmoid_ce(abn_logits, flags.reshape(-1, 1), exists)

    routes = {name: [] for name in BRANCH_NAMES}
    for b, r in enumerate(records):
        for m, sent in enumerate(r.sentences):
            abnormal = config.dual_enabled and r.abnormal_flags[m]
            routes["abnormal" if abnormal else "normal"].append((b, m, sent))
    word_terms = [_branch_word_loss(params, branch, topics, batch, specs)
                  for branch, specs in routes.items() if specs]
    word_sum = word_terms[0] if len(word_terms) == 1 else add(*word_terms)

    targets = np.stack([r.multi_hot(config.mti_labels) for r in records])
    mti_sum = sigmoid_ce(params.mti_head(v_hat), targets)

    inv = 1.0 / batch
    stop_loss = scale(stop_sum, inv)
    word_loss = scale(word_sum, inv)
    mti_loss = scale(mti_sum, inv)
    total = add(
        add(scale(stop_loss, config.lambda_stop), scale(word_loss, config.lambda_hierarchical)),
        scale(mti_loss, config.lambda_mti),
    )
    if config.dual_enabled:
        abnormal_loss = scale(abnormal_sum, inv)
        total = add(total, scale(abnormal_loss, config.lambda_abnormal))
    else:
        abnormal_loss = zeros(())
    return LossBundle(stop_loss, word_loss, abnormal_loss, mti_loss, total)
