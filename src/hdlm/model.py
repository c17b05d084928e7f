"""Hierarchical report generator.

Spatial visual features are embedded per location, pooled by additive
attention, and fed to a sentence-level LSTM.  Each sentence state yields a
topic vector, a stop logit, and an abnormality logit; the topic primes one of
two word-level LSTMs (abnormal or normal) that share an embedding table but
keep separate recurrent weights and output projections.  A multi-label tag
head reads the mean location embedding.

Training minimizes

    L = lambda_stop * L_stop + lambda_hier * L_words
        + lambda_abn * L_abnormal + lambda_mti * L_tags

where every term is a sigmoid or softmax cross-entropy summed within a
record and averaged over the batch.  With ``dual_enabled`` off the abnormal
term is dropped entirely and all sentences route through the normal branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BOS_ID, ConfigError
from .layers import (
    AttentionParams,
    EmbeddingTable,
    LinearLayer,
    LSTMCellParams,
    embed,
    lstm_step,
    soft_attention_batch,
)
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat_rows,
    gather_rows,
    logsumexp_lastdim,
    mul_const,
    relu,
    reshape,
    scale,
    seeded_rng,
    select_positions,
    sigmoid_ce,
    sub,
    sum_all,
    sum_rowgroups,
    tanh,
    zeros,
)

BRANCH_NAMES = ("abnormal", "normal")


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
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
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
        groups = [
            self.img_embed.named("img_embed"),
            self.attn.named("attn"),
            self.sent_lstm.named("sent_lstm"),
            self.topic.named("topic"),
            self.stop_prev.named("stop.prev"),
            self.stop_cur.named("stop.cur"),
            self.stop_out.named("stop.out"),
            self.abnormal_head.named("abnormal_head"),
            self.embedding.named("embedding"),
            self.word_abnormal.named("word_abnormal.lstm"),
            self.word_abnormal_out.named("word_abnormal.out"),
            self.word_normal.named("word_normal.lstm"),
            self.word_normal_out.named("word_normal.out"),
            self.mti_head.named("mti_head"),
        ]
        return {name: t for group in groups for name, t in group}

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


def encode_image_batch(params: ModelParams, features: Tensor, locations: int) -> tuple[Tensor, Tensor]:
    """[B*L, C] stacked features -> (location embeddings [B*L, D], means [B, D])."""
    v_e = params.img_embed(features)
    v_hat = scale(sum_rowgroups(v_e, locations), 1.0 / locations)
    return v_e, v_hat


def sentence_step_batch(
    params: ModelParams, v_e: Tensor, locations: int, h: Tensor, c: Tensor
) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
    """Advance the sentence LSTM one step for a whole batch.

    Returns (h', c', topic [B, D], stop logits [B, 1], abnormal logits [B, 1]).
    The stop logit mixes the previous and the new hidden state.
    """
    context, _ = soft_attention_batch(params.attn, v_e, h, locations)
    h_new, c_new = lstm_step(params.sent_lstm, context, h, c)
    topic = relu(params.topic(h_new))
    stop = params.stop_out(tanh(add(params.stop_prev(h), params.stop_cur(h_new))))
    abnormal = params.abnormal_head(h_new)
    return h_new, c_new, topic, stop, abnormal


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
    x = gather_rows(topics, [m * batch + b for b, m, _ in specs])
    h = zeros((count, cell.hidden_size))
    c = zeros((count, cell.hidden_size))
    h, c = lstm_step(cell, x, h, c)  # consumes the topic; logits unused
    longest = max(len(g) for g in golds)
    total = None
    for t in range(1, longest):
        ids_in = [g[t - 1] if t < len(g) else 0 for g in golds]
        h, c = lstm_step(cell, embed(params.embedding, ids_in), h, c)
        logits = proj(h)
        targets = [g[t] if t < len(g) else 0 for g in golds]
        mask = np.array([1.0 if t < len(g) else 0.0 for g in golds])
        ce = sub(logsumexp_lastdim(logits), select_positions(logits, targets))
        term = sum_all(mul_const(ce, mask))
        total = term if total is None else add(total, term)
    return total


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

    stacked = stack_features(config, records)
    v_e, v_hat = encode_image_batch(params, Tensor(stacked), config.locations)

    h = zeros((batch, config.hidden_dim))
    c = zeros((batch, config.hidden_dim))
    stop_sum = None
    abnormal_sum = None
    topic_blocks = []
    for m in range(depth):
        h, c, topic, stop_logits, abn_logits = sentence_step_batch(
            params, v_e, config.locations, h, c
        )
        topic_blocks.append(topic)
        exists = (m < lengths).astype(np.float64)
        is_last = (m == lengths - 1).astype(np.float64)
        stop_ce = sigmoid_ce(reshape(stop_logits, (batch,)), is_last)
        term = sum_all(mul_const(stop_ce, exists))
        stop_sum = term if stop_sum is None else add(stop_sum, term)
        if config.dual_enabled:
            flags = np.array(
                [
                    float(r.abnormal_flags[m]) if m < len(r.sentences) else 0.0
                    for r in records
                ]
            )
            abn_ce = sigmoid_ce(reshape(abn_logits, (batch,)), flags)
            term = sum_all(mul_const(abn_ce, exists))
            abnormal_sum = term if abnormal_sum is None else add(abnormal_sum, term)

    topics = concat_rows(topic_blocks)
    routes = {name: [] for name in BRANCH_NAMES}
    for b, r in enumerate(records):
        for m, sent in enumerate(r.sentences):
            abnormal = config.dual_enabled and r.abnormal_flags[m]
            routes["abnormal" if abnormal else "normal"].append((b, m, sent))
    word_sum = None
    for branch in BRANCH_NAMES:
        if not routes[branch]:
            continue
        term = _branch_word_loss(params, branch, topics, batch, routes[branch])
        word_sum = term if word_sum is None else add(word_sum, term)

    targets = np.stack([r.multi_hot(config.mti_labels) for r in records])
    mti_sum = sum_all(sigmoid_ce(params.mti_head(v_hat), targets))

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
