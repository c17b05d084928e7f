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
record and averaged over the batch, the whole sum one ``weighted_sum`` op.
With ``dual_enabled`` off the abnormal term is dropped entirely and all
sentences route through the normal branch.

The recurrences run on packed rows, as PyTorch's ``pack_padded_sequence``
does.  Training sorts a batch's records longest first, so the records with a
sentence at step m are a prefix of the batch, and that step attends, steps
the sentence LSTM and runs the heads on the prefix alone; each word branch
sorts its sentences longest first, so its LSTM, input projection and output
head skip the rows past a sentence's end.  Every row that reaches a loss
exists, so no loss term takes a padding mask.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import BOS_ID, ConfigError, check_int_fields
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
    concat_rows,
    flat_views,
    gather_rows,
    relu,
    seeded_rng,
    sigmoid_ce,
    slice_rows,
    softmax_ce,
    tanh,
    weighted_sum,
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
        check_int_fields(self)
        dims = (
            "vocab_size", "mti_labels", "channels", "embed_dim",
            "hidden_dim", "locations", "max_sentences", "max_words",
        )
        for name in dims:
            if getattr(self, name) < 1:
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
        """Fixed creation order so one seed pins every weight; each weight
        then becomes a view of ``params.store``, a ``flat_views`` store in
        ``named_parameters`` order, which the optimizer updates in one pass."""
        rng = seeded_rng(seed)
        d, h, v = config.embed_dim, config.hidden_dim, config.vocab_size
        params = ModelParams(
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
        named = params.named_parameters()
        params.store = flat_views({name: t.shape for name, t in named.items()})
        for name, t in named.items():
            params.store[name][...] = t.data
            t.data = params.store[name]
        return params

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
    """Stack every record's float32 [L, C] feature map (as ``synth_corpus``
    and ``load_corpus`` build it) into one [B*L, C] float64 array, widened
    exactly in that one copy.

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
    return np.concatenate(feats, axis=0, dtype=np.float64)


def sentence_heads(params: ModelParams, h_prev: Tensor, h_new: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """(topic [S, D], stop logits [S, 1], abnormal logits [S, 1]) for rows of
    sentence states ``h_new``, one step of a batch or every step stacked.
    The stop logit also reads ``h_prev``, the state before each row."""
    topic = relu(params.topic(h_new))  # first: the tape's order sets the gradients' last bits
    pre = weighted_sum([params.stop_prev(h_prev), params.stop_cur(h_new)], [1.0, 1.0])
    return topic, params.stop_out(tanh(pre)), params.abnormal_head(h_new)


def sentence_forward(params: ModelParams, config: ModelConfig, records,
                     live: list[int]) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Run the sentence LSTM for a batch of records, step m on the first
    ``live[m]`` records; the counts never grow, so a caller that wants a
    record to stop early puts it after the records that go on.

    The recurrence reads only its own state and the attended image, never
    the words, so every step runs before any word is decoded.  Each step
    attends over the raw features of its records and embeds the [live[m], C]
    result.  Returns (the embedded mean feature [B, D], topics [N, D], stop
    logits and abnormal logits [N, 1]) for N = sum(live); the head rows are
    packed step-major, so row sum(live[:m]) + b is record b's sentence m.
    """
    features = stack_features(config, records)
    keys = attention_keys(params.attn, params.img_embed, features)
    v_hat = params.img_embed(features.reshape(len(records), config.locations, -1).mean(axis=1))
    h = zeros((len(records), config.hidden_dim))
    c = zeros((len(records), config.hidden_dim))
    states = [h]
    for n in live:
        attended, _ = soft_attention_batch(params.attn, features[:n * config.locations], keys, h,
                                           config.locations)
        h, c = lstm_step(params.sent_lstm, params.img_embed(attended), h, c, [n])
        states.append(h)
    # the heads run once on every step's states; the stop head also reads
    # the leading rows of the state before each step
    return (v_hat, *sentence_heads(params, concat_rows(states[:-1], live), concat_rows(states[1:])))


def word_step(params: ModelParams, branch: str, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One step of ``branch``'s word LSTM on input rows: (h', c').  The
    caller runs the branch's output layer on the states it scores."""
    return lstm_step(params.word_branch(branch)[0], x, h, c)


# ---------------------------------------------------------------------------
# training losses


@dataclass
class LossBundle:
    """Each term's batch mean as a float, and their weighted total as the
    scalar Tensor on the active tape that training differentiates."""

    stop: float
    hierarchical: float
    abnormal: float
    mti: float
    total: Tensor

    def numbers(self) -> dict[str, float]:
        return {"stop": self.stop, "hierarchical": self.hierarchical, "abnormal": self.abnormal,
                "mti": self.mti, "total": self.total.item()}


def _branch_word_loss(params: ModelParams, branch: str, topics: Tensor, specs) -> Tensor:
    """Word cross-entropy summed over every sentence routed to ``branch``.

    ``specs`` holds (row of ``topics``, token ids).  The sentences run
    longest first, so those still going at each step are a prefix, and the
    LSTM, its input projection and the output head skip the rows past a
    sentence's end.
    """
    cell, proj = params.word_branch(branch)
    specs = sorted(specs, key=lambda spec: -len(spec[1]))
    golds = [[BOS_ID, *sent] for _, sent in specs]
    count = len(golds)
    # step 0 consumes the topic, step t >= 1 the embedding of gold[t-1] of
    # each sentence still going; the output head reads all but step 0
    going = [[g for g in golds if t < len(g)] for t in range(1, len(golds[0]))]
    x = concat_rows([
        gather_rows(topics, [row for row, _ in specs]),
        embed(params.embedding, [g[t - 1] for t, gs in enumerate(going, 1) for g in gs]),
    ])
    h = zeros((count, cell.hidden_size))
    states, _ = lstm_step(cell, x, h, zeros(h.shape), [count, *map(len, going)])
    logits = proj(slice_rows(states, count, states.shape[0]))
    return softmax_ce(logits, [g[t] for t, gs in enumerate(going, 1) for g in gs])


def compute_losses(params: ModelParams, config: ModelConfig, records) -> LossBundle:
    """All training losses for a batch of records.

    Every term sums over a record's sentences/words/labels and averages over
    the batch.  Stop targets are 1 only at each record's last sentence.  With
    ``dual_enabled`` off, the abnormal term is 0.0 and the
    abnormal branch contributes no computation at all.
    """
    if len(records) == 0:
        raise ValueError("compute_losses needs a nonempty batch")
    # longest first, stably, so the records with a sentence at step m are a prefix
    records = sorted(records, key=lambda r: -len(r.sentences))
    lengths = [len(r.sentences) for r in records]
    live = [sum(n > m for n in lengths) for m in range(lengths[0])]
    batch = len(records)

    v_hat, topics, stop_logits, abn_logits = sentence_forward(params, config, records, live)
    heads = [(b, m) for m, n in enumerate(live) for b in range(n)]  # (record, sentence) per head row
    stop_sum = sigmoid_ce(stop_logits, [[float(m == lengths[b] - 1)] for b, m in heads])
    if config.dual_enabled:
        abnormal_sum = sigmoid_ce(abn_logits, [[float(records[b].abnormal_flags[m])] for b, m in heads])

    routes = {name: [] for name in BRANCH_NAMES}
    for row, (b, m) in enumerate(heads):
        abnormal = config.dual_enabled and records[b].abnormal_flags[m]
        routes["abnormal" if abnormal else "normal"].append((row, records[b].sentences[m]))
    word_sums = [_branch_word_loss(params, branch, topics, specs)
                 for branch, specs in routes.items() if specs]

    targets = np.stack([r.multi_hot(config.mti_labels) for r in records])
    mti_sum = sigmoid_ce(params.mti_head(v_hat), targets)

    # the batch sums of each term, in the total's order; the two word sums
    # are added before their mean is taken
    inv = 1.0 / batch
    sums = {"stop": [stop_sum], "hierarchical": word_sums, "mti": [mti_sum],
            "abnormal": [abnormal_sum] if config.dual_enabled else []}
    terms = [(s, getattr(config, f"lambda_{name}") * inv) for name, group in sums.items() for s in group]
    total = weighted_sum([s for s, _ in terms], [w for _, w in terms])
    return LossBundle(**{name: float(sum(s.data for s in group)) * inv for name, group in sums.items()},
                      total=total)
