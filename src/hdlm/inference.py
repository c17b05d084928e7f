"""Greedy report generation.

Decoding mirrors the training layout exactly: each sentence state produces a
topic that primes a word decoder (step 0 consumes the topic and emits no
token; the first real token comes from feeding BOS).  Sentences end when the
decoder emits EOS or hits the word cap; the paragraph ends when the stop
probability strictly exceeds its threshold (the stopping sentence is still
emitted) or at the sentence cap.

The whole record list decodes as one batch on the forward ops training
uses, with no tape: records leave the batch as they stop, and word rows as
they emit EOS.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import BOS_ID, EOS_ID, ConfigError, CorpusFormatError, read_jsonl, write_jsonl
from .layers import attention_keys, embed
from .model import (
    BRANCH_NAMES,
    ModelConfig,
    ModelParams,
    encode_image_batch,
    sentence_heads,
    sentence_step_batch,
    stack_features,
    word_step,
)
from .tensor import Tensor, zeros


@dataclass
class GenerationLimits:
    max_sentences: int
    max_words: int
    stop_threshold: float = 0.5
    branch_threshold: float = 0.5

    def __post_init__(self):
        if self.max_sentences < 1 or self.max_words < 1:
            raise ConfigError("max_sentences and max_words must be >= 1")
        for name in ("stop_threshold", "branch_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")


@dataclass
class GeneratedReport:
    id: str
    sentences: list[list[int]]
    branches: list[str]
    stop_probs: list[float]
    abnormal_probs: list[float]


def _probs(logits: Tensor) -> np.ndarray:
    """Logistic of [S, 1] logits as a plain [S] array (no tape record)."""
    return 1.0 / (1.0 + np.exp(-logits.data[:, 0]))


def _decode_words(params: ModelParams, branch: str, topics: Tensor, max_words: int) -> list[list[int]]:
    """Argmax decoding of one sentence per topic row, all rows in lockstep.

    Each row yields up to ``max_words`` token ids; its terminal EOS is
    included only when the decoder emitted it within the cap, and the row
    leaves the batch once it has.
    """
    count = topics.shape[0]
    hidden = params.word_branch(branch)[0].hidden_size
    _, h, c = word_step(params, branch, topics, zeros((count, hidden)), zeros((count, hidden)))
    sentences: list[list[int]] = [[] for _ in range(count)]
    live = np.arange(count)
    prev = np.full(count, BOS_ID)
    for _ in range(max_words):
        logits, h, c = word_step(params, branch, embed(params.embedding, prev), h, c)
        tokens = np.argmax(logits.data, axis=1)
        for row, token in zip(live, tokens.tolist()):
            sentences[row].append(token)
        going = tokens != EOS_ID
        if not going.any():
            break
        live, prev = live[going], tokens[going]
        h, c = Tensor(h.data[going]), Tensor(c.data[going])
    return sentences


def generate_corpus(params: ModelParams, config: ModelConfig, records, limits: GenerationLimits) -> list[GeneratedReport]:
    """One greedy report per record, in record order, decoded as one batch.

    Every sentence step advances the records still going together; each
    step's sentences are then decoded together per word branch.  A record
    drops out of the batch after the sentence whose stop probability exceeds
    the threshold.
    """
    if not records:
        return []
    reports = [GeneratedReport(r.id, [], [], [], []) for r in records]
    locations = config.locations
    v_e, _ = encode_image_batch(params, stack_features(config, records), locations)
    keys = attention_keys(params.attn, v_e)
    h = zeros((len(records), config.hidden_dim))
    c = zeros((len(records), config.hidden_dim))
    live = np.arange(len(records))
    for _ in range(limits.max_sentences):
        h_prev = h
        h, c = sentence_step_batch(params, v_e, keys, locations, h, c)
        topic, stop_logits, abn_logits = sentence_heads(params, h_prev, h)
        p_stop = _probs(stop_logits)
        p_abn = _probs(abn_logits)
        abnormal = (p_abn > limits.branch_threshold) & config.dual_enabled
        for branch, chosen in (("abnormal", abnormal), ("normal", ~abnormal)):
            rows = np.flatnonzero(chosen)
            if rows.size == 0:
                continue
            words = _decode_words(params, branch, Tensor(topic.data[rows]), limits.max_words)
            for row, sentence in zip(rows, words):
                report = reports[live[row]]
                report.sentences.append(sentence)
                report.branches.append(branch)
                report.stop_probs.append(float(p_stop[row]))
                report.abnormal_probs.append(float(p_abn[row]))
        going = p_stop <= limits.stop_threshold
        if not going.any():
            break
        live = live[going]
        rows = np.repeat(going, locations)
        v_e, keys = Tensor(v_e.data[rows]), Tensor(keys.data[rows])
        h, c = Tensor(h.data[going]), Tensor(c.data[going])
    return reports


# ---------------------------------------------------------------------------
# generated-corpus files: JSON lines {id, sentences, branches, stop_probs,
# abnormal_probs}


def save_generated(path, reports) -> None:
    write_jsonl(path, map(asdict, reports))


def load_generated(path) -> list[GeneratedReport]:
    fields = ("id", "sentences", "branches", "stop_probs", "abnormal_probs")
    reports = []
    for lineno, obj in read_jsonl(path, fields):
        try:
            if not isinstance(obj["id"], str):
                raise ValueError(f"record id {obj['id']!r} is not a string")
            bad = [b for b in obj["branches"] if b not in BRANCH_NAMES]
            if bad:
                raise ValueError(f"unknown branch {bad[0]!r}")
            if len({len(obj[name]) for name in fields[1:]}) != 1:
                raise ValueError("per-sentence lists disagree in length")
            reports.append(GeneratedReport(
                id=obj["id"],
                sentences=[[int(t) for t in s] for s in obj["sentences"]],
                branches=list(obj["branches"]),
                stop_probs=[float(v) for v in obj["stop_probs"]],
                abnormal_probs=[float(v) for v in obj["abnormal_probs"]],
            ))
        except (ValueError, TypeError) as e:
            raise CorpusFormatError(f"{path}:{lineno}: {e}") from None
    return reports
