"""Greedy report generation.

Decoding mirrors the training layout exactly: each sentence state produces a
topic that primes a word decoder (step 0 consumes the topic and emits no
token; the first real token comes from feeding BOS).  Sentences end when the
decoder emits EOS or hits the word cap; the paragraph ends when the stop
probability strictly exceeds its threshold (the stopping sentence is still
emitted) or at the sentence cap.

Decoding runs training's sentence forward, with no tape: the sentence LSTM
reads only its own state and the attended image, so every record runs to
the sentence cap first and is then cut at its first stop.  Each word
branch then decodes all of its kept sentences as one batch, whose rows
leave as they emit EOS.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import BOS_ID, EOS_ID, ConfigError, check_int_fields, json_float, json_int, read_jsonl, write_jsonl
from .layers import embed
from .model import BRANCH_NAMES, ModelConfig, ModelParams, sentence_forward, word_step
from .tensor import Tensor, zeros


@dataclass
class GenerationLimits:
    max_sentences: int
    max_words: int
    stop_threshold: float = 0.5
    branch_threshold: float = 0.5

    def __post_init__(self):
        check_int_fields(self)
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
    with np.errstate(over="ignore"):  # a logit below about -709 gives exp = inf, so exactly 0
        return 1.0 / (1.0 + np.exp(-logits.data[:, 0]))


def _decode_words(params: ModelParams, branch: str, topics: Tensor, max_words: int) -> list[list[int]]:
    """Argmax decoding of one sentence per topic row, all rows in lockstep.

    Each row yields up to ``max_words`` token ids; its terminal EOS is
    included only when the decoder emitted it within the cap, and the row
    leaves the batch once it has.
    """
    count = topics.shape[0]
    cell, proj = params.word_branch(branch)
    # the topic step emits no token, so only the cell runs on it
    shape = (count, cell.hidden_size)
    h, c = word_step(params, branch, topics, zeros(shape), zeros(shape))
    sentences: list[list[int]] = [[] for _ in range(count)]
    live = np.arange(count)
    prev = np.full(count, BOS_ID)
    for _ in range(max_words):
        h, c = word_step(params, branch, embed(params.embedding, prev), h, c)
        tokens = np.argmax(proj(h).data, axis=1)
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

    Training's sentence forward runs every record to the sentence cap; a
    record keeps its sentences up to and including the first whose stop
    probability exceeds the threshold, or all of them if none does.  The
    kept sentences of each word branch are then decoded together.
    """
    if not records:
        return []
    cap, batch = limits.max_sentences, len(records)
    _, topics, stop_logits, abn_logits = sentence_forward(params, config, records, [batch] * cap)
    p_stop, p_abn = _probs(stop_logits), _probs(abn_logits)
    # row m * batch + b is kept unless one of record b's earlier sentences stopped
    stops = (p_stop > limits.stop_threshold).reshape(cap, batch)
    kept = (np.cumsum(stops, axis=0) - stops == 0).ravel()
    abnormal = (p_abn > limits.branch_threshold) & config.dual_enabled
    words = {}
    for branch, chosen in (("abnormal", abnormal), ("normal", ~abnormal)):
        rows = np.flatnonzero(kept & chosen)
        if rows.size:
            decoded = _decode_words(params, branch, Tensor(topics.data[rows]), limits.max_words)
            words.update(zip(rows.tolist(), decoded))
    reports = [GeneratedReport(r.id, [], [], [], []) for r in records]
    for row in sorted(words):  # sentence-major, so each report grows in order
        report = reports[row % batch]
        report.sentences.append(words[row])
        report.branches.append("abnormal" if abnormal[row] else "normal")
        report.stop_probs.append(float(p_stop[row]))
        report.abnormal_probs.append(float(p_abn[row]))
    return reports


# ---------------------------------------------------------------------------
# generated-corpus files: JSON lines {id, sentences, branches, stop_probs,
# abnormal_probs}


def save_generated(path, reports) -> None:
    write_jsonl(path, map(asdict, reports))


def load_generated(path) -> list[GeneratedReport]:
    fields = ("id", "sentences", "branches", "stop_probs", "abnormal_probs")

    def parse(obj):
        bad = [b for b in obj["branches"] if b not in BRANCH_NAMES]
        if bad:
            raise ValueError(f"unknown branch {bad[0]!r}")
        if len({len(obj[name]) for name in fields[1:]}) != 1:
            raise ValueError("per-sentence lists disagree in length")
        return GeneratedReport(
            id=obj["id"],
            sentences=[[json_int(t, "token id") for t in s] for s in obj["sentences"]],
            branches=list(obj["branches"]),
            stop_probs=[json_float(v, "stop probability") for v in obj["stop_probs"]],
            abnormal_probs=[json_float(v, "abnormal probability") for v in obj["abnormal_probs"]],
        )

    return read_jsonl(path, fields, parse)
