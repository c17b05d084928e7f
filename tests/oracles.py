"""Single-record reference implementations of the batched model paths.

The package runs every forward pass batched.  These helpers walk one record,
one sentence and one word at a time instead, on the same ops (one example is
a one-row batch), so tests can hold the batched losses and the batched
decoder to a plainly sequential definition.
"""

import numpy as np

from hdlm.data import BOS_ID, EOS_ID
from hdlm.inference import GeneratedReport
from hdlm.layers import embed
from hdlm.model import encode_image_batch, sentence_step_batch, word_step
from hdlm.tensor import Tensor, concat_rows, zeros


def encode_record(params, features):
    """[L, C] features -> (location embeddings [L, D], mean embedding [1, D])."""
    feats = np.asarray(features, dtype=np.float64)
    return encode_image_batch(params, Tensor(feats), feats.shape[0])


def sentence_step_one(params, v_e, h, c):
    """One sentence step for one record: v_e [L, D], h and c [1, H].

    Returns (h', c', topic [1, D], stop logit, abnormal logit) with the two
    logits as floats.
    """
    h, c, topic, stop, abn = sentence_step_batch(params, v_e, v_e.shape[0], h, c)
    return h, c, topic, float(stop.data[0, 0]), float(abn.data[0, 0])


def word_forward(params, topic, gold, branch):
    """Teacher-forced decode of one sentence, returning logits [N, V].

    ``topic`` is a [1, D] row.  ``gold`` is the full target sequence starting
    with BOS and ending with EOS (length N).  Step 0 consumes the topic
    vector and its logits carry no training signal; step t >= 1 consumes the
    embedding of gold[t-1] and row t scores the prediction of gold[t].
    """
    if len(gold) == 0:
        raise ValueError("word_forward needs a nonempty gold sequence")
    cell, _ = params.word_branch(branch)
    hidden = cell.hidden_size
    h = zeros((1, hidden))
    c = zeros((1, hidden))
    x = topic
    rows = []
    for t in range(len(gold)):
        if t > 0:
            x = embed(params.embedding, [gold[t - 1]])
        logits, h, c = word_step(params, branch, x, h, c)
        rows.append(logits)
    return concat_rows(rows)


def greedy_decode_sentence(params, topic, branch, max_words):
    """Argmax decoding of one sentence from a [1, D] topic row.

    Returns up to ``max_words`` token ids; the terminal EOS is included only
    when the decoder emitted it within the cap.
    """
    hidden = params.word_branch(branch)[0].hidden_size
    _, h, c = word_step(params, branch, topic, zeros((1, hidden)), zeros((1, hidden)))
    tokens = []
    prev = BOS_ID
    for _ in range(max_words):
        logits, h, c = word_step(params, branch, embed(params.embedding, [prev]), h, c)
        token = int(np.argmax(logits.data[0]))
        tokens.append(token)
        if token == EOS_ID:
            break
        prev = token
    return tokens


def _prob(logit):
    return float(1.0 / (1.0 + np.exp(-logit)))


def generate_report(params, config, features, limits, record_id=""):
    """Decode one report from an [L, C] feature map, sentence by sentence."""
    v_e, _ = encode_record(params, features)
    h = zeros((1, config.hidden_dim))
    c = zeros((1, config.hidden_dim))
    report = GeneratedReport(record_id, [], [], [], [])
    for _ in range(limits.max_sentences):
        h, c, topic, stop_logit, abn_logit = sentence_step_one(params, v_e, h, c)
        p_stop = _prob(stop_logit)
        p_abn = _prob(abn_logit)
        branch = (
            "abnormal"
            if config.dual_enabled and p_abn > limits.branch_threshold
            else "normal"
        )
        report.sentences.append(greedy_decode_sentence(params, topic, branch, limits.max_words))
        report.branches.append(branch)
        report.stop_probs.append(p_stop)
        report.abnormal_probs.append(p_abn)
        if p_stop > limits.stop_threshold:
            break
    return report
