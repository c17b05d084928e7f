"""Single-record reference implementations of the batched model paths.

The package runs every forward pass batched.  These helpers walk one record,
one sentence and one word at a time instead, on the same ops (one example is
a one-row batch), so tests can hold the batched losses and the batched
decoder to a plainly sequential definition.  Attention keeps its first
formulation: the location keys are recomputed at every sentence step, the
scores are built from a repeated query, ``tanh`` and a matrix product, and
the context is pooled through a [L, D] weighted copy of the locations.
The optimizer keeps its first formulation too, with a fresh array for every
intermediate.  The LSTM cell keeps its unfused gate composition.  Ops the
package no longer calls (``matmul``, ``reshape``, ``sigmoid``, ``mul``,
``slice_cols`` and ``repeat_rows``) live on here as test-local ops.

The scoring kernels keep their first formulations as well: BLEU recounts
every order for each BLEU-n, the LCS fills the quadratic table, the METEOR
chunk count rescans every (i, j) pair per fragment, and CIDEr-D counts each
reference twice.
"""

import math
from collections import Counter

import numpy as np

from hdlm.data import BOS_ID, EOS_ID
from hdlm.inference import GeneratedReport
from hdlm.layers import embed, lstm_step
from hdlm.metrics import _closest_ref_length
from hdlm.model import encode_image_batch, word_step
from hdlm.tensor import (
    ShapeError,
    Tensor,
    _record,
    _stable_sigmoid,
    add,
    add_bias,
    concat_rows,
    gather_rows,
    linear,
    logsumexp_lastdim,
    relu,
    scale,
    select_positions,
    sigmoid_ce,
    softmax_lastdim,
    sub,
    sum_all,
    sum_rowgroups,
    tanh,
    zeros,
)


def encode_record(params, features):
    """[L, C] features -> (location embeddings [L, D], mean embedding [1, D])."""
    feats = np.asarray(features, dtype=np.float64)
    return encode_image_batch(params, feats, feats.shape[0])


def reshape(x, shape):
    old = x.shape
    out = Tensor(x.data.reshape(shape))
    _record(out, (x,), lambda g: (g.reshape(old),))
    return out


def matmul(a, b):
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ShapeError(f"matmul shapes do not agree: {A.shape} x {B.shape}")
    out = Tensor(A @ B)
    _record(out, (a, b), lambda g: (g @ B.T, A.T @ g))
    return out


def sigmoid(x):
    y = _stable_sigmoid(x.data)
    out = Tensor(y)
    _record(out, (x,), lambda g: (g * y * (1.0 - y),))
    return out


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"mul needs matching shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data)
    _record(out, (a, b), lambda g: (g * b.data, g * a.data))
    return out


def slice_cols(x, start, stop):
    if x.data.ndim != 2 or not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_cols [{start}:{stop}] invalid for shape {x.shape}")
    out = Tensor(x.data[:, start:stop])

    def grad(g):
        full = np.zeros((x.shape[0], x.shape[1]))
        full[:, start:stop] = g
        return (full,)

    _record(out, (x,), grad)
    return out


def lstm_update_composed(params, x_proj, h, c):
    """``hdlm.layers.lstm_update`` with one op per gate slice, activation and
    product, as the cell was first written."""
    hs = params.hidden_size
    z = add_bias(add(x_proj, linear(h, params.w_recur)), params.bias)
    i = sigmoid(slice_cols(z, 0, hs))
    f = sigmoid(slice_cols(z, hs, 2 * hs))
    g = tanh(slice_cols(z, 2 * hs, 3 * hs))
    o = sigmoid(slice_cols(z, 3 * hs, 4 * hs))
    c_new = add(mul(f, c), mul(i, g))
    return mul(o, tanh(c_new)), c_new


def repeat_rows(x, times):
    """[G, K] -> [G*times, K], each row repeated ``times`` consecutive times."""
    if x.data.ndim != 2 or times < 1:
        raise ShapeError(f"repeat_rows needs rank 2 and times >= 1, got {x.shape}, {times}")
    g_rows, k = x.shape
    out = Tensor(np.repeat(x.data, times, axis=0))
    _record(out, (x,), lambda g: (g.reshape(g_rows, times, k).sum(axis=1),))
    return out


def mul_colvec(x, w):
    """Scale each row of [S, K] ``x`` by the matching entry of [S, 1] ``w``."""
    out = Tensor(x.data * w.data)
    _record(out, (x, w), lambda g: (g * w.data, (g * x.data).sum(axis=1, keepdims=True)))
    return out


def soft_attention_per_step(attn, v_e, h_prev, locations):
    """Additive attention that recomputes ``v_e W_loc^T`` on every call.

    v_e: [B*L, D]; h_prev: [B, H].  Returns (context [B, D], weights [B, L]).
    """
    batch = h_prev.shape[0]
    attn_dim = attn.score.shape[0]
    pre = add(linear(v_e, attn.w_location), repeat_rows(linear(h_prev, attn.w_state), locations))
    scores = reshape(matmul(tanh(pre), reshape(attn.score, (attn_dim, 1))), (batch, locations))
    weights = softmax_lastdim(scores)
    context = sum_rowgroups(mul_colvec(v_e, reshape(weights, (batch * locations, 1))), locations)
    return context, weights


def sentence_step_ref(params, v_e, h, c):
    """One sentence step for one record: v_e [L, D], h and c [1, H].

    Returns (h', c', topic [1, D], stop logit [1, 1], abnormal logit [1, 1]).
    """
    context, _ = soft_attention_per_step(params.attn, v_e, h, v_e.shape[0])
    h_new, c_new = lstm_step(params.sent_lstm, context, h, c)
    topic = relu(params.topic(h_new))
    stop = params.stop_out(tanh(add(params.stop_prev(h), params.stop_cur(h_new))))
    return h_new, c_new, topic, stop, params.abnormal_head(h_new)


def sentence_step_one(params, v_e, h, c):
    """``sentence_step_ref`` with the two logits as floats."""
    h, c, topic, stop, abn = sentence_step_ref(params, v_e, h, c)
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


def _sum(terms):
    total = terms[0]
    for term in terms[1:]:
        total = add(total, term)
    return total


def reference_total_loss(params, config, records):
    """``compute_losses(...).total`` on the tape, one record, sentence and
    word at a time: per-step attention keys and one ``lstm_step`` per word."""
    stop, abnormal, words, tags = [], [], [], []
    for r in records:
        v_e, v_hat = encode_record(params, r.feature_map())
        h = zeros((1, config.hidden_dim))
        c = zeros((1, config.hidden_dim))
        last = len(r.sentences) - 1
        for m, sent in enumerate(r.sentences):
            h, c, topic, stop_logit, abn_logit = sentence_step_ref(params, v_e, h, c)
            stop.append(sigmoid_ce(stop_logit, [[1.0 if m == last else 0.0]]))
            branch = "normal"
            if config.dual_enabled:
                abnormal.append(sigmoid_ce(abn_logit, [[float(r.abnormal_flags[m])]]))
                branch = "abnormal" if r.abnormal_flags[m] else "normal"
            gold = [BOS_ID] + list(sent)
            logits = gather_rows(word_forward(params, topic, gold, branch), range(1, len(gold)))
            words.append(sub(logsumexp_lastdim(logits), select_positions(logits, gold[1:])))
        tags.append(sigmoid_ce(params.mti_head(v_hat), r.multi_hot(config.mti_labels)[None]))
    inv = 1.0 / len(records)
    total = _sum([
        scale(_sum([sum_all(t) for t in stop]), config.lambda_stop * inv),
        scale(_sum([sum_all(t) for t in words]), config.lambda_hierarchical * inv),
        scale(_sum([sum_all(t) for t in tags]), config.lambda_mti * inv),
    ])
    if config.dual_enabled:
        total = add(total, scale(_sum([sum_all(t) for t in abnormal]), config.lambda_abnormal * inv))
    return total


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


def adam_step_reference(named_params, grads, state, learning_rate,
                        beta1=0.9, beta2=0.999, eps=1e-8):
    """``hdlm.training.adam_step`` as first written: each term a fresh array."""
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    for name, tensor in named_params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        tensor.data -= learning_rate * (m / c1) / (np.sqrt(v / c2) + eps)


def clip_gradients_reference(grads, max_norm):
    """``hdlm.training.clip_gradients`` as first written."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_reference(pairs, max_n=4):
    """Corpus BLEU-``max_n`` alone, recounting every order of every pair."""
    log_sum = 0.0
    for n in range(1, max_n + 1):
        num = den = 0
        for pair in pairs:
            hyp_counts = _ngrams(pair.hypothesis, n)
            best = Counter()
            for ref in pair.references:
                for gram, count in _ngrams(ref, n).items():
                    best[gram] = max(best[gram], count)
            num += sum(min(c, best[g]) for g, c in hyp_counts.items())
            den += max(len(pair.hypothesis) - n + 1, 0)
        if num == 0 or den == 0:
            return 0.0
        log_sum += math.log(num / den)
    c = sum(len(p.hypothesis) for p in pairs)
    if c == 0:
        return 0.0
    r = sum(_closest_ref_length(len(p.hypothesis), p.references) for p in pairs)
    bp = min(1.0, math.exp(1.0 - r / c))
    return bp * math.exp(log_sum / max_n)


def lcs_length_reference(a, b):
    """Longest common subsequence length, standard quadratic table."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def chunk_count_reference(hyp, ref):
    """``hdlm.metrics._chunk_count`` rescanning every (i, j) pair for each
    fragment it takes."""
    used_h = [False] * len(hyp)
    used_r = [False] * len(ref)
    chunks = 0
    while True:
        best_len, best = 0, None
        for i in range(len(hyp)):
            if used_h[i]:
                continue
            for j in range(len(ref)):
                if used_r[j] or hyp[i] != ref[j]:
                    continue
                k = 0
                while (
                    i + k < len(hyp)
                    and j + k < len(ref)
                    and not used_h[i + k]
                    and not used_r[j + k]
                    and hyp[i + k] == ref[j + k]
                ):
                    k += 1
                if k > best_len:
                    best_len, best = k, (i, j)
        if best is None:
            break
        i, j = best
        for t in range(best_len):
            used_h[i + t] = used_r[j + t] = True
        chunks += 1
    return chunks


def cider_d_reference(pairs, max_n=4, sigma=6.0):
    """``hdlm.metrics.cider_d`` counting each reference twice, once for the
    document frequencies and once for the vectors (without the single-pair
    warning)."""
    num_docs = len(pairs)
    df = [Counter() for _ in range(max_n)]
    for pair in pairs:
        for n in range(1, max_n + 1):
            seen = set()
            for ref in pair.references:
                seen.update(_ngrams(ref, n))
            for gram in seen:
                df[n - 1][gram] += 1

    def vec(tokens, n):
        out = {}
        for gram, count in _ngrams(tokens, n).items():
            out[gram] = count * math.log(num_docs / max(df[n - 1][gram], 1))
        return out

    total = 0.0
    for pair in pairs:
        order_sum = 0.0
        for n in range(1, max_n + 1):
            g_hyp = vec(pair.hypothesis, n)
            norm_hyp = math.sqrt(sum(v * v for v in g_hyp.values()))
            ref_sum = 0.0
            for ref in pair.references:
                g_ref = vec(ref, n)
                norm_ref = math.sqrt(sum(v * v for v in g_ref.values()))
                if norm_hyp == 0.0 or norm_ref == 0.0:
                    continue
                clipped = sum(
                    min(v, g_ref.get(gram, 0.0)) * g_ref.get(gram, 0.0)
                    for gram, v in g_hyp.items()
                )
                delta = len(pair.hypothesis) - len(ref)
                ref_sum += (
                    clipped / (norm_hyp * norm_ref)
                    * math.exp(-(delta * delta) / (2.0 * sigma * sigma))
                )
            order_sum += ref_sum / len(pair.references)
        total += 10.0 * order_sum / max_n
    return total / len(pairs)
