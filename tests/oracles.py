"""Single-record reference implementations of the batched model paths.

The package runs every forward pass batched.  These helpers walk one record,
one sentence and one word at a time instead, on the same ops (one example is
a one-row batch), so tests can hold the batched losses and the batched
decoder to a plainly sequential definition.  Attention keeps its first
formulation: the location keys are recomputed at every sentence step, the
scores are built from a repeated query, ``tanh`` and a matrix product, and
the context is pooled through a [L, D] weighted copy of the embedded
locations, where the package attends over the raw features and embeds the
result (``encode_image_batch`` keeps the embed-first path).
The optimizer keeps its first formulation too, with a fresh array for every
intermediate.  The LSTM cell keeps its unfused gate composition, and a
masked cross-entropy its chain ``sum_all(mul_const(sub(logsumexp_lastdim(x),
select_positions(x, targets)), mask))``.  Ops the package no longer calls
(``reshape``, ``sigmoid``, ``mul``, ``slice_cols``, ``repeat_rows``,
``sum_rowgroups``, ``sub``, ``mul_const``, ``select_positions``,
``logsumexp_lastdim``, the attention chain ``additive_scores``,
``softmax_lastdim`` and ``weighted_sum_rowgroups`` that ``attention``
replaced, ``add_bias``, which ``linear`` took in, ``add`` and ``scale``, which
``weighted_sum`` replaced, and the elementwise
cross-entropies ``sigmoid_ce_elementwise`` and ``softmax_ce_elementwise``
that the package's ``sigmoid_ce`` and ``softmax_ce`` sum, with the per-row
weights the package's losses took before their rows were packed) live on
here as test-local ops.

The scoring kernels keep their first formulations as well: BLEU recounts
every order for each BLEU-n, the LCS fills the quadratic table, the METEOR
chunk count rescans every (i, j) pair per fragment, and CIDEr-D counts each
reference twice.

``write_feature_file`` writes by hand the corrupt feature files that
``save_features`` refuses to write, for the loader's tests.
"""

import math
import struct
from collections import Counter

import numpy as np

from hdlm.data import BOS_ID, EOS_ID, FEATURE_MAGIC, FEATURE_VERSION
from hdlm.inference import GeneratedReport
from hdlm.layers import embed, lstm_step
from hdlm.model import word_step
from hdlm.tensor import (
    ShapeError,
    Tensor,
    _record,
    _stable_sigmoid,
    concat_rows,
    gather_rows,
    linear,
    matmul,
    relu,
    sum_all,
    tanh,
    zeros,
)


def sum_rowgroups(x, group_size):
    """[G*group_size, K] -> [G, K], summing each consecutive group of rows."""
    if x.data.ndim != 2 or group_size < 1 or x.shape[0] % group_size:
        raise ShapeError(f"sum_rowgroups(group_size={group_size}) invalid for shape {x.shape}")
    groups = x.shape[0] // group_size
    k = x.shape[1]
    out = Tensor(x.data.reshape(groups, group_size, k).sum(axis=1))
    _record(out, (x,), lambda g: (np.repeat(g, group_size, axis=0),))
    return out


def softmax_lastdim(x):
    if x.data.ndim == 0 or x.data.shape[-1] == 0:
        raise ShapeError(f"softmax_lastdim needs a nonempty last axis, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def grad(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    _record(out, (x,), grad)
    return out


def weighted_sum_rowgroups(x, weights):
    """[G*K, D] constant rows and [G, K] weights -> [G, D]: each group's rows
    summed with its own weights.  Only the weights get a gradient."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2 or weights.data.ndim != 2 or X.shape[0] != weights.size:
        raise ShapeError(f"weighted_sum_rowgroups shapes do not agree: {X.shape} and {weights.shape}")
    groups, size = weights.shape
    x3 = X.reshape(groups, size, X.shape[1])
    out = Tensor(np.matmul(weights.data[:, None, :], x3)[:, 0, :])
    _record(out, (weights,), lambda g: (np.matmul(x3, g[:, :, None])[:, :, 0],))
    return out


def additive_scores(keys, query, score):
    """Additive attention scores ``tanh(key + query of its group) . score``:
    [G*K, A] keys, [G, A] queries and an [A] score vector give [G, K]."""
    Kd, Q, s = keys.data, query.data, score.data
    if (Kd.ndim != 2 or Q.ndim != 2 or s.ndim != 1 or Q.shape[0] == 0
            or Kd.shape[0] % Q.shape[0] or Kd.shape[1] != s.shape[0] or Q.shape[1] != s.shape[0]):
        raise ShapeError(
            f"additive_scores shapes do not agree: keys {Kd.shape}, query {Q.shape}, score {s.shape}"
        )
    groups, attn = Q.shape
    t = Kd.reshape(groups, -1, attn) + Q[:, None, :]
    np.tanh(t, out=t)
    out = Tensor((t.reshape(-1, attn) @ s[:, None]).reshape(groups, -1))

    def grad(g):
        d = np.multiply(t, t)
        np.subtract(1.0, d, out=d)
        d *= s
        d *= g[:, :, None]
        return d.reshape(Kd.shape), d.sum(axis=1), g.reshape(-1) @ t.reshape(-1, attn)

    _record(out, (keys, query, score), grad)
    return out


def attention_chain(features, keys, h, w_state, score):
    """``hdlm.tensor.attention`` as the four ops it replaced: (attended,
    weights), both tensors."""
    weights = softmax_lastdim(additive_scores(keys, linear(h, w_state), score))
    return weighted_sum_rowgroups(features, weights), weights


def encode_image_batch(params, features, locations):
    """[B*L, C] stacked features, a constant array -> (location embeddings
    [B*L, D], means [B, D]), embedding every location first."""
    v_e = params.img_embed(features)
    v_hat = scale(sum_rowgroups(v_e, locations), 1.0 / locations)
    return v_e, v_hat


def encode_record(params, features):
    """[L, C] features -> (location embeddings [L, D], mean embedding [1, D])."""
    feats = np.asarray(features, dtype=np.float64)
    return encode_image_batch(params, feats, feats.shape[0])


def reshape(x, shape):
    old = x.shape
    out = Tensor(x.data.reshape(shape))
    _record(out, (x,), lambda g: (g.reshape(old),))
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


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add needs matching shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data)
    _record(out, (a, b), lambda g: (g, g))
    return out


def scale(x, s):
    s = float(s)
    out = Tensor(x.data * s)
    _record(out, (x,), lambda g: (g * s,))
    return out


def sub(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"sub needs matching shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data - b.data)
    _record(out, (a, b), lambda g: (g, -g))
    return out


def mul_const(x, c):
    """Elementwise product with a constant (no gradient flows into ``c``)."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 0 and c.shape != x.shape:
        raise ShapeError(f"mul_const constant shape {c.shape} does not match {x.shape}")
    out = Tensor(x.data * c)
    _record(out, (x,), lambda g: (g * c,))
    return out


def select_positions(x, positions):
    """From [S, V] pick entry ``positions[s]`` of each row, giving [S]."""
    pos = np.asarray(positions, dtype=np.int64)
    if x.data.ndim != 2 or pos.shape != (x.shape[0],):
        raise ShapeError(f"select_positions needs [S, V] and S positions, got {x.shape}")
    bad = (pos < 0) | (pos >= x.shape[1])
    if bad.any():
        raise IndexError(f"select_positions index {int(pos[bad][0])} out of range for width {x.shape[1]}")
    rows = np.arange(x.shape[0])
    out = Tensor(x.data[rows, pos])

    def grad(g):
        full = np.zeros(x.shape)
        full[rows, pos] = g
        return (full,)

    _record(out, (x,), grad)
    return out


def logsumexp_lastdim(x):
    """Stable log-sum-exp over the last axis of a [S, V] tensor, giving [S]."""
    if x.data.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"logsumexp_lastdim needs a nonempty [S, V] tensor, got {x.shape}")
    m = x.data.max(axis=1, keepdims=True)
    e = np.exp(x.data - m)
    z = e.sum(axis=1, keepdims=True)
    out = Tensor((m + np.log(z)).reshape(-1))
    soft = e / z
    _record(out, (x,), lambda g: (soft * g[:, None],))
    return out


def add_bias(x, b):
    """Add a length-K bias row to every row of a [S, K] tensor."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias shapes do not agree: {x.shape} + {b.shape}")
    out = Tensor(x.data + b.data)
    _record(out, (x, b), lambda g: (g, g.sum(axis=0)))
    return out


def sigmoid_ce_elementwise(logits, targets, weights=1.0):
    """``hdlm.tensor.sigmoid_ce`` before its sum: each element's weighted
    cross-entropy, the logits' shape."""
    y = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if y.shape != logits.shape or (w.ndim and w.shape != logits.shape):
        raise ShapeError(f"sigmoid_ce targets {y.shape} and weights {w.shape} do not match logits {logits.shape}")
    z = logits.data
    out = Tensor((np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))) * w)
    _record(out, (logits,), lambda g: (g * w * (_stable_sigmoid(z) - y),))
    return out


def softmax_ce_elementwise(logits, targets, weights):
    """``hdlm.tensor.softmax_ce`` before its sum: [S, V] logits, S target
    columns and S weights give each row's weighted cross-entropy, [S]."""
    x = logits.data
    pos = np.asarray(targets, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0 or pos.shape != (x.shape[0],) or w.shape != pos.shape:
        raise ShapeError(f"softmax_ce needs nonempty [S, V] logits, S targets and S weights, "
                         f"got {x.shape}, {pos.shape} and {w.shape}")
    rows = np.arange(x.shape[0])
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=1, keepdims=True)
    out = Tensor(((m + np.log(z)).reshape(-1) - x[rows, pos]) * w)
    soft = e / z

    def grad(g):
        gw = g * w
        gx = soft * gw[:, None]
        gx[rows, pos] -= gw
        return (gx,)

    _record(out, (logits,), grad)
    return out


def softmax_ce_chain(logits, targets, weights):
    """``hdlm.tensor.softmax_ce`` as the chain of ops it fuses."""
    return sum_all(mul_const(sub(logsumexp_lastdim(logits), select_positions(logits, targets)), weights))


def sigmoid_ce_chain(logits, targets, weights):
    """Weighted ``hdlm.tensor.sigmoid_ce`` as the sum of an unweighted
    elementwise one times a constant."""
    return sum_all(mul_const(sigmoid_ce_elementwise(logits, targets), weights))


def lstm_update_composed(params, x_proj, h, c):
    """One step of ``hdlm.tensor.lstm`` with one op per gate slice,
    activation and product, as the cell was first written."""
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


def sentence_forward_reference(params, config, records, depth):
    """``hdlm.model.sentence_forward`` one record at a time, embedding every
    location first and recomputing the keys at every sentence step."""
    v_hats, steps = [], [[] for _ in range(depth)]
    for r in records:
        v_e, v_hat = encode_record(params, r.feature_map())
        v_hats.append(v_hat)
        h = zeros((1, config.hidden_dim))
        c = zeros((1, config.hidden_dim))
        for m in range(depth):
            h, c, *heads = sentence_step_ref(params, v_e, h, c)
            steps[m].append(heads)
    rows = [heads for step in steps for heads in step]
    return (concat_rows(v_hats), *(concat_rows([r[k] for r in rows]) for k in range(3)))


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
    cell, proj = params.word_branch(branch)
    hidden = cell.hidden_size
    h = zeros((1, hidden))
    c = zeros((1, hidden))
    x = topic
    rows = []
    for t in range(len(gold)):
        if t > 0:
            x = embed(params.embedding, [gold[t - 1]])
        h, c = word_step(params, branch, x, h, c)
        rows.append(proj(h))
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
            stop.append(sigmoid_ce_elementwise(stop_logit, [[1.0 if m == last else 0.0]]))
            branch = "normal"
            if config.dual_enabled:
                abnormal.append(sigmoid_ce_elementwise(abn_logit, [[float(r.abnormal_flags[m])]]))
                branch = "abnormal" if r.abnormal_flags[m] else "normal"
            gold = [BOS_ID] + list(sent)
            logits = gather_rows(word_forward(params, topic, gold, branch), range(1, len(gold)))
            words.append(sub(logsumexp_lastdim(logits), select_positions(logits, gold[1:])))
        tags.append(sigmoid_ce_elementwise(params.mti_head(v_hat), r.multi_hot(config.mti_labels)[None]))
    inv = 1.0 / len(records)
    total = _sum([
        scale(_sum([sum_all(t) for t in stop]), config.lambda_stop * inv),
        scale(_sum([sum_all(t) for t in words]), config.lambda_hierarchical * inv),
        scale(_sum([sum_all(t) for t in tags]), config.lambda_mti * inv),
    ])
    if config.dual_enabled:
        total = add(total, scale(_sum([sum_all(t) for t in abnormal]), config.lambda_abnormal * inv))
    return total


def weighted_sum_chain(config, batch, means):
    """A stand-in for ``hdlm.model.weighted_sum`` that builds
    ``compute_losses``'s sums from the ops it replaced.  The stop head's two
    terms go through one ``add``.  The total's batch sums (stop, each word
    branch, tags, then abnormal when dual is on) are each scaled by 1/B, the
    two word sums added first, then each scaled by its weight and added up.
    Each term's batch mean, as a float, goes into the dict ``means``."""
    inv = 1.0 / batch

    def chain(terms, weights):
        if len(terms) == 2:  # the stop head: a total has three terms or more
            return add(*terms)
        stop, *words, tags = terms[:len(terms) - config.dual_enabled]
        word = words[0] if len(words) == 1 else add(*words)
        losses = {"stop": scale(stop, inv), "hierarchical": scale(word, inv), "mti": scale(tags, inv)}
        total = add(add(scale(losses["stop"], config.lambda_stop),
                        scale(losses["hierarchical"], config.lambda_hierarchical)),
                    scale(losses["mti"], config.lambda_mti))
        if config.dual_enabled:
            losses["abnormal"] = scale(terms[-1], inv)
            total = add(total, scale(losses["abnormal"], config.lambda_abnormal))
        means.update((name, float(t.data)) for name, t in losses.items())
        return total

    return chain


def greedy_decode_sentence(params, topic, branch, max_words):
    """Argmax decoding of one sentence from a [1, D] topic row.

    Returns up to ``max_words`` token ids; the terminal EOS is included only
    when the decoder emitted it within the cap.
    """
    cell, proj = params.word_branch(branch)
    h, c = word_step(params, branch, topic, zeros((1, cell.hidden_size)), zeros((1, cell.hidden_size)))
    tokens = []
    prev = BOS_ID
    for _ in range(max_words):
        h, c = word_step(params, branch, embed(params.embedding, [prev]), h, c)
        token = int(np.argmax(proj(h).data[0]))
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


def collect_gradients(grads, named_params):
    """``backward``'s gradients by parameter name, zero-filled where the loss
    never touched the parameter, as the package collected them before
    ``backward`` wrote into a flat store."""
    return {name: grads[t] if t in grads else np.zeros_like(t.data)
            for name, t in named_params.items()}


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
            ref_counts = _ngrams(pair.reference, n)
            num += sum(min(c, ref_counts[g]) for g, c in _ngrams(pair.hypothesis, n).items())
            den += max(len(pair.hypothesis) - n + 1, 0)
        if num == 0 or den == 0:
            return 0.0
        log_sum += math.log(num / den)
    c = sum(len(p.hypothesis) for p in pairs)
    if c == 0:
        return 0.0
    r = sum(len(p.reference) for p in pairs)
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
            for gram in _ngrams(pair.reference, n):
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
            g_ref = vec(pair.reference, n)
            norm_hyp = math.sqrt(sum(v * v for v in g_hyp.values()))
            norm_ref = math.sqrt(sum(v * v for v in g_ref.values()))
            if norm_hyp == 0.0 or norm_ref == 0.0:
                continue
            clipped = sum(
                min(v, g_ref.get(gram, 0.0)) * g_ref.get(gram, 0.0)
                for gram, v in g_hyp.items()
            )
            delta = len(pair.hypothesis) - len(pair.reference)
            order_sum += (
                clipped / (norm_hyp * norm_ref)
                * math.exp(-(delta * delta) / (2.0 * sigma * sigma))
            )
        total += 10.0 * order_sum / max_n
    return total / len(pairs)


def write_feature_file(path, features):
    """A feature file written byte by byte in ``save_features``' layout, for
    the maps that ``save_features`` refuses: an empty grid, or a value that
    is not finite."""
    features = np.asarray(features, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, *features.shape) + features.tobytes())
