"""Model forward passes and training losses, checked against plain-numpy
recomputation and closed-form values for the all-zero parameter setting."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdlm.model
from hdlm.data import (
    BOS_ID, EOS_ID, ConfigError, ReportRecord, SynthConfig, load_corpus, save_corpus, synth_corpus,
)
from hdlm.layers import attention_keys, lstm_step, soft_attention_batch
from hdlm.model import (
    LossBundle,
    ModelConfig,
    ModelParams,
    compute_losses,
    sentence_forward,
    sentence_heads,
    stack_features,
)
from hdlm.tensor import (
    ShapeError,
    Tape,
    Tensor,
    backward,
    flat_views,
    gradient_audit,
    seeded_rng,
    zeros,
)
from oracles import (
    collect_gradients, encode_record, reference_total_loss, sentence_forward_reference, sentence_step_one,
    weighted_sum_chain, word_forward,
)


def toy_config(**kw):
    base = dict(
        vocab_size=8,
        mti_labels=3,
        channels=4,
        embed_dim=5,
        hidden_dim=6,
        locations=3,
        max_sentences=4,
        max_words=6,
    )
    base.update(kw)
    return ModelConfig(**base)


def zeroed(params: ModelParams) -> ModelParams:
    for t in params.named_parameters().values():
        t.data[:] = 0.0
    return params


def make_record(rid, config, sentences, flags, labels, seed):
    rng = seeded_rng(seed)
    return ReportRecord(
        id=rid,
        sentences=sentences,
        abnormal_flags=flags,
        mti_labels=labels,
        feature_ref=rng.normal(size=(config.locations, config.channels)),
    )


def toy_batch(config):
    r1 = make_record(
        "a", config, [[4, 5, EOS_ID], [6, EOS_ID]], [False, True], (0, 2), seed=1
    )
    r2 = make_record("b", config, [[7, EOS_ID]], [False], (1,), seed=2)
    return [r1, r2]


def _softplus_ce(z: float, y: float) -> float:
    return max(z, 0.0) - z * y + math.log1p(math.exp(-abs(z)))


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_bad_dims_and_weights():
    with pytest.raises(ConfigError, match="vocab_size"):
        toy_config(vocab_size=3)
    with pytest.raises(ConfigError, match="hidden_dim"):
        toy_config(hidden_dim=0)
    with pytest.raises(ConfigError, match="lambda_mti"):
        toy_config(lambda_mti=-1.0)


def test_config_dual_off_forces_zero_abnormal_weight():
    cfg = toy_config(dual_enabled=False, lambda_abnormal=3.5)
    assert cfg.lambda_abnormal == 0.0
    assert toy_config(lambda_abnormal=3.5).lambda_abnormal == 3.5


def test_named_parameters_cover_every_group_uniquely():
    params = ModelParams.create(toy_config(), seed=0)
    named = params.named_parameters()
    # checkpoints store entries under these names, in this order
    assert list(named) == [
        "img_embed.weight", "img_embed.bias", "attn.w_location", "attn.w_state", "attn.score",
        "sent_lstm.w_input", "sent_lstm.w_recur", "sent_lstm.bias", "topic.weight",
        "stop.prev.weight", "stop.cur.weight", "stop.out.weight",
        "abnormal_head.weight", "abnormal_head.bias", "embedding.matrix",
        "word_abnormal.lstm.w_input", "word_abnormal.lstm.w_recur", "word_abnormal.lstm.bias",
        "word_abnormal.out.weight", "word_abnormal.out.bias",
        "word_normal.lstm.w_input", "word_normal.lstm.w_recur", "word_normal.lstm.bias",
        "word_normal.out.weight", "word_normal.out.bias", "mti_head.weight", "mti_head.bias",
    ]
    assert len({id(t) for t in named.values()}) == 27


def test_create_is_seed_deterministic():
    cfg = toy_config()
    a = ModelParams.create(cfg, seed=5).named_parameters()
    b = ModelParams.create(cfg, seed=5).named_parameters()
    other = ModelParams.create(cfg, seed=6).named_parameters()
    assert all(np.array_equal(a[n].data, b[n].data) for n in a)
    assert any(not np.array_equal(a[n].data, other[n].data) for n in a)


def test_stop_and_topic_layers_have_no_bias():
    params = ModelParams.create(toy_config(), seed=0)
    assert params.topic.bias is None
    assert params.stop_prev.bias is None
    assert params.stop_cur.bias is None
    assert params.stop_out.bias is None
    assert params.abnormal_head.bias is not None


def test_stack_features_widens_float32_maps_in_its_one_copy():
    # synth_corpus and load_corpus give float32 maps, and a hand-built record
    # such as toy_batch's may hold a float64 one; a batch is float64 either
    # way, and widening is exact
    cfg = toy_config()
    records = toy_batch(cfg)
    narrow = [dataclasses.replace(r, feature_ref=r.feature_ref.astype(np.float32)) for r in records]
    for name, batch in {"float32": narrow, "float64": records, "mixed": [narrow[0], records[1]]}.items():
        stacked = stack_features(cfg, batch)
        assert stacked.dtype == np.float64 and stacked.shape == (2 * cfg.locations, cfg.channels), name
        want = np.concatenate([r.feature_ref.astype(np.float64) for r in batch])
        assert stacked.tobytes() == want.tobytes(), name
    short = dataclasses.replace(narrow[1], feature_ref=narrow[1].feature_ref[:-1])
    with pytest.raises(ShapeError, match=r"record 'b': feature map \(2, 4\) does not match model \(3, 4\)"):
        stack_features(cfg, [narrow[0], short])


# ---------------------------------------------------------------------------
# forward pieces against plain-numpy recomputation


def test_encode_image_matches_numpy():
    # the composed keys and the embedded mean feature against numpy's
    # embed-every-location-first computation
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=3)
    records = toy_batch(cfg)
    stacked = stack_features(cfg, records)
    want = stacked @ params.img_embed.weight.data.T + params.img_embed.bias.data
    keys = attention_keys(params.attn, params.img_embed, stacked)
    assert np.allclose(keys.data, want @ params.attn.w_location.data.T, atol=1e-12)
    v_hat, _, _, _ = sentence_forward(params, cfg, records, [len(records)])
    means = want.reshape(2, cfg.locations, -1).mean(axis=1)
    assert np.allclose(v_hat.data, means, atol=1e-12)


def test_sentence_step_matches_hand_composition(monkeypatch):
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=4)
    records = toy_batch(cfg)
    batch = len(records)

    # per step: attend, embed, update, then the heads on that step's rows alone
    features = stack_features(cfg, records)
    keys = attention_keys(params.attn, params.img_embed, features)
    v_hat_want = params.img_embed(features.reshape(batch, cfg.locations, -1).mean(axis=1))
    h = zeros((batch, cfg.hidden_dim))
    c = zeros((batch, cfg.hidden_dim))
    want = []
    for _ in range(2):
        attended, _ = soft_attention_batch(params.attn, features, keys, h, cfg.locations)
        h_new, c_new = lstm_step(params.sent_lstm, params.img_embed(attended), h, c)
        want.append((h_new, c_new, *sentence_heads(params, h, h_new)))
        h, c = h_new, c_new

    states = []

    def spy(*args):
        out = lstm_step(*args)
        states.append(out)
        return out

    monkeypatch.setattr(hdlm.model, "lstm_step", spy)
    v_hat, topics, stop, abn = sentence_forward(params, cfg, records, [batch] * 2)
    assert np.array_equal(v_hat.data, v_hat_want.data)
    v_e = features @ params.img_embed.weight.data.T + params.img_embed.bias.data
    locs = v_e.reshape(batch, cfg.locations, -1)
    np.testing.assert_allclose(v_hat.data, locs.mean(axis=1), rtol=0, atol=1e-12)
    assert len(states) == 2
    assert topics.shape == (2 * batch, cfg.embed_dim)
    assert stop.shape == abn.shape == (2 * batch, 1)
    for m, ((h_got, c_got), step) in enumerate(zip(states, want)):
        h_want, c_want, topic_want, stop_want, abn_want = step
        assert np.array_equal(h_got.data, h_want.data)
        assert np.array_equal(c_got.data, c_want.data)
        rows = slice(m * batch, (m + 1) * batch)
        np.testing.assert_allclose(topics.data[rows], topic_want.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stop.data[rows], stop_want.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(abn.data[rows], abn_want.data, rtol=0, atol=1e-12)

    # the second step in plain numpy, from the first step's states
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    (h0, c0), (h1, c1) = [(step[0].data, step[1].data) for step in want]
    scores = np.tanh(
        locs @ params.attn.w_location.data.T + (h0 @ params.attn.w_state.data.T)[:, None]
    ) @ params.attn.score.data
    w = np.exp(scores - scores.max(axis=1, keepdims=True))
    ctx = ((w / w.sum(axis=1, keepdims=True))[:, :, None] * locs).sum(axis=1)
    hs = cfg.hidden_dim
    z = (ctx @ params.sent_lstm.w_input.data.T + h0 @ params.sent_lstm.w_recur.data.T
         + params.sent_lstm.bias.data)
    i, f = sig(z[:, :hs]), sig(z[:, hs:2 * hs])
    g, o = np.tanh(z[:, 2 * hs:3 * hs]), sig(z[:, 3 * hs:])
    np.testing.assert_allclose(c1, f * c0 + i * g, rtol=0, atol=1e-12)
    np.testing.assert_allclose(h1, o * np.tanh(f * c0 + i * g), rtol=0, atol=1e-12)
    topic_np = np.maximum(h1 @ params.topic.weight.data.T, 0.0)
    stop_np = np.tanh(
        h0 @ params.stop_prev.weight.data.T + h1 @ params.stop_cur.weight.data.T
    ) @ params.stop_out.weight.data.T
    abn_np = h1 @ params.abnormal_head.weight.data.T + params.abnormal_head.bias.data
    np.testing.assert_allclose(topics.data[batch:], topic_np, rtol=0, atol=1e-12)
    np.testing.assert_allclose(stop.data[batch:], stop_np, rtol=0, atol=1e-12)
    np.testing.assert_allclose(abn.data[batch:], abn_np, rtol=0, atol=1e-12)


def test_word_forward_hand_unroll():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=7)
    rng = seeded_rng(11)
    topic = rng.normal(size=cfg.embed_dim)
    gold = [BOS_ID, 4, 6, EOS_ID]
    logits = word_forward(params, Tensor(topic[None]), gold, "normal").data
    assert logits.shape == (len(gold), cfg.vocab_size)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    cell, proj = params.word_normal, params.word_normal_out
    hs = cfg.hidden_dim
    h = np.zeros(hs)
    c = np.zeros(hs)
    for t in range(len(gold)):
        x = topic if t == 0 else params.embedding.matrix.data[gold[t - 1]]
        z = cell.w_input.data @ x + cell.w_recur.data @ h + cell.bias.data
        c = sig(z[hs:2 * hs]) * c + sig(z[:hs]) * np.tanh(z[2 * hs:3 * hs])
        h = sig(z[3 * hs:]) * np.tanh(c)
        want = proj.weight.data @ h + proj.bias.data
        assert np.allclose(logits[t], want, atol=1e-12), f"step {t}"


def test_word_forward_is_teacher_forced():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=7)
    topic = Tensor(seeded_rng(12).normal(size=(1, cfg.embed_dim)))
    a = word_forward(params, topic, [BOS_ID, 4, 5, EOS_ID], "normal").data
    b = word_forward(params, topic, [BOS_ID, 6, 5, EOS_ID], "normal").data
    # rows 0 and 1 precede the first differing input token
    assert np.array_equal(a[:2], b[:2])
    assert not np.allclose(a[2], b[2])


def test_word_forward_errors():
    params = ModelParams.create(toy_config(), seed=0)
    topic = zeros((1, 5))
    with pytest.raises(ValueError, match="nonempty"):
        word_forward(params, topic, [], "normal")
    with pytest.raises(ValueError, match="sideways"):
        word_forward(params, topic, [BOS_ID, EOS_ID], "sideways")


def test_word_forward_zero_params_is_uniform():
    cfg = toy_config()
    params = zeroed(ModelParams.create(cfg, seed=0))
    logits = word_forward(params, zeros((1, cfg.embed_dim)), [BOS_ID, 4, EOS_ID], "abnormal")
    assert np.array_equal(logits.data, np.zeros((3, cfg.vocab_size)))


def test_mti_head_zero_params_is_half():
    cfg = toy_config()
    params = zeroed(ModelParams.create(cfg, seed=0))
    _, v_hat = encode_record(params, seeded_rng(1).normal(size=(cfg.locations, cfg.channels)))
    logits = params.mti_head(v_hat).data
    assert logits.shape == (1, cfg.mti_labels)
    assert np.array_equal(1.0 / (1.0 + np.exp(-logits)), np.full((1, cfg.mti_labels), 0.5))


# ---------------------------------------------------------------------------
# losses: closed forms at zero parameters


def test_zero_model_losses_hit_closed_forms():
    cfg = toy_config()
    params = zeroed(ModelParams.create(cfg, seed=0))
    records = toy_batch(cfg)
    bundle = compute_losses(params, cfg, records)
    n = bundle.numbers()
    ln2, lnv = math.log(2.0), math.log(cfg.vocab_size)
    sentences = [2, 1]
    words = [3 + 2, 2]  # token counts including EOS
    assert abs(n["stop"] - np.mean([s * ln2 for s in sentences])) < 1e-12
    assert abs(n["hierarchical"] - np.mean([w * lnv for w in words])) < 1e-12
    assert abs(n["abnormal"] - np.mean([s * ln2 for s in sentences])) < 1e-12
    assert abs(n["mti"] - cfg.mti_labels * ln2) < 1e-12
    want_total = (
        cfg.lambda_stop * n["stop"]
        + cfg.lambda_hierarchical * n["hierarchical"]
        + cfg.lambda_mti * n["mti"]
        + cfg.lambda_abnormal * n["abnormal"]
    )
    assert abs(n["total"] - want_total) < 1e-12


def test_loss_weights_scale_their_terms():
    cfg = toy_config(lambda_stop=2.0, lambda_hierarchical=3.0, lambda_abnormal=5.0, lambda_mti=7.0)
    params = ModelParams.create(cfg, seed=2)
    n = compute_losses(params, cfg, toy_batch(cfg)).numbers()
    want = 2.0 * n["stop"] + 3.0 * n["hierarchical"] + 7.0 * n["mti"] + 5.0 * n["abnormal"]
    assert abs(n["total"] - want) < 1e-12


# ---------------------------------------------------------------------------
# losses: batched path equals the naive single-record definition


def naive_losses(params, config, records):
    stop_t = word_t = abn_t = mti_t = 0.0
    for r in records:
        v_e, v_hat = encode_record(params, r.feature_map())
        h = zeros((1, config.hidden_dim))
        c = zeros((1, config.hidden_dim))
        last = len(r.sentences) - 1
        for m, sent in enumerate(r.sentences):
            h, c, topic, stop, abn = sentence_step_one(params, v_e, h, c)
            stop_t += _softplus_ce(stop, 1.0 if m == last else 0.0)
            branch = "normal"
            if config.dual_enabled:
                abn_t += _softplus_ce(abn, float(r.abnormal_flags[m]))
                branch = "abnormal" if r.abnormal_flags[m] else "normal"
            gold = [BOS_ID] + list(sent)
            logits = word_forward(params, topic, gold, branch).data
            for t in range(1, len(gold)):
                row = logits[t]
                m_ = row.max()
                word_t += m_ + math.log(np.exp(row - m_).sum()) - row[gold[t]]
        z = params.mti_head(v_hat).data[0]
        y = r.multi_hot(config.mti_labels)
        mti_t += sum(_softplus_ce(float(zk), float(yk)) for zk, yk in zip(z, y))
    b = len(records)
    out = {
        "stop": stop_t / b,
        "hierarchical": word_t / b,
        "abnormal": abn_t / b,
        "mti": mti_t / b,
    }
    out["total"] = (
        config.lambda_stop * out["stop"]
        + config.lambda_hierarchical * out["hierarchical"]
        + config.lambda_abnormal * out["abnormal"]
        + config.lambda_mti * out["mti"]
    )
    return out


@pytest.mark.parametrize("dual", [True, False])
def test_batched_losses_equal_naive_reference(dual):
    cfg = toy_config(dual_enabled=dual)
    params = ModelParams.create(cfg, seed=6)
    records = toy_batch(cfg) + [
        make_record(
            "c", cfg, [[5, 4, 7, EOS_ID], [4, EOS_ID], [6, 6, EOS_ID]],
            [True, True, False], (2,), seed=3,
        )
    ]
    got = compute_losses(params, cfg, records).numbers()
    want = naive_losses(params, cfg, records)
    for key in want:
        assert abs(got[key] - want[key]) < 1e-10, key


def test_duplicate_record_keeps_mean_loss():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=1)
    rec = toy_batch(cfg)[0]
    single = compute_losses(params, cfg, [rec]).numbers()
    double = compute_losses(params, cfg, [rec, rec]).numbers()
    for key in single:
        assert abs(single[key] - double[key]) < 1e-12


# ---------------------------------------------------------------------------
# gradients


def grads_by_name(params, config, records):
    with Tape() as tape:
        bundle = compute_losses(params, config, records)
    grads = backward(tape, bundle.total)
    return {
        name: grads.get(t)
        for name, t in params.named_parameters().items()
    }, bundle


def test_branch_isolation_is_exact():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=9)
    all_normal = [
        make_record("n", cfg, [[4, EOS_ID], [5, EOS_ID]], [False, False], (0,), seed=4)
    ]
    grads, _ = grads_by_name(params, cfg, all_normal)
    for name, g in grads.items():
        if name.startswith("word_abnormal"):
            assert g is None, f"{name} should be untouched"
        if name.startswith("word_normal"):
            assert g is not None and np.abs(g).max() > 0

    all_abnormal = [
        make_record("a", cfg, [[4, EOS_ID], [5, EOS_ID]], [True, True], (0,), seed=4)
    ]
    grads, _ = grads_by_name(params, cfg, all_abnormal)
    for name, g in grads.items():
        if name.startswith("word_normal"):
            assert g is None, f"{name} should be untouched"
        if name.startswith("word_abnormal"):
            assert g is not None and np.abs(g).max() > 0


def test_dual_disabled_is_bitwise_independent_of_abnormal_branch():
    base = dict(vocab_size=8, mti_labels=3, channels=4, embed_dim=5,
                hidden_dim=6, locations=3, dual_enabled=False)
    cfg_a = ModelConfig(lambda_abnormal=0.0, **base)
    cfg_b = ModelConfig(lambda_abnormal=123.0, **base)
    records = toy_batch(cfg_a)
    n_a = compute_losses(ModelParams.create(cfg_a, seed=3), cfg_a, records).numbers()
    n_b = compute_losses(ModelParams.create(cfg_b, seed=3), cfg_b, records).numbers()
    assert n_a == n_b
    assert n_a["abnormal"] == 0.0

    # abnormal-flagged sentences route through the normal decoder
    cfg = ModelConfig(**base)
    params = ModelParams.create(cfg, seed=3)
    flagged = [make_record("x", cfg, [[4, EOS_ID]], [True], (0,), seed=5)]
    grads, _ = grads_by_name(params, cfg, flagged)
    assert grads["word_normal.lstm.w_input"] is not None
    assert grads["word_abnormal.lstm.w_input"] is None
    assert grads["abnormal_head.weight"] is None


def test_tag_loss_reaches_image_embedding():
    cfg = toy_config(lambda_stop=0.0, lambda_hierarchical=0.0, lambda_abnormal=0.0)
    params = ModelParams.create(cfg, seed=10)
    grads, _ = grads_by_name(params, cfg, toy_batch(cfg))
    assert np.abs(grads["mti_head.weight"]).max() > 0
    assert np.abs(grads["img_embed.weight"]).max() > 0


def test_compute_losses_is_deterministic():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=12)
    records = toy_batch(cfg)
    assert compute_losses(params, cfg, records).numbers() == \
        compute_losses(params, cfg, records).numbers()


def test_tape_entries_do_not_grow_with_sentence_length():
    # each word branch's teacher-forced recurrence is one lstm entry
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=3)
    short = toy_batch(cfg)
    longer = [dataclasses.replace(short[0], sentences=[[4, 5, 6, 7, 5, 4, EOS_ID], [6, EOS_ID]]),
              short[1]]
    counts = []
    for records in (short, longer):
        with Tape() as tape:
            compute_losses(params, cfg, records)
        counts.append(len(tape.entries))
    assert counts[0] == counts[1]


def test_readme_batch_records_few_tape_entries():
    # the README corpus and model shape (E = H = 24) in batches of 16: an
    # LSTM call, a sentence step's attention, a layer call with its bias and
    # a loss term's cross-entropy are one entry each, each word branch calls
    # the LSTM once, and each head runs once per batch
    synth = SynthConfig(records=150, normal_pool=30, abnormal_pool=15,
                        zipf_exponent=1.1, vocab_words=60, seed=9)
    corpus = synth_corpus(synth)
    cfg = ModelConfig(
        vocab_size=corpus.vocab.size, mti_labels=synth.tag_count, locations=synth.locations,
        channels=synth.channels, embed_dim=24, hidden_dim=24,
        max_sentences=synth.max_sentences + 1, max_words=synth.max_words + 3,
    )
    # the loss total is one weighted_sum entry
    for dual, bound in ((True, 51), (False, 42)):
        cfg = dataclasses.replace(cfg, dual_enabled=dual)
        params = ModelParams.create(cfg, seed=0)
        for start in range(0, len(corpus.records), 16):
            with Tape() as tape:
                compute_losses(params, cfg, corpus.records[start:start + 16])
            assert len(tape.entries) <= bound, dual


def random_case(seed, dual, **dims_override):
    """A random toy model (weights scaled out of the near-linear init range)
    and a random batch that mixes branches and sentence lengths; keyword
    arguments replace drawn model dims."""
    rng = seeded_rng(seed)
    dims = rng.integers(2, 7, size=5)
    cfg = ModelConfig(
        vocab_size=int(rng.integers(6, 12)), mti_labels=int(dims[0]), channels=int(dims[1]),
        embed_dim=int(dims[2]), hidden_dim=int(dims[3]), locations=int(dims[4]),
        lambda_stop=float(rng.uniform(0.5, 2.0)), lambda_hierarchical=float(rng.uniform(0.5, 2.0)),
        lambda_abnormal=float(rng.uniform(0.5, 2.0)), lambda_mti=float(rng.uniform(0.5, 2.0)),
        dual_enabled=dual,
    )
    cfg = dataclasses.replace(cfg, **dims_override)
    params = ModelParams.create(cfg, seed=seed)
    for t in params.named_parameters().values():
        t.data *= 8.0
    records = []
    for k in range(int(rng.integers(1, 5))):
        count = int(rng.integers(1, 5))
        sentences = [
            [int(v) for v in rng.integers(4, cfg.vocab_size, size=int(rng.integers(0, 6)))] + [EOS_ID]
            for _ in range(count)
        ]
        flags = [bool(v) for v in rng.integers(0, 2, size=count)]
        labels = tuple(sorted({int(v) for v in rng.integers(0, cfg.mti_labels, size=2)}))
        records.append(make_record(f"r{k}", cfg, sentences, flags, labels, seed=100 * seed + k))
    return cfg, params, records


@pytest.mark.parametrize("dual", [True, False])
def test_gradients_match_per_step_reference(dual):
    # the reference recomputes the attention keys at every sentence step,
    # pools through a weighted copy of the locations, runs the sentence
    # heads per step, and runs one lstm_step and output head per word; the
    # batched path hoists the keys and every head out of its loops
    for seed in range(8):
        cfg, params, records = random_case(seed, dual)
        named = params.named_parameters()
        with Tape() as tape:
            total = compute_losses(params, cfg, records).total
        got = collect_gradients(backward(tape, total), named)
        with Tape() as tape:
            ref = reference_total_loss(params, cfg, records)
        want = collect_gradients(backward(tape, ref), named)
        assert abs(total.item() - ref.item()) <= 1e-12 * abs(ref.item()), seed
        for name in named:
            bound = 1e-12 * np.abs(want[name]).max()
            assert np.abs(got[name] - want[name]).max() <= bound, (seed, name)


@pytest.mark.parametrize("dual", [True, False])
def test_weighted_total_is_bitwise_the_add_and_scale_chain(dual, monkeypatch):
    # each batch sum's gradient is 1.0·(λ·inv), bitwise the chain's
    # (1.0·λ)·inv, so every gradient is equal, and the four terms are the
    # chain's values.  The total's last bits may move, since (s·inv)·λ and
    # s·(λ·inv) can round apart: each side is within 6u of the exact sum of
    # its nonnegative terms (two products, up to four additions, the word
    # sums' own addition), u = eps / 2, so the two are within 6 eps
    for seed in range(8):
        cfg, params, records = random_case(seed, dual)
        named = params.named_parameters()
        chain_means = {"abnormal": 0.0}
        runs = []
        for patch in (None, weighted_sum_chain(cfg, len(records), chain_means)):
            with monkeypatch.context() as m:
                if patch is not None:
                    m.setattr(hdlm.model, "weighted_sum", patch)
                with Tape() as tape:
                    bundle = compute_losses(params, cfg, records)
            grads = collect_gradients(backward(tape, bundle.total), named)
            digest = hashlib.sha256(b"".join(grads[name].tobytes() for name in named)).hexdigest()
            runs.append((bundle.numbers(), digest))
        (got, got_digest), (want, want_digest) = runs
        assert got_digest == want_digest, seed
        assert {k: got[k] for k in chain_means} == chain_means, seed
        assert abs(got["total"] - want["total"]) <= 6 * np.finfo(float).eps * want["total"], seed


# one README batch's gradients, the README corpus's first 16 records at the
# README model shape with seed-0 weights, run in a fresh interpreter with
# OpenBLAS on one thread; each line prints the dual setting and the sha256
# of the flat gradient store
README_BATCH_GRADIENTS = """
import hashlib
from hdlm.data import SynthConfig, synth_corpus
from hdlm.model import ModelConfig, ModelParams, compute_losses
from hdlm.tensor import Tape, backward, flat_views

synth = SynthConfig(records=150, normal_pool=30, abnormal_pool=15,
                    zipf_exponent=1.1, vocab_words=60, seed=9)
corpus = synth_corpus(synth)
for dual in (True, False):
    cfg = ModelConfig(
        vocab_size=corpus.vocab.size, mti_labels=synth.tag_count, locations=synth.locations,
        channels=synth.channels, embed_dim=24, hidden_dim=24,
        max_sentences=synth.max_sentences + 1, max_words=synth.max_words + 3, dual_enabled=dual,
    )
    params = ModelParams.create(cfg, seed=0)
    named = params.named_parameters()
    grads = flat_views({n: t.shape for n, t in named.items()})
    with Tape() as tape:
        total = compute_losses(params, cfg, corpus.records[:16]).total
    backward(tape, total, {t: grads[n] for n, t in named.items()})
    print(dual, hashlib.sha256(grads.flat.tobytes()).hexdigest())
"""
# recorded with numpy's OpenBLAS 0.3.31 (DYNAMIC_ARCH, Haswell kernels) on
# x86-64; another BLAS build or CPU may round matmuls differently
PINNED_README_GRADIENTS = {
    "True": "04f986914256f65da7d4e13c5d96120b0b432307ec7678411bef288af144a8ac",
    "False": "9152957622ced6a6760ca4286940b368927a0ec7b3ffba1e5a4d7e28b681a4ac",
}


def test_readme_batch_gradients_are_pinned():
    # the reference comparisons above allow 1e-12; this holds the last bits,
    # which a reordering of the tape can move (running the stop head before
    # the topic head moves the dual-on digest), and with them every
    # checkpoint of a run
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(hdlm.model.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", README_BATCH_GRADIENTS], env=env,
                         capture_output=True, text=True, check=True).stdout
    got = dict(line.split() for line in out.splitlines())
    assert got == PINNED_README_GRADIENTS, (
        f"a README batch's gradients moved: {got}.  A change that moves them on purpose "
        "records these digests in PINNED_README_GRADIENTS and states its bound on the move "
        "in CHANGES.md"
    )


@pytest.mark.parametrize("dual", [True, False])
def test_loaded_readme_batch_matches_the_synthesized_one(tmp_path, dual):
    # the pin above runs on synth_corpus's maps; a CLI run reads the README
    # batch back from its feature files, and both hold the same float32
    # maps, so the loss and gradients are the same bytes
    synth = SynthConfig(records=150, normal_pool=30, abnormal_pool=15,
                        zipf_exponent=1.1, vocab_words=60, seed=9)
    corpus = synth_corpus(synth)
    save_corpus(tmp_path / "train.jsonl", corpus.records[:16])
    loaded = load_corpus(tmp_path / "train.jsonl")
    cfg = ModelConfig(
        vocab_size=corpus.vocab.size, mti_labels=synth.tag_count, locations=synth.locations,
        channels=synth.channels, embed_dim=24, hidden_dim=24,
        max_sentences=synth.max_sentences + 1, max_words=synth.max_words + 3, dual_enabled=dual,
    )
    params = ModelParams.create(cfg, seed=0)
    named = params.named_parameters()
    runs = []
    for batch in (loaded, corpus.records[:16]):
        grads = flat_views({n: t.shape for n, t in named.items()})
        with Tape() as tape:
            total = compute_losses(params, cfg, batch).total
        backward(tape, total, {t: grads[n] for n, t in named.items()})
        runs.append((total.item(), grads.flat.tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("dual", [True, False])
def test_compute_losses_agree_on_a_reversed_batch(dual):
    # the loss sorts the batch longest first, stably, so reversing it moves
    # records of equal length and the order of every sum, and nothing else;
    # the caller's list keeps its order
    for seed in range(8):
        cfg, params, records = random_case(seed, dual)
        named = params.named_parameters()
        results = []
        for batch in (records, records[::-1]):
            ids = [r.id for r in batch]
            with Tape() as tape:
                total = compute_losses(params, cfg, batch).total
            assert [r.id for r in batch] == ids
            results.append((total.item(), collect_gradients(backward(tape, total), named)))
        (a, grads_a), (b, grads_b) = results
        assert abs(a - b) <= 1e-12 * abs(a), seed
        for name in named:
            bound = 1e-12 * np.abs(grads_a[name]).max()
            assert np.abs(grads_a[name] - grads_b[name]).max() <= bound, (seed, name)


def test_full_model_gradients_match_finite_differences():
    cfg = ModelConfig(vocab_size=8, mti_labels=2, channels=3, embed_dim=4,
                      hidden_dim=4, locations=3)
    params = ModelParams.create(cfg, seed=13)
    records = [
        make_record("a", cfg, [[4, 5, EOS_ID], [6, EOS_ID]], [True, False], (0,), seed=6),
        make_record("b", cfg, [[7, EOS_ID]], [False], (1,), seed=7),
    ]

    def f():
        return compute_losses(params, cfg, records).total

    report = gradient_audit(f, params.named_parameters(), max_coords=8)
    worst = max(err for err, _ in report.values())
    assert worst < 1e-4, f"worst relative error {worst}: {report}"


def test_compute_losses_validates_batch():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=0)
    with pytest.raises(ValueError, match="nonempty"):
        compute_losses(params, cfg, [])
    bad = make_record("bad", toy_config(locations=5), [[4, EOS_ID]], [False], (0,), seed=8)
    with pytest.raises(Exception, match="bad"):
        compute_losses(params, cfg, [bad])


def test_loss_bundle_numbers_are_finite():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=14)
    n = compute_losses(params, cfg, toy_batch(cfg)).numbers()
    assert all(math.isfinite(v) for v in n.values())
    assert isinstance(compute_losses(params, cfg, toy_batch(cfg)), LossBundle)


def _assert_close_to_max(got, want, tol, what):
    assert np.abs(got - want).max() <= tol * np.abs(want).max(), what


@pytest.mark.parametrize("channels", [9, 2], ids=["channels_above_embed", "channels_below_embed"])
def test_raw_feature_attention_matches_embed_first_reference(channels):
    # the package attends over the raw features, embeds the attended row and
    # takes its keys from W_loc W_img; the reference embeds every location
    # first.  With C != D and A = H != D, no recorded tensor is [B*L, D];
    # a prime L of 97 keeps any other tensor from having B*L rows.
    for seed in range(6):
        cfg, params, records = random_case(seed, True, channels=channels, embed_dim=4, hidden_dim=5,
                                           locations=97)
        depth = max(len(r.sentences) for r in records)
        got = sentence_forward(params, cfg, records, [len(records)] * depth)
        want = sentence_forward_reference(params, cfg, records, depth)
        for k, (g, w) in enumerate(zip(got, want, strict=True)):
            assert g.shape == w.shape, (seed, k)
            _assert_close_to_max(g.data, w.data, 1e-12, (seed, k))

        named = params.named_parameters()
        with Tape() as tape:
            total = compute_losses(params, cfg, records).total
        shapes = {t.shape for out, inputs, _ in tape.entries
                  for t in (*(out if isinstance(out, tuple) else (out,)), *inputs)}
        grads = collect_gradients(backward(tape, total), named)
        rows = len(records) * cfg.locations
        assert (rows, cfg.hidden_dim) in shapes  # the keys
        assert (rows, cfg.embed_dim) not in shapes, seed
        with Tape() as tape:
            ref = reference_total_loss(params, cfg, records)
        ref_grads = collect_gradients(backward(tape, ref), named)
        assert abs(total.item() - ref.item()) <= 1e-12 * abs(ref.item()), seed
        for name in named:
            _assert_close_to_max(grads[name], ref_grads[name], 1e-12, (seed, name))
