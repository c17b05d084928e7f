"""Model forward passes and training losses, checked against plain-numpy
recomputation and closed-form values for the all-zero parameter setting."""

import math

import numpy as np
import pytest

from hdlm.data import BOS_ID, EOS_ID, ConfigError, ReportRecord, SynthConfig, synth_corpus
from hdlm.layers import attention_keys
from hdlm.model import (
    LossBundle,
    ModelConfig,
    ModelParams,
    compute_losses,
    encode_image_batch,
    sentence_heads,
    sentence_step_batch,
)
from hdlm.tensor import (
    Tape,
    Tensor,
    backward,
    collect_gradients,
    gradient_audit,
    seeded_rng,
    zeros,
)
from oracles import encode_record, reference_total_loss, sentence_step_one, word_forward


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
    assert len(named) == 27
    assert len({id(t) for t in named.values()}) == 27
    for prefix in (
        "img_embed", "attn", "sent_lstm", "topic", "stop.prev", "stop.cur",
        "stop.out", "abnormal_head", "embedding", "word_abnormal.lstm",
        "word_abnormal.out", "word_normal.lstm", "word_normal.out", "mti_head",
    ):
        assert any(n.startswith(prefix) for n in named), prefix


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


# ---------------------------------------------------------------------------
# forward pieces against plain-numpy recomputation


def test_encode_image_matches_numpy():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=3)
    feats = seeded_rng(8).normal(size=(2, cfg.locations, cfg.channels))
    stacked = feats.reshape(-1, cfg.channels)
    v_e, v_hat = encode_image_batch(params, stacked, cfg.locations)
    want = stacked @ params.img_embed.weight.data.T + params.img_embed.bias.data
    assert np.allclose(v_e.data, want, atol=1e-12)
    means = want.reshape(2, cfg.locations, -1).mean(axis=1)
    assert np.allclose(v_hat.data, means, atol=1e-12)


def test_sentence_step_matches_hand_composition():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=4)
    rng = seeded_rng(9)
    v_e_arr = rng.normal(size=(cfg.locations, cfg.embed_dim))
    h0 = rng.normal(size=cfg.hidden_dim) * 0.2
    c0 = rng.normal(size=cfg.hidden_dim) * 0.2

    v_e = Tensor(v_e_arr.copy())
    h_prev = Tensor(h0[None])
    h1, c1 = sentence_step_batch(
        params, v_e, attention_keys(params.attn, v_e), cfg.locations, h_prev, Tensor(c0[None]),
    )
    topic, stop, abn = sentence_heads(params, h_prev, h1)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    scores = np.array(
        [
            params.attn.score.data
            @ np.tanh(params.attn.w_location.data @ v + params.attn.w_state.data @ h0)
            for v in v_e_arr
        ]
    )
    w = np.exp(scores - scores.max())
    w /= w.sum()
    ctx = (w[:, None] * v_e_arr).sum(axis=0)

    hs = cfg.hidden_dim
    z = (
        params.sent_lstm.w_input.data @ ctx
        + params.sent_lstm.w_recur.data @ h0
        + params.sent_lstm.bias.data
    )
    i, f = sig(z[:hs]), sig(z[hs:2 * hs])
    g, o = np.tanh(z[2 * hs:3 * hs]), sig(z[3 * hs:])
    c_want = f * c0 + i * g
    h_want = o * np.tanh(c_want)
    topic_want = np.maximum(params.topic.weight.data @ h_want, 0.0)
    stop_want = params.stop_out.weight.data @ np.tanh(
        params.stop_prev.weight.data @ h0 + params.stop_cur.weight.data @ h_want
    )
    abn_want = params.abnormal_head.weight.data @ h_want + params.abnormal_head.bias.data

    assert np.allclose(h1.data[0], h_want, atol=1e-12)
    assert np.allclose(c1.data[0], c_want, atol=1e-12)
    assert np.allclose(topic.data[0], topic_want, atol=1e-12)
    assert abs(stop.data[0, 0] - stop_want[0]) < 1e-12
    assert abs(abn.data[0, 0] - abn_want[0]) < 1e-12


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
        name: grads.get(tape.node_of(t))
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
            assert g is not None and np.abs(g.data).max() > 0

    all_abnormal = [
        make_record("a", cfg, [[4, EOS_ID], [5, EOS_ID]], [True, True], (0,), seed=4)
    ]
    grads, _ = grads_by_name(params, cfg, all_abnormal)
    for name, g in grads.items():
        if name.startswith("word_normal"):
            assert g is None, f"{name} should be untouched"
        if name.startswith("word_abnormal"):
            assert g is not None and np.abs(g.data).max() > 0


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
    assert np.abs(grads["mti_head.weight"].data).max() > 0
    assert np.abs(grads["img_embed.weight"].data).max() > 0


def test_compute_losses_is_deterministic():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=12)
    records = toy_batch(cfg)
    assert compute_losses(params, cfg, records).numbers() == \
        compute_losses(params, cfg, records).numbers()


def test_readme_batch_records_few_tape_entries():
    # the README corpus and model shape (E = H = 24) in batches of 16: an
    # LSTM step is five entries and each head runs once per batch
    synth = SynthConfig(records=150, normal_pool=30, abnormal_pool=15,
                        zipf_exponent=1.1, vocab_words=60, seed=9)
    corpus = synth_corpus(synth)
    cfg = ModelConfig(
        vocab_size=corpus.vocab.size, mti_labels=synth.tag_count, locations=synth.locations,
        channels=synth.channels, embed_dim=24, hidden_dim=24,
        max_sentences=synth.max_sentences + 1, max_words=synth.max_words + 3,
    )
    params = ModelParams.create(cfg, seed=0)
    for start in range(0, len(corpus.records), 16):
        with Tape() as tape:
            compute_losses(params, cfg, corpus.records[start:start + 16])
        assert len(tape.entries) <= 300


def random_case(seed, dual):
    """A random toy model (weights scaled out of the near-linear init range)
    and a random batch that mixes branches and sentence lengths."""
    rng = seeded_rng(seed)
    dims = rng.integers(2, 7, size=5)
    cfg = ModelConfig(
        vocab_size=int(rng.integers(6, 12)), mti_labels=int(dims[0]), channels=int(dims[1]),
        embed_dim=int(dims[2]), hidden_dim=int(dims[3]), locations=int(dims[4]),
        lambda_stop=float(rng.uniform(0.5, 2.0)), lambda_hierarchical=float(rng.uniform(0.5, 2.0)),
        lambda_abnormal=float(rng.uniform(0.5, 2.0)), lambda_mti=float(rng.uniform(0.5, 2.0)),
        dual_enabled=dual,
    )
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
        got = collect_gradients(tape, backward(tape, total), named)
        with Tape() as tape:
            ref = reference_total_loss(params, cfg, records)
        want = collect_gradients(tape, backward(tape, ref), named)
        assert abs(total.item() - ref.item()) <= 1e-12 * abs(ref.item()), seed
        for name in named:
            bound = 1e-12 * np.abs(want[name]).max()
            assert np.abs(got[name] - want[name]).max() <= bound, (seed, name)


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
