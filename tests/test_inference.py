"""Greedy decoding behavior and the generated-corpus file format."""

import warnings

import numpy as np
import pytest

import hdlm.inference
from hdlm.data import BOS_ID, EOS_ID, ConfigError, CorpusFormatError, ReportRecord
from hdlm.inference import (
    GeneratedReport,
    GenerationLimits,
    generate_corpus,
    load_generated,
    save_generated,
)
from hdlm.model import ModelConfig, ModelParams
from hdlm.tensor import ShapeError, seeded_rng, zeros
from oracles import encode_record, generate_report, sentence_step_one, word_forward


def toy_config(**kw):
    base = dict(vocab_size=9, mti_labels=2, channels=3, embed_dim=4,
                hidden_dim=5, locations=3)
    base.update(kw)
    return ModelConfig(**base)


def zeroed(params):
    for t in params.named_parameters().values():
        t.data[:] = 0.0
    return params


def features_for(cfg, seed=0):
    return seeded_rng(seed).normal(size=(cfg.locations, cfg.channels))


def record_for(features, record_id=""):
    return ReportRecord(record_id, [[EOS_ID]], [False], (), features)


def decode_one(params, cfg, features, limits, record_id=""):
    return generate_corpus(params, cfg, [record_for(features, record_id)], limits)[0]


def test_limits_validate():
    with pytest.raises(ConfigError, match="max_sentences"):
        GenerationLimits(max_sentences=0, max_words=5)
    with pytest.raises(ConfigError, match="stop_threshold"):
        GenerationLimits(max_sentences=1, max_words=5, stop_threshold=1.5)


def test_zero_params_hit_both_caps():
    cfg = toy_config()
    params = zeroed(ModelParams.create(cfg, seed=0))
    limits = GenerationLimits(max_sentences=3, max_words=4)
    report = decode_one(params, cfg, features_for(cfg), limits, "x")
    # stop prob sits exactly at 0.5, never strictly above the threshold
    assert report.stop_probs == [0.5, 0.5, 0.5]
    # all-zero logits argmax to token 0, so no EOS ever appears
    assert report.sentences == [[0, 0, 0, 0]] * 3
    assert report.branches == ["normal"] * 3
    assert report.id == "x"


def test_stop_threshold_zero_emits_single_sentence():
    cfg = toy_config()
    params = zeroed(ModelParams.create(cfg, seed=0))
    limits = GenerationLimits(max_sentences=5, max_words=3, stop_threshold=0.0)
    report = decode_one(params, cfg, features_for(cfg), limits)
    assert len(report.sentences) == 1


def test_eos_bias_ends_sentence_immediately():
    cfg = toy_config()
    params = zeroed(ModelParams.create(cfg, seed=0))
    params.word_normal_out.bias.data[EOS_ID] = 5.0
    limits = GenerationLimits(max_sentences=2, max_words=6)
    report = decode_one(params, cfg, features_for(cfg), limits)
    assert report.sentences == [[EOS_ID], [EOS_ID]]


def test_word_cap_truncates_without_eos():
    cfg = toy_config()
    params = zeroed(ModelParams.create(cfg, seed=0))
    params.word_normal_out.bias.data[5] = 5.0
    limits = GenerationLimits(max_sentences=1, max_words=4, stop_threshold=0.0)
    report = decode_one(params, cfg, features_for(cfg), limits)
    assert report.sentences == [[5, 5, 5, 5]]
    assert EOS_ID not in report.sentences[0]


def test_abnormal_bias_switches_branch_only_when_dual():
    feats = None
    for dual, want in ((True, "abnormal"), (False, "normal")):
        cfg = toy_config(dual_enabled=dual)
        params = zeroed(ModelParams.create(cfg, seed=0))
        params.abnormal_head.bias.data[0] = 8.0
        feats = features_for(cfg)
        limits = GenerationLimits(max_sentences=1, max_words=3, stop_threshold=0.0)
        report = decode_one(params, cfg, feats, limits)
        assert report.branches == [want]
        assert report.abnormal_probs[0] > 0.99


def test_extreme_logits_give_exact_probabilities_without_warnings():
    # exp(1000) overflows to inf, so the logistic of -1000 is exactly 0
    cfg = toy_config()
    params = zeroed(ModelParams.create(cfg, seed=0))
    limits = GenerationLimits(max_sentences=2, max_words=3)
    for bias, prob, branch in ((-1000.0, 0.0, "normal"), (1000.0, 1.0, "abnormal")):
        params.abnormal_head.bias.data[0] = bias
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = decode_one(params, cfg, features_for(cfg), limits)
        assert report.abnormal_probs == [prob, prob]
        assert report.branches == [branch, branch]


def test_greedy_decode_agrees_with_teacher_forced_path():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=7)
    feats = features_for(cfg, seed=3)
    v_e, _ = encode_record(params, feats)
    hidden = zeros((1, cfg.hidden_dim))
    _, _, topic, _, _ = sentence_step_one(params, v_e, hidden, hidden)
    limits = GenerationLimits(max_sentences=1, max_words=6, branch_threshold=1.0)
    sentence = decode_one(params, cfg, feats, limits).sentences[0]
    logits = word_forward(params, topic, [BOS_ID] + sentence, "normal").data
    for t in range(1, len(sentence) + 1):
        assert int(np.argmax(logits[t])) == sentence[t - 1]


def test_generate_is_deterministic():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=11)
    limits = GenerationLimits(max_sentences=3, max_words=5)
    feats = features_for(cfg, seed=5)
    a = decode_one(params, cfg, feats, limits, "r")
    b = decode_one(params, cfg, feats, limits, "r")
    assert a == b


def test_generate_corpus_keeps_ids_and_order():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=2)
    records = [
        ReportRecord(f"rec{i}", [[4, EOS_ID]], [False], (0,),
                     features_for(cfg, seed=i))
        for i in range(3)
    ]
    limits = GenerationLimits(max_sentences=2, max_words=4)
    reports = generate_corpus(params, cfg, records, limits)
    assert [r.id for r in reports] == ["rec0", "rec1", "rec2"]


def test_generate_corpus_of_no_records_is_empty():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=0)
    assert generate_corpus(params, cfg, [], GenerationLimits(max_sentences=2, max_words=3)) == []


def test_generate_corpus_rejects_mismatched_grid_naming_record():
    cfg = toy_config()
    params = ModelParams.create(cfg, seed=0)
    records = [
        record_for(features_for(cfg), "fine"),
        record_for(seeded_rng(1).normal(size=(cfg.locations + 1, cfg.channels)), "wide"),
    ]
    limits = GenerationLimits(max_sentences=2, max_words=3)
    with pytest.raises(ShapeError, match="'wide'"):
        generate_corpus(params, cfg, records, limits)


# ---------------------------------------------------------------------------
# the batched decoder against the per-record oracle


def spread_case(cfg, seed):
    """Random weights wide enough that stop and branch probabilities, and so
    paragraph lengths, branches and EOS positions, vary across 16 records."""
    params = ModelParams.create(cfg, seed=seed)
    rng = seeded_rng(seed + 100)
    for t in params.named_parameters().values():
        t.data[:] = rng.normal(size=t.shape)
    records = [record_for(features_for(cfg, seed=10 * seed + i), f"r{i}") for i in range(16)]
    return params, records


THRESHOLDS = [(0.5, 0.5), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


@pytest.mark.parametrize("dual", [True, False])
@pytest.mark.parametrize("stop,branch", THRESHOLDS)
def test_batched_decode_matches_per_record_oracle(dual, stop, branch):
    cfg = toy_config(dual_enabled=dual)
    limits = GenerationLimits(max_sentences=5, max_words=6,
                              stop_threshold=stop, branch_threshold=branch)
    for seed in range(4):
        params, records = spread_case(cfg, seed)
        got = generate_corpus(params, cfg, records, limits)
        assert [r.id for r in got] == [r.id for r in records]
        for report, rec in zip(got, records):
            want = generate_report(params, cfg, rec.feature_map(), limits, rec.id)
            assert report.sentences == want.sentences
            assert report.branches == want.branches
            np.testing.assert_allclose(report.stop_probs, want.stop_probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(report.abnormal_probs, want.abnormal_probs, rtol=0, atol=1e-12)


def test_oracle_cases_mix_branches_lengths_and_endings():
    cfg = toy_config()
    limits = GenerationLimits(max_sentences=5, max_words=6)
    params, records = spread_case(cfg, 1)
    reports = generate_corpus(params, cfg, records, limits)
    sentences = [s for r in reports for s in r.sentences]
    assert {b for r in reports for b in r.branches} == {"abnormal", "normal"}
    assert len({len(r.sentences) for r in reports}) > 1
    assert any(s[-1] == EOS_ID for s in sentences)
    assert any(len(s) == limits.max_words and s[-1] != EOS_ID for s in sentences)


def test_one_sentence_forward_and_one_decode_per_branch(monkeypatch):
    cfg = toy_config()
    limits = GenerationLimits(max_sentences=5, max_words=6)
    params, records = spread_case(cfg, 1)
    want = generate_corpus(params, cfg, records, limits)
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append((name, args[1] if name == "decode" else args[3]))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(hdlm.inference, "sentence_forward",
                        spy("forward", hdlm.inference.sentence_forward))
    monkeypatch.setattr(hdlm.inference, "_decode_words",
                        spy("decode", hdlm.inference._decode_words))
    assert generate_corpus(params, cfg, records, limits) == want
    # the sentence LSTM runs once, every record to the cap; each branch decodes once
    assert calls[0] == ("forward", [len(records)] * limits.max_sentences)
    assert sorted(calls[1:]) == [("decode", "abnormal"), ("decode", "normal")]


def test_output_layers_score_only_the_token_steps(monkeypatch):
    # the topic step emits no token, so the branches' output layers see one
    # row per emitted token and none for a topic
    cfg = toy_config()
    limits = GenerationLimits(max_sentences=5, max_words=6)
    params, records = spread_case(cfg, 1)
    want = generate_corpus(params, cfg, records, limits)
    rows = []
    for name in ("word_abnormal_out", "word_normal_out"):
        def counted(x, layer=getattr(params, name)):
            rows.append(x.shape[0])
            return layer(x)
        monkeypatch.setattr(params, name, counted)
    assert generate_corpus(params, cfg, records, limits) == want
    assert sum(rows) == sum(len(s) for r in want for s in r.sentences)


def test_generated_round_trip(tmp_path):
    reports = [
        GeneratedReport("a", [[4, EOS_ID], [5, 6]], ["normal", "abnormal"],
                        [0.25, 0.75], [0.1, 0.9]),
        GeneratedReport("b", [[7]], ["normal"], [0.5], [0.003]),
    ]
    path = tmp_path / "gen.jsonl"
    save_generated(path, reports)
    assert load_generated(path) == reports


def test_load_generated_errors_name_lines(tmp_path):
    path = tmp_path / "gen.jsonl"
    path.write_text("{bad\n")
    with pytest.raises(CorpusFormatError, match=":1:.*invalid JSON"):
        load_generated(path)
    path.write_text('{"id": "a", "sentences": [[1]], "branches": ["weird"], '
                    '"stop_probs": [0.5], "abnormal_probs": [0.5]}\n')
    with pytest.raises(CorpusFormatError, match="weird"):
        load_generated(path)
    path.write_text('{"id": "a", "sentences": [[1]], "branches": ["normal", "normal"], '
                    '"stop_probs": [0.5], "abnormal_probs": [0.5]}\n')
    with pytest.raises(CorpusFormatError, match="disagree"):
        load_generated(path)
    path.write_text('{"id": "a", "sentences": [[1]]}\n')
    with pytest.raises(CorpusFormatError, match="missing fields"):
        load_generated(path)
    path.write_text("5\n")
    with pytest.raises(CorpusFormatError, match=":1: expected a JSON object"):
        load_generated(path)
    path.write_text('{"id": "a", "sentences": 5, "branches": [], '
                    '"stop_probs": [], "abnormal_probs": []}\n')
    with pytest.raises(CorpusFormatError, match=":1: "):
        load_generated(path)
