"""Corpus layer: tokenization, vocabulary, records, statistics, synthesis,
annotation, and the binary/JSONL file formats."""

import ast
import errno
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hdlm
from hdlm.data import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    ConfigError,
    CorpusFormatError,
    EmbeddingFile,
    ReportRecord,
    SynthConfig,
    auto_annotate_abnormal,
    build_vocab,
    count_below,
    load_corpus,
    load_embeddings,
    load_features,
    load_vocab,
    read_jsonl,
    save_corpus,
    save_features,
    save_vocab,
    sentence_frequency_table,
    split_corpus,
    synth_corpus,
    tokenize,
    write_jsonl,
)
from hdlm.model import ModelConfig
from hdlm.training import TrainConfig

from oracles import write_feature_file


# ---------------------------------------------------------------------------
# tokenization


def test_tokenize_detaches_terminal_punctuation():
    assert tokenize("No pneumothorax.") == ["no", "pneumothorax", "."]


def test_tokenize_lowercases_and_splits():
    assert tokenize("Clear LUNGS, no effusion;") == [
        "clear", "lungs", ",", "no", "effusion", ";",
    ]


def test_tokenize_bare_punctuation_token():
    assert tokenize("wait .") == ["wait", "."]


def test_tokenize_stacked_punctuation():
    assert tokenize("end,.") == ["end", ",", "."]


def test_tokenize_empty():
    assert tokenize("   ") == []


# ---------------------------------------------------------------------------
# vocabulary


def test_reserved_ids_fixed():
    vocab = build_vocab([["a"]])
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
    assert vocab.id_to_token[:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]
    assert vocab.token_to_id["a"] == 4


def test_vocab_frequency_then_lexicographic_order():
    sents = [["b", "a", "b"], ["c", "a"]]
    vocab = build_vocab(sents)
    # a and b both occur twice; a wins the tie, c (once) comes last
    assert vocab.id_to_token[4:] == ["a", "b", "c"]


def test_vocab_min_frequency_drops_rare_tokens():
    vocab = build_vocab([["x", "x", "y"]], min_frequency=2)
    assert vocab.token_to_id["x"] == 4
    assert "y" not in vocab.token_to_id
    assert vocab.encode_sentence(["x", "y"]) == [4, UNK_ID, EOS_ID]


def test_encode_sentence_appends_eos():
    vocab = build_vocab([["hi"]])
    assert vocab.encode_sentence(["hi"]) == [4, EOS_ID]
    assert vocab.encode_sentence([]) == [EOS_ID]


def test_decode_skips_reserved_by_default():
    vocab = build_vocab([["hi"]])
    assert vocab.decode([4, EOS_ID]) == ["hi"]
    assert vocab.decode([PAD_ID, BOS_ID, 4, UNK_ID, 4, EOS_ID]) == ["hi", "hi"]


def test_vocab_round_trip(tmp_path):
    vocab = build_vocab([["b", "a"]], min_frequency=1)
    path = tmp_path / "vocab.json"
    save_vocab(path, vocab)
    assert json.loads(path.read_text()) == {"tokens": vocab.id_to_token}
    assert load_vocab(path) == vocab


def test_load_vocab_reads_files_with_min_frequency(tmp_path):
    # every vocab.json written before the key was dropped carries it
    tokens = ["<pad>", "<bos>", "<eos>", "<unk>", "a"]
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"tokens": tokens, "min_frequency": 1}))
    assert load_vocab(path) == build_vocab([["a"]])


# saves a vocabulary of 60 tokens under a file-size limit given in bytes
_SAVE_UNDER_LIMIT = """
import resource, signal, sys
from hdlm.data import build_vocab, save_vocab
path, limit = sys.argv[1], int(sys.argv[2])
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    save_vocab(path, build_vocab([[f"w{k:03d}" for k in range(60)]]))
except OSError as e:
    print(e.errno)
"""


def test_failed_vocab_rewrite_keeps_the_previous_file(tmp_path):
    # a write that fails part way must not leave a torn vocab.json that
    # train rejects as invalid JSON
    vocab = build_vocab([["a", "b"]])
    path = tmp_path / "vocab.json"
    save_vocab(path, vocab)
    src = str(Path(hdlm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _SAVE_UNDER_LIMIT, str(path), str(path.stat().st_size + 10)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(errno.EFBIG)]
    assert load_vocab(path) == vocab
    assert sorted(tmp_path.iterdir()) == [path]


def test_load_vocab_rejects_missing_reserved(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"tokens": ["a", "b"]}))
    with pytest.raises(CorpusFormatError):
        load_vocab(path)


@pytest.mark.parametrize("text, message", [
    ("{bad", "invalid JSON"),
    ("[]", "expected a JSON object"),
    ('{"min_frequency": 1}', "expected a JSON object"),
    ('{"tokens": 5}', "expected a JSON object"),
    ('{"tokens": [[1]]}', "expected a JSON object"),
])
def test_load_vocab_rejects_non_object_or_missing_tokens(tmp_path, text, message):
    path = tmp_path / "vocab.json"
    path.write_text(text)
    with pytest.raises(CorpusFormatError, match=rf"vocab\.json: {message}"):
        load_vocab(path)


# ---------------------------------------------------------------------------
# records


def _record(**kw):
    base = dict(
        id="r0",
        sentences=[[4, 5, EOS_ID]],
        abnormal_flags=[False],
        mti_labels=(2, 0, 2),
        feature_ref=np.zeros((2, 3)),
    )
    base.update(kw)
    return ReportRecord(**base)


def test_record_normalizes_labels_sorted_unique():
    assert _record().mti_labels == (0, 2)


def test_record_requires_terminal_eos():
    with pytest.raises(ValueError, match="does not end with EOS"):
        _record(sentences=[[4, 5]])


def test_record_requires_flag_per_sentence():
    with pytest.raises(ValueError, match="abnormal flags"):
        _record(abnormal_flags=[False, True])


def test_record_multi_hot():
    r = _record(mti_labels=(1, 3))
    assert r.multi_hot(5).tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]
    with pytest.raises(ValueError, match="label 3"):
        r.multi_hot(3)


def test_record_feature_map_inline_and_missing():
    assert _record().feature_map().shape == (2, 3)
    with pytest.raises(ValueError, match="no feature map"):
        _record(feature_ref=None).feature_map()
    # a path is not a map: load_corpus reads each map file into its record
    with pytest.raises(ValueError, match="record .*no feature map"):
        _record(feature_ref="features/r0.fmap").feature_map()


# ---------------------------------------------------------------------------
# frequency statistics


def test_frequency_table_counts_and_order():
    sents = [
        ("no", "pneumothorax", "."),
        ("clear", "lungs", "."),
        ("no", "pneumothorax", "."),
        ("no", "pneumothorax", "."),
        ("mild", "edema", "."),
    ]
    table = sentence_frequency_table(sents)
    assert table[0] == (("no", "pneumothorax", "."), 3)
    # singletons tie at 1 and sort by token sequence
    assert [t for t, _ in table[1:]] == [
        ("clear", "lungs", "."),
        ("mild", "edema", "."),
    ]


def test_count_below_fraction():
    table = [(("a",), 5), (("b",), 2), (("c",), 1)]
    assert count_below(table) == (2, 2 / 3)
    assert count_below([]) == (0, 0.0)


# ---------------------------------------------------------------------------
# embeddings and auto-annotation


def _toy_embeddings():
    return EmbeddingFile(
        vectors={
            "effusion": np.array([1.0, 0.1]),
            "fluid": np.array([1.0, 0.0]),
            "clear": np.array([0.0, 1.0]),
        },
        dim=2,
    )


def test_annotation_close_token_marks_abnormal():
    emb = _toy_embeddings()
    assert auto_annotate_abnormal(["effusion"], emb, ["fluid"], threshold=0.35)


def test_annotation_distant_token_stays_normal():
    emb = _toy_embeddings()
    assert not auto_annotate_abnormal(["clear"], emb, ["fluid"], threshold=0.35)


def test_annotation_monotone_in_threshold():
    emb = _toy_embeddings()
    # distance clear->fluid is exactly 1, so the flag flips between thresholds
    low = auto_annotate_abnormal(["clear"], emb, ["fluid"], threshold=0.5)
    high = auto_annotate_abnormal(["clear"], emb, ["fluid"], threshold=1.0)
    assert (low, high) == (False, True)


def test_annotation_skips_oov_tokens():
    emb = _toy_embeddings()
    assert not auto_annotate_abnormal(["unknownword"], emb, ["fluid"])


def test_annotation_missing_tag_term_is_config_error():
    with pytest.raises(ConfigError, match="notaword"):
        auto_annotate_abnormal(["clear"], _toy_embeddings(), ["notaword"])


def test_load_embeddings_round_trip(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("alpha 1.0 2.0\nbeta 0.5 -0.5\n")
    emb = load_embeddings(path)
    assert emb.dim == 2
    assert emb.vectors["beta"].tolist() == [0.5, -0.5]


def test_load_embeddings_dim_mismatch_names_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("alpha 1.0 2.0\nbeta 0.5\n")
    with pytest.raises(CorpusFormatError, match=":2:"):
        load_embeddings(path)


def test_load_embeddings_rejects_zero_norm(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("alpha 0.0 0.0\n")
    with pytest.raises(CorpusFormatError, match="zero-norm"):
        load_embeddings(path)


def test_load_embeddings_rejects_non_numeric(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("alpha one two\n")
    with pytest.raises(CorpusFormatError, match="non-numeric"):
        load_embeddings(path)


def test_load_embeddings_invalid_utf8_names_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"alpha 1.0 2.0\n\nbeta\xff 0.5 -0.5\n")
    with pytest.raises(CorpusFormatError, match=r"emb\.txt:3: invalid UTF-8"):
        load_embeddings(path)


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_is_deterministic():
    a = synth_corpus(SynthConfig(seed=7, records=20))
    b = synth_corpus(SynthConfig(seed=7, records=20))
    assert a.vocab.id_to_token == b.vocab.id_to_token
    for ra, rb in zip(a.records, b.records):
        assert ra.sentences == rb.sentences
        assert ra.abnormal_flags == rb.abnormal_flags
        assert ra.mti_labels == rb.mti_labels
        assert np.array_equal(ra.feature_ref, rb.feature_ref)


def test_synth_seed_changes_output():
    a = synth_corpus(SynthConfig(seed=1, records=10))
    b = synth_corpus(SynthConfig(seed=2, records=10))
    assert any(
        ra.sentences != rb.sentences for ra, rb in zip(a.records, b.records)
    )


def test_synth_shapes_and_flags_match_description():
    cfg = SynthConfig(seed=3, records=25)
    out = synth_corpus(cfg)
    assert len(out.records) == 25
    assert out.description.patterns.shape == (
        cfg.normal_pool + cfg.abnormal_pool,
        cfg.locations,
        cfg.channels,
    )
    for rec, topics in zip(out.records, out.description.record_topics):
        assert rec.feature_ref.shape == (cfg.locations, cfg.channels)
        assert cfg.min_sentences <= len(rec.sentences) <= cfg.max_sentences
        assert rec.abnormal_flags == [
            out.description.pool_abnormal[t] for t in topics
        ]
        assert rec.mti_labels == tuple(
            sorted({out.description.pool_tags[t] for t in topics})
        )


def test_synth_features_sum_patterns_plus_noise():
    cfg = SynthConfig(seed=5, records=12, noise_scale=0.05)
    out = synth_corpus(cfg)
    for rec, topics in zip(out.records, out.description.record_topics):
        clean = out.description.patterns[topics].sum(axis=0)
        resid = rec.feature_ref - clean
        assert np.abs(resid).max() < 0.05 * 6  # noise stays near its scale


def test_synth_skews_toward_head_sentences():
    out = synth_corpus(SynthConfig(seed=11, records=300))
    table = sentence_frequency_table(
        out.vocab.decode(sent) for rec in out.records for sent in rec.sentences
    )
    assert table[0][1] >= 5 * table[-1][1]
    _, frac = count_below(table)
    assert frac > 0.3


def test_synth_abnormal_prob_extremes():
    all_norm = synth_corpus(SynthConfig(seed=4, records=10, abnormal_prob=0.0))
    assert not any(f for r in all_norm.records for f in r.abnormal_flags)
    all_abn = synth_corpus(SynthConfig(seed=4, records=10, abnormal_prob=1.0))
    assert all(f for r in all_abn.records for f in r.abnormal_flags)


def test_synth_config_validation():
    with pytest.raises(ConfigError, match="abnormal_prob"):
        SynthConfig(abnormal_prob=1.5)
    with pytest.raises(ConfigError, match="records"):
        SynthConfig(records=0)
    with pytest.raises(ConfigError, match="ranges"):
        SynthConfig(min_sentences=3, max_sentences=2)


INT_FIELDS = {
    "synth": (SynthConfig, {}, (
        "seed", "records", "normal_pool", "abnormal_pool", "vocab_words", "tag_count",
        "min_sentences", "max_sentences", "min_words", "max_words", "locations", "channels")),
    "model": (ModelConfig, {"vocab_size": 10}, (
        "vocab_size", "mti_labels", "channels", "embed_dim", "hidden_dim", "locations",
        "max_sentences", "max_words")),
    "train": (TrainConfig, {}, ("batch_size", "epochs", "seed", "evals_per_epoch")),
}


@pytest.mark.parametrize("config, required, names", INT_FIELDS.values(), ids=INT_FIELDS)
def test_config_sizes_must_be_ints(config, required, names):
    # a float or a numpy integer passed the range checks and failed later,
    # inside numpy or in json at the first checkpoint; a bool was refused,
    # if at all, with a message about its range
    config(**required)
    for name in names:
        for bad in (2.5, 2.0, True, np.int64(2), "2"):
            with pytest.raises(ConfigError, match=f"^{name} must be an int, got "):
                config(**{**required, name: bad})


def test_split_corpus_deterministic_and_disjoint():
    records = synth_corpus(SynthConfig(seed=9, records=40)).records
    a = split_corpus(records, 0.5, seed=13)
    b = split_corpus(records, 0.5, seed=13)
    assert [r.id for part in a for r in part] == [r.id for part in b for r in part]
    ids = [r.id for part in a for r in part]
    assert sorted(ids) == sorted(r.id for r in records)
    assert len(a[0]) == 20 and len(a[1]) == 20
    # val takes every record that train does not, whatever the rounding
    train, val = split_corpus(records[:5], 0.5, seed=13)
    assert len(train) == 2 and len(val) == 3


def test_split_corpus_bad_ratios():
    for fraction in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ConfigError, match="train_fraction"):
            split_corpus([], fraction)


# ---------------------------------------------------------------------------
# feature files


def test_feature_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(5, 7)).astype(np.float32).astype(np.float64)
    path = tmp_path / "x.fmap"
    save_features(path, arr)
    assert np.array_equal(load_features(path), arr)


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "x.fmap"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(CorpusFormatError, match="magic"):
        load_features(path)


def test_feature_truncated_payload(tmp_path):
    path = tmp_path / "x.fmap"
    save_features(path, np.ones((2, 2)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(CorpusFormatError, match="expected 32 bytes, got 28"):
        load_features(path)


def test_feature_truncated_header(tmp_path):
    path = tmp_path / "x.fmap"
    path.write_bytes(b"FMAP" + bytes(6))
    with pytest.raises(CorpusFormatError, match="truncated header"):
        load_features(path)


def test_feature_bad_version(tmp_path):
    path = tmp_path / "x.fmap"
    save_features(path, np.ones((1, 1)))
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(CorpusFormatError, match="version"):
        load_features(path)


def _with_value(value):
    features = np.zeros((2, 3))
    features[1, 2] = value
    return features


def test_feature_requires_rank_two():
    with pytest.raises(ValueError, match="rank 2"):
        save_features("/tmp/never-written.fmap", np.ones(3))


# maps that load_features would refuse once written, with the refusal
MAPS_LOAD_FEATURES_REJECTS = pytest.mark.parametrize("features, message", [
    (_with_value(np.nan), "a feature value is not finite as float32"),
    (_with_value(np.inf), "a feature value is not finite as float32"),
    (_with_value(-np.inf), "a feature value is not finite as float32"),
    (_with_value(1e39), "a feature value is not finite as float32"),  # beyond float32's range
    (_with_value(-1e39), "a feature value is not finite as float32"),
    (np.zeros((0, 3)), r"feature map \(0, 3\) is not a nonempty \[L, C\] grid"),
    (np.zeros((2, 0)), r"feature map \(2, 0\) is not a nonempty \[L, C\] grid"),
    (np.zeros(3), r"feature map \(3,\) is not a nonempty \[L, C\] grid"),
], ids=["nan", "inf", "minus_inf", "above_float32_max", "below_float32_min", "no_locations",
        "no_channels", "rank_one"])


@MAPS_LOAD_FEATURES_REJECTS
def test_save_features_refuses_a_map_load_features_rejects(tmp_path, features, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not warned about
        with pytest.raises(ValueError, match=message):
            save_features(tmp_path / "x.fmap", features)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", [(0, 4), (3, 0)])
def test_feature_empty_grid_names_the_file(tmp_path, grid):
    path = tmp_path / "x.fmap"
    write_feature_file(path, np.zeros(grid))
    with pytest.raises(CorpusFormatError, match=rf"x\.fmap: empty feature grid \({grid[0]}, {grid[1]}\)"):
        load_features(path)


def test_load_features_reads_the_files_float32_values(tmp_path):
    path = tmp_path / "x.fmap"
    save_features(path, np.random.default_rng(1).normal(size=(5, 7)))
    features = load_features(path)
    assert features.dtype == np.float32 and features.shape == (5, 7)
    assert features.flags.writeable and features.flags.c_contiguous and features.flags.owndata
    assert features.tobytes() == path.read_bytes()[16:]
    features[0, 0] = 1.0  # a fresh array: writing into it leaves the file alone
    assert load_features(path).tobytes() == path.read_bytes()[16:]


def test_a_paper_grid_record_holds_its_map_as_float32(tmp_path):
    # the paper's 14 x 14 grid of 1024 channels: 802,816 bytes, half of float64's
    record = _record(feature_ref=np.random.default_rng(2).normal(size=(196, 1024)))
    save_corpus(tmp_path / "c.jsonl", [record])
    (back,) = load_corpus(tmp_path / "c.jsonl")
    assert back.feature_map().nbytes == 196 * 1024 * 4 == 802_816


# ---------------------------------------------------------------------------
# JSON-lines codec


def test_jsonl_round_trip_skips_blank_lines(tmp_path):
    path = tmp_path / "x.jsonl"
    write_jsonl(path, [{"b": 1, "a": [2]}, {"c": None}])
    assert path.read_text() == '{"b": 1, "a": [2]}\n{"c": null}\n'
    path.write_text(path.read_text() + "\n  \n" + '{"d": 3}\n')
    assert read_jsonl(path, (), dict) == [{"b": 1, "a": [2]}, {"c": None}, {"d": 3}]


def test_write_jsonl_empty_is_empty_file(tmp_path):
    path = tmp_path / "x.jsonl"
    write_jsonl(path, [])
    assert path.read_bytes() == b""


@pytest.mark.parametrize("line, message", [
    ("{bad", "invalid JSON"),
    ("[1, 2]", "expected a JSON object"),
    ('"x"', "expected a JSON object"),
    ('{"a": 1}', r"missing fields \['b'\]"),
])
def test_read_jsonl_errors_name_path_and_line(tmp_path, line, message):
    path = tmp_path / "x.jsonl"
    path.write_text('{"a": 1, "b": 2}\n' + line + "\n")
    with pytest.raises(CorpusFormatError, match=rf"x\.jsonl:2: {message}"):
        read_jsonl(path, ("a", "b"), dict)


def test_read_jsonl_invalid_utf8_names_path_and_line(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes('{"a": "é"}\r\n'.encode("utf-8") + b"\xff\xfe\n")
    with pytest.raises(CorpusFormatError, match=r"x\.jsonl:2: invalid UTF-8"):
        read_jsonl(path, (), dict)


# ---------------------------------------------------------------------------
# corpus files


def test_corpus_round_trip(tmp_path):
    out = synth_corpus(SynthConfig(seed=21, records=8))
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, out.records)
    back = load_corpus(path)
    assert len(back) == 8
    for orig, got in zip(out.records, back):
        assert got.id == orig.id
        assert got.sentences == orig.sentences
        assert got.abnormal_flags == orig.abnormal_flags
        assert got.mti_labels == orig.mti_labels
        # synth_corpus holds the float32 map its file holds
        assert got.feature_ref.dtype == orig.feature_ref.dtype == np.float32
        assert got.feature_ref.tobytes() == orig.feature_ref.tobytes()


def test_save_corpus_of_no_records_writes_no_feature_directory(tmp_path):
    save_corpus(tmp_path / "corpus.jsonl", [])
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]
    assert load_corpus(tmp_path / "corpus.jsonl") == []


def test_corpus_second_save_is_byte_identical(tmp_path):
    out = synth_corpus(SynthConfig(seed=22, records=5))
    first = tmp_path / "a" / "corpus.jsonl"
    second = tmp_path / "b" / "corpus.jsonl"
    first.parent.mkdir()
    second.parent.mkdir()
    save_corpus(first, out.records)
    save_corpus(second, load_corpus(first))
    assert first.read_bytes() == second.read_bytes()
    feat = "features/syn00000.fmap"
    assert (first.parent / feat).read_bytes() == (second.parent / feat).read_bytes()


def test_load_corpus_reports_json_error_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a"}\nnot json\n')
    with pytest.raises(CorpusFormatError, match=":1:"):
        load_corpus(path)


def test_load_corpus_missing_fields_names_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "sentences": [[2]]}\n')
    with pytest.raises(CorpusFormatError, match=":1:.*missing fields"):
        load_corpus(path)


def test_load_corpus_invalid_record_names_line(tmp_path):
    out = synth_corpus(SynthConfig(seed=23, records=1))
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, out.records)
    obj = json.loads(path.read_text())
    obj["sentences"][0] = obj["sentences"][0][:-1]  # drops the terminal EOS
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(CorpusFormatError, match=":1:.*EOS"):
        load_corpus(path)


def test_save_corpus_rejects_repeated_id_before_writing(tmp_path):
    first = _record(id="a")
    records = [first, _record(id="b"), _record(id="a", feature_ref=first.feature_ref + 1.0)]
    with pytest.raises(ValueError, match="record id 'a' repeats line 1"):
        save_corpus(tmp_path / "c.jsonl", records)
    assert list(tmp_path.iterdir()) == []


def test_save_corpus_rejects_an_id_load_corpus_rejects_before_writing(tmp_path):
    records = [_record(id="a"), _record(id=5)]
    with pytest.raises(ValueError, match="record id 5 is not a string"):
        save_corpus(tmp_path / "out" / "c.jsonl", records)
    assert list(tmp_path.iterdir()) == []


def test_save_corpus_requires_inline_features(tmp_path):
    rec = _record(feature_ref="somewhere.fmap")
    with pytest.raises(ValueError, match="in-memory"):
        save_corpus(tmp_path / "c.jsonl", [rec])


@MAPS_LOAD_FEATURES_REJECTS
def test_save_corpus_refuses_a_map_load_features_rejects_before_writing(tmp_path, features, message):
    records = [_record(id="a"), _record(id="b", feature_ref=features)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not warned about
        with pytest.raises(ValueError, match=f"record 'b': {message}"):
            save_corpus(tmp_path / "out" / "c.jsonl", records)
    assert list(tmp_path.iterdir()) == []


def test_save_corpus_keeps_a_value_that_rounds_to_float32s_largest(tmp_path):
    # just above float32's largest value, but rounding down to it
    largest = float(np.finfo(np.float32).max)
    save_corpus(tmp_path / "c.jsonl", [_record(feature_ref=_with_value(largest * (1 + 2.0**-30)))])
    (back,) = load_corpus(tmp_path / "c.jsonl")
    assert back.feature_map()[1, 2] == largest


# ---------------------------------------------------------------------------
# one writer


def _opens_for_writing(call):
    """Whether ``call`` is ``write_text``, ``write_bytes``, or an ``open`` with
    a ``w``, ``a`` or ``x`` mode (a mode that is not a string literal counts)."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(file, mode) and Path.open(mode)
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    modes += call.args[1:2] if isinstance(call.func, ast.Name) else call.args[:1]
    return any(not isinstance(m, ast.Constant) or set("wax") & set(str(m.value)) for m in modes)


def test_every_file_write_goes_through_open_replacing():
    # a rewrite that fails part way keeps the previous file only when it goes
    # through open_replacing; the one other writer is train's streamed log
    package = Path(hdlm.__file__).parent
    writers = sorted(
        f"{path.stem}.{getattr(statement, 'name', '<module>')}"
        for path in package.glob("*.py")
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
        if any(isinstance(node, ast.Call) and _opens_for_writing(node) for node in ast.walk(statement))
    )
    assert writers == ["data.open_replacing", "training.train"]
