import argparse
import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

import hdlm.cli
import hdlm.training
from hdlm.cli import (
    CLI_DEFAULTS,
    model_config_from,
    parse_config_file,
    resolve_settings,
    run,
)
from hdlm.data import (
    ConfigError, CorpusFormatError, SynthConfig, load_features, save_features, split_corpus, synth_corpus,
)
from hdlm.model import ModelConfig, ModelParams
from hdlm.selection import CheckpointRecord, load_history, save_history, select_model
from hdlm.training import AdamState, CheckpointError, TrainConfig, load_checkpoint, save_checkpoint, train

from oracles import write_feature_file

TINY = """\
# quick profile for tests
synth.records = 24
synth.normal_pool = 8
synth.abnormal_pool = 4
synth.vocab_words = 30
synth.tag_count = 3
synth.locations = 5
synth.channels = 6
synth.max_sentences = 2
model.embed_dim = 10
model.hidden_dim = 10
model.max_sentences = 3
model.max_words = 10
train.epochs = 1
train.batch_size = 8
train.evals_per_epoch = 1
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


# ---------------------------------------------------------------------------
# settings plumbing


def test_parse_config_file_skips_comments(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("# top\nsynth.records = 7  # trailing\n\ntrain.epochs = 2\n")
    assert parse_config_file(path) == {"synth.records": 7, "train.epochs": 2}


def test_parse_config_file_unknown_key(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("synth.records = 7\nnope.key = 1\n")
    with pytest.raises(ConfigError, match=r"a\.cfg:2.*nope\.key"):
        parse_config_file(path)


def test_parse_config_file_missing_equals(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("synth.records 7\n")
    with pytest.raises(ConfigError, match="a.cfg:1"):
        parse_config_file(path)


def test_flags_override_config_file(tmp_path, tiny_cfg):
    class Args:
        config = str(tiny_cfg)
        seed = 99
        dual = "off"
        min_distinct = 6

    settings = resolve_settings(Args())
    assert settings["synth.seed"] == 99
    assert settings["train.seed"] == 99
    assert settings["model.dual_enabled"] is False
    assert settings["select.min_distinct"] == 6
    assert settings["synth.records"] == 24


def test_defaults_survive_when_unset():
    class Args:
        config = None

    settings = resolve_settings(Args())
    assert settings == CLI_DEFAULTS


def test_bad_value_type_is_config_error(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("synth.records = many\n")

    class Args:
        config = str(path)

    with pytest.raises(ConfigError, match=r"a\.cfg:1: synth\.records expects int, got 'many'"):
        resolve_settings(Args())


def test_model_config_requires_vocab_size():
    with pytest.raises(ConfigError, match="vocab_size"):
        model_config_from(dict(CLI_DEFAULTS), {})


def test_model_config_data_conflict():
    settings = dict(CLI_DEFAULTS)
    settings["model.locations"] = 9
    with pytest.raises(ConfigError, match="conflicts"):
        model_config_from(settings, {"vocab_size": 10, "locations": 5})


# ---------------------------------------------------------------------------
# subcommands


def test_synth_writes_corpus_and_resolved_settings(tmp_path, tiny_cfg, capsys):
    out = tmp_path / "data"
    assert run(["synth", "--config", str(tiny_cfg), "--seed", "3",
                "--out", str(out)]) == 0
    for name in ("train.jsonl", "val.jsonl", "vocab.json", "resolved.cfg"):
        assert (out / name).exists()
    assert (out / "features").is_dir()
    echoed = parse_config_file(out / "resolved.cfg")
    assert echoed["synth.seed"] == 3
    assert echoed["synth.records"] == 24
    text = capsys.readouterr().out
    assert "records: 24" in text and "vocabulary:" in text


def test_synth_is_deterministic(tmp_path, tiny_cfg):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["synth", "--config", str(tiny_cfg), "--seed", "5",
                    "--out", str(out)]) == 0
    assert (a / "train.jsonl").read_bytes() == (b / "train.jsonl").read_bytes()
    feats = sorted(p.name for p in (a / "features").iterdir())
    assert feats == sorted(p.name for p in (b / "features").iterdir())
    probe = feats[0]
    assert (a / "features" / probe).read_bytes() == (b / "features" / probe).read_bytes()


def test_synth_split_keeps_every_record(tmp_path, capsys):
    cfg = tmp_path / "five.cfg"
    cfg.write_text(TINY.replace("synth.records = 24", "synth.records = 5\nsynth.train_fraction = 0.5"))
    out = tmp_path / "data"
    assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    assert "records: 5 (train 2, val 3)" in capsys.readouterr().out
    ids = [json.loads(line)["id"] for name in ("train.jsonl", "val.jsonl")
           for line in (out / name).read_text().splitlines()]
    assert len(ids) == len(set(ids)) == 5


def test_synth_train_fraction_out_of_range_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY + "synth.train_fraction = 1.0\n")
    assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "train_fraction must be in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train once for the downstream subcommand tests."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY)
    data, runs = root / "data", root / "run"
    assert run(["synth", "--config", str(cfg), "--seed", "3", "--out", str(data)]) == 0
    assert run(["train", str(data), "--config", str(cfg), "--seed", "3",
                "--out", str(runs)]) == 0
    return root


def test_train_outputs(pipeline):
    runs = pipeline / "run"
    assert (runs / "final.bin").exists()
    assert (runs / "history.jsonl").exists()
    assert (runs / "losses.jsonl").exists()
    checkpoints = list((runs / "checkpoints").iterdir())
    assert len(checkpoints) == 1
    echoed = parse_config_file(runs / "resolved.cfg")
    # data-derived model shape is echoed for downstream commands
    assert echoed["model.locations"] == 5
    assert echoed["model.channels"] == 6
    assert echoed["model.vocab_size"] > 4
    log = [json.loads(line)
           for line in (runs / "losses.jsonl").read_text().splitlines()]
    assert [entry["iteration"] for entry in log] == [1, 2, 3]
    assert all(entry["total"] > 0 for entry in log)


def test_train_keeps_only_the_checkpoints_some_gate_selects(tmp_path, tiny_cfg, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    assert run(["synth", "--config", str(tiny_cfg), "--out", str(data)]) == 0
    longer = tmp_path / "longer.cfg"
    longer.write_text(TINY.replace("train.epochs = 1", "train.epochs = 20")
                      + "train.learning_rate = 0.1\n")
    capsys.readouterr()
    assert run(["train", str(data), "--config", str(longer), "--out", str(out)]) == 0
    history = load_history(out / "history.jsonl")
    named = [Path(r.path) for r in history if r.path]
    assert [r.iteration for r in history] == list(range(3, 61, 3))
    assert 1 < len(named) < len(history)
    assert sorted((out / "checkpoints").iterdir()) == sorted(named)
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        f"({len(history)} evaluations, {len(named)} checkpoints kept)")
    restored = [dataclasses.replace(r, path=str(out / "checkpoints" / f"ckpt_{r.iteration:06d}.bin"))
                for r in history]
    top = max(c for r in history for c in r.distinct)
    for minimum in range(top + 2):
        for every in (False, True):
            pruned = select_model(history, minimum, every).chosen
            full = select_model(restored, minimum, every).chosen
            assert (pruned and pruned.iteration) == (full and full.iteration)
            assert pruned is None or Path(pruned.path).exists()


def test_train_into_a_used_directory_keeps_only_its_own_checkpoints(tmp_path, tiny_cfg, capsys):
    # a 20-evaluation run, then a 1-evaluation run into the same --out: the
    # second history names one checkpoint, and no file of the first is left
    data, out = tmp_path / "data", tmp_path / "run"
    assert run(["synth", "--config", str(tiny_cfg), "--out", str(data)]) == 0
    longer = tmp_path / "longer.cfg"
    longer.write_text(TINY.replace("train.epochs = 1", "train.epochs = 20")
                      + "train.learning_rate = 0.1\n")
    assert run(["train", str(data), "--config", str(longer), "--out", str(out)]) == 0
    first = sorted((out / "checkpoints").iterdir())
    assert len(first) > 1
    # a run that fails on its settings writes nothing, and removes nothing
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY + "train.clip_norm = nan\n")
    assert run(["train", str(data), "--config", str(bad), "--out", str(out)]) == 4
    assert sorted((out / "checkpoints").iterdir()) == first
    assert run(["train", str(data), "--config", str(tiny_cfg), "--out", str(out)]) == 0
    named = [Path(r.path) for r in load_history(out / "history.jsonl") if r.path]
    assert [p.name for p in named] == ["ckpt_000003.bin"]
    assert sorted((out / "checkpoints").iterdir()) == named


# the README's settings file, at 2 epochs instead of 80
README_SETTINGS = """\
synth.records = 150
synth.normal_pool = 30
synth.abnormal_pool = 15
synth.zipf_exponent = 1.1
synth.vocab_words = 60
synth.seed = 9
model.embed_dim = 24
model.hidden_dim = 24
train.epochs = 2
train.evals_per_epoch = 1
"""


def test_cli_run_is_the_readme_library_computation(tmp_path):
    # hdlm synth and hdlm train, then the README's library snippet on the
    # in-memory corpus: every logged loss term and the final parameters are
    # the same bytes, since a synthetic record holds the float32 map its
    # feature file holds
    cfg, data, out = tmp_path / "run.cfg", tmp_path / "data", tmp_path / "run"
    cfg.write_text(README_SETTINGS)
    assert run(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    assert run(["train", str(data), "--config", str(cfg), "--out", str(out)]) == 0

    synth = SynthConfig(records=150, normal_pool=30, abnormal_pool=15,
                        zipf_exponent=1.1, vocab_words=60, seed=9)
    corpus = synth_corpus(synth)
    train_recs, _ = split_corpus(corpus.records, 0.8, seed=9)
    config = ModelConfig(
        vocab_size=corpus.vocab.size, mti_labels=synth.tag_count, locations=synth.locations,
        channels=synth.channels, embed_dim=24, hidden_dim=24,
        max_sentences=synth.max_sentences + 1, max_words=synth.max_words + 3,
    )
    params = ModelParams.create(config, seed=0)
    result = train(params, config, train_recs, TrainConfig(epochs=2, seed=0))

    logged = [json.loads(line) for line in (out / "losses.jsonl").read_text().splitlines()]
    assert len(logged) == len(result.history) == 16
    assert len(load_history(out / "history.jsonl")) == 2
    for line, entry in zip(logged, result.history):
        terms = [key for key in line if not key.endswith("_ms")]
        assert [float(line[k]).hex() for k in terms] == [float(entry[k]).hex() for k in terms]
    cli_config = model_config_from(parse_config_file(out / "resolved.cfg"), {})
    final = ModelParams.create(cli_config, seed=1)
    load_checkpoint(out / "final.bin", final, cli_config)
    assert final.store.flat.tobytes() == params.store.flat.tobytes()


def test_generate_and_evaluate(pipeline, capsys):
    data, runs = pipeline / "data", pipeline / "run"
    gen = pipeline / "gen"
    ckpt = next((runs / "checkpoints").iterdir())
    assert run(["generate", str(data / "val.jsonl"),
                "--config", str(runs / "resolved.cfg"),
                "--checkpoint", str(ckpt), "--out", str(gen)]) == 0
    assert (gen / "generated.jsonl").exists()
    scores = pipeline / "scores"
    assert run(["evaluate", str(gen / "generated.jsonl"),
                str(data / "val.jsonl"), "--out", str(scores)]) == 0
    text = capsys.readouterr().out
    assert "BLEU-4" in text and "METEOR" in text and "distinct@0" in text
    assert (scores / "metrics.json").exists()
    obj = json.loads((scores / "metrics.json").read_text())
    assert set(obj) == {"bleu1", "bleu2", "bleu3", "bleu4", "rouge_l",
                        "cider_d", "meteor", "distinct"}


def test_generate_rejects_mismatched_model_shape(pipeline, tmp_path):
    data, runs = pipeline / "data", pipeline / "run"
    ckpt = next((runs / "checkpoints").iterdir())
    flipped = tmp_path / "flipped.cfg"
    text = (runs / "resolved.cfg").read_text()
    assert "model.dual_enabled = true" in text
    flipped.write_text(text.replace("model.dual_enabled = true",
                                    "model.dual_enabled = false"))
    code = run(["generate", str(data / "val.jsonl"), "--config", str(flipped),
                "--checkpoint", str(ckpt), "--out", str(tmp_path / "g")])
    assert code == 5


def test_generate_without_model_shape_is_config_error(pipeline, tmp_path):
    data, runs = pipeline / "data", pipeline / "run"
    ckpt = next((runs / "checkpoints").iterdir())
    code = run(["generate", str(data / "val.jsonl"),
                "--checkpoint", str(ckpt), "--out", str(tmp_path / "g")])
    assert code == 4


def test_analyze_prints_history_table(pipeline, capsys):
    assert run(["analyze", str(pipeline / "run" / "history.jsonl")]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0].split()[:2] == ["iteration", "bleu4"]


def test_select_gates_and_reports(tmp_path, capsys):
    path = tmp_path / "history.jsonl"
    save_history(path, [
        CheckpointRecord(iteration=3, bleu4=0.9, distinct=(1,), path="a.bin"),
        CheckpointRecord(iteration=6, bleu4=0.5, distinct=(5, 2), path="b.bin"),
    ])
    assert run(["select", str(path)]) == 0
    out = capsys.readouterr().out
    assert "iteration=6" in out and "path=b.bin" in out
    assert run(["select", str(path), "--min-distinct", "6"]) == 1
    assert "6 distinct" in capsys.readouterr().err


def test_select_and_analyze_read_the_gate_from_the_config(tmp_path, capsys):
    # d@0 clears select.min_distinct and d@1 does not
    path = tmp_path / "history.jsonl"
    save_history(path, [CheckpointRecord(iteration=6, bleu4=0.5, distinct=(5, 2), path="b.bin")])
    cfg = tmp_path / "gate.cfg"
    cfg.write_text("select.min_distinct = 4\nselect.require_all_indices = false\n")
    assert run(["select", str(path), "--config", str(cfg)]) == 0
    assert "iteration=6" in capsys.readouterr().out
    cfg.write_text("select.min_distinct = 4\nselect.require_all_indices = true\n")
    assert run(["select", str(path), "--config", str(cfg)]) == 1
    assert "no checkpoint reached 4 distinct sentences at every position" in capsys.readouterr().err
    assert run(["analyze", str(path), "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["6", "0.5000", "5", "2", "x"]


def test_gradcheck_passes(capsys):
    assert run(["gradcheck", "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_checks_every_group_at_the_default_seed(capsys):
    assert run(["gradcheck"]) == 0
    *groups, verdict = capsys.readouterr().out.splitlines()
    assert len(groups) == 27
    for line in groups:
        name, _, checked, word = line.split()
        assert word == "checked" and int(checked) >= 1, line
    assert verdict.endswith(": PASS")


# ---------------------------------------------------------------------------
# exit codes


def test_missing_data_directory_exit_code(tmp_path):
    assert run(["train", str(tmp_path / "nowhere"),
                "--out", str(tmp_path / "o")]) == 3


def test_config_that_is_a_directory_exit_code(tmp_path, capsys):
    assert run(["synth", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"error: config file {tmp_path}: Is a directory" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_split_that_leaves_a_set_empty_exit_code(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("synth.records = 1\n")
    assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "error: split 0.8 leaves an empty train or val set" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_unknown_config_key_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus.key = 1\n")
    assert run(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 4


def test_config_file_not_utf8_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"synth.records = 7\n# caf\xe9\n")
    assert run(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 4
    assert f"error: {bad}: invalid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_malformed_history_exit_code(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert run(["select", str(bad)]) == 5


def _insert_line(path, lineno, text):
    lines = path.read_text().splitlines()
    lines.insert(lineno - 1, text)
    path.write_text("\n".join(lines) + "\n")
    return f"{path}:{lineno}:"


def _val_line_is_a_list(data, tmp):
    where = _insert_line(data / "val.jsonl", 2, "[1, 2]")
    return ["train", str(data), "--out", str(tmp / "run")], f"{where} expected a JSON object"


def _edit_line(path, lineno, **fields):
    """Overwrite fields of one record of a JSON-lines file; returns its
    location and the edited record."""
    lines = path.read_text().splitlines()
    record = {**json.loads(lines[lineno - 1]), **fields}
    lines[lineno - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return f"{path}:{lineno}:", record


def _train_label_is_negative(data, tmp):
    where, record = _edit_line(data / "train.jsonl", 2, mti=[-1])
    return (["train", str(data), "--out", str(tmp / "run")],
            f"{where} record {record['id']!r}: negative label -1")


def _train_flag_is_a_string(data, tmp):
    first = json.loads((data / "train.jsonl").read_text().splitlines()[0])
    where, _ = _edit_line(data / "train.jsonl", 1, abnormal=["false"] * len(first["sentences"]))
    return ["train", str(data), "--out", str(tmp / "run")], f"{where} abnormal flag 'false' is not true or false"


def _val_record_has_no_sentences(data, tmp):
    where, record = _edit_line(data / "val.jsonl", 1, sentences=[], abnormal=[])
    return (["train", str(data), "--out", str(tmp / "run")],
            f"{where} record {record['id']!r}: needs at least one sentence")


def _val_id_is_a_list(data, tmp):
    where, _ = _edit_line(data / "val.jsonl", 2, id=[1])
    return ["train", str(data), "--out", str(tmp / "run")], f"{where} record id [1] is not a string"


def _generated_id_is_a_list(data, tmp):
    gen = tmp / "generated.jsonl"
    gen.write_text(json.dumps({"id": ["a"], "sentences": [], "branches": [],
                               "stop_probs": [], "abnormal_probs": []}) + "\n")
    return ["evaluate", str(gen), str(data / "val.jsonl")], f"{gen}:1: record id ['a'] is not a string"


def _val_id_repeated(data, tmp):
    first = json.loads((data / "val.jsonl").read_text().splitlines()[0])
    where, _ = _edit_line(data / "val.jsonl", 2, id=first["id"])
    return (["train", str(data), "--out", str(tmp / "run")],
            f"{where} record id {first['id']!r} repeats line 1")


def _generated_id_repeated(data, tmp):
    gen = tmp / "generated.jsonl"
    line = json.dumps({"id": "a", "sentences": [], "branches": [],
                       "stop_probs": [], "abnormal_probs": []}) + "\n"
    gen.write_text(line * 2)
    return ["evaluate", str(gen), str(data / "val.jsonl")], f"{gen}:2: record id 'a' repeats line 1"


def _generated_line_is_a_number(data, tmp):
    gen = tmp / "generated.jsonl"
    gen.write_text("5\n")
    return ["evaluate", str(gen), str(data / "val.jsonl")], f"{gen}:1: expected a JSON object"


def _generated_file_is_empty(data, tmp):
    gen = tmp / "generated.jsonl"
    gen.write_text("")
    return ["evaluate", str(gen), str(data / "val.jsonl")], f"{gen}: no reports"


def _references_file_is_empty(data, tmp):
    gen = tmp / "generated.jsonl"
    gen.write_text(json.dumps({"id": "a", "sentences": [], "branches": [],
                               "stop_probs": [], "abnormal_probs": []}) + "\n")
    refs = tmp / "refs.jsonl"
    refs.write_text("")
    return ["evaluate", str(gen), str(refs)], f"{refs}: no records"


def _generated_id_not_in_references(data, tmp):
    gen = tmp / "generated.jsonl"
    gen.write_text(json.dumps({"id": "nowhere", "sentences": [], "branches": [],
                               "stop_probs": [], "abnormal_probs": []}) + "\n")
    refs = data / "val.jsonl"
    return (["evaluate", str(gen), str(refs)],
            f"{refs}: generated report 'nowhere' has no reference record")


def _history_line_is_a_string(data, tmp):
    history = tmp / "history.jsonl"
    history.write_text('"x"\n')
    return ["select", str(history)], f"{history}:1: expected a JSON object"


def _history_distinct_is_a_number(data, tmp):
    history = tmp / "history.jsonl"
    history.write_text('{"iteration": 0, "bleu4": 0.5, "distinct": [4]}\n'
                       '{"iteration": 1, "bleu4": 0.1, "distinct": 3}\n')
    return ["select", str(history)], f"{history}:2: "


def _history_line_is_invalid_utf8(data, tmp):
    history = tmp / "history.jsonl"
    history.write_bytes(b'{"iteration": 0, "bleu4": 0.5, "distinct": [4]}\n\xff\xfe\n')
    return ["select", str(history)], f"{history}:2: invalid UTF-8"


def _val_grid_unlike_first_record(data, tmp):
    val = data / "val.jsonl"
    record = json.loads(val.read_text().splitlines()[1])
    grid = load_features(data / record["feature"]).shape
    save_features(data / record["feature"], np.zeros((grid[0] - 1, grid[1])))
    # the grid is checked before the model is built or the checkpoint read
    return (["generate", str(val), "--checkpoint", str(tmp / "nowhere.bin"), "--out", str(tmp / "gen")],
            f"{val}: record {record['id']!r}: feature map ({grid[0] - 1}, {grid[1]}) "
            f"does not match the first record's {grid}")


def _train_token_is_fractional(data, tmp):
    first = json.loads((data / "train.jsonl").read_text().splitlines()[0])
    sentences = [[14.5, *first["sentences"][0][1:]], *first["sentences"][1:]]
    where, _ = _edit_line(data / "train.jsonl", 1, sentences=sentences)
    return ["train", str(data), "--out", str(tmp / "run")], f"{where} token id 14.5 is not an integer"


def _train_label_is_a_bool(data, tmp):
    where, _ = _edit_line(data / "train.jsonl", 2, mti=[True, 1.9])
    return ["train", str(data), "--out", str(tmp / "run")], f"{where} label True is not an integer"


def _generated_token_is_fractional(data, tmp):
    gen = tmp / "generated.jsonl"
    gen.write_text(json.dumps({"id": "a", "sentences": [[7.9, 2]], "branches": ["normal"],
                               "stop_probs": [0.9], "abnormal_probs": [0.1]}) + "\n")
    return ["evaluate", str(gen), str(data / "val.jsonl")], f"{gen}:1: token id 7.9 is not an integer"


def _history_iteration_is_a_bool(data, tmp):
    history = tmp / "history.jsonl"
    history.write_text('{"iteration": true, "bleu4": 0.5, "distinct": [4]}\n')
    return ["select", str(history)], f"{history}:1: iteration True is not an integer"


def _history_distinct_is_fractional(data, tmp):
    history = tmp / "history.jsonl"
    history.write_text('{"iteration": 0, "bleu4": 0.5, "distinct": [1.7, 2]}\n')
    return ["analyze", str(history)], f"{history}:1: distinct count 1.7 is not an integer"


def _history_with_bleu4(tmp, text):
    history = tmp / "history.jsonl"
    history.write_text(f'{{"iteration": 8, "bleu4": {text}, "distinct": [4]}}\n'
                       '{"iteration": 16, "bleu4": 0.5, "distinct": [4]}\n')
    shown = repr(json.loads(text))
    return ["select", str(history), "--min-distinct", "1"], f"{history}:1: bleu4 {shown} is not a finite number"


def _history_bleu4_is_a_bool(data, tmp):
    return _history_with_bleu4(tmp, "true")


def _history_bleu4_is_a_string(data, tmp):
    return _history_with_bleu4(tmp, '"0.5"')


def _history_bleu4_has_400_digits(data, tmp):
    return _history_with_bleu4(tmp, "9" * 400)


def _history_bleu4_is_nan(data, tmp):
    return _history_with_bleu4(tmp, "NaN")


def _generated_stop_prob_is_a_bool(data, tmp):
    gen = tmp / "generated.jsonl"
    gen.write_text(json.dumps({"id": "a", "sentences": [[7, 2]], "branches": ["normal"],
                               "stop_probs": [True], "abnormal_probs": [0.1]}) + "\n")
    return ["evaluate", str(gen), str(data / "val.jsonl")], f"{gen}:1: stop probability True is not a finite number"


def _feature_header_truncated(data, tmp):
    first = json.loads((data / "train.jsonl").read_text().splitlines()[0])
    (data / first["feature"]).write_bytes(b"FMAP" + bytes(6))
    return (["train", str(data), "--out", str(tmp / "run")],
            f"{data / 'train.jsonl'}:1: {data / first['feature']}: truncated header")


def _train_feature_has_no_locations(data, tmp):
    # the grid is the file's own fault, not a mismatch with a sound record
    first = json.loads((data / "train.jsonl").read_text().splitlines()[0])
    channels = load_features(data / first["feature"]).shape[1]
    write_feature_file(data / first["feature"], np.zeros((0, channels)))
    return (["train", str(data), "--out", str(tmp / "run")],
            f"{data / 'train.jsonl'}:1: {data / first['feature']}: empty feature grid (0, {channels})")


def _feature_value_is(value, data, split, lineno):
    """Set one value of a record's feature map; returns where the loader
    reports it."""
    corpus = data / f"{split}.jsonl"
    record = json.loads(corpus.read_text().splitlines()[lineno - 1])
    features = load_features(data / record["feature"])
    features[-1, -1] = value
    write_feature_file(data / record["feature"], features)
    return f"{corpus}:{lineno}: {data / record['feature']}: a feature value is not finite"


def _val_feature_is_nan(data, tmp):
    # rejected before the model is built or the checkpoint read
    expected = _feature_value_is(math.nan, data, "val", 2)
    return (["generate", str(data / "val.jsonl"), "--checkpoint", str(tmp / "nowhere.bin"),
             "--out", str(tmp / "gen")], expected)


def _train_feature_is_infinite(data, tmp):
    expected = _feature_value_is(math.inf, data, "train", 3)
    return ["train", str(data), "--out", str(tmp / "run")], expected


def _vocab_without_tokens(data, tmp):
    (data / "vocab.json").write_text('{"min_frequency": 1}')
    return ["train", str(data), "--out", str(tmp / "run")], f"{data / 'vocab.json'}: expected a JSON object"


def _history_iteration_has_5001_digits(data, tmp):
    # json.loads raises a plain ValueError past the interpreter's digit limit
    history = tmp / "history.jsonl"
    history.write_text(f'{{"iteration": {"7" * 5001}, "bleu4": 0.5, "distinct": [4]}}\n')
    return ["select", str(history)], f"{history}:1: invalid JSON (Exceeds the limit (4300 digits)"


def _history_line_nested_100000_deep(data, tmp):
    # ... and a RecursionError past its recursion limit
    history = tmp / "history.jsonl"
    history.write_text('{"iteration": 0, "bleu4": 0.5, "distinct": [4]}\n' + "[" * 100000 + "]" * 100000 + "\n")
    return ["select", str(history)], f"{history}:2: invalid JSON (maximum recursion depth exceeded"


def _vocab_min_frequency_has_5001_digits(data, tmp):
    vocab = data / "vocab.json"
    payload = json.loads(vocab.read_text())
    vocab.write_text(json.dumps(payload)[:-1] + f', "min_frequency": {"1" * 5001}}}')
    return ["train", str(data), "--out", str(tmp / "run")], f"{vocab}: invalid JSON (Exceeds the limit"


def _vocab_is_invalid_utf8(data, tmp):
    vocab = data / "vocab.json"
    vocab.write_bytes(vocab.read_bytes()[:-1] + b', "\xff": 1}')
    return ["train", str(data), "--out", str(tmp / "run")], f"{vocab}: invalid UTF-8"


def _history_path_is_a_list(data, tmp):
    history = tmp / "history.jsonl"
    history.write_text('{"iteration": 8, "bleu4": 0.5, "distinct": [4], "path": ["a", 1]}\n')
    return ["select", str(history)], f"{history}:1: path ['a', 1] is not a string or null"


def _vocab_with(data, tmp, **fields):
    vocab = data / "vocab.json"
    vocab.write_text(json.dumps({**json.loads(vocab.read_text()), **fields}))
    return ["train", str(data), "--out", str(tmp / "run")], vocab


def _vocab_token_repeated(data, tmp):
    argv, vocab = _vocab_with(data, tmp, tokens=["<pad>", "<bos>", "<eos>", "<unk>", "a", "a"])
    return argv, f"{vocab}: token 'a' appears more than once"


@pytest.mark.parametrize("corrupt", [
    _val_line_is_a_list, _generated_line_is_a_number, _history_line_is_a_string,
    _history_distinct_is_a_number, _history_line_is_invalid_utf8, _feature_header_truncated,
    _vocab_without_tokens, _train_label_is_negative, _train_flag_is_a_string,
    _val_id_is_a_list, _generated_id_is_a_list, _val_id_repeated, _generated_id_repeated,
    _generated_file_is_empty, _references_file_is_empty, _generated_id_not_in_references,
    _val_grid_unlike_first_record, _train_token_is_fractional, _train_label_is_a_bool,
    _generated_token_is_fractional, _history_iteration_is_a_bool, _history_distinct_is_fractional,
    _history_bleu4_is_a_bool, _history_bleu4_is_a_string, _history_bleu4_is_nan,
    _generated_stop_prob_is_a_bool, _history_iteration_has_5001_digits, _history_line_nested_100000_deep,
    _vocab_min_frequency_has_5001_digits, _vocab_is_invalid_utf8, _history_path_is_a_list,
    _vocab_token_repeated, _val_record_has_no_sentences, _history_bleu4_has_400_digits,
    _val_feature_is_nan, _train_feature_is_infinite, _train_feature_has_no_locations,
], ids=lambda corrupt: corrupt.__name__.strip("_"))
def test_malformed_file_exit_code(tmp_path, tiny_cfg, capsys, corrupt):
    data = tmp_path / "data"
    assert run(["synth", "--config", str(tiny_cfg), "--out", str(data)]) == 0
    argv, expected = corrupt(data, tmp_path)
    capsys.readouterr()
    assert run(argv) == 5
    err = capsys.readouterr().err
    assert f"error: {expected}" in err
    assert "Traceback" not in err


def test_mismatched_feature_grid_fails_before_training(tmp_path, tiny_cfg, capsys):
    data = tmp_path / "data"
    assert run(["synth", "--config", str(tiny_cfg), "--out", str(data)]) == 0
    record = json.loads((data / "val.jsonl").read_text().splitlines()[0])
    grid = load_features(data / record["feature"]).shape
    save_features(data / record["feature"], np.zeros((grid[0] - 1, grid[1])))
    capsys.readouterr()
    assert run(["train", str(data), "--out", str(tmp_path / "run")]) == 5
    err = capsys.readouterr().err
    assert (f"error: {data / 'val.jsonl'}: record {record['id']!r}: feature map "
            f"({grid[0] - 1}, {grid[1]}) does not match the first train record's {grid}") in err
    assert "Traceback" not in err
    # the grid is checked before the output directory is made
    assert not (tmp_path / "run").exists()


def test_corrupt_checkpoint_dims_exit_code(pipeline, tmp_path, capsys):
    data, runs = pipeline / "data", pipeline / "run"
    blob = bytearray((runs / "final.bin").read_bytes())
    (name_len,) = struct.unpack_from("<I", blob, 16)
    # the first dim of the first entry, after its name and rank
    struct.pack_into("<I", blob, 16 + 4 + name_len + 4, 2 ** 31)
    bad = tmp_path / "final.bin"
    bad.write_bytes(blob)
    capsys.readouterr()
    assert run(["generate", str(data / "val.jsonl"), "--config", str(runs / "resolved.cfg"),
                "--checkpoint", str(bad), "--out", str(tmp_path / "gen")]) == 5
    err = capsys.readouterr().err
    assert f"error: {bad}: 'meta/config' has shape (2147483648,), expected (32,)" in err
    assert "Traceback" not in err


def _entry(name: bytes, dims=()):
    """A checkpoint entry header: name, rank and dims, with no values."""
    return struct.pack("<I", len(name)) + name + struct.pack(f"<I{len(dims)}I", len(dims), *dims)


def _appended(extra: bytes):
    return lambda blob, runs, tmp: blob + extra


def _version_is_2(blob, runs, tmp):
    return blob[:4] + struct.pack("<I", 2) + blob[8:]


def _first_entry_rank_is_max(blob, runs, tmp):
    (name_len,) = struct.unpack_from("<I", blob, 16)
    return blob[:20 + name_len] + struct.pack("<I", 0xFFFFFFFF) + blob[24 + name_len:]


def _meta_config_repeated(blob, runs, tmp):
    # the first entry: 11-byte name, rank 1, 32 values
    return blob + blob[16:16 + 4 + 11 + 8 + 8 * 32]


def _moments_without_step(blob, runs, tmp):
    cfg = model_config_from(resolve_settings(argparse.Namespace(config=str(runs / "resolved.cfg"))), {})
    params = ModelParams.create(cfg, seed=0)
    iteration, _ = load_checkpoint(runs / "final.bin", params, cfg)
    path = tmp / "with_moments.bin"
    save_checkpoint(path, params, cfg, iteration, AdamState.create(params.named_parameters()))
    moments = path.read_bytes()
    step = _entry(b"adam/t", (1,)) + struct.pack("<d", 0.0)
    assert moments.endswith(step)
    return moments[:-len(step)]


def _first_weight_is_nan(blob, runs, tmp):
    # the first value of img_embed.weight, after its name, rank and two dims
    at = blob.index(b"img_embed.weight") + len(b"img_embed.weight") + 4 + 8
    return blob[:at] + struct.pack("<d", math.nan) + blob[at + 8:]


@pytest.mark.parametrize("corrupt, message", [
    (_appended(_entry(b"adam/t", (0,))), "'adam/t' has shape (0,), expected (1,)"),
    (_appended(_entry(b"\xff\xfe")), "entry name is not valid UTF-8"),
    (_appended(_entry(b"adam/t", (1,)) + struct.pack("<d", math.inf)), "'adam/t' is inf, expected a whole number >= 0"),
    (_appended(_entry(b"adam/t", (1,)) + struct.pack("<d", math.nan)), "'adam/t' is nan, expected a whole number >= 0"),
    (_appended(_entry(b"adam/t", (1,)) + struct.pack("<d", 2.5)), "'adam/t' is 2.5, expected a whole number >= 0"),
    (_first_entry_rank_is_max, "'meta/config' has rank 4294967295, expected 1"),
    # once a 4 GiB read request, a MemoryError under a 4 GB address-space limit
    (_appended(struct.pack("<I", 0xFFFFFFFF)), "entry name of 4294967295 bytes is longer than any entry's"),
    (_meta_config_repeated, "repeated entry 'meta/config'"),
    (_moments_without_step, "optimizer state is missing 'adam/t'"),
    (_appended(_entry(b"adam/t", (1,)) + struct.pack("<d", 3.0)),
     "optimizer state is missing 'adam/m/img_embed.weight'"),
    (_first_weight_is_nan, "'img_embed.weight' holds a value that is not finite"),
    (_version_is_2, "unsupported checkpoint version 2"),
    *((_appended(bytes(n)), "truncated while reading entry header") for n in (1, 2, 3)),
], ids=["adam_t_without_value", "name_not_utf8", "adam_t_infinite", "adam_t_nan", "adam_t_fractional",
        "first_rank_max", "name_length_max", "meta_config_repeated", "moments_without_adam_t",
        "adam_t_without_moments", "weight_is_nan", "version_2", "header_1_byte", "header_2_bytes",
        "header_3_bytes"])
def test_corrupt_checkpoint_entry_exit_code(pipeline, tmp_path, capsys, corrupt, message):
    data, runs = pipeline / "data", pipeline / "run"
    bad = tmp_path / "final.bin"
    bad.write_bytes(corrupt((runs / "final.bin").read_bytes(), runs, tmp_path))
    capsys.readouterr()
    assert run(["generate", str(data / "val.jsonl"), "--config", str(runs / "resolved.cfg"),
                "--checkpoint", str(bad), "--out", str(tmp_path / "gen")]) == 5
    err = capsys.readouterr().err
    assert f"error: {bad}: {message}" in err
    assert "Traceback" not in err


def test_failed_run_keeps_the_history_it_made(tmp_path, tiny_cfg, monkeypatch, capsys):
    # ten evaluations, of which the first and a later one are kept before
    # final.bin; the write of that later checkpoint fails
    data = tmp_path / "data"
    assert run(["synth", "--config", str(tiny_cfg), "--out", str(data)]) == 0
    longer = tmp_path / "longer.cfg"
    longer.write_text(TINY.replace("train.epochs = 1", "train.epochs = 10")
                      + "train.learning_rate = 0.1\n")
    calls = []

    def failing_second(*args, **kwargs):
        calls.append((args[0], args[3]))
        if len(calls) == 2:
            raise OSError("disk full")
        return save_checkpoint(*args, **kwargs)

    monkeypatch.setattr(hdlm.cli, "save_checkpoint", failing_second)
    out = tmp_path / "run"
    assert run(["train", str(data), "--config", str(longer), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: disk full" in err
    assert "Traceback" not in err
    (first, _), (failed, iteration) = calls
    assert failed.parent.name == "checkpoints" and iteration > 3
    history = load_history(out / "history.jsonl")
    assert [r.iteration for r in history] == list(range(3, iteration, 3))
    assert [r.path for r in history if r.path] == [str(first)]
    assert all(Path(r.path).exists() for r in history if r.path)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 2


@pytest.mark.parametrize("setting", [
    "synth.records = 0", "train.clip_norm = nan", "train.learning_rate = inf",
    "model.lambda_mti = nan", "synth.zipf_exponent = nan", "synth.seed = -1", "train.seed = -1",
    "select.min_distinct = -1", "synth.noise_scale = 1e300", "synth.noise_scale = 1e38",
    "train.evals_per_epoch = -1",
], ids=["records_zero", "clip_norm_nan", "learning_rate_inf", "lambda_mti_nan", "zipf_exponent_nan",
        "synth_seed_negative", "train_seed_negative", "min_distinct_negative",
        "noise_scale_past_float64_sums", "noise_scale_past_float32", "evals_per_epoch_negative"])
def test_invalid_setting_value_exit_code(tmp_path, tiny_cfg, capsys, setting):
    # a synth setting fails `hdlm synth`, a select setting `hdlm select` on
    # a one-line history; the rest fail `hdlm train`
    bad = tmp_path / "bad.cfg"
    bad.write_text(setting + "\n")
    out = tmp_path / "o"
    argv = ["synth", "--out", str(out)]
    if setting.startswith("select."):
        history = tmp_path / "history.jsonl"
        history.write_text('{"iteration": 8, "bleu4": 0.5, "distinct": [4]}\n')
        argv = ["select", str(history)]
    elif not setting.startswith("synth."):
        data = tmp_path / "data"
        assert run(["synth", "--config", str(tiny_cfg), "--out", str(data)]) == 0
        argv = ["train", str(data), "--out", str(out)]
    capsys.readouterr()
    assert run([*argv, "--config", str(bad)]) == 4
    field = setting.split(".")[1].split()[0]
    err = capsys.readouterr().err
    assert f"error: {field} must be" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_negative_seed_flag_exit_code(tmp_path, tiny_cfg, capsys):
    data = tmp_path / "data"
    assert run(["synth", "--config", str(tiny_cfg), "--out", str(data)]) == 0
    out = tmp_path / "o"
    for argv in (["synth", "--seed", "-3", "--out", str(out)],
                 ["train", str(data), "--seed", "-2", "--out", str(out)], ["gradcheck", "--seed", "-1"]):
        capsys.readouterr()
        assert run(argv) == 4
        assert f"error: seed must be >= 0, got {argv[argv.index('--seed') + 1]}" in capsys.readouterr().err
        assert not out.exists()


def test_negative_min_distinct_flag_exit_code(tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    history.write_text('{"iteration": 8, "bleu4": 0.5, "distinct": [4]}\n')
    for command in ("select", "analyze"):
        capsys.readouterr()
        assert run([command, str(history), "--min-distinct", "-3"]) == 4
        assert "error: min_distinct must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_training_divergence_exit_code(tmp_path, tiny_cfg, capsys):
    data = tmp_path / "data"
    assert run(["synth", "--config", str(tiny_cfg), "--out", str(data)]) == 0
    hot = tmp_path / "hot.cfg"
    hot.write_text(TINY + "train.learning_rate = 1e300\n")
    capsys.readouterr()
    assert run(["train", str(data), "--config", str(hot), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "error: non-finite loss at iteration 2" in err
    assert "Traceback" not in err


def test_run_that_stops_after_an_evaluation_keeps_its_resolved_settings(pipeline, tmp_path, monkeypatch):
    # the loss turns non-finite at the first iteration past the first
    # evaluation; resolved.cfg is written before training, as a finished run
    # writes it, so the checkpoint left behind decodes
    data = pipeline / "data"
    cfg = tmp_path / "two.cfg"
    cfg.write_text(TINY.replace("train.epochs = 1", "train.epochs = 2"))
    command = ["train", str(data), "--config", str(cfg), "--seed", "3", "--out"]
    assert run([*command, str(tmp_path / "done")]) == 0
    real, calls = hdlm.training.compute_losses, []

    def diverging(*args):
        calls.append(len(calls) + 1)
        bundle = real(*args)
        return dataclasses.replace(bundle, stop=math.inf) if len(calls) == 4 else bundle

    monkeypatch.setattr(hdlm.training, "compute_losses", diverging)
    stopped = tmp_path / "stopped"
    assert run([*command, str(stopped)]) == 1
    assert [p.name for p in (stopped / "checkpoints").iterdir()] == ["ckpt_000003.bin"]
    assert (stopped / "resolved.cfg").read_bytes() == (tmp_path / "done" / "resolved.cfg").read_bytes()
    assert run(["generate", str(data / "val.jsonl"), "--config", str(stopped / "resolved.cfg"),
                "--checkpoint", str(stopped / "checkpoints" / "ckpt_000003.bin"),
                "--out", str(tmp_path / "gen")]) == 0


def test_out_of_vocabulary_token_exit_code(tmp_path, tiny_cfg, capsys):
    data = tmp_path / "data"
    assert run(["synth", "--config", str(tiny_cfg), "--out", str(data)]) == 0
    lines = (data / "train.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    first["sentences"][0][0] = 9999
    lines[0] = json.dumps(first)
    (data / "train.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["train", str(data), "--config", str(tiny_cfg), "--out", str(tmp_path / "run")]) == 5
    err = capsys.readouterr().err
    assert "train.jsonl" in err and repr(first["id"]) in err and "9999" in err


def test_program_fault_exits_1_naming_its_type(monkeypatch, tmp_path, capsys):
    # a ValueError that is no malformed file is a fault of the program, not
    # of its input; a malformed checkpoint still exits 5
    history = tmp_path / "history.jsonl"
    history.write_text('{"iteration": 8, "bleu4": 0.5, "distinct": [4]}\n')
    for error, code, shown in ((ValueError("boom"), 1, "error: ValueError: boom"),
                               (KeyError("k"), 1, "error: KeyError: 'k'"),
                               (CheckpointError("bad.bin: truncated"), 5, "error: bad.bin: truncated")):
        def failing(args, error=error):
            raise error

        monkeypatch.setattr(hdlm.cli, "cmd_select", failing)
        capsys.readouterr()
        assert run(["select", str(history)]) == code
        err = capsys.readouterr().err
        assert err == shown + "\n"
    assert issubclass(CheckpointError, CorpusFormatError) and issubclass(CheckpointError, ValueError)
