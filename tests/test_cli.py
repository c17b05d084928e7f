import json
import struct

import pytest

import hdlm.cli
from hdlm.cli import (
    CLI_DEFAULTS,
    model_config_from,
    parse_config_file,
    resolve_settings,
    run,
)
from hdlm.data import ConfigError
from hdlm.selection import CheckpointRecord, load_history, save_history
from hdlm.training import save_checkpoint

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
    assert parse_config_file(path) == {"synth.records": "7", "train.epochs": "2"}


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
    assert settings["synth.seed"] == "99"
    assert settings["train.seed"] == "99"
    assert settings["model.dual_enabled"] == "false"
    assert settings["select.min_distinct"] == "6"
    assert settings["synth.records"] == "24"


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

    with pytest.raises(ConfigError, match="synth.records"):
        resolve_settings(Args())


def test_model_config_requires_vocab_size():
    with pytest.raises(ConfigError, match="vocab_size"):
        model_config_from(dict(CLI_DEFAULTS), {})


def test_model_config_data_conflict():
    settings = dict(CLI_DEFAULTS)
    settings["model.locations"] = "9"
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
    assert echoed["synth.seed"] == "3"
    assert echoed["synth.records"] == "24"
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
    assert echoed["model.locations"] == "5"
    assert echoed["model.channels"] == "6"
    assert int(echoed["model.vocab_size"]) > 4
    log = [json.loads(line)
           for line in (runs / "losses.jsonl").read_text().splitlines()]
    assert [entry["iteration"] for entry in log] == [1, 2, 3]
    assert all(entry["total"] > 0 for entry in log)


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


def test_unknown_config_key_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus.key = 1\n")
    assert run(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 4


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


def _edit_train_line(data, lineno, **fields):
    """Overwrite fields of one train.jsonl record; returns its location and
    the edited record."""
    path = data / "train.jsonl"
    lines = path.read_text().splitlines()
    record = {**json.loads(lines[lineno - 1]), **fields}
    lines[lineno - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return f"{path}:{lineno}:", record


def _train_label_is_negative(data, tmp):
    where, record = _edit_train_line(data, 2, mti=[-1])
    return (["train", str(data), "--out", str(tmp / "run")],
            f"{where} record {record['id']!r}: negative label -1")


def _train_flag_is_a_string(data, tmp):
    first = json.loads((data / "train.jsonl").read_text().splitlines()[0])
    where, _ = _edit_train_line(data, 1, abnormal=["false"] * len(first["sentences"]))
    return ["train", str(data), "--out", str(tmp / "run")], f"{where} abnormal flag 'false' is not true or false"


def _generated_line_is_a_number(data, tmp):
    gen = tmp / "generated.jsonl"
    gen.write_text("5\n")
    return ["evaluate", str(gen), str(data / "val.jsonl")], f"{gen}:1: expected a JSON object"


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


def _feature_header_truncated(data, tmp):
    first = json.loads((data / "train.jsonl").read_text().splitlines()[0])
    (data / first["feature"]).write_bytes(b"FMAP" + bytes(6))
    return (["train", str(data), "--out", str(tmp / "run")],
            f"{data / 'train.jsonl'}:1: {data / first['feature']}: truncated header")


def _vocab_without_tokens(data, tmp):
    (data / "vocab.json").write_text('{"min_frequency": 1}')
    return ["train", str(data), "--out", str(tmp / "run")], f"{data / 'vocab.json'}: expected a JSON object"


@pytest.mark.parametrize("corrupt", [
    _val_line_is_a_list, _generated_line_is_a_number, _history_line_is_a_string,
    _history_distinct_is_a_number, _history_line_is_invalid_utf8, _feature_header_truncated,
    _vocab_without_tokens, _train_label_is_negative, _train_flag_is_a_string,
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
    assert f"error: {bad}: truncated while reading meta/config values (dims [2147483648]" in err
    assert "Traceback" not in err


def test_failed_run_keeps_the_history_it_made(tmp_path, tiny_cfg, monkeypatch, capsys):
    data = tmp_path / "data"
    assert run(["synth", "--config", str(tiny_cfg), "--out", str(data)]) == 0
    three = tmp_path / "three.cfg"
    three.write_text(TINY + "train.evals_per_epoch = 3\n")
    calls = []

    def failing_third(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == 3:
            raise OSError("disk full")
        return save_checkpoint(*args, **kwargs)

    monkeypatch.setattr(hdlm.cli, "save_checkpoint", failing_third)
    out = tmp_path / "run"
    assert run(["train", str(data), "--config", str(three), "--out", str(out)]) == 1
    assert "error: disk full" in capsys.readouterr().err
    history = load_history(out / "history.jsonl")
    assert [r.iteration for r in history] == [1, 2]
    assert [r.path for r in history] == [str(p) for p in calls[:2]]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 2


def test_invalid_setting_value_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("synth.records = 0\n")
    assert run(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 4


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
