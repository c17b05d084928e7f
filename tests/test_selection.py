import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdlm
from hdlm.data import EOS_ID, ConfigError, CorpusFormatError, ReportRecord
from hdlm.selection import (
    CheckpointRecord,
    load_history,
    mode_baseline,
    render_analysis,
    save_history,
    select_model,
    selectable,
)
from hdlm.tensor import seeded_rng


def ckpt(iteration, bleu4, distinct, path=None):
    return CheckpointRecord(iteration=iteration, bleu4=bleu4,
                            distinct=tuple(distinct), path=path)


def test_gate_filters_low_first_position_distinctness():
    history = [ckpt(1, 0.9, [1, 5]), ckpt(2, 0.4, [6, 2])]
    result = select_model(history)
    assert result.chosen is history[1]
    assert result.rejected == [history[0]]


def test_picks_highest_bleu_among_eligible():
    history = [ckpt(1, 0.3, [5]), ckpt(2, 0.7, [5]), ckpt(3, 0.5, [5])]
    assert select_model(history).chosen.iteration == 2


def test_bleu_tie_goes_to_earliest_iteration():
    history = [ckpt(9, 0.5, [4]), ckpt(3, 0.5, [4]), ckpt(6, 0.5, [4])]
    assert select_model(history).chosen.iteration == 3


def test_all_rejected_returns_none_with_diagnostic():
    history = [ckpt(10, 0.99, [1]), ckpt(20, 0.98, [3])]
    result = select_model(history)
    assert result.chosen is None
    assert "3" in result.reason and "iteration 20" in result.reason


def test_empty_history():
    result = select_model([])
    assert result.chosen is None
    assert "empty" in result.reason


def test_empty_distinct_counts_fail_the_gate():
    result = select_model([ckpt(1, 0.9, [])])
    assert result.chosen is None


def test_require_all_indices_flag():
    history = [ckpt(1, 0.9, [5, 1])]
    assert select_model(history).chosen is history[0]
    assert select_model(history, require_all_indices=True).chosen is None


def test_custom_threshold():
    history = [ckpt(1, 0.9, [4])]
    assert select_model(history, min_distinct_m0=5).chosen is None
    assert select_model(history, min_distinct_m0=4).chosen is history[0]


def test_negative_gate_is_a_config_error():
    history = [ckpt(0, 0.5, [4])]
    assert select_model(history, min_distinct_m0=0).chosen is history[0]
    with pytest.raises(ConfigError, match="min_distinct must be >= 0, got -1"):
        select_model(history, min_distinct_m0=-1)


def test_matches_brute_force_on_random_histories():
    rng = seeded_rng(11)
    for _ in range(50):
        history = [
            ckpt(int(i), float(rng.integers(0, 4)) / 4.0,
                 [int(rng.integers(1, 7)) for _ in range(2)])
            for i in rng.permutation(12)
        ]
        eligible = [r for r in history if r.distinct[0] >= 4]
        want = (min(eligible, key=lambda r: (-r.bleu4, r.iteration))
                if eligible else None)
        assert select_model(history).chosen is want


def test_selectable_is_what_some_gate_chooses_and_stays_dropped():
    # BLEU-4 from {0, 0.25, ..., 1}, 0-5 distinct counts at 0-4 positions;
    # walking each history as hdlm train does, keeping selectable(kept + new),
    # matches selectable of the whole prefix, and a dropped record never
    # comes back
    rng = seeded_rng(12)
    for _ in range(300):
        history = [
            ckpt(int(i), float(rng.integers(0, 5)) / 4.0,
                 [int(rng.integers(0, 6)) for _ in range(int(rng.integers(0, 5)))])
            for i in rng.permutation(int(rng.integers(1, 13)))
        ]
        kept, dropped = [], set()
        for n, record in enumerate(history, start=1):
            prefix = history[:n]
            top = max((c for r in prefix for c in r.distinct), default=0)
            chosen = {id(select_model(prefix, m, every).chosen)
                      for m in range(top + 2) for every in (False, True)}
            want = [r for r in prefix if id(r) in chosen]
            assert selectable(prefix) == want
            assert not dropped & {id(r) for r in want}
            dropped |= {id(r) for r in kept + [record]} - {id(r) for r in want}
            kept = selectable(kept + [record])
            assert kept == want


# ---------------------------------------------------------------------------
# mode baseline


def _record(rid, sentences):
    return ReportRecord(
        id=rid,
        sentences=[list(s) + [EOS_ID] for s in sentences],
        abnormal_flags=[False] * len(sentences),
        mti_labels=[],
        feature_ref=np.zeros((2, 2), dtype=np.float64),
    )


def test_mode_baseline_most_frequent_paragraph():
    records = [
        _record("a", [[4, 5]]),
        _record("b", [[4, 5]]),
        _record("c", [[6]]),
    ]
    assert mode_baseline(records) == [[4, 5, EOS_ID]]


def test_mode_baseline_tie_breaks_lexicographically():
    records = [_record("a", [[7]]), _record("b", [[4, 9]])]
    assert mode_baseline(records) == [[4, 9, EOS_ID]]


def test_mode_baseline_rejects_empty():
    with pytest.raises(ValueError):
        mode_baseline([])


# ---------------------------------------------------------------------------
# persistence and rendering


def test_history_round_trip(tmp_path):
    history = [ckpt(5, 0.25, [4, 2], path="run/ckpt5.bin"), ckpt(10, 0.5, [6])]
    path = tmp_path / "history.jsonl"
    save_history(path, history)
    assert load_history(path) == history


# saves a six-record history under a file-size limit given in bytes
_SAVE_UNDER_LIMIT = """
import resource, signal, sys
from hdlm.selection import CheckpointRecord, save_history
path, limit = sys.argv[1], int(sys.argv[2])
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    save_history(path, [CheckpointRecord(8 * k, 0.5, (4, 2)) for k in range(1, 7)])
except OSError as e:
    print(e.errno)
"""


def test_failed_history_rewrite_keeps_the_previous_file(tmp_path):
    # hdlm train rewrites history.jsonl after every evaluation; a write that
    # fails part way must not leave a torn file that select and analyze reject
    history = [ckpt(8, 0.5, [4, 2]), ckpt(16, 0.5, [4, 2])]
    path = tmp_path / "history.jsonl"
    save_history(path, history)
    src = str(Path(hdlm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _SAVE_UNDER_LIMIT, str(path), str(path.stat().st_size + 10)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(errno.EFBIG)]
    assert load_history(path) == history
    assert sorted(tmp_path.iterdir()) == [path]


def test_load_history_reports_line_numbers(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text('{"iteration": 1, "bleu4": 0.5, "distinct": [4]}\nnot json\n')
    with pytest.raises(ValueError, match=r"history\.jsonl:2"):
        load_history(path)


@pytest.mark.parametrize("line", ['"x"', '{"iteration": 1, "bleu4": 0.1, "distinct": 3}',
                                  '{"iteration": -1, "bleu4": 0.1, "distinct": [3]}'])
def test_load_history_bad_line_is_format_error(tmp_path, line):
    path = tmp_path / "history.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(CorpusFormatError, match=r"history\.jsonl:1: "):
        load_history(path)


def test_load_history_missing_field(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text('{"iteration": 1, "bleu4": 0.5}\n')
    with pytest.raises(ValueError, match="distinct"):
        load_history(path)


def test_render_analysis_marks_rows():
    history = [ckpt(1, 0.9, [1, 1]), ckpt(2, 0.4, [5, 3])]
    result = select_model(history)
    text = render_analysis(result)
    lines = text.split("\n")
    assert lines[0].split() == ["iteration", "bleu4", "d@0", "d@1", "mark"]
    assert lines[1].endswith("x") and "0.9000" in lines[1]
    assert lines[2].endswith("*") and "0.4000" in lines[2]
    assert "selected iteration 2" in lines[-1]


def test_render_analysis_aligned_columns():
    history = [ckpt(1, 0.9, [10, 2]), ckpt(1000, 0.45, [5])]
    text = render_analysis(select_model(history))
    header, *rows = text.split("\n")[:3]
    # right-justified columns share their end offsets with the header
    iter_end = header.index("iteration") + len("iteration")
    bleu_end = header.index("bleu4") + len("bleu4")
    assert rows[0][:iter_end].strip() == "1"
    assert rows[1][:iter_end].strip() == "1000"
    assert rows[0][iter_end:bleu_end].strip() == "0.9000"
    assert rows[1][iter_end:bleu_end].strip() == "0.4500"
    # missing deeper positions render as "-"
    assert "-" in rows[1].split()
