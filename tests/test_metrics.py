import hashlib
import json
import math
import warnings

import numpy as np
import pytest

import hdlm.metrics
from hdlm.data import EOS_ID, ReportRecord
from hdlm.inference import GeneratedReport
from hdlm.metrics import (
    MAX_N,
    EvalPair,
    MetricsReport,
    _chunk_count,
    bleu,
    build_eval_pairs,
    cider_d,
    compute_metrics,
    distinct_per_index,
    lcs_length,
    meteor_lite,
    paragraph_tokens,
    render_table,
    rouge_l,
    save_metrics,
)
from hdlm.tensor import seeded_rng
from oracles import bleu_reference, chunk_count_reference, cider_d_reference, lcs_length_reference


def pair(hyp, ref):
    return EvalPair(hypothesis=list(hyp), reference=list(ref))


# ---------------------------------------------------------------------------
# BLEU


def test_bleu1_clipping_repeated_word():
    p = pair("the the the the".split(), "the cat".split())
    assert abs(bleu([p])[0] - 0.25) < 1e-12


def test_bleu4_exact_match_is_one():
    tokens = list(range(6))
    assert abs(bleu([pair(tokens, tokens)])[3] - 1.0) < 1e-12


def test_bleu_no_overlap_is_zero():
    assert bleu([pair([1, 2, 3], [4, 5, 6])])[0] == 0.0


def test_bleu_missing_order_is_zero():
    # unigrams overlap but no common bigram, so BLEU-2 collapses to 0
    p = pair([1, 9, 2], [1, 2, 3])
    assert bleu([p])[0] > 0.0
    assert bleu([p])[1] == 0.0


def test_bleu_brevity_penalty_value():
    p = pair("the cat".split(), "the cat sat".split())
    assert abs(bleu([p])[0] - math.exp(-0.5)) < 1e-12


def test_bleu2_geometric_mean():
    p = pair([1, 2, 3, 4], [1, 2, 9, 4])
    # p1 = 3/4, p2 = 1/3, equal lengths
    assert abs(bleu([p])[1] - math.sqrt(0.25)) < 1e-12


def test_bleu_pools_counts_over_corpus():
    pairs = [pair([1, 2], [1, 2]), pair([3, 4], [9, 9])]
    # pooled unigrams: (2 + 0) / (2 + 2)
    assert abs(bleu(pairs)[0] - 0.5) < 1e-12


def test_bleu_empty_hypothesis_is_zero():
    assert bleu([pair([], [1, 2])])[0] == 0.0


def test_bleu_returns_every_order_up_to_max_n():
    p = pair([1, 2, 3, 4], [1, 2, 9, 4])
    assert bleu([p]) == [bleu_reference([p], n) for n in range(1, MAX_N + 1)]
    assert len(bleu([p])) == MAX_N == 4


def test_bleu_rejects_empty_corpus():
    with pytest.raises(ValueError):
        bleu([])


@pytest.mark.parametrize("metric", [rouge_l, meteor_lite, cider_d], ids=lambda metric: metric.__name__)
def test_corpus_metrics_reject_an_empty_corpus(metric):
    with pytest.raises(ValueError, match=f"{metric.__name__} needs at least one pair"):
        metric([])


# ---------------------------------------------------------------------------
# ROUGE-L


def test_rouge_l_skip_gram_value():
    p = pair(["a", "b", "c", "d"], ["a", "c", "d", "e"])
    assert abs(rouge_l([p]) - 0.75) < 1e-12


def test_rouge_l_exact_match_is_one():
    p = pair([1, 2, 3], [1, 2, 3])
    assert abs(rouge_l([p]) - 1.0) < 1e-12


def test_rouge_l_disjoint_is_zero():
    assert rouge_l([pair([1, 2], [3, 4])]) == 0.0


def test_rouge_l_averages_pairs():
    pairs = [pair([1, 2], [1, 2]), pair([3], [4])]
    assert abs(rouge_l(pairs) - 0.5) < 1e-12


def test_lcs_against_reference_table():
    def oracle(a, b):
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                if a[i - 1] == b[j - 1]:
                    table[i][j] = table[i - 1][j - 1] + 1
                else:
                    table[i][j] = max(table[i - 1][j], table[i][j - 1])
        return table[-1][-1]

    rng = seeded_rng(7)
    for _ in range(300):
        a = rng.integers(0, 5, size=int(rng.integers(0, 13))).tolist()
        b = rng.integers(0, 5, size=int(rng.integers(0, 13))).tolist()
        assert lcs_length(a, b) == oracle(a, b)


# ---------------------------------------------------------------------------
# METEOR


def test_meteor_identical_three_tokens():
    p = pair([1, 2, 3], [1, 2, 3])
    assert abs(meteor_lite([p]) - (1.0 - 0.5 / 27.0)) < 1e-12


def test_meteor_two_fragment_value():
    p = pair(["a", "b", "c", "d"], ["a", "b", "x", "c", "d"])
    # m=4, P=1, R=0.8, F=0.8/0.98, chunks=2, penalty=0.0625
    assert abs(meteor_lite([p]) - 0.75 / 0.98) < 1e-12


def test_meteor_no_overlap_is_zero():
    assert meteor_lite([pair([1], [2])]) == 0.0


def test_meteor_reordering_raises_chunk_penalty():
    ordered = meteor_lite([pair([1, 2, 3, 4], [1, 2, 3, 4])])
    shuffled = meteor_lite([pair([3, 4, 1, 2], [1, 2, 3, 4])])
    assert shuffled < ordered


# ---------------------------------------------------------------------------
# CIDEr-D


def test_cider_self_reference_in_multi_doc_corpus():
    pairs = [
        pair([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]),
        pair([6, 7, 8, 9, 10], [6, 7, 8, 9, 10]),
    ]
    assert abs(cider_d(pairs) - 10.0) < 1e-9


def test_cider_single_document_degenerates_with_warning():
    with pytest.warns(UserWarning):
        score = cider_d([pair([1, 2, 3, 4], [1, 2, 3, 4])])
    assert score == 0.0


def test_cider_partial_overlap_below_maximum():
    pairs = [
        pair([1, 2, 3, 4, 11], [1, 2, 3, 4, 5]),
        pair([6, 7, 8, 9, 10], [6, 7, 8, 9, 10]),
    ]
    assert 0.0 < cider_d(pairs) < 10.0


def test_cider_length_penalty_lowers_score():
    matched = [
        pair([1, 2, 3, 4], [1, 2, 3, 4]),
        pair([6, 7, 8, 9], [6, 7, 8, 9]),
    ]
    padded = [
        pair([1, 2, 3, 4, 1, 2, 3, 4], [1, 2, 3, 4]),
        pair([6, 7, 8, 9], [6, 7, 8, 9]),
    ]
    assert cider_d(padded) < cider_d(matched)


# ---------------------------------------------------------------------------
# distinctness


def test_distinct_counts_per_position():
    s1, s2, s3 = [1, 2], [3, 4], [5, 6]
    assert distinct_per_index([[s1, s2], [s1, s3], [s1]]) == [1, 2]


def test_distinct_ignores_shorter_paragraphs():
    assert distinct_per_index([[[1]], [[1], [2], [3]]]) == [1, 1, 1]


def test_distinct_empty_input():
    assert distinct_per_index([]) == []


# ---------------------------------------------------------------------------
# one-pass kernels against the first formulations


def _random_corpus(rng):
    vocab = int(rng.integers(2, 9))

    def tokens():
        return rng.integers(0, vocab, size=int(rng.integers(0, 21))).tolist()

    return [EvalPair(hypothesis=tokens(), reference=tokens()) for _ in range(int(rng.integers(1, 6)))]


def _string_corpus():
    return [
        pair("the heart is normal in size the lungs are clear".split(),
             "the heart size is normal the lungs are clear".split()),
        pair("the heart is normal in size the lungs are clear".split(),
             "no acute disease the heart is normal".split()),
        pair("a a b a b b a".split(), "b a b a a b".split()),
        pair([], "the lungs are clear".split()),
        pair("10 1 01 1.0".split(), "1 10 1.0 01 1".split()),
        # Python equality: 1 == 1.0 == True, but 1 != "1"
        pair([1, "1", 1.0, True, "a", 1], ["1", 1, "a", 2, True, 1.0]),
    ]


def _corpora():
    """300 seeded random corpora, then the string corpus."""
    rng = seeded_rng(71)
    return [_random_corpus(rng) for _ in range(300)] + [_string_corpus()]


def test_one_pass_kernels_equal_first_formulations_exactly(monkeypatch):
    """BLEU-1..4, ROUGE-L, METEOR, CIDEr-D, the LCS and the chunk count are
    bitwise equal to the oracles on 300 random corpora and string tokens."""
    corpora = _corpora()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        got = [(bleu(c), rouge_l(c), meteor_lite(c), cider_d(c)) for c in corpora]
        want_cider = [cider_d_reference(c) for c in corpora]
    monkeypatch.setattr(hdlm.metrics, "lcs_length", lcs_length_reference)
    monkeypatch.setattr(hdlm.metrics, "_chunk_count", chunk_count_reference)
    for corpus, (bleus, rouge, meteor, cider), want in zip(corpora, got, want_cider):
        assert bleus == [bleu_reference(corpus, n) for n in range(1, 5)]
        assert rouge == rouge_l(corpus)
        assert meteor == meteor_lite(corpus)
        assert cider == want
        for p in corpus:
            assert lcs_length(p.hypothesis, p.reference) == lcs_length_reference(p.hypothesis, p.reference)
            assert _chunk_count(p.hypothesis, p.reference) == chunk_count_reference(p.hypothesis, p.reference)


# compute_metrics' seven floats on _corpora(), recorded when every metric
# still took a list of references: the string corpus's as float.hex, and the
# sha256 of the random corpora's, a line of seven float.hex per corpus
PINNED_STRING_CORPUS = {
    "bleu1": "0x1.83759f2298376p-1", "bleu2": "0x1.3af19f6c0b370p-1",
    "bleu3": "0x1.d8442276789e9p-2", "bleu4": "0x1.3aadab9211f7dp-2",
    "rouge_l": "0x1.0558a6a131521p-1", "cider_d": "0x1.7fad554aa374cp+1",
    "meteor": "0x1.2582419aaa7c2p-1",
}
PINNED_RANDOM_CORPORA = "e9f50589004ddfc10527e19ffc8b10d712ba7ddb12fbc6ed5c0d75926318526c"


def test_compute_metrics_bits_are_pinned():
    # the oracles above can be edited along with the kernels; these values
    # cannot, so a moved last bit in any metric fails here.  A change that
    # moves the scores on purpose records the new values (print `got` and
    # the digest) and states its bound in CHANGES.md
    def floats(corpus):
        report = compute_metrics(corpus, [])
        return {name: float.hex(getattr(report, name)) for name in PINNED_STRING_CORPUS}

    *randoms, strings = _corpora()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rows = [" ".join(floats(c).values()) for c in randoms]
        got = floats(strings)
    assert got == PINNED_STRING_CORPUS
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == PINNED_RANDOM_CORPORA, "compute_metrics moved on the random corpora"


def test_chunk_count_takes_leftmost_longest_fragment():
    # "3 1 2" first, then the "1 2" left on both sides
    assert _chunk_count([1, 2, 3, 1, 2], [3, 1, 2, 1, 2]) == 2
    # "0 0" at (0, 1) ties "1 0" at (2, 0); the leftmost leaves two single
    # tokens, where taking "1 0" would have left one "0 0"
    assert _chunk_count([0, 0, 1, 0], [1, 0, 0, 0]) == 3
    assert _chunk_count([], [1]) == _chunk_count([1], []) == 0


# ---------------------------------------------------------------------------
# pairing and reports


def _record(rid, sentences):
    return ReportRecord(
        id=rid,
        sentences=[list(s) + [EOS_ID] for s in sentences],
        abnormal_flags=[False] * len(sentences),
        mti_labels=[],
        feature_ref=np.zeros((2, 2), dtype=np.float64),
    )


def _report(rid, sentences):
    return GeneratedReport(
        id=rid,
        sentences=[list(s) + [EOS_ID] for s in sentences],
        branches=["normal"] * len(sentences),
        stop_probs=[0.5] * len(sentences),
        abnormal_probs=[0.5] * len(sentences),
    )


def test_paragraph_tokens_strips_terminal_eos():
    assert paragraph_tokens([[4, 5, EOS_ID], [6, EOS_ID]]) == [4, 5, 6]
    assert paragraph_tokens([[4, 5]]) == [4, 5]


def test_build_eval_pairs_matches_ids():
    records = [_record("a", [[4, 5]]), _record("b", [[6]])]
    reports = [_report("b", [[6]]), _report("a", [[4, 7]])]
    pairs = build_eval_pairs(reports, records)
    assert pairs[0].hypothesis == [6] and pairs[0].reference == [6]
    assert pairs[1].hypothesis == [4, 7] and pairs[1].reference == [4, 5]


def test_build_eval_pairs_unknown_id():
    with pytest.raises(ValueError, match="ghost"):
        build_eval_pairs([_report("ghost", [[4]])], [_record("a", [[4]])])


def test_compute_metrics_and_round_trip(tmp_path):
    pairs = [
        pair([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]),
        pair([6, 7, 8, 9, 10], [6, 7, 8, 9, 10]),
    ]
    report = compute_metrics(pairs, paragraphs=[[[1, 2]], [[1, 2], [3]]])
    assert report.bleu4 == pytest.approx(1.0)
    assert report.rouge_l == pytest.approx(1.0)
    assert report.cider_d == pytest.approx(10.0)
    assert report.distinct == [1, 1]
    path = tmp_path / "metrics.json"
    save_metrics(path, report)
    assert json.loads(path.read_text(encoding="utf-8")) == report.as_dict()


def test_compute_metrics_calls_each_metric_once(monkeypatch):
    names = ("bleu", "rouge_l", "cider_d", "meteor_lite", "distinct_per_index")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(hdlm.metrics, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(hdlm.metrics, name, counted)
    pairs = [pair([1, 2, 3], [1, 2, 3]), pair([4, 5], [4, 6])]
    compute_metrics(pairs, paragraphs=[[[1, 2, 3]], [[4, 5]]])
    assert calls == dict.fromkeys(names, 1)


def test_render_table_alignment():
    report = MetricsReport(
        bleu1=0.5, bleu2=0.25, bleu3=0.125, bleu4=0.0625,
        rouge_l=0.5, cider_d=2.5, meteor=0.5, distinct=[3, 1],
    )
    lines = render_table(report).split("\n")
    assert len(lines) == 9
    width = max(len(name) for name in (
        "BLEU-1", "BLEU-2", "BLEU-3", "BLEU-4",
        "ROUGE-L", "CIDEr-D", "METEOR", "distinct@0", "distinct@1",
    ))
    for line in lines:
        assert line[width:width + 2] == "  "
    assert lines[0].endswith("0.5000")
    assert lines[-1].endswith("1")
