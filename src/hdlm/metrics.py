"""Corpus evaluation: BLEU, ROUGE-L, CIDEr-D, a lightweight METEOR, and
per-position sentence distinctness.

All metrics score each generated paragraph against one reference
paragraph, its record's own, as flat token sequences; tokens may be ids or
strings.  Terminal EOS markers are stripped when pairs are built from
records, so padding conventions never leak into scores.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import EOS_ID, open_replacing

MAX_N = 4  # n-gram orders of BLEU and CIDEr-D
ROUGE_BETA = 1.2  # ROUGE-L's weight of recall against precision
CIDER_SIGMA = 6.0  # width of CIDEr-D's Gaussian length penalty, in tokens


@dataclass
class EvalPair:
    """One hypothesis paragraph and its reference paragraph."""

    hypothesis: list
    reference: list


def paragraph_tokens(sentences) -> list:
    """Flatten sentences into one token list, dropping each terminal EOS."""
    out = []
    for sent in sentences:
        body = list(sent)
        if body and body[-1] == EOS_ID:
            body = body[:-1]
        out.extend(body)
    return out


def build_eval_pairs(reports, records) -> list[EvalPair]:
    """Pair generated reports with reference records by id, in report order."""
    by_id = {r.id: r for r in records}
    pairs = []
    for rep in reports:
        rec = by_id.get(rep.id)
        if rec is None:
            raise ValueError(f"generated report {rep.id!r} has no reference record")
        pairs.append(EvalPair(paragraph_tokens(rep.sentences), paragraph_tokens(rec.sentences)))
    return pairs


# ---------------------------------------------------------------------------
# BLEU


def _ngram_counts(tokens) -> list[Counter]:
    """Counters of the n-grams of ``tokens`` for n = 1..MAX_N, each in
    first-occurrence order."""
    return [Counter(zip(*(tokens[k:] for k in range(n)))) for n in range(1, MAX_N + 1)]


def bleu(pairs) -> list[float]:
    """Corpus BLEU-1..4 from one count of each pair: pooled clipped n-gram
    precisions, BLEU-n the geometric mean over orders 1..n, times the
    brevity penalty min(1, e^(1 - r/c)).

    No smoothing: an order with zero pooled numerator (or denominator) sends
    its score and every higher one to exactly 0.
    """
    if not pairs:
        raise ValueError("bleu needs at least one pair")
    num, den = [0] * MAX_N, [0] * MAX_N
    for pair in pairs:
        ref_counts = _ngram_counts(pair.reference)
        for n, hyp_counts in enumerate(_ngram_counts(pair.hypothesis)):
            num[n] += sum((hyp_counts & ref_counts[n]).values())
            den[n] += max(len(pair.hypothesis) - n, 0)
    c = sum(len(p.hypothesis) for p in pairs)
    r = sum(len(p.reference) for p in pairs)
    scores, log_sum = [0.0] * MAX_N, 0.0
    for n in range(MAX_N):
        if num[n] == 0 or den[n] == 0:
            break
        log_sum += math.log(num[n] / den[n])
        scores[n] = min(1.0, math.exp(1.0 - r / c)) * math.exp(log_sum / (n + 1))
    return scores


# ---------------------------------------------------------------------------
# ROUGE-L


def lcs_length(a, b) -> int:
    """Longest common subsequence length by the bit-parallel recurrence of
    Allison & Dix (1986) and Hyyro (2004).  After each token of ``a`` the
    zero bits of ``v`` mark where the row of the quadratic table steps up
    along ``b``, so the zeros among len(b) bits count the LCS."""
    masks = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    v = full = (1 << len(b)) - 1
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(pairs) -> float:
    """Mean over pairs of the LCS F-score,
    F = (1 + beta^2) R P / (R + beta^2 P) with beta = ``ROUGE_BETA``."""
    if not pairs:
        raise ValueError("rouge_l needs at least one pair")
    total = 0.0
    for pair in pairs:
        lcs = lcs_length(pair.hypothesis, pair.reference)
        if lcs:
            p = lcs / len(pair.hypothesis)
            r = lcs / len(pair.reference)
            total += (1 + ROUGE_BETA * ROUGE_BETA) * r * p / (r + ROUGE_BETA * ROUGE_BETA * p)
    return total / len(pairs)


# ---------------------------------------------------------------------------
# METEOR (unigram variant)


def _chunk_count(hyp, ref) -> int:
    """Greedy fragment cover: repeatedly take the longest contiguous fragment
    common to the unused positions of both sides (leftmost on ties), until no
    common token remains.  Returns the number of fragments taken.

    ``run[i, j]`` is the length of the common fragment at hyp[i], ref[j],
    and its row-major argmax the leftmost longest.  Taking a fragment zeroes
    its rows and columns and caps the runs above and left of it that reach
    them.  The cover uses every match (the sum of min token counts), so the
    count starts at one chunk per match and each fragment of length L joins
    L of them; once the longest run is 1, no further fragment joins any.
    """
    ids = {}
    h = np.array([ids.setdefault(t, len(ids)) for t in hyp], dtype=np.int64)
    r = np.array([ids.setdefault(t, len(ids)) for t in ref], dtype=np.int64)
    eq = h[:, None] == r
    run = eq.astype(np.int64)
    # at the loop head, tail[i, j] is hyp[i:i + t] == ref[j:j + t]
    tail, t = eq, 1
    while tail.any():
        tail = tail[:-1, :-1] & eq[t:, t:]
        run[:-t, :-t] += tail
        t += 1
    chunks = sum((Counter(hyp) & Counter(ref)).values())
    while run.size:
        i, j = divmod(int(run.argmax()), run.shape[1])
        length = int(run[i, j])
        if length <= 1:
            break
        run[i:i + length] = 0
        run[:, j:j + length] = 0
        np.minimum(run[:i], np.arange(i, 0, -1)[:, None], out=run[:i])
        np.minimum(run[:, :j], np.arange(j, 0, -1), out=run[:, :j])
        chunks -= length - 1
    return chunks


def meteor_lite(pairs) -> float:
    """Unigram METEOR without stemming or synonyms.

    Per pair: matches m = sum of min token counts, P = m/|hyp|,
    R = m/|ref|, F = P R / (0.9 P + 0.1 R), penalty = 0.5 (chunks/m)^3,
    score = F (1 - penalty); the corpus averages pairs.  No matches -> 0.
    """
    if not pairs:
        raise ValueError("meteor_lite needs at least one pair")
    total = 0.0
    for pair in pairs:
        ref_counts = Counter(pair.reference)
        m = sum(min(c, ref_counts[t]) for t, c in Counter(pair.hypothesis).items())
        if m:
            p = m / len(pair.hypothesis)
            r = m / len(pair.reference)
            f_mean = p * r / (0.9 * p + 0.1 * r)
            penalty = 0.5 * (_chunk_count(pair.hypothesis, pair.reference) / m) ** 3
            total += f_mean * (1.0 - penalty)
    return total / len(pairs)


# ---------------------------------------------------------------------------
# CIDEr-D


def cider_d(pairs) -> float:
    """Consensus scoring: tf-idf n-gram vectors (orders 1..MAX_N), clipped
    cosine against the reference with a Gaussian length penalty of width
    ``CIDER_SIGMA``, averaged over orders, scaled by 10, averaged over pairs.

    Document frequencies come from the references, one document per pair;
    with a single pair every idf is log(1) = 0 and the score degenerates to
    0, which raises a warning.
    """
    if not pairs:
        raise ValueError("cider_d needs at least one pair")
    num_docs = len(pairs)
    ref_counts = [_ngram_counts(pair.reference) for pair in pairs]
    df = [Counter(gram for counts in ref_counts for gram in counts[n]) for n in range(MAX_N)]
    if num_docs == 1:
        warnings.warn(
            "CIDEr-D needs multiple reference documents for meaningful idf; "
            "scores on a single-pair corpus are 0",
            stacklevel=2,
        )

    def vec(counts, n):
        return {gram: count * math.log(num_docs / max(df[n][gram], 1))
                for gram, count in counts.items()}

    total = 0.0
    for pair, counts in zip(pairs, ref_counts):
        delta = len(pair.hypothesis) - len(pair.reference)
        length_penalty = math.exp(-(delta * delta) / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
        order_sum = 0.0
        for n, hyp_counts in enumerate(_ngram_counts(pair.hypothesis)):
            g_hyp, g_ref = vec(hyp_counts, n), vec(counts[n], n)
            norm_hyp = math.sqrt(sum(v * v for v in g_hyp.values()))
            norm_ref = math.sqrt(sum(v * v for v in g_ref.values()))
            if norm_hyp == 0.0 or norm_ref == 0.0:
                continue
            clipped = sum(
                min(v, g_ref.get(gram, 0.0)) * g_ref.get(gram, 0.0)
                for gram, v in g_hyp.items()
            )
            order_sum += clipped / (norm_hyp * norm_ref) * length_penalty
        total += 10.0 * order_sum / MAX_N
    return total / len(pairs)


# ---------------------------------------------------------------------------
# positional distinctness


def distinct_per_index(paragraphs) -> list[int]:
    """Distinct sentences at each position.

    ``paragraphs`` is a list of sentence lists; entry m of the result counts
    the distinct sentence tuples appearing at index m among the paragraphs
    long enough to have one.
    """
    depth = max((len(p) for p in paragraphs), default=0)
    out = []
    for m in range(depth):
        out.append(len({tuple(p[m]) for p in paragraphs if len(p) > m}))
    return out


# ---------------------------------------------------------------------------
# reports


@dataclass
class MetricsReport:
    bleu1: float
    bleu2: float
    bleu3: float
    bleu4: float
    rouge_l: float
    cider_d: float
    meteor: float
    distinct: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def compute_metrics(pairs, paragraphs) -> MetricsReport:
    """All corpus metrics for ``pairs``; ``paragraphs`` (generated sentence
    lists) feeds the positional distinctness counts."""
    return MetricsReport(
        *bleu(pairs),
        rouge_l=rouge_l(pairs),
        cider_d=cider_d(pairs),
        meteor=meteor_lite(pairs),
        distinct=distinct_per_index(paragraphs),
    )


def save_metrics(path, report: MetricsReport) -> None:
    with open_replacing(path) as fh:
        fh.write((json.dumps(report.as_dict(), indent=2) + "\n").encode("utf-8"))


def render_table(report: MetricsReport) -> str:
    """Fixed-width two-column rendering of a metrics report."""
    rows = [
        ("BLEU-1", f"{report.bleu1:.4f}"),
        ("BLEU-2", f"{report.bleu2:.4f}"),
        ("BLEU-3", f"{report.bleu3:.4f}"),
        ("BLEU-4", f"{report.bleu4:.4f}"),
        ("ROUGE-L", f"{report.rouge_l:.4f}"),
        ("CIDEr-D", f"{report.cider_d:.4f}"),
        ("METEOR", f"{report.meteor:.4f}"),
    ]
    rows.extend(
        (f"distinct@{m}", str(count)) for m, count in enumerate(report.distinct)
    )
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)
