"""Corpus evaluation: BLEU, ROUGE-L, CIDEr-D, a lightweight METEOR, and
per-position sentence distinctness.

All metrics compare whole paragraphs as flat token sequences; tokens may be
ids or strings.  Terminal EOS markers are stripped when pairs are built from
records, so padding conventions never leak into scores.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from functools import reduce
from operator import or_
from pathlib import Path

import numpy as np

from .data import EOS_ID, CorpusFormatError


@dataclass
class EvalPair:
    """One hypothesis paragraph with one or more reference paragraphs."""

    hypothesis: list
    references: list

    def __post_init__(self):
        if not self.references:
            raise ValueError("EvalPair needs at least one reference")


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
        pairs.append(
            EvalPair(
                hypothesis=paragraph_tokens(rep.sentences),
                references=[paragraph_tokens(rec.sentences)],
            )
        )
    return pairs


# ---------------------------------------------------------------------------
# BLEU


def _ngram_counts(tokens, max_n: int) -> list[Counter]:
    """Counters of the n-grams of ``tokens`` for n = 1..max_n, each in
    first-occurrence order."""
    return [Counter(zip(*(tokens[k:] for k in range(n)))) for n in range(1, max_n + 1)]


def _closest_ref_length(hyp_len: int, references) -> int:
    """Reference length closest to the hypothesis; ties pick the shorter."""
    return min((abs(len(r) - hyp_len), len(r)) for r in references)[1]


def bleu(pairs, max_n: int = 4) -> list[float]:
    """Corpus BLEU-1..``max_n`` from one count of each pair: pooled clipped
    n-gram precisions, BLEU-n the geometric mean over orders 1..n, times the
    brevity penalty min(1, e^(1 - r/c)).

    No smoothing: an order with zero pooled numerator (or denominator) sends
    its score and every higher one to exactly 0.
    """
    if not pairs:
        raise ValueError("bleu needs at least one pair")
    num, den = [0] * max_n, [0] * max_n
    for pair in pairs:
        refs = [_ngram_counts(ref, max_n) for ref in pair.references]
        best = [reduce(or_, grams) for grams in zip(*refs)]  # max count over references
        for n, hyp_counts in enumerate(_ngram_counts(pair.hypothesis, max_n)):
            num[n] += sum((hyp_counts & best[n]).values())
            den[n] += max(len(pair.hypothesis) - n, 0)
    c = sum(len(p.hypothesis) for p in pairs)
    r = sum(_closest_ref_length(len(p.hypothesis), p.references) for p in pairs)
    scores, log_sum = [0.0] * max_n, 0.0
    for n in range(max_n):
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


def rouge_l(pairs, beta: float = 1.2) -> float:
    """Mean over pairs of the best-reference LCS F-score,
    F = (1 + beta^2) R P / (R + beta^2 P)."""
    if not pairs:
        raise ValueError("rouge_l needs at least one pair")
    total = 0.0
    for pair in pairs:
        best = 0.0
        for ref in pair.references:
            lcs = lcs_length(pair.hypothesis, ref)
            if lcs == 0:
                continue
            p = lcs / len(pair.hypothesis)
            r = lcs / len(ref)
            best = max(best, (1 + beta * beta) * r * p / (r + beta * beta * p))
        total += best
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

    Per reference: matches m = sum of min token counts, P = m/|hyp|,
    R = m/|ref|, F = P R / (0.9 P + 0.1 R), penalty = 0.5 (chunks/m)^3,
    score = F (1 - penalty); a pair takes its best reference, the corpus
    averages pairs.  No matches -> 0.
    """
    if not pairs:
        raise ValueError("meteor_lite needs at least one pair")
    total = 0.0
    for pair in pairs:
        best = 0.0
        hyp_counts = Counter(pair.hypothesis)
        for ref in pair.references:
            ref_counts = Counter(ref)
            m = sum(min(c, ref_counts[t]) for t, c in hyp_counts.items())
            if m == 0:
                continue
            p = m / len(pair.hypothesis)
            r = m / len(ref)
            f_mean = p * r / (0.9 * p + 0.1 * r)
            penalty = 0.5 * (_chunk_count(pair.hypothesis, ref) / m) ** 3
            best = max(best, f_mean * (1.0 - penalty))
        total += best
    return total / len(pairs)


# ---------------------------------------------------------------------------
# CIDEr-D


def cider_d(pairs, max_n: int = 4, sigma: float = 6.0) -> float:
    """Consensus scoring: tf-idf n-gram vectors (orders 1..max_n), clipped
    cosine against each reference with a Gaussian length penalty, averaged
    over orders and references, scaled by 10, averaged over pairs.

    Document frequencies come from reference sets, one document per pair;
    with a single pair every idf is log(1) = 0 and the score degenerates to
    0, which raises a warning.
    """
    if not pairs:
        raise ValueError("cider_d needs at least one pair")
    num_docs = len(pairs)
    ref_counts = [[_ngram_counts(ref, max_n) for ref in pair.references] for pair in pairs]
    df = [Counter() for _ in range(max_n)]
    for refs in ref_counts:
        for n in range(max_n):
            df[n].update(set().union(*(ref[n] for ref in refs)))
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
    for pair, refs in zip(pairs, ref_counts):
        order_sum = 0.0
        for n, hyp_counts in enumerate(_ngram_counts(pair.hypothesis, max_n)):
            g_hyp = vec(hyp_counts, n)
            norm_hyp = math.sqrt(sum(v * v for v in g_hyp.values()))
            ref_sum = 0.0
            for ref, counts in zip(pair.references, refs):
                g_ref = vec(counts[n], n)
                norm_ref = math.sqrt(sum(v * v for v in g_ref.values()))
                if norm_hyp == 0.0 or norm_ref == 0.0:
                    continue
                clipped = sum(
                    min(v, g_ref.get(gram, 0.0)) * g_ref.get(gram, 0.0)
                    for gram, v in g_hyp.items()
                )
                delta = len(pair.hypothesis) - len(ref)
                ref_sum += (
                    clipped / (norm_hyp * norm_ref)
                    * math.exp(-(delta * delta) / (2.0 * sigma * sigma))
                )
            order_sum += ref_sum / len(pair.references)
        total += 10.0 * order_sum / max_n
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


def compute_metrics(pairs, paragraphs=None) -> MetricsReport:
    """All corpus metrics for ``pairs``; ``paragraphs`` (generated sentence
    lists) feeds the positional distinctness counts when provided."""
    return MetricsReport(
        *bleu(pairs),
        rouge_l=rouge_l(pairs),
        cider_d=cider_d(pairs),
        meteor=meteor_lite(pairs),
        distinct=distinct_per_index(paragraphs) if paragraphs is not None else [],
    )


def save_metrics(path, report: MetricsReport) -> None:
    Path(path).write_text(json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8")


def load_metrics(path) -> MetricsReport:
    """Read a ``save_metrics`` file; a malformed one raises
    :class:`CorpusFormatError` naming ``path``."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:
        raise CorpusFormatError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"{path}: expected a JSON object")
    values = {}
    for name in (f.name for f in fields(MetricsReport)):
        if name not in obj:
            raise CorpusFormatError(f"{path}: missing metric {name!r}")
        try:
            values[name] = [int(v) for v in obj[name]] if name == "distinct" else float(obj[name])
        except (ValueError, TypeError):
            raise CorpusFormatError(f"{path}: metric {name!r} is not numeric: {obj[name]!r}") from None
    return MetricsReport(**values)


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
