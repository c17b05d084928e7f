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
from pathlib import Path

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


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_length(hyp_len: int, references) -> int:
    """Reference length closest to the hypothesis; ties pick the shorter."""
    return min((abs(len(r) - hyp_len), len(r)) for r in references)[1]


def bleu(pairs, max_n: int = 4) -> float:
    """Corpus BLEU-``max_n``: pooled clipped n-gram precisions, geometric
    mean over orders 1..max_n, brevity penalty min(1, e^(1 - r/c)).

    No smoothing: an order with zero pooled numerator (or denominator) sends
    the score to exactly 0.
    """
    if not pairs:
        raise ValueError("bleu needs at least one pair")
    log_sum = 0.0
    for n in range(1, max_n + 1):
        num = den = 0
        for pair in pairs:
            hyp_counts = _ngram_counts(pair.hypothesis, n)
            best = Counter()
            for ref in pair.references:
                for gram, count in _ngram_counts(ref, n).items():
                    best[gram] = max(best[gram], count)
            num += sum(min(c, best[g]) for g, c in hyp_counts.items())
            den += max(len(pair.hypothesis) - n + 1, 0)
        if num == 0 or den == 0:
            return 0.0
        log_sum += math.log(num / den)
    c = sum(len(p.hypothesis) for p in pairs)
    if c == 0:
        return 0.0
    r = sum(_closest_ref_length(len(p.hypothesis), p.references) for p in pairs)
    bp = min(1.0, math.exp(1.0 - r / c))
    return bp * math.exp(log_sum / max_n)


# ---------------------------------------------------------------------------
# ROUGE-L


def lcs_length(a, b) -> int:
    """Longest common subsequence length, standard quadratic table."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


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
    common token remains.  Returns the number of fragments taken."""
    used_h = [False] * len(hyp)
    used_r = [False] * len(ref)
    chunks = 0
    while True:
        best_len, best = 0, None
        for i in range(len(hyp)):
            if used_h[i]:
                continue
            for j in range(len(ref)):
                if used_r[j] or hyp[i] != ref[j]:
                    continue
                k = 0
                while (
                    i + k < len(hyp)
                    and j + k < len(ref)
                    and not used_h[i + k]
                    and not used_r[j + k]
                    and hyp[i + k] == ref[j + k]
                ):
                    k += 1
                if k > best_len:
                    best_len, best = k, (i, j)
        if best is None:
            break
        i, j = best
        for t in range(best_len):
            used_h[i + t] = used_r[j + t] = True
        chunks += 1
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
    df = [Counter() for _ in range(max_n)]
    for pair in pairs:
        for n in range(1, max_n + 1):
            seen = set()
            for ref in pair.references:
                seen.update(_ngram_counts(ref, n))
            for gram in seen:
                df[n - 1][gram] += 1
    if num_docs == 1:
        warnings.warn(
            "CIDEr-D needs multiple reference documents for meaningful idf; "
            "scores on a single-pair corpus are 0",
            stacklevel=2,
        )

    def vec(tokens, n):
        out = {}
        for gram, count in _ngram_counts(tokens, n).items():
            out[gram] = count * math.log(num_docs / max(df[n - 1][gram], 1))
        return out

    total = 0.0
    for pair in pairs:
        order_sum = 0.0
        for n in range(1, max_n + 1):
            g_hyp = vec(pair.hypothesis, n)
            norm_hyp = math.sqrt(sum(v * v for v in g_hyp.values()))
            ref_sum = 0.0
            for ref in pair.references:
                g_ref = vec(ref, n)
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
        bleu1=bleu(pairs, 1),
        bleu2=bleu(pairs, 2),
        bleu3=bleu(pairs, 3),
        bleu4=bleu(pairs, 4),
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
