"""Corpus handling: tokenization, vocabulary, report records, frequency
statistics, embedding-distance abnormality annotation, a synthetic
long-tail corpus generator, and the JSON-lines codec every run file uses.

Token id conventions are global: PAD=0, BOS=1, EOS=2, UNK=3.  Stored
sentences always end with EOS and never contain BOS.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import seeded_rng

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

FEATURE_MAGIC = b"FMAP"
FEATURE_VERSION = 1

DEFAULT_ANNOTATION_THRESHOLD = 0.35

_SPLIT_PUNCT = (".", ",", ";")


class ConfigError(ValueError):
    """A configuration value violates its invariants."""


class CorpusFormatError(ValueError):
    """A corpus, feature, vocabulary, embedding, or run file is malformed."""


# ---------------------------------------------------------------------------
# tokenization and vocabulary


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, detach terminal {. , ;} as tokens."""
    out: list[str] = []
    for chunk in text.lower().split():
        tail: list[str] = []
        while len(chunk) > 1 and chunk[-1] in _SPLIT_PUNCT:
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        out.append(chunk)
        out.extend(reversed(tail))
    return out


@dataclass
class Vocabulary:
    id_to_token: list[str]
    token_to_id: dict[str, int]
    min_frequency: int = 1

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode_token(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def encode_sentence(self, tokens, append_eos: bool = True) -> list[int]:
        ids = [self.encode_token(t) for t in tokens]
        if append_eos:
            ids.append(EOS_ID)
        return ids

    def decode(self, ids, skip_special: bool = True) -> list[str]:
        out = []
        for i in ids:
            if skip_special and i < len(RESERVED_TOKENS):
                continue
            out.append(self.id_to_token[i])
        return out


def build_vocab(sentences, min_frequency: int = 1) -> Vocabulary:
    """Ids by descending frequency, lexicographic tie-break; rare tokens -> UNK."""
    counts = Counter(tok for sent in sentences for tok in sent)
    kept = sorted(
        (t for t, c in counts.items() if c >= min_frequency),
        key=lambda t: (-counts[t], t),
    )
    id_to_token = list(RESERVED_TOKENS) + kept
    return Vocabulary(id_to_token, {t: i for i, t in enumerate(id_to_token)}, min_frequency)


def save_vocab(path, vocab: Vocabulary) -> None:
    payload = {"tokens": vocab.id_to_token, "min_frequency": vocab.min_frequency}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_vocab(path) -> Vocabulary:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise CorpusFormatError(f"{path}: invalid JSON ({e.msg})") from None
    tokens = payload.get("tokens") if isinstance(payload, dict) else None
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CorpusFormatError(f"{path}: expected a JSON object with a \"tokens\" string list")
    if tokens[: len(RESERVED_TOKENS)] != list(RESERVED_TOKENS):
        raise CorpusFormatError(f"{path}: vocabulary does not start with the reserved tokens")
    return Vocabulary(tokens, {t: i for i, t in enumerate(tokens)}, payload.get("min_frequency", 1))


# ---------------------------------------------------------------------------
# records


@dataclass
class ReportRecord:
    """One image's paragraph plus its supervision signals.

    ``feature_ref`` is either an in-memory [L, C] float array or a path
    string; ``mti_labels`` holds the active label indices (sparse multi-hot).
    """

    id: str
    sentences: list[list[int]]
    abnormal_flags: list[bool]
    mti_labels: tuple[int, ...]
    feature_ref: object = None

    def __post_init__(self):
        if len(self.sentences) < 1:
            raise ValueError(f"record {self.id!r}: needs at least one sentence")
        if len(self.sentences) != len(self.abnormal_flags):
            raise ValueError(
                f"record {self.id!r}: {len(self.sentences)} sentences but "
                f"{len(self.abnormal_flags)} abnormal flags"
            )
        for k, sent in enumerate(self.sentences):
            if not sent or sent[-1] != EOS_ID:
                raise ValueError(f"record {self.id!r}: sentence {k} does not end with EOS")
        self.mti_labels = tuple(sorted(set(int(x) for x in self.mti_labels)))
        if self.mti_labels and self.mti_labels[0] < 0:
            raise ValueError(f"record {self.id!r}: negative label {self.mti_labels[0]}")

    def multi_hot(self, label_count: int) -> np.ndarray:
        out = np.zeros(label_count, dtype=np.float64)
        for j in self.mti_labels:
            if j >= label_count:
                raise ValueError(f"record {self.id!r}: label {j} >= label count {label_count}")
            out[j] = 1.0
        return out

    def feature_map(self) -> np.ndarray:
        if isinstance(self.feature_ref, np.ndarray):
            return self.feature_ref
        if isinstance(self.feature_ref, (str, Path)):
            return load_features(self.feature_ref)
        raise ValueError(f"record {self.id!r}: no feature map attached")


# ---------------------------------------------------------------------------
# statistics


def sentence_frequency_table(sentences) -> list[tuple[tuple, int]]:
    """Distinct-sentence counts sorted by descending frequency.

    ``sentences`` is any iterable of token sequences (hashable tokens).
    Ties sort by ascending token sequence so the order is total.
    """
    counts = Counter(tuple(sent) for sent in sentences)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def count_below(table, max_frequency: int = 3) -> tuple[int, float]:
    """(count, fraction) of distinct sentences with f < max_frequency."""
    if not table:
        return 0, 0.0
    n = sum(1 for _, f in table if f < max_frequency)
    return n, n / len(table)


# ---------------------------------------------------------------------------
# word embeddings and abnormality auto-annotation


@dataclass
class EmbeddingFile:
    vectors: dict[str, np.ndarray]
    dim: int


def _nonblank_lines(path):
    """Yield ``(lineno, text)`` for every nonblank line of ``path``; a line
    that is not UTF-8 raises :class:`CorpusFormatError` naming ``path:line``."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CorpusFormatError(f"{path}:{lineno}: invalid UTF-8") from None
            if line.strip():
                yield lineno, line


def load_embeddings(path) -> EmbeddingFile:
    """Text format: one line per word, ``word v1 v2 ... vd``."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    for lineno, line in _nonblank_lines(path):
        parts = line.split()
        word = parts[0]
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError:
            raise CorpusFormatError(f"{path}:{lineno}: non-numeric embedding value") from None
        if vec.size == 0:
            raise CorpusFormatError(f"{path}:{lineno}: no vector components")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise CorpusFormatError(
                f"{path}:{lineno}: vector of dim {vec.size}, expected {dim}"
            )
        if not np.linalg.norm(vec) > 0:
            raise CorpusFormatError(f"{path}:{lineno}: zero-norm vector for {word!r}")
        vectors[word] = vec
    if not vectors:
        raise CorpusFormatError(f"{path}: empty embedding file")
    return EmbeddingFile(vectors, dim)


def _cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 1.0 - float(a @ b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))


def auto_annotate_abnormal(
    sentence_tokens,
    embeddings: EmbeddingFile,
    tag_terms,
    threshold: float = DEFAULT_ANNOTATION_THRESHOLD,
) -> bool:
    """True iff some (token, tag term) pair is within ``threshold`` cosine distance.

    Out-of-vocabulary sentence tokens are skipped; missing tag terms are a
    configuration error.  Monotone in threshold by construction (the decision
    compares the minimum pair distance against it).
    """
    tag_vecs = []
    for term in tag_terms:
        vec = embeddings.vectors.get(term)
        if vec is None:
            raise ConfigError(f"tag term {term!r} missing from embeddings")
        tag_vecs.append(vec)
    best = np.inf
    for tok in sentence_tokens:
        vec = embeddings.vectors.get(tok)
        if vec is None:
            continue
        for tv in tag_vecs:
            best = min(best, _cosine_distance(vec, tv))
    return best <= threshold


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class SynthConfig:
    """Knobs for the synthetic long-tail corpus.

    Sentences are drawn from fixed normal/abnormal pools with Zipf-shaped
    rank frequencies; every pool sentence owns a fixed random feature pattern
    so record content is recoverable from its feature map.
    """

    seed: int = 0
    records: int = 300
    normal_pool: int = 120
    abnormal_pool: int = 60
    zipf_exponent: float = 1.3
    abnormal_prob: float = 0.3
    noise_scale: float = 0.1
    vocab_words: int = 180
    tag_count: int = 8
    min_sentences: int = 1
    max_sentences: int = 4
    min_words: int = 3
    max_words: int = 7
    locations: int = 16
    channels: int = 24

    def __post_init__(self):
        if not 0.0 <= self.abnormal_prob <= 1.0:
            raise ConfigError(f"abnormal_prob must be in [0,1], got {self.abnormal_prob}")
        for name in ("records", "normal_pool", "abnormal_pool", "vocab_words", "tag_count",
                     "min_sentences", "min_words", "locations", "channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_sentences < self.min_sentences or self.max_words < self.min_words:
            raise ConfigError("sentence/word ranges must be nonempty")
        if self.zipf_exponent < 0 or self.noise_scale < 0:
            raise ConfigError("zipf_exponent and noise_scale must be nonnegative")


@dataclass
class SynthDescription:
    """Ground truth of the generative process behind a synthetic corpus."""

    pool_sentences: list[list[str]]  # normal pool then abnormal pool
    pool_abnormal: list[bool]
    pool_tags: list[int]
    patterns: np.ndarray  # [pool_total, L, C]
    record_topics: list[list[int]]  # per record: global pool indices drawn


@dataclass
class SynthResult:
    records: list[ReportRecord]
    vocab: Vocabulary
    description: SynthDescription


def _zipf_probs(n: int, exponent: float) -> np.ndarray:
    p = (np.arange(1, n + 1, dtype=np.float64)) ** (-exponent)
    return p / p.sum()


def synth_corpus(config: SynthConfig) -> SynthResult:
    """Deterministic synthetic corpus from a single seeded Philox stream."""
    rng = seeded_rng(config.seed)
    lexicon = [f"w{i:03d}" for i in range(config.vocab_words)]

    def draw_pool(size: int) -> list[list[str]]:
        pool = []
        for _ in range(size):
            n = int(rng.integers(config.min_words, config.max_words + 1))
            words = [lexicon[int(k)] for k in rng.integers(0, len(lexicon), size=n)]
            pool.append(words + ["."])
        return pool

    normal = draw_pool(config.normal_pool)
    abnormal = draw_pool(config.abnormal_pool)
    pool_sentences = normal + abnormal
    pool_abnormal = [False] * config.normal_pool + [True] * config.abnormal_pool
    total = len(pool_sentences)
    patterns = rng.normal(size=(total, config.locations, config.channels))
    pool_tags = [int(t) for t in rng.integers(0, config.tag_count, size=total)]

    p_normal = _zipf_probs(config.normal_pool, config.zipf_exponent)
    p_abnormal = _zipf_probs(config.abnormal_pool, config.zipf_exponent)

    records: list[ReportRecord] = []
    all_sentences: list[list[str]] = []
    drawn: list[tuple[list[int], list[bool]]] = []
    for _ in range(config.records):
        n = int(rng.integers(config.min_sentences, config.max_sentences + 1))
        flags = [bool(v) for v in rng.random(n) < config.abnormal_prob]
        topics = []
        for ab in flags:
            if ab:
                topics.append(config.normal_pool + int(rng.choice(config.abnormal_pool, p=p_abnormal)))
            else:
                topics.append(int(rng.choice(config.normal_pool, p=p_normal)))
        drawn.append((topics, flags))
        all_sentences.extend(pool_sentences[t] for t in topics)

    vocab = build_vocab(all_sentences, min_frequency=1)

    for i, (topics, flags) in enumerate(drawn):
        noise = rng.normal(size=(config.locations, config.channels)) * config.noise_scale
        feature = patterns[topics].sum(axis=0) + noise
        records.append(
            ReportRecord(
                id=f"syn{i:05d}",
                sentences=[vocab.encode_sentence(pool_sentences[t]) for t in topics],
                abnormal_flags=flags,
                mti_labels=tuple(sorted({pool_tags[t] for t in topics})),
                feature_ref=feature,
            )
        )
    description = SynthDescription(pool_sentences, pool_abnormal, pool_tags, patterns,
                                   [topics for topics, _ in drawn])
    return SynthResult(records, vocab, description)


def split_corpus(records, ratios=(0.9, 0.05, 0.05), seed: int = 0):
    """Deterministic shuffled split into (train, val, test) by record."""
    if abs(sum(ratios) - 1.0) > 1e-9 or len(ratios) != 3:
        raise ConfigError(f"split ratios must be three values summing to 1, got {ratios}")
    order = seeded_rng(seed).permutation(len(records))
    n_train = int(round(len(records) * ratios[0]))
    n_val = int(round(len(records) * ratios[1]))
    train = [records[i] for i in order[:n_train]]
    val = [records[i] for i in order[n_train:n_train + n_val]]
    test = [records[i] for i in order[n_train + n_val:]]
    return train, val, test


# ---------------------------------------------------------------------------
# feature files: magic "FMAP", u32 version, u32 L, u32 C, L*C little-endian f32


def save_features(path, features: np.ndarray) -> None:
    arr = np.asarray(features)
    if arr.ndim != 2:
        raise ValueError(f"feature map must be rank 2, got shape {arr.shape}")
    loc, chan = arr.shape
    payload = arr.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, loc, chan))
        fh.write(payload)


def load_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != FEATURE_MAGIC:
        raise CorpusFormatError(f"{path}: bad feature magic {blob[:4]!r}")
    if len(blob) < 16:
        raise CorpusFormatError(f"{path}: truncated header ({len(blob)} of 16 bytes)")
    version, loc, chan = struct.unpack_from("<III", blob, 4)
    if version != FEATURE_VERSION:
        raise CorpusFormatError(f"{path}: unsupported feature version {version}")
    expected = 16 + 4 * loc * chan
    if len(blob) != expected:
        raise CorpusFormatError(f"{path}: expected {expected} bytes, got {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f4", offset=16)
    return flat.astype(np.float64).reshape(loc, chan)


# ---------------------------------------------------------------------------
# JSON-lines files: one object per line, shared by every run file


def write_jsonl(path, objects) -> None:
    """Write each object as one JSON line; no objects give an empty file."""
    Path(path).write_text("".join(json.dumps(obj) + "\n" for obj in objects), encoding="utf-8")


def read_jsonl(path, fields=()):
    """Yield ``(lineno, obj)`` for every nonblank line of ``path``.

    Invalid UTF-8 or JSON, a line that is not a JSON object, or an object
    missing one of ``fields`` raises :class:`CorpusFormatError` naming
    ``path:line``.
    """
    for lineno, line in _nonblank_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusFormatError(f"{path}:{lineno}: invalid JSON ({e.msg})") from None
        if not isinstance(obj, dict):
            raise CorpusFormatError(f"{path}:{lineno}: expected a JSON object")
        missing = set(fields) - obj.keys()
        if missing:
            raise CorpusFormatError(f"{path}:{lineno}: missing fields {sorted(missing)}")
        yield lineno, obj


# ---------------------------------------------------------------------------
# corpus files: JSON lines {id, sentences, abnormal, mti, feature}


def save_corpus(path, records) -> None:
    """Write records plus one feature file per record under features/."""
    path = Path(path)
    feat_dir = path.parent / "features"
    lines = []
    for r in records:
        if not isinstance(r.feature_ref, np.ndarray):
            raise ValueError(f"record {r.id!r}: save_corpus needs in-memory feature maps")
        feat_dir.mkdir(parents=True, exist_ok=True)
        rel = f"features/{r.id}.fmap"
        save_features(path.parent / rel, r.feature_ref)
        lines.append({
            "id": r.id,
            "sentences": r.sentences,
            "abnormal": [bool(b) for b in r.abnormal_flags],
            "mti": list(r.mti_labels),
            "feature": rel,
        })
    write_jsonl(path, lines)


def load_corpus(path) -> list[ReportRecord]:
    """Read a JSON-lines corpus, inlining each record's feature map."""
    path = Path(path)
    records = []
    for lineno, obj in read_jsonl(path, ("id", "sentences", "abnormal", "mti", "feature")):
        try:
            bad = [b for b in obj["abnormal"] if not isinstance(b, bool)]
            if bad:
                raise ValueError(f"abnormal flag {bad[0]!r} is not true or false")
            records.append(ReportRecord(
                id=obj["id"],
                sentences=[[int(t) for t in s] for s in obj["sentences"]],
                abnormal_flags=list(obj["abnormal"]),
                mti_labels=tuple(int(x) for x in obj["mti"]),
                feature_ref=load_features(path.parent / obj["feature"]),
            ))
        except (ValueError, TypeError) as e:
            raise CorpusFormatError(f"{path}:{lineno}: {e}") from None
    return records
