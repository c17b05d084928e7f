"""Corpus handling: tokenization, vocabulary, report records, frequency
statistics, embedding-distance abnormality annotation, a synthetic
long-tail corpus generator, and the JSON-lines codec every run file uses.

Token id conventions are global: PAD=0, BOS=1, EOS=2, UNK=3.  Stored
sentences always end with EOS and never contain BOS.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import seeded_rng

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

FEATURE_MAGIC = b"FMAP"
FEATURE_VERSION = 1

DEFAULT_ANNOTATION_THRESHOLD = 0.35
RARE_BELOW = 3  # a distinct sentence seen fewer times than this is rare

_SPLIT_PUNCT = (".", ",", ";")


class ConfigError(ValueError):
    """A configuration value violates its invariants."""


class CorpusFormatError(ValueError):
    """A corpus, feature, vocabulary, embedding, or run file is malformed."""


def check_int_fields(config) -> None:
    """Raise :class:`ConfigError` naming the first field of the dataclass
    ``config`` declared ``int`` whose value is not an ``int``; a bool, a
    float or a numpy integer is not one."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type == "int" and type(value) is not int:
            raise ConfigError(f"{f.name} must be an int, got {value!r}")


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

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode_sentence(self, tokens) -> list[int]:
        """Token ids, UNK for a token outside the vocabulary, then EOS."""
        return [self.token_to_id.get(t, UNK_ID) for t in tokens] + [EOS_ID]

    def decode(self, ids) -> list[str]:
        """Tokens of ``ids``, without the reserved ones."""
        return [self.id_to_token[i] for i in ids if i >= len(RESERVED_TOKENS)]


def build_vocab(sentences, min_frequency: int = 1) -> Vocabulary:
    """Ids by descending frequency, lexicographic tie-break; rare tokens -> UNK."""
    counts = Counter(tok for sent in sentences for tok in sent)
    kept = sorted(
        (t for t, c in counts.items() if c >= min_frequency),
        key=lambda t: (-counts[t], t),
    )
    id_to_token = list(RESERVED_TOKENS) + kept
    return Vocabulary(id_to_token, {t: i for i, t in enumerate(id_to_token)})


def save_vocab(path, vocab: Vocabulary) -> None:
    with open_replacing(path) as fh:
        fh.write(json.dumps({"tokens": vocab.id_to_token}).encode("utf-8"))


def load_vocab(path) -> Vocabulary:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise CorpusFormatError(f"{path}: invalid UTF-8") from None
    payload = _decode_json(text, path)
    tokens = payload.get("tokens") if isinstance(payload, dict) else None
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CorpusFormatError(f"{path}: expected a JSON object with a \"tokens\" string list")
    if tokens[: len(RESERVED_TOKENS)] != list(RESERVED_TOKENS):
        raise CorpusFormatError(f"{path}: vocabulary does not start with the reserved tokens")
    token_to_id = {t: i for i, t in enumerate(tokens)}
    if len(token_to_id) != len(tokens):
        repeated = next(t for i, t in enumerate(tokens) if token_to_id[t] != i)
        raise CorpusFormatError(f"{path}: token {repeated!r} appears more than once")
    return Vocabulary(tokens, token_to_id)


# ---------------------------------------------------------------------------
# records


@dataclass
class ReportRecord:
    """One image's paragraph plus its supervision signals.

    ``feature_ref`` is the in-memory [L, C] map, float32 whether
    ``synth_corpus`` drew it or ``load_corpus`` read it from the record's map
    file (0.8 MB on the paper's 196 x 1024 grid); ``stack_features`` widens
    it to float64 once per batch.  ``mti_labels`` holds the active label
    indices (sparse multi-hot).
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


def count_below(table) -> tuple[int, float]:
    """(count, fraction) of distinct sentences with f < RARE_BELOW."""
    if not table:
        return 0, 0.0
    n = sum(1 for _, f in table if f < RARE_BELOW)
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
        check_int_fields(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.abnormal_prob <= 1.0:
            raise ConfigError(f"abnormal_prob must be in [0,1], got {self.abnormal_prob}")
        for name in ("records", "normal_pool", "abnormal_pool", "vocab_words", "tag_count",
                     "min_sentences", "min_words", "locations", "channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_sentences < self.min_sentences or self.max_words < self.min_words:
            raise ConfigError("sentence/word ranges must be nonempty")
        for name in ("zipf_exponent", "noise_scale"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")


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

    vocab = build_vocab(all_sentences)

    for i, (topics, flags) in enumerate(drawn):
        noise = rng.normal(size=(config.locations, config.channels)) * config.noise_scale
        try:
            feature = _float32_map(patterns[topics].sum(axis=0) + noise)  # as its file holds it
        except ValueError:
            raise ConfigError("noise_scale must be small enough that every feature value is "
                              f"finite as float32, got {config.noise_scale}") from None
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


def split_corpus(records, train_fraction: float, seed: int = 0):
    """Deterministic shuffled split into (train, val) by record: train takes
    ``round(len(records) * train_fraction)`` records, val every other."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    order = seeded_rng(seed).permutation(len(records))
    n_train = int(round(len(records) * train_fraction))
    return [records[i] for i in order[:n_train]], [records[i] for i in order[n_train:]]


# ---------------------------------------------------------------------------
# feature files: magic "FMAP", u32 version, u32 L, u32 C, L*C little-endian f32


def _float32_map(features) -> np.ndarray:
    """``features`` as a feature file's float32 map, itself when it is one
    already; ``ValueError`` for one ``load_features`` would refuse (an empty
    grid, a non-finite value)."""
    arr = np.asarray(features)
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValueError(f"feature map {arr.shape} is not a nonempty [L, C] grid (rank 2, L and C >= 1)")
    with np.errstate(over="ignore"):  # beyond float32's range rounds to inf, refused here
        arr = arr.astype("<f4", copy=False)
    if not np.isfinite(arr).all():
        raise ValueError("a feature value is not finite as float32")
    return arr


def save_features(path, features: np.ndarray) -> None:
    """Write one map; ``ValueError``, before the file opens, for a bad one."""
    arr = _float32_map(features)
    with open_replacing(path) as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, *arr.shape))
        fh.write(arr.tobytes())


def load_features(path) -> np.ndarray:
    """A feature file's map as a fresh, writable float32 [L, C] array (0.8 MB
    on the paper's 196 x 1024 grid); ``stack_features`` widens it once per
    batch.  A malformed header or size, an empty grid or a value that is not
    finite raises :class:`CorpusFormatError` naming ``path``."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[:4] != FEATURE_MAGIC:
            raise CorpusFormatError(f"{path}: bad feature magic {head[:4]!r}")
        if len(head) < 16:
            raise CorpusFormatError(f"{path}: truncated header ({len(head)} of 16 bytes)")
        version, loc, chan = struct.unpack_from("<III", head, 4)
        if version != FEATURE_VERSION:
            raise CorpusFormatError(f"{path}: unsupported feature version {version}")
        if loc == 0 or chan == 0:
            raise CorpusFormatError(f"{path}: empty feature grid ({loc}, {chan})")
        expected, size = 16 + 4 * loc * chan, os.fstat(fh.fileno()).st_size
        if size != expected:  # checked before the map is allocated
            raise CorpusFormatError(f"{path}: expected {expected} bytes, got {size}")
        features = np.empty((loc, chan), dtype="<f4")
        if fh.readinto(features.data) != features.nbytes:
            raise CorpusFormatError(f"{path}: truncated while reading feature values")
    if not np.isfinite(features).all():
        raise CorpusFormatError(f"{path}: a feature value is not finite")
    return features


# ---------------------------------------------------------------------------
# output files, each written through open_replacing; JSON-lines run files


@contextmanager
def open_replacing(path):
    """Yield a binary file open on a temporary path beside ``path``, renamed
    over ``path`` when the block ends; a failed write removes it, leaving any
    previous file as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_jsonl(path, objects) -> None:
    """Write each object as one JSON line, through :func:`open_replacing`;
    no objects give an empty file."""
    with open_replacing(path) as fh:
        fh.write("".join(json.dumps(obj) + "\n" for obj in objects).encode("utf-8"))


def _decode_json(text: str, where):
    """``json.loads(text)``, raising :class:`CorpusFormatError` naming ``where``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # a digit or nesting limit as well as bad syntax
        raise CorpusFormatError(f"{where}: invalid JSON ({getattr(e, 'msg', e)})") from None


def read_jsonl(path, fields, parse) -> list:
    """``parse(obj)`` for the JSON object on every nonblank line of ``path``.

    Invalid UTF-8 or JSON, a line that is not a JSON object, an object
    missing one of ``fields``, an ``"id"`` that :func:`check_record_id`
    rejects (when ``fields`` names it), or a ``ValueError`` or ``TypeError``
    from ``parse`` raises :class:`CorpusFormatError` naming ``path:line``.
    """
    out, first_line = [], {}
    for lineno, line in _nonblank_lines(path):
        obj = _decode_json(line, f"{path}:{lineno}")
        if not isinstance(obj, dict):
            raise CorpusFormatError(f"{path}:{lineno}: expected a JSON object")
        missing = set(fields) - obj.keys()
        if missing:
            raise CorpusFormatError(f"{path}:{lineno}: missing fields {sorted(missing)}")
        try:
            if "id" in fields:
                check_record_id(obj["id"], lineno, first_line)
            out.append(parse(obj))
        except (ValueError, TypeError) as e:
            raise CorpusFormatError(f"{path}:{lineno}: {e}") from None
    return out


def json_int(value, what: str) -> int:
    """``value`` when it is a JSON integer; anything else, a bool or a float
    included, raises ``ValueError`` naming ``what``."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def json_float(value, what: str) -> float:
    """``value`` as a float when it is a finite JSON number; anything else,
    a bool, a string, NaN or an infinity included, raises ``ValueError``
    naming ``what``."""
    try:
        finite = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{what} {value!r} is not a finite number")
    return float(value)


# ---------------------------------------------------------------------------
# corpus files: JSON lines {id, sentences, abnormal, mti, feature}


def check_record_id(rid, lineno: int, first_line: dict) -> None:
    """Reject an id that is not a string or that an earlier line holds;
    ``first_line`` maps each id seen so far to its line."""
    if not isinstance(rid, str):
        raise ValueError(f"record id {rid!r} is not a string")
    if rid in first_line:
        raise ValueError(f"record id {rid!r} repeats line {first_line[rid]}")
    first_line[rid] = lineno


def save_corpus(path, records) -> None:
    """Write records plus one feature file per record under features/.
    Before any file is written, a record whose id or float32-rounded map
    loading would reject raises ``ValueError`` naming the record."""
    path = Path(path)
    first_line = {}
    for k, r in enumerate(records):  # before any file is written; record k goes to line k + 1
        if not isinstance(r.feature_ref, np.ndarray):
            raise ValueError(f"record {r.id!r}: save_corpus needs in-memory feature maps")
        check_record_id(r.id, k + 1, first_line)
        try:
            _float32_map(r.feature_ref)
        except ValueError as exc:
            raise ValueError(f"record {r.id!r}: {exc}") from None
    if records:
        (path.parent / "features").mkdir(parents=True, exist_ok=True)
    lines = []
    for r in records:
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

    def parse(obj):
        bad = [b for b in obj["abnormal"] if not isinstance(b, bool)]
        if bad:
            raise ValueError(f"abnormal flag {bad[0]!r} is not true or false")
        return ReportRecord(
            id=obj["id"],
            sentences=[[json_int(t, "token id") for t in s] for s in obj["sentences"]],
            abnormal_flags=list(obj["abnormal"]),
            mti_labels=tuple(json_int(x, "label") for x in obj["mti"]),
            feature_ref=load_features(path.parent / obj["feature"]),
        )

    return read_jsonl(path, ("id", "sentences", "abnormal", "mti", "feature"), parse)
