"""Training loop: Adam with bias correction, global-norm gradient clipping,
seeded per-epoch shuffling, mid-epoch evaluation hooks, and a binary
checkpoint format that stores parameters, optimizer moments, and a config
fingerprint.

Parameters, gradients and both Adam moments each live in a flat store
(:class:`hdlm.tensor.FlatStore`), views in ``named_parameters`` order of one
float64 array it keeps: ``backward`` writes each gradient into its view of a
store ``train`` owns for the run, the clip scales that array in one call,
and Adam updates all four arrays in one pass over cache-sized blocks.

Checkpoint layout (all little-endian): magic "HDLM", u32 version, u64
iteration, then repeated entries of (u32 name length, name bytes, u32 rank,
u32 dims..., f64 values).  Optimizer moments are stored under
``adam/m/<name>`` and ``adam/v/<name>`` plus a scalar ``adam/t``; the model
configuration is fingerprinted as a sha256 digest under ``meta/config``.

A reader takes each entry at most once, only under a name of the model's
own table and with the shape that table gives it; every parameter and
moment value is finite; the optimizer state is whole or absent; and a load
that fails leaves the parameters untouched.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import ConfigError, CorpusFormatError, check_int_fields, open_replacing, read_jsonl
from .model import ModelConfig, ModelParams, compute_losses
from .tensor import FlatStore, Tape, Tensor, backward, flat_views, seeded_rng

CHECKPOINT_MAGIC = b"HDLM"
CHECKPOINT_VERSION = 1


class CheckpointError(CorpusFormatError):
    """A checkpoint file is malformed or does not match the model."""


class TrainingDivergedError(RuntimeError):
    """The loss became non-finite; carries the iteration and batch."""


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Both moments of every parameter by name, and the step count.
    ``create`` makes each moment a :func:`hdlm.tensor.flat_views` store, as
    ``adam_step`` needs; ``load_checkpoint`` returns an array per parameter,
    which a store must take in by copy before a step."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @staticmethod
    def create(named_params: dict[str, Tensor]) -> "AdamState":
        shapes = {n: t.shape for n, t in named_params.items()}
        return AdamState(m=flat_views(shapes), v=flat_views(shapes))


_ADAM_BLOCK = 1 << 15  # elements: p, g, m, v and 2 scratch blocks = 1.5 MiB, within L2
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(
    params: FlatStore,
    grads: FlatStore,
    state: AdamState,
    learning_rate: float,
) -> None:
    """One bias-corrected Adam update, in place.

    The parameters, the gradients and each moment are
    :func:`hdlm.tensor.flat_views` stores with one name order, as
    ``ModelParams.create`` (its ``store``) and ``AdamState.create`` make
    them; another mapping, names out of order or unequal sizes raise
    ``ValueError`` before anything changes.  A zero gradient on fresh state
    is an exact no-op, so parameters whose loss terms were absent this batch
    stay bitwise unchanged.  The update runs on blocks of ``_ADAM_BLOCK``
    elements of the four flat arrays, so each pass over a block runs in
    cache.  Temporaries go to two block-sized scratch buffers, in the
    operation order of ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``
    and ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``, with b1, b2 and eps the
    ``ADAM_*`` constants.  The update is elementwise, so a block rounds
    exactly as each parameter's whole array would.
    """
    if not all(isinstance(x, FlatStore) for x in (params, grads, state.m, state.v)):
        raise ValueError("adam_step needs hdlm.tensor.flat_views stores, not plain mappings")
    if not list(params) == list(grads) == list(state.m) == list(state.v):
        raise ValueError("adam_step needs gradients and moments with the parameters' names in order")
    p, g, m, v = params.flat, grads.flat, state.m.flat, state.v.flat
    if not p.size == g.size == m.size == v.size:
        raise ValueError(f"adam_step needs stores of one size, got {p.size}, {g.size}, {m.size} and {v.size}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    d1, d2 = 1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2
    scratch_a, scratch_b = np.empty(min(p.size, _ADAM_BLOCK)), np.empty(min(p.size, _ADAM_BLOCK))
    for at in range(0, p.size, _ADAM_BLOCK):
        pb, gb, mb, vb = (x[at:at + _ADAM_BLOCK] for x in (p, g, m, v))
        a, b = scratch_a[:len(gb)], scratch_b[:len(gb)]
        mb *= ADAM_BETA1
        mb += np.multiply(gb, d1, out=a)
        vb *= ADAM_BETA2
        np.multiply(gb, d2, out=a)
        vb += np.multiply(a, gb, out=a)
        np.divide(mb, c1, out=a)
        a *= learning_rate
        np.divide(vb, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        pb -= np.divide(a, b, out=a)


def clip_gradients(grads: FlatStore, max_norm: float) -> float:
    """Scale all gradients in place to a global L2 norm of at most
    ``max_norm``; returns the pre-clip norm.

    The gradients are a :func:`hdlm.tensor.flat_views` store, whose flat
    array one call scales; another mapping raises ``ValueError``.  The norm
    sums each gradient's squares in turn through scratch the size of the
    largest: squaring the whole store at once raised a paper-scale step's
    peak memory by its size.
    """
    if not isinstance(grads, FlatStore):
        raise ValueError("clip_gradients needs an hdlm.tensor.flat_views store, not a plain mapping")
    scratch = np.empty(max(g.size for g in grads.values()))
    total = math.sqrt(sum(
        float(np.multiply(g, g, out=scratch[:g.size].reshape(g.shape)).sum())
        for g in grads.values()
    ))
    if total > max_norm and total > 0.0:
        grads.flat *= max_norm / total
    return total


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 16
    epochs: int = 250
    seed: int = 0
    clip_norm: float = 5.0
    evals_per_epoch: int = 1

    def __post_init__(self):
        check_int_fields(self)
        # written so that NaN fails every range check
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if not 0.0 < self.clip_norm < math.inf:
            raise ConfigError(f"clip_norm must be positive and finite, got {self.clip_norm}")
        if self.evals_per_epoch < 0:
            raise ConfigError(f"evals_per_epoch must be >= 0, got {self.evals_per_epoch}")


@dataclass
class TrainResult:
    history: list[dict]
    iterations: int


def eval_boundaries(num_batches: int, evals_per_epoch: int) -> list[int]:
    """1-based batch indices after which the evaluation hook fires, spread
    evenly across the epoch; more evaluations than batches mark every batch
    once."""
    evals = min(evals_per_epoch, num_batches)
    # at most one evaluation per batch, so the marks are distinct and increasing
    return [math.ceil(num_batches * k / evals) for k in range(1, evals + 1)]


def train(
    params: ModelParams,
    model_config: ModelConfig,
    records,
    config: TrainConfig,
    eval_hook=None,
    log_path=None,
) -> TrainResult:
    """Minimize the total loss over ``records``.

    Shuffles with a single generator seeded once, so the batch sequence is a
    pure function of the seed.  ``eval_hook(iteration, params)`` fires at the
    configured batch boundaries.  Per-iteration losses, the pre-clip
    gradient norm, whether it was clipped, the tape size and the wall time
    of the forward, backward and clip-plus-Adam phases in milliseconds, with
    the clip's own share, are appended to the history and, when
    ``log_path`` is given, streamed as JSON lines, flushed before each
    evaluation.
    """
    if len(records) == 0:
        raise ValueError("train needs a nonempty record list")
    named = params.named_parameters()
    state = AdamState.create(named)
    # the run's one gradient store, which backward writes and Adam reads
    grads = flat_views({n: t.shape for n, t in named.items()})
    into = {t: grads[n] for n, t in named.items()}
    rng = seeded_rng(config.seed)
    history: list[dict] = []
    iteration = 0
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(config.epochs):
            order = rng.permutation(len(records))
            batches = [
                order[i:i + config.batch_size]
                for i in range(0, len(records), config.batch_size)
            ]
            fire = set(eval_boundaries(len(batches), config.evals_per_epoch))
            for k, idx in enumerate(batches, start=1):
                batch = [records[i] for i in idx]
                t0 = time.perf_counter()
                with Tape() as tape:
                    bundle = compute_losses(params, model_config, batch)
                numbers = bundle.numbers()
                if not all(math.isfinite(v) for v in numbers.values()):
                    raise TrainingDivergedError(
                        f"non-finite loss at iteration {iteration + 1} "
                        f"(epoch {epoch + 1}, batch {k})"
                    )
                tape_entries = len(tape.entries)
                t1 = time.perf_counter()
                backward(tape, bundle.total, into)
                t2 = time.perf_counter()
                grad_norm = clip_gradients(grads, config.clip_norm)
                t3 = time.perf_counter()
                adam_step(params.store, grads, state, config.learning_rate)
                t4 = time.perf_counter()
                iteration += 1
                entry = {"iteration": iteration, **numbers,
                         "grad_norm": grad_norm, "clipped": grad_norm > config.clip_norm,
                         "tape_entries": tape_entries, "forward_ms": (t1 - t0) * 1e3,
                         "backward_ms": (t2 - t1) * 1e3, "update_ms": (t4 - t2) * 1e3,
                         "clip_ms": (t3 - t2) * 1e3}
                history.append(entry)
                if log_fh is not None:
                    log_fh.write(json.dumps(entry) + "\n")
                if eval_hook is not None and k in fire:
                    if log_fh is not None:
                        log_fh.flush()  # the log on disk reaches every checkpoint
                    eval_hook(iteration, params)
    finally:
        if log_fh is not None:
            log_fh.close()
    return TrainResult(history=history, iterations=iteration)


def load_training_log(path) -> list[dict]:
    return read_jsonl(path, (), dict)


# ---------------------------------------------------------------------------
# checkpoints


def config_fingerprint(config: ModelConfig) -> np.ndarray:
    """sha256 of the sorted config fields, as 32 float64 byte values."""
    payload = json.dumps(asdict(config), sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return np.frombuffer(digest, dtype=np.uint8).astype(np.float64)


def _checkpoint_entries(params: ModelParams, config: ModelConfig, adam: AdamState | None):
    yield "meta/config", config_fingerprint(config)
    for name, t in params.named_parameters().items():
        yield name, t.data
    if adam is not None:
        for name in params.named_parameters():
            yield f"adam/m/{name}", adam.m[name]
            yield f"adam/v/{name}", adam.v[name]
        yield "adam/t", np.array([float(adam.t)])


def save_checkpoint(path, params: ModelParams, config: ModelConfig,
                    iteration: int, adam: AdamState | None = None) -> None:
    """Write through :func:`hdlm.data.open_replacing`, so a failed write
    leaves any previous file as it was."""
    with open_replacing(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, iteration))
        for name, arr in _checkpoint_entries(params, config, adam):
            name_b = name.encode("utf-8")
            arr = np.asarray(arr, dtype="<f8")
            fh.write(struct.pack("<I", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            # the array's own buffer, unless it is not contiguous
            fh.write(np.ascontiguousarray(arr).data)


def _read_exact(fh, n: int, path, what: str) -> bytes:
    blob = fh.read(n)
    if len(blob) != n:
        raise CheckpointError(f"{path}: truncated while reading {what}")
    return blob


def load_checkpoint(path, params: ModelParams, config: ModelConfig) -> tuple[int, AdamState | None]:
    """Restore parameters (in place) and optimizer state from ``path``, in
    one pass against the entry table ``save_checkpoint`` writes from."""
    named = params.named_parameters()
    # an array per moment, not flat stores: those are always fresh memory
    # mappings, where these reuse freed heap blocks, and at paper scale the
    # two flat stores raised the peak memory of a load by up to their size
    adam = AdamState(m={n: np.empty(t.data.shape) for n, t in named.items()},
                     v={n: np.empty(t.data.shape) for n, t in named.items()})
    # the file's values go to fresh arrays, never to the parameters' own
    want = {name: np.empty(arr.shape) if name in named else arr
            for name, arr in _checkpoint_entries(params, config, adam)}
    longest = max(len(name.encode("utf-8")) for name in want)
    seen: set[str] = set()
    with open(path, "rb") as fh:
        magic, version, iteration = struct.unpack("<4sIQ", _read_exact(fh, 16, path, "header"))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad checkpoint magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        while raw := fh.read(4):
            if len(raw) != 4:
                raise CheckpointError(f"{path}: truncated while reading entry header")
            (name_len,) = struct.unpack("<I", raw)
            if name_len > longest:
                raise CheckpointError(f"{path}: entry name of {name_len} bytes is longer than any entry's")
            try:
                name = _read_exact(fh, name_len, path, "entry name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: entry name is not valid UTF-8") from None
            if name not in want or name in seen:
                raise CheckpointError(f"{path}: {'repeated' if name in seen else 'unknown'} entry {name!r}")
            arr = want[name]
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, path, f"{name} rank"))
            if rank != arr.ndim:
                raise CheckpointError(f"{path}: {name!r} has rank {rank}, expected {arr.ndim}")
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, path, f"{name} dims"))
            if dims != arr.shape:
                raise CheckpointError(f"{path}: {name!r} has shape {dims}, expected {arr.shape}")
            if fh.readinto(arr.data) != arr.nbytes:
                raise CheckpointError(f"{path}: truncated while reading {name} values")
            if name not in ("meta/config", "adam/t") and not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: {name!r} holds a value that is not finite")
            seen.add(name)
    missing = [name for name in want if name not in seen]  # in table order
    if "meta/config" in missing or not np.array_equal(want["meta/config"], config_fingerprint(config)):
        raise CheckpointError(f"{path}: checkpoint was written for a different model configuration")
    if missing and missing[0] in named:
        raise CheckpointError(f"{path}: missing parameter {missing[0]!r}")
    if "adam/t" in seen:
        step = want["adam/t"].item()
        if not (step >= 0 and step.is_integer()):  # also rejects nan and inf
            raise CheckpointError(f"{path}: 'adam/t' is {step!r}, expected a whole number >= 0")
        adam.t = int(step)
    if missing and len(seen) > 1 + len(named):  # some, but not all, of the optimizer state
        raise CheckpointError(f"{path}: optimizer state is missing {missing[0]!r}")
    for name, t in named.items():
        t.data[...] = want[name]
    return iteration, None if missing else adam
