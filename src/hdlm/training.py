"""Training loop: Adam with bias correction, global-norm gradient clipping,
seeded per-epoch shuffling, mid-epoch evaluation hooks, and a binary
checkpoint format that stores parameters, optimizer moments, and a config
fingerprint.

Checkpoint layout (all little-endian): magic "HDLM", u32 version, u64
iteration, then repeated entries of (u32 name length, name bytes, u32 rank,
u32 dims..., f64 values).  Optimizer moments are stored under
``adam/m/<name>`` and ``adam/v/<name>`` plus a scalar ``adam/t``; the model
configuration is fingerprinted as a sha256 digest under ``meta/config``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import ConfigError, read_jsonl
from .model import ModelConfig, ModelParams, compute_losses
from .tensor import Tape, Tensor, backward, collect_gradients, seeded_rng

CHECKPOINT_MAGIC = b"HDLM"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed or does not match the model."""


class TrainingDivergedError(RuntimeError):
    """The loss became non-finite; carries the iteration and batch."""


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @staticmethod
    def create(named_params: dict[str, Tensor]) -> "AdamState":
        return AdamState(
            m={n: np.zeros_like(t.data) for n, t in named_params.items()},
            v={n: np.zeros_like(t.data) for n, t in named_params.items()},
        )


def adam_step(
    named_params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place.

    A zero gradient on fresh state is an exact no-op, so parameters whose
    loss terms were absent this batch stay bitwise unchanged.  Temporaries
    go to two scratch buffers, in the operation order of
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
    ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``.
    """
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    size = max((t.data.size for t in named_params.values()), default=0)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for name, tensor in named_params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        a = scratch_a[:g.size].reshape(g.shape)
        b = scratch_b[:g.size].reshape(g.shape)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=a)
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, c1, out=a)
        a *= learning_rate
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        tensor.data -= np.divide(a, b, out=a)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place to a global L2 norm of at most
    ``max_norm``; returns the pre-clip norm."""
    scratch = np.empty(max((g.size for g in grads.values()), default=0))
    total = math.sqrt(sum(
        float(np.multiply(g, g, out=scratch[:g.size].reshape(g.shape)).sum())
        for g in grads.values()
    ))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
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
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if self.clip_norm <= 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.evals_per_epoch < 0:
            raise ConfigError(f"evals_per_epoch must be >= 0, got {self.evals_per_epoch}")


@dataclass
class TrainResult:
    history: list[dict]
    iterations: int


def eval_boundaries(num_batches: int, evals_per_epoch: int) -> list[int]:
    """1-based batch indices after which the evaluation hook fires, spread
    evenly across the epoch and deduplicated."""
    if evals_per_epoch < 1:
        return []
    marks = {
        math.ceil(num_batches * k / evals_per_epoch)
        for k in range(1, evals_per_epoch + 1)
    }
    return sorted(m for m in marks if m >= 1)


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
    of the forward, backward and clip-plus-Adam phases in milliseconds are
    appended to the history and, when ``log_path`` is given, streamed as
    JSON lines.
    """
    if len(records) == 0:
        raise ValueError("train needs a nonempty record list")
    named = params.named_parameters()
    state = AdamState.create(named)
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
                grads = collect_gradients(tape, backward(tape, bundle.total), named)
                t2 = time.perf_counter()
                grad_norm = clip_gradients(grads, config.clip_norm)
                adam_step(named, grads, state, config.learning_rate)
                t3 = time.perf_counter()
                iteration += 1
                entry = {"iteration": iteration, **numbers,
                         "grad_norm": grad_norm, "clipped": grad_norm > config.clip_norm,
                         "tape_entries": tape_entries, "forward_ms": (t1 - t0) * 1e3,
                         "backward_ms": (t2 - t1) * 1e3, "update_ms": (t3 - t2) * 1e3}
                history.append(entry)
                if log_fh is not None:
                    log_fh.write(json.dumps(entry) + "\n")
                if eval_hook is not None and k in fire:
                    eval_hook(iteration, params)
    finally:
        if log_fh is not None:
            log_fh.close()
    return TrainResult(history=history, iterations=iteration)


def load_training_log(path) -> list[dict]:
    return [entry for _, entry in read_jsonl(path)]


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
    """Write through a temporary file in the same directory and rename it
    over ``path``, so a failed write leaves any previous file as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
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
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_exact(fh, n: int, path, what: str) -> bytes:
    blob = fh.read(n)
    if len(blob) != n:
        raise CheckpointError(f"{path}: truncated while reading {what}")
    return blob


def _parse_checkpoint(path) -> tuple[int, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = _read_exact(fh, 16, path, "header")
        magic, version, iteration = struct.unpack("<4sIQ", head)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad checkpoint magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        entries: dict[str, np.ndarray] = {}
        while True:
            raw = fh.read(4)
            if not raw:
                break
            if len(raw) != 4:
                raise CheckpointError(f"{path}: truncated while reading entry header")
            (name_len,) = struct.unpack("<I", raw)
            name = _read_exact(fh, name_len, path, "entry name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, path, f"{name} rank"))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, path, f"{name} dims"))
            if 8 * math.prod(dims) > size - fh.tell():  # a corrupt dim fails here, not in np.empty
                raise CheckpointError(f"{path}: truncated while reading {name} values (dims {list(dims)})")
            entries[name] = values = np.empty(dims, dtype="<f8")
            fh.readinto(values.data)
    return iteration, entries


def load_checkpoint(path, params: ModelParams, config: ModelConfig) -> tuple[int, AdamState | None]:
    """Restore parameters (in place) and optimizer state from ``path``.

    The stored config fingerprint must match ``config``; every parameter must
    be present with its exact shape, and no unknown entries may remain.
    """
    iteration, entries = _parse_checkpoint(path)
    digest = entries.pop("meta/config", None)
    if digest is None or not np.array_equal(digest, config_fingerprint(config)):
        raise CheckpointError(
            f"{path}: checkpoint was written for a different model configuration"
        )
    named = params.named_parameters()
    for name, t in named.items():
        arr = entries.pop(name, None)
        if arr is None:
            raise CheckpointError(f"{path}: missing parameter {name!r}")
        if arr.shape != t.data.shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {arr.shape}, expected {t.data.shape}"
            )
        t.data[...] = arr
    adam = None
    if "adam/t" in entries:
        t_arr = entries.pop("adam/t")
        adam = AdamState(m={}, v={}, t=int(t_arr[0]))
        for name, t in named.items():
            for kind, store in (("m", adam.m), ("v", adam.v)):
                key = f"adam/{kind}/{name}"
                arr = entries.pop(key, None)
                if arr is None or arr.shape != t.data.shape:
                    raise CheckpointError(f"{path}: missing or misshapen {key!r}")
                store[name] = arr
    if entries:
        raise CheckpointError(f"{path}: unknown entry {next(iter(entries))!r}")
    return iteration, adam
