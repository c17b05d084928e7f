"""Dense float64 tensors with define-by-run reverse-mode differentiation.

A ``Tape`` records one forward pass: enter it as a context manager, run the
forward math, then call :func:`backward` on a scalar result to get gradients
keyed by node id.  Tapes are rebuilt on every pass and are cheap to discard.
Forward values are identical whether or not a tape is active, so the same
code path serves training, inference, and finite-difference probing.

All data is float64.  Gradients accumulate additively when a node fans out.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "DomainError",
    "TapeError",
    "backward",
    "gradient_audit",
    "matmul",
    "softmax_lastdim",
    "tanh",
    "sigmoid",
    "relu",
    "exp",
    "log",
    "add",
    "sub",
    "mul",
    "scale",
    "mul_const",
    "add_bias",
    "mul_colvec",
    "transpose",
    "reshape",
    "slice_cols",
    "concat_rows",
    "repeat_rows",
    "sum_rowgroups",
    "sum_all",
    "gather_rows",
    "select_positions",
    "logsumexp_lastdim",
    "sigmoid_ce",
    "zeros",
    "seeded_rng",
]


class ShapeError(ValueError):
    """Operands whose shapes do not fit the operation."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class TapeError(RuntimeError):
    """Misuse of the differentiation tape."""


def seeded_rng(seed: int) -> np.random.Generator:
    """Project-wide pseudo-random source: Philox, a counter-based generator
    with a portable, platform-independent stream for a given seed."""
    return np.random.Generator(np.random.Philox(seed))


class Tensor:
    """A dense float64 array plus an optional link into the active tape."""

    __slots__ = ("data", "node")

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.node: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


class _TapeEntry:
    __slots__ = ("out_id", "input_ids", "grad_fn")

    def __init__(self, out_id, input_ids, grad_fn):
        self.out_id = out_id
        self.input_ids = input_ids
        self.grad_fn = grad_fn


_state = threading.local()


def _active_tape() -> "Tape | None":
    stack = getattr(_state, "stack", None)
    return stack[-1] if stack else None


class Tape:
    """Ordered record of the operations of one forward pass.

    Node ids are local to the tape.  Tensors first seen by the tape (leaves
    such as parameters, or constants) are registered on use; their ``node``
    attribute is set so callers can look their gradients up after
    :func:`backward`.
    """

    def __init__(self) -> None:
        self.entries: list[_TapeEntry] = []
        self._ids: dict[int, int] = {}
        self._keep: list[Tensor] = []

    def _register(self, t: Tensor) -> int:
        nid = self._ids.get(id(t))
        if nid is None:
            nid = len(self._keep)
            self._ids[id(t)] = nid
            self._keep.append(t)
            t.node = nid
        return nid

    def record(self, out: Tensor, inputs: Sequence[Tensor], grad_fn: Callable) -> None:
        input_ids = tuple(self._register(t) for t in inputs)
        self.entries.append(_TapeEntry(self._register(out), input_ids, grad_fn))

    def node_of(self, t: Tensor) -> int | None:
        return self._ids.get(id(t))

    def __enter__(self) -> "Tape":
        stack = getattr(_state, "stack", None)
        if stack is None:
            stack = _state.stack = []
        stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _state.stack.pop()


def _record(out: Tensor, inputs: Sequence[Tensor], grad_fn: Callable) -> None:
    tape = _active_tape()
    if tape is not None:
        tape.record(out, inputs, grad_fn)


def backward(tape: Tape, loss: Tensor) -> dict[int, Tensor]:
    """Walk the tape in reverse from a scalar ``loss``; return node id -> gradient."""
    loss_id = tape.node_of(loss)
    if loss_id is None:
        raise TapeError("loss tensor was not recorded on this tape")
    if loss.size != 1:
        raise TapeError(f"loss must be scalar-valued, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {loss_id: np.ones_like(loss.data)}
    for entry in reversed(tape.entries):
        g_out = grads.get(entry.out_id)
        if g_out is None:
            continue
        for nid, g_in in zip(entry.input_ids, entry.grad_fn(g_out)):
            if g_in is None:
                continue
            acc = grads.get(nid)
            grads[nid] = g_in if acc is None else acc + g_in
    return {nid: Tensor(g) for nid, g in grads.items()}


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ShapeError(f"matmul shapes do not agree: {A.shape} x {B.shape}")
    out = Tensor(A @ B)

    def grad(g):
        return g @ B.T, A.T @ g

    _record(out, (a, b), grad)
    return out


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)
    _record(out, (x,), lambda g: (g * (1.0 - y * y),))
    return out


def sigmoid(x: Tensor) -> Tensor:
    y = _stable_sigmoid(x.data)
    out = Tensor(y)
    _record(out, (x,), lambda g: (g * y * (1.0 - y),))
    return out


def relu(x: Tensor) -> Tensor:
    # gradient at exactly zero is zero
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))
    _record(out, (x,), lambda g: (g * mask,))
    return out


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    out = Tensor(y)
    _record(out, (x,), lambda g: (g * y,))
    return out


def log(x: Tensor) -> Tensor:
    xd = x.data
    if np.any(xd <= 0):
        raise DomainError("log requires strictly positive inputs")
    out = Tensor(np.log(xd))
    _record(out, (x,), lambda g: (g / xd,))
    return out


def softmax_lastdim(x: Tensor) -> Tensor:
    if x.data.ndim == 0 or x.data.shape[-1] == 0:
        raise ShapeError(f"softmax_lastdim needs a nonempty last axis, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def grad(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    _record(out, (x,), grad)
    return out


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} needs matching shapes, got {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    out = Tensor(a.data + b.data)
    _record(out, (a, b), lambda g: (g, g))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    out = Tensor(a.data - b.data)
    _record(out, (a, b), lambda g: (g, -g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    out = Tensor(a.data * b.data)
    _record(out, (a, b), lambda g: (g * b.data, g * a.data))
    return out


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(x.data * s)
    _record(out, (x,), lambda g: (g * s,))
    return out


def mul_const(x: Tensor, c) -> Tensor:
    """Elementwise product with a constant (no gradient flows into ``c``)."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 0 and c.shape != x.shape:
        raise ShapeError(f"mul_const constant shape {c.shape} does not match {x.shape}")
    out = Tensor(x.data * c)
    _record(out, (x,), lambda g: (g * c,))
    return out


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-K bias row to every row of a [S, K] tensor."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias shapes do not agree: {x.shape} + {b.shape}")
    out = Tensor(x.data + b.data)
    _record(out, (x, b), lambda g: (g, g.sum(axis=0)))
    return out


def mul_colvec(x: Tensor, w: Tensor) -> Tensor:
    """Scale each row of [S, K] ``x`` by the matching entry of [S, 1] ``w``."""
    if x.data.ndim != 2 or w.shape != (x.shape[0], 1):
        raise ShapeError(f"mul_colvec shapes do not agree: {x.shape} * {w.shape}")
    out = Tensor(x.data * w.data)
    _record(out, (x, w), lambda g: (g * w.data, (g * x.data).sum(axis=1, keepdims=True)))
    return out


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs rank 2, got shape {x.shape}")
    out = Tensor(x.data.T)
    _record(out, (x,), lambda g: (g.T,))
    return out


def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape
    out = Tensor(x.data.reshape(shape))
    _record(out, (x,), lambda g: (g.reshape(old),))
    return out


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_cols [{start}:{stop}] invalid for shape {x.shape}")
    out = Tensor(x.data[:, start:stop])

    def grad(g):
        full = np.zeros((x.shape[0], x.shape[1]))
        full[:, start:stop] = g
        return (full,)

    _record(out, (x,), grad)
    return out


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_rows needs at least one part")
    widths = {p.shape[1:] for p in parts}
    if len(widths) != 1:
        raise ShapeError(f"concat_rows parts disagree beyond axis 0: {sorted(widths)}")
    counts = [p.shape[0] for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))

    def grad(g):
        pieces = []
        at = 0
        for n in counts:
            pieces.append(g[at:at + n])
            at += n
        return tuple(pieces)

    _record(out, tuple(parts), grad)
    return out


def repeat_rows(x: Tensor, times: int) -> Tensor:
    """[G, K] -> [G*times, K], each row repeated ``times`` consecutive times."""
    if x.data.ndim != 2 or times < 1:
        raise ShapeError(f"repeat_rows needs rank 2 and times >= 1, got {x.shape}, {times}")
    g_rows, k = x.shape
    out = Tensor(np.repeat(x.data, times, axis=0))
    _record(out, (x,), lambda g: (g.reshape(g_rows, times, k).sum(axis=1),))
    return out


def sum_rowgroups(x: Tensor, group_size: int) -> Tensor:
    """[G*group_size, K] -> [G, K], summing each consecutive group of rows."""
    if x.data.ndim != 2 or group_size < 1 or x.shape[0] % group_size:
        raise ShapeError(f"sum_rowgroups(group_size={group_size}) invalid for shape {x.shape}")
    groups = x.shape[0] // group_size
    k = x.shape[1]
    out = Tensor(x.data.reshape(groups, group_size, k).sum(axis=1))
    _record(out, (x,), lambda g: (np.repeat(g, group_size, axis=0),))
    return out


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    out = Tensor(x.data.sum())
    _record(out, (x,), lambda g: (np.full(shape, float(g)),))
    return out


def gather_rows(x: Tensor, indices) -> Tensor:
    """Pick rows of a rank-2 tensor; gradients scatter-add back."""
    idx = np.asarray(indices, dtype=np.int64)
    if x.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"gather_rows needs rank-2 source and rank-1 indices, got {x.shape}")
    bad = (idx < 0) | (idx >= x.shape[0])
    if bad.any():
        raise IndexError(f"gather_rows index {int(idx[bad][0])} out of range for {x.shape[0]} rows")
    out = Tensor(x.data[idx])

    def grad(g):
        full = np.zeros(x.shape)
        np.add.at(full, idx, g)
        return (full,)

    _record(out, (x,), grad)
    return out


def select_positions(x: Tensor, positions) -> Tensor:
    """From [S, V] pick entry ``positions[s]`` of each row, giving [S]."""
    pos = np.asarray(positions, dtype=np.int64)
    if x.data.ndim != 2 or pos.shape != (x.shape[0],):
        raise ShapeError(f"select_positions needs [S, V] and S positions, got {x.shape}")
    bad = (pos < 0) | (pos >= x.shape[1])
    if bad.any():
        raise IndexError(f"select_positions index {int(pos[bad][0])} out of range for width {x.shape[1]}")
    rows = np.arange(x.shape[0])
    out = Tensor(x.data[rows, pos])

    def grad(g):
        full = np.zeros(x.shape)
        full[rows, pos] = g
        return (full,)

    _record(out, (x,), grad)
    return out


def logsumexp_lastdim(x: Tensor) -> Tensor:
    """Stable log-sum-exp over the last axis of a [S, V] tensor, giving [S]."""
    if x.data.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"logsumexp_lastdim needs a nonempty [S, V] tensor, got {x.shape}")
    m = x.data.max(axis=1, keepdims=True)
    e = np.exp(x.data - m)
    z = e.sum(axis=1, keepdims=True)
    out = Tensor((m + np.log(z)).reshape(-1))
    soft = e / z
    _record(out, (x,), lambda g: (soft * g[:, None],))
    return out


def sigmoid_ce(logits: Tensor, targets) -> Tensor:
    """Elementwise sigmoid cross-entropy computed in log space from logits.

    ``targets`` is a constant array of the same shape with values in [0, 1].
    The value equals -y*log(sigmoid(z)) - (1-y)*log(1 - sigmoid(z)) but never
    forms the probability first, so large logits stay finite.
    """
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.shape:
        raise ShapeError(f"sigmoid_ce target shape {y.shape} does not match logits {logits.shape}")
    z = logits.data
    out = Tensor(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z))))
    _record(out, (logits,), lambda g: (g * (_stable_sigmoid(z) - y),))
    return out


# ---------------------------------------------------------------------------
# finite differences


def _analytic_grads(f: Callable[[], Tensor], params: Iterable[Tensor]) -> dict[int, np.ndarray]:
    with Tape() as tape:
        out = f()
    grads = backward(tape, out)
    result = {}
    for p in params:
        g = grads.get(tape.node_of(p))
        result[id(p)] = g.data if g is not None else np.zeros_like(p.data)
    return result


def _probe_coords(n: int, max_coords: int | None, rng: np.random.Generator) -> np.ndarray:
    if max_coords is None or n <= max_coords:
        return np.arange(n)
    return np.sort(rng.choice(n, size=max_coords, replace=False))


def gradient_audit(
    f: Callable[[], Tensor],
    named_params: dict[str, Tensor],
    eps: float = 1e-5,
    atol: float = 1e-5,
    max_coords: int | None = None,
    seed: int = 0,
) -> dict[str, float]:
    """Noise-aware central-difference audit of tape gradients.

    Central differences of a double-precision loss carry cancellation noise
    of roughly ulp(loss) / (2 eps), so coordinates where both the analytic
    and the numeric gradient stay under ``atol`` already agree to within
    2 * atol and carry no further information; they are skipped.  Every
    other coordinate contributes its relative error, which catches a wrong
    analytic zero because the numeric side is then above the floor.  Returns
    the worst relative error per parameter group over the informative
    coordinates (0.0 when a group has none).  ``atol=0.0`` skips nothing,
    giving the plain worst relative error over every probed coordinate.
    ``f`` must be deterministic and read the parameter tensors in place.
    """
    params = list(named_params.values())
    analytic = _analytic_grads(f, params)
    rng = seeded_rng(seed)
    report: dict[str, float] = {}
    for name, p in named_params.items():
        a_flat = analytic[id(p)].reshape(-1)
        flat = p.data.reshape(-1)
        worst = 0.0
        for i in _probe_coords(flat.size, max_coords, rng):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f().item()
            flat[i] = orig - eps
            lo = f().item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = a_flat[i]
            if max(abs(a), abs(numeric)) < atol:
                continue
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
        report[name] = worst
    return report
