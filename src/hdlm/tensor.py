"""Dense float64 tensors with define-by-run reverse-mode differentiation.

A ``Tape`` records one forward pass: enter it as a context manager, run the
forward math, then call :func:`backward` on a scalar result to get the
gradients of its leaves keyed by node id.  The walk uses the tape up, so
each tape serves one ``backward``; tapes are rebuilt on every pass.
Forward values are identical whether or not a tape is active, so the same
code path serves training, inference, and finite-difference probing.

All data is float64.  Gradients accumulate additively when a node fans out.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "TapeError",
    "additive_scores",
    "backward",
    "collect_gradients",
    "gradient_audit",
    "linear",
    "lstm_cell_state",
    "lstm_hidden",
    "softmax_lastdim",
    "tanh",
    "relu",
    "add",
    "sub",
    "scale",
    "mul_const",
    "add_bias",
    "slice_rows",
    "concat_rows",
    "sum_rowgroups",
    "weighted_sum_rowgroups",
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


class TapeError(RuntimeError):
    """Misuse of the differentiation tape."""


def seeded_rng(seed: int) -> np.random.Generator:
    """Project-wide pseudo-random source: Philox, a counter-based generator
    with a portable, platform-independent stream for a given seed."""
    return np.random.Generator(np.random.Philox(seed))


class Tensor:
    """A dense float64 array; tapes look it up by identity."""

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64)

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


class _Outer:
    """The gradient ``g^T x`` of a ``linear`` weight, kept as its factors so
    that ``backward`` can stack every use of the weight into one product."""

    __slots__ = ("g", "x")

    def __init__(self, g, x):
        self.g = g
        self.x = x


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
    such as parameters, or constants) are registered on use; ``node_of``
    gives the id to look their gradients up by after :func:`backward`.
    """

    def __init__(self) -> None:
        self.entries: list[_TapeEntry] = []
        self.walked = False
        self._ids: dict[int, int] = {}
        self._keep: list[Tensor | None] = []

    def _register(self, t: Tensor) -> int:
        nid = self._ids.get(id(t))
        if nid is None:
            nid = len(self._keep)
            self._ids[id(t)] = nid
            self._keep.append(t)
        return nid

    def record(self, out: Tensor, inputs: Sequence[Tensor], grad_fn: Callable) -> None:
        input_ids = tuple(self._register(t) for t in inputs)
        self.entries.append(_TapeEntry(self._register(out), input_ids, grad_fn))

    def node_of(self, t: Tensor) -> int | None:
        return self._ids.get(id(t))

    def _pop(self) -> _TapeEntry:
        """Remove the last entry and forget its output tensor."""
        entry = self.entries.pop()
        out = self._keep[entry.out_id]
        self._keep[entry.out_id] = None
        del self._ids[id(out)]
        return entry

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
    """Walk the tape in reverse from a scalar ``loss``; return leaf node id ->
    gradient.

    The walk uses the tape up: each entry leaves the tape as it runs, which
    frees the forward values only it held, and each intermediate gradient
    is dropped once its entry has read it.  A second walk raises
    ``TapeError``.
    """
    if tape.walked:
        raise TapeError("backward already walked this tape; record a new one")
    loss_id = tape.node_of(loss)
    if loss_id is None:
        raise TapeError("loss tensor was not recorded on this tape")
    if loss.size != 1:
        raise TapeError(f"loss must be scalar-valued, got shape {loss.shape}")
    tape.walked = True
    grads: dict[int, np.ndarray] = {loss_id: np.ones_like(loss.data)}
    # A grad_fn may hand one array to several inputs (``add`` passes ``g`` to
    # both), so a node's first gradient is only borrowed.  The second
    # contribution copies it into an array the node owns; later ones add in
    # place.
    owned: set[int] = set()
    outers: dict[int, list[_Outer]] = {}

    def take(nid: int) -> np.ndarray | None:
        # a node's gradient is complete when it is first read: stack its
        # weight-gradient factors into one product and add the rest
        g = grads.pop(nid, None)
        parts = outers.pop(nid, None)
        if parts:
            if len(parts) == 1:
                prod = parts[0].g.T @ parts[0].x
            else:
                prod = np.concatenate([p.g for p in parts]).T @ np.concatenate([p.x for p in parts])
            if g is not None:
                prod += g
            g = prod
        return g

    while tape.entries:
        entry = tape._pop()
        g_out = take(entry.out_id)
        if g_out is None:
            continue
        for nid, g_in in zip(entry.input_ids, entry.grad_fn(g_out)):
            if g_in is None:
                continue
            if isinstance(g_in, _Outer):
                outers.setdefault(nid, []).append(g_in)
                continue
            acc = grads.get(nid)
            if acc is None:
                grads[nid] = g_in
            elif nid in owned:
                acc += g_in
            else:
                grads[nid] = np.add(acc, g_in, out=np.empty_like(acc))
                owned.add(nid)
    return {nid: Tensor(take(nid)) for nid in set(grads) | set(outers)}


def collect_gradients(tape: Tape, grads, named_params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients by parameter name, zero-filled where the loss never touched
    the parameter."""
    out = {}
    for name, t in named_params.items():
        g = grads.get(tape.node_of(t))
        out[name] = g.data if g is not None else np.zeros_like(t.data)
    return out


# ---------------------------------------------------------------------------
# operations


def linear(x: Tensor | np.ndarray, w: Tensor) -> Tensor:
    """[S, I] rows times the transpose of an [O, I] weight, giving [S, O].

    A plain-array ``x`` is a constant and gets no gradient.  The weight's
    gradient ``g^T x`` goes to ``backward`` as its two factors.
    """
    constant = not isinstance(x, Tensor)
    X = np.asarray(x, dtype=np.float64) if constant else x.data
    W = w.data
    if X.ndim != 2 or W.ndim != 2 or X.shape[1] != W.shape[1]:
        raise ShapeError(f"linear shapes do not agree: {X.shape} x {W.shape}^T")
    out = Tensor(X @ W.T)
    if constant:
        _record(out, (w,), lambda g: (_Outer(g, X),))
    else:
        _record(out, (x, w), lambda g: (g @ W, _Outer(g, X)))
    return out


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # the tanh form never overflows, so it needs no sign split
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)
    _record(out, (x,), lambda g: (g * (1.0 - y * y),))
    return out


def _gate_width(op: str, z: Tensor, c: Tensor) -> int:
    if z.data.ndim != 2 or z.shape[1] % 4 or c.shape != (z.shape[0], z.shape[1] // 4):
        raise ShapeError(f"{op} needs [S, 4H] gates and an [S, H] cell, got {z.shape} and {c.shape}")
    return z.shape[1] // 4


def lstm_cell_state(z: Tensor, c: Tensor) -> Tensor:
    """The LSTM cell update c' = σ(z_f)·c + σ(z_i)·tanh(z_g) from [S, 4H]
    gate pre-activations in the order input, forget, cell, output."""
    hs = _gate_width("lstm_cell_state", z, c)
    Z, C = z.data, c.data
    i = _stable_sigmoid(Z[:, :hs])
    f = _stable_sigmoid(Z[:, hs:2 * hs])
    g = np.tanh(Z[:, 2 * hs:3 * hs])
    out = Tensor(f * C + i * g)

    def grad(gc):
        # products in the order of the unfused sigmoid/tanh/mul chain, so
        # the gradients stay bitwise equal to it
        gz = np.zeros(Z.shape)
        gz[:, :hs] = gc * g * i * (1.0 - i)
        gz[:, hs:2 * hs] = gc * C * f * (1.0 - f)
        gz[:, 2 * hs:3 * hs] = gc * i * (1.0 - g * g)
        return gz, gc * f

    _record(out, (z, c), grad)
    return out


def lstm_hidden(z: Tensor, c: Tensor) -> Tensor:
    """The LSTM output h' = σ(z_o)·tanh(c') from [S, 4H] gate
    pre-activations and the updated [S, H] cell."""
    hs = _gate_width("lstm_hidden", z, c)
    o = _stable_sigmoid(z.data[:, 3 * hs:])
    t = np.tanh(c.data)
    out = Tensor(o * t)

    def grad(gh):
        gz = np.zeros(z.shape)
        gz[:, 3 * hs:] = gh * t * o * (1.0 - o)
        return gz, gh * o * (1.0 - t * t)

    _record(out, (z, c), grad)
    return out


def relu(x: Tensor) -> Tensor:
    # gradient at exactly zero is zero
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))
    _record(out, (x,), lambda g: (g * mask,))
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


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= start < stop <= x.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] invalid for shape {x.shape}")
    out = Tensor(x.data[start:stop])

    def grad(g):
        full = np.zeros(x.shape)
        full[start:stop] = g
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


def sum_rowgroups(x: Tensor, group_size: int) -> Tensor:
    """[G*group_size, K] -> [G, K], summing each consecutive group of rows."""
    if x.data.ndim != 2 or group_size < 1 or x.shape[0] % group_size:
        raise ShapeError(f"sum_rowgroups(group_size={group_size}) invalid for shape {x.shape}")
    groups = x.shape[0] // group_size
    k = x.shape[1]
    out = Tensor(x.data.reshape(groups, group_size, k).sum(axis=1))
    _record(out, (x,), lambda g: (np.repeat(g, group_size, axis=0),))
    return out


def weighted_sum_rowgroups(x: Tensor, weights: Tensor) -> Tensor:
    """[G*K, D] rows and [G, K] weights -> [G, D]: each group's rows summed
    with its own weights."""
    if x.data.ndim != 2 or weights.data.ndim != 2 or x.shape[0] != weights.size:
        raise ShapeError(f"weighted_sum_rowgroups shapes do not agree: {x.shape} and {weights.shape}")
    groups, size = weights.shape
    x3 = x.data.reshape(groups, size, x.shape[1])
    w = weights.data
    out = Tensor(np.matmul(w[:, None, :], x3)[:, 0, :])

    def grad(g):
        g_x = (w[:, :, None] * g[:, None, :]).reshape(x.shape)
        return g_x, np.matmul(x3, g[:, :, None])[:, :, 0]

    _record(out, (x, weights), grad)
    return out


def additive_scores(keys: Tensor, query: Tensor, score: Tensor) -> Tensor:
    """Additive attention scores ``tanh(key + query of its group) . score``:
    [G*K, A] keys, [G, A] queries and an [A] score vector give [G, K]."""
    Kd, Q, s = keys.data, query.data, score.data
    if (Kd.ndim != 2 or Q.ndim != 2 or s.ndim != 1 or Q.shape[0] == 0
            or Kd.shape[0] % Q.shape[0] or Kd.shape[1] != s.shape[0] or Q.shape[1] != s.shape[0]):
        raise ShapeError(
            f"additive_scores shapes do not agree: keys {Kd.shape}, query {Q.shape}, score {s.shape}"
        )
    groups, attn = Q.shape
    t = Kd.reshape(groups, -1, attn) + Q[:, None, :]
    np.tanh(t, out=t)
    out = Tensor((t.reshape(-1, attn) @ s[:, None]).reshape(groups, -1))

    def grad(g):
        d = np.multiply(t, t)
        np.subtract(1.0, d, out=d)
        d *= s
        d *= g[:, :, None]
        return d.reshape(Kd.shape), d.sum(axis=1), g.reshape(-1) @ t.reshape(-1, attn)

    _record(out, (keys, query, score), grad)
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
) -> dict[str, tuple[float, int]]:
    """Noise-aware central-difference audit of tape gradients.

    Central differences of a double-precision loss carry cancellation noise
    of roughly ulp(loss) / (2 eps), so coordinates where both the analytic
    and the numeric gradient stay under ``atol`` already agree to within
    2 * atol and carry no further information; they are skipped.  Every
    other coordinate contributes its relative error, which catches a wrong
    analytic zero because the numeric side is then above the floor.  Returns,
    per parameter group, the worst relative error over the informative
    coordinates (0.0 when a group has none) and how many there were.
    ``atol=0.0`` skips nothing, giving the plain worst relative error over
    every probed coordinate.  ``f`` must be deterministic and read the
    parameter tensors in place.
    """
    with Tape() as tape:
        out = f()
    analytic = collect_gradients(tape, backward(tape, out), named_params)
    rng = seeded_rng(seed)
    report: dict[str, tuple[float, int]] = {}
    for name, p in named_params.items():
        a_flat = analytic[name].reshape(-1)
        flat = p.data.reshape(-1)
        worst, checked = 0.0, 0
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
            worst, checked = max(worst, err), checked + 1
        report[name] = worst, checked
    return report
