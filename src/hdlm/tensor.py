"""Dense float64 tensors with define-by-run reverse-mode differentiation.

A ``Tape`` records one forward pass: enter it as a context manager, run the
forward math, then call :func:`backward` on a scalar result to get the
gradient of each leaf, keyed by the leaf tensor itself.  Each op records
one entry, even one with two outputs: :func:`lstm` a whole recurrence,
:func:`attention` a step of additive soft attention, :func:`linear` a product
and its bias, each cross-entropy its sum, and :func:`weighted_sum` a
weighted total of any number of terms.  The walk uses the tape up, so
each tape serves one ``backward``; tapes are rebuilt each pass.  Forward
values are identical whether or not a tape is active, so the same code path
serves training, inference, and finite-difference probing.

All data is float64.  Gradients accumulate additively when a node fans out.
Given an ``into`` map, ``backward`` writes chosen leaves' gradients into
arrays the caller owns, such as the views of a :class:`FlatStore`, which
keeps the one flat array they fill, so an optimizer can run on the store
in wide calls.
An op that reads only some rows of an input (the leading rows of a state or
of the attention keys, or a slice) hands back a gradient for just those
rows; ``backward`` adds it into the one zero-started array the input owns in
that walk, so no op builds a zero-filled copy of its input.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np


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


class FlatStore(dict):
    """Name -> a view into ``flat``, the 1-D float64 array that the views
    fill in order; only :func:`flat_views` builds one."""

    __slots__ = ("flat",)


def flat_views(shapes: dict[str, tuple[int, ...]]) -> FlatStore:
    """A :class:`FlatStore` of a zero-filled view of each shape."""
    store, at = FlatStore(), 0
    store.flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    for name, shape in shapes.items():
        n = math.prod(shape)
        store[name] = store.flat[at:at + n].reshape(shape)
        at += n
    return store


class _Outer:
    """The gradient ``g^T x`` of a ``linear`` weight, kept as its factors so
    that ``backward`` can stack every use of the weight into one product."""

    __slots__ = ("g", "x")

    def __init__(self, g, x):
        self.g = g
        self.x = x


class _Rows:
    """The gradient of rows ``start:start + len(g)`` of an input whose other
    rows get none from that op."""

    __slots__ = ("g", "start")

    def __init__(self, g, start):
        self.g = g
        self.start = start


def _row_grad(g: np.ndarray, start: int, total: int):
    """``g`` as the gradient of rows ``start:start + len(g)`` of an input
    with ``total`` rows: the plain array when it covers them all."""
    return g if start == 0 and len(g) == total else _Rows(g, start)


class _Recording(threading.local):
    tape: "Tape | None" = None  # the tape this thread records on


_recording = _Recording()


class Tape:
    """Ordered record of the operations of one forward pass.

    Each entry is the tuple ``(output, inputs, grad_fn)`` and holds its
    tensors themselves; ``output`` is one tensor, or a tuple of them.
    :func:`backward` keys gradients by tensor identity, so leaves
    (parameters, or constants) need no registration.  A thread records on
    one tape at a time: entering a tape while another records raises
    ``TapeError``.
    """

    def __init__(self) -> None:
        self.entries: list[tuple[Tensor, Sequence[Tensor], Callable]] = []
        self.walked = False

    def __enter__(self) -> "Tape":
        if _recording.tape is not None:
            raise TapeError("a tape is already recording on this thread; tapes do not nest")
        _recording.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _recording.tape = None


def _record(out: Tensor, inputs: Sequence[Tensor], grad_fn: Callable) -> None:
    if _recording.tape is not None:
        _recording.tape.entries.append((out, inputs, grad_fn))


def backward(tape: Tape, loss: Tensor,
             into: dict[Tensor, np.ndarray] | None = None) -> dict[Tensor, np.ndarray]:
    """Walk the tape in reverse from a scalar ``loss``; return leaf tensor ->
    gradient array, leaves in the order their first plain gradient arrived,
    then those reached only as ``linear`` weights.

    ``into`` maps leaves to arrays of their shape, such as views of a
    :func:`flat_views` store: such a leaf's gradient, or zeros if the loss
    never reached it, is written into its array (a ``linear`` weight's
    product straight from ``matmul``) and left out of the returned dict.

    An entry with a tuple of outputs is skipped when none of them has a
    gradient; otherwise its ``grad_fn`` gets one gradient, or ``None``, per
    output, and returns one per input: an array of the input's shape, a
    ``_Rows`` for a range of its rows, which is added into an array the
    input owns, started at zeros, or a weight's ``_Outer`` factors.  The walk
    uses the tape up: each entry leaves the tape as it runs, which frees the
    forward values only it held, and each intermediate gradient is dropped
    once its entry has read it.  A second walk raises ``TapeError``.
    """
    if tape.walked:
        raise TapeError("backward already walked this tape; record a new one")
    if not any(out is loss for out, _, _ in tape.entries):
        raise TapeError("loss tensor was not recorded on this tape")
    if loss.size != 1:
        raise TapeError(f"loss must be scalar-valued, got shape {loss.shape}")
    tape.walked = True
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    # A grad_fn may hand one array, or views of it, to several inputs
    # (``concat_rows`` hands each part a view of ``g``), so a node's first
    # gradient is only borrowed.  The second contribution copies it into an
    # array the node owns; later ones add in place.
    owned: set[Tensor] = set()
    outers: dict[Tensor, list[_Outer]] = {}

    def take(t: Tensor, out: np.ndarray | None = None) -> np.ndarray | None:
        # a node's gradient is complete when it is first read: stack its
        # weight-gradient factors into one product and add the rest
        g = grads.pop(t, None)
        owned.discard(t)
        parts = outers.pop(t, None)
        if parts:
            if len(parts) == 1:
                prod = np.matmul(parts[0].g.T, parts[0].x, out=out)
            else:
                prod = np.matmul(np.concatenate([p.g for p in parts]).T,
                                 np.concatenate([p.x for p in parts]), out=out)
            if g is not None:
                prod += g
            return prod
        if out is None:
            return g
        out[...] = 0.0 if g is None else g
        return out

    while tape.entries:
        out, inputs, grad_fn = tape.entries.pop()
        g_outs = [take(o) for o in out] if isinstance(out, tuple) else [take(out)]
        # the outputs, and the last input the entry before handed a gradient
        # to, go before grad_fn runs: forward values only they held are freed
        out = t = None
        if all(g is None for g in g_outs):
            continue
        for t, g_in in zip(inputs, grad_fn(*g_outs)):
            if isinstance(g_in, _Outer):
                outers.setdefault(t, []).append(g_in)
                continue
            acc = grads.get(t)
            if isinstance(g_in, _Rows):
                if t not in owned:
                    grads[t] = acc = np.zeros(t.shape) if acc is None else acc.copy()
                    owned.add(t)
                acc[g_in.start:g_in.start + len(g_in.g)] += g_in.g
                continue
            if acc is None:
                grads[t] = g_in
            elif t in owned:
                acc += g_in
            else:
                grads[t] = np.add(acc, g_in, out=np.empty_like(acc))
                owned.add(t)
    for t, out in (into or {}).items():
        take(t, out)
    return {t: take(t) for t in [*grads, *(t for t in outers if t not in grads)]}


# ---------------------------------------------------------------------------
# operations


def linear(x: Tensor | np.ndarray, w: Tensor, b: Tensor | None = None) -> Tensor:
    """[S, I] rows times the transpose of an [O, I] weight, plus an optional
    [O] bias row, giving [S, O].

    A plain-array ``x`` is a constant and gets no gradient.  The weight's
    gradient ``g^T x`` goes to ``backward`` as its two factors.
    """
    constant = not isinstance(x, Tensor)
    X = np.asarray(x, dtype=np.float64) if constant else x.data
    W = w.data
    if X.ndim != 2 or W.ndim != 2 or X.shape[1] != W.shape[1] or (b is not None and b.shape != W.shape[:1]):
        raise ShapeError(f"linear shapes do not agree: {X.shape} x {W.shape}^T"
                         + ("" if b is None else f" + {b.shape}"))
    out = Tensor(X @ W.T)
    if b is not None:
        out.data += b.data

    def grad(g):
        g_in = (_Outer(g, X),) if constant else (g @ W, _Outer(g, X))
        return g_in if b is None else (*g_in, g.sum(axis=0))

    _record(out, ((w,) if constant else (x, w)) + (() if b is None else (b,)), grad)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[M, K] times a [K, N] matrix or a [K] vector, giving [M, N] or [M]."""
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim not in (1, 2) or A.shape[1] != B.shape[0]:
        raise ShapeError(f"matmul shapes do not agree: {A.shape} x {B.shape}")
    out = Tensor(A @ B)
    B2 = B.reshape(len(B), -1)
    _record(out, (a, b), lambda g: (g.reshape(len(A), -1) @ B2.T, A.T @ g))
    return out


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # the tanh form never overflows, so it needs no sign split
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)
    _record(out, (x,), lambda g: (g * (1.0 - y * y),))
    return out


def lstm(x_proj: Tensor, w_recur: Tensor, bias: Tensor, h: Tensor, c: Tensor,
         rows: list[int] | None = None) -> tuple[Tensor, Tensor]:
    """An LSTM from the state (h, c) [S, H] over the [N, 4H] input
    projections stacked step-major in ``x_proj``, gates in the order input,
    forget, cell, output: z = x_t + h W^T + b, c' = σ(z_f)·c +
    σ(z_i)·tanh(z_g), h' = σ(z_o)·tanh(c').  Step k runs ``rows[k]`` rows,
    on the leading rows of the state before it, so the counts may not grow
    and the first is at most S; by default each of the N / S steps runs all
    S rows.  Returns every step's h' stacked as [N, H], and the last step's
    c'.  One tape entry, whose backward runs through time in one loop; the
    per-step values are kept only while a tape records.

    The gate math runs at full width, as in cuDNN's fused LSTM: one
    ``tanh`` of the [n, 4H] pre-activation times [1/2 | 1/2 | 1 | 1/2], then
    σ(z) = (1 + tanh(z / 2)) / 2 across it with the cell gate's ``tanh`` put
    back, gives the one [n, 4H] gate array a taped step keeps beside c and
    tanh(c').  The backward's products keep each gate's unfused order, so
    results are bitwise those of the per-gate chain.
    """
    X, W, b, h0, c0 = x_proj.data, w_recur.data, bias.data, h.data, c.data
    width, hs = h0.shape if h0.ndim == 2 else (0, 0)
    if rows is None:
        rows = [width] * (len(X) // width) if X.ndim == 2 and width and not len(X) % width else []
    if (X.ndim != 2 or not rows or X.shape[1] != 4 * hs or W.shape != (4 * hs, hs) or b.shape != (4 * hs,)
            or c0.shape != h0.shape or sum(rows) != len(X)
            or not all(n >= m for n, m in zip([width, *rows], [*rows, 1]))):
        raise ShapeError(f"lstm needs [N, 4H] inputs in steps of S or fewer rows that never grow, a [4H, H] "
                         f"weight, a [4H] bias and [S, H] states, got {X.shape}, {W.shape}, {b.shape}, "
                         f"{h0.shape} and {c0.shape}, steps {rows}")
    starts = np.cumsum([0, *rows[:-1]]).tolist()
    saved = [] if _recording.tape is not None else None
    cell = slice(2 * hs, 3 * hs)
    half = np.full(4 * hs, 0.5)
    half[cell] = 1.0  # scaling by 1/2 or 1 is exact
    h_prev, c_prev, outs = h0, c0, []
    for at, n in zip(starts, rows):
        c_prev = c_prev[:n]
        Z = X[at:at + n] + h_prev[:n] @ W.T + b
        Z *= half
        np.tanh(Z, out=Z)
        gates = 1.0 + Z
        gates *= 0.5
        gates[:, cell] = Z[:, cell]
        i, f, g, o = (gates[:, j * hs:(j + 1) * hs] for j in range(4))
        c_new = f * c_prev + i * g
        t = np.tanh(c_new)
        h_prev = o * t
        outs.append(h_prev)
        if saved is not None:
            saved.append((c_prev, gates, t))
        c_prev = c_new
    states = outs[0] if len(outs) == 1 else np.concatenate(outs)
    out, c_last = Tensor(states), Tensor(c_prev)

    def flip(blocks):
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks[::-1])

    sigmoids = half != 1.0  # the input, forget and output gates

    def grad(g_states, g_last):
        # per-element products in the order of the unfused sigmoid/tanh/mul
        # chain, added into zeros as the per-gate gradients were, and the bias
        # summed a step at a time: the gradients stay bitwise equal to it
        g_states = np.zeros(states.shape) if g_states is None else g_states
        gx = np.zeros(X.shape)
        # the gradients from the step after reach only its leading rows
        gc = np.zeros((0, hs)) if g_last is None else g_last
        g_bias, gh_prev = None, np.zeros((0, hs))
        for k in reversed(range(len(rows))):
            c_prev, gates, t = saved[k]
            i, f, g, o = (gates[:, j * hs:(j + 1) * hs] for j in range(4))
            at, n = starts[k], rows[k]
            gh = g_states[at:at + n].copy()
            gh[:len(gh_prev)] += gh_prev
            gc_h = gh * o * (1.0 - t * t)
            gc_h[:len(gc)] += gc
            gc = gc_h
            # each gate's ((a·b)·gate)·(1 - gate) at full width; the cell
            # gate's is (gc·i)·(1 - g·g), so it skips the gate factor
            d = np.concatenate((gc, gc, gc, gh), axis=1)
            d *= np.concatenate((g, c_prev, i, t), axis=1)
            np.multiply(d, gates, out=d, where=sigmoids)
            u = 1.0 - gates
            np.subtract(1.0, g * g, out=u[:, cell])
            d *= u
            gz = gx[at:at + n]
            gz += d
            g_bias = gz.sum(axis=0) if g_bias is None else g_bias + gz.sum(axis=0)
            gh_prev, gc = gz @ W, gc * f
        # w_recur's factors stacked as the per-step products were, last step
        # first: each step's rows against the leading rows of the state before it
        before = [h0, *(states[at:at + n] for at, n in zip(starts, rows))]
        g_recur = _Outer(flip([gx[at:at + n] for at, n in zip(starts, rows)]),
                         flip([h[:n] for h, n in zip(before, rows)]))
        return gx, g_recur, g_bias, _row_grad(gh_prev, 0, width), _row_grad(gc, 0, width)

    _record((out, c_last), (x_proj, w_recur, bias, h, c), grad)
    return out, c_last


def attention(features: np.ndarray, keys: Tensor, h: Tensor, w_state: Tensor,
              score: Tensor) -> tuple[Tensor, np.ndarray]:
    """Additive soft attention of G states, each over its K locations:
    e = tanh(key + W_state h) . score, α = softmax(e), attended = Σ α · row.

    ``features`` [G, K, C] is a constant: G groups of K location rows.  The
    groups' keys are the leading G*K rows of ``keys`` [N, A], and their
    states the leading G rows of ``h`` [S, H], so a caller attends for a
    prefix of its batch with no slice of either; both get gradients on those
    rows, as do w_state [A, H] and score [A].  Returns (attended [G, C], the
    weights α as a plain [G, K] array with no gradient).  One tape entry;
    the weight's gradient goes to ``backward`` as its two factors, as in
    ``linear``.
    """
    X = np.asarray(features, dtype=np.float64)
    Kd, H, W, s = keys.data, h.data, w_state.data, score.data
    groups, size = X.shape[:2] if X.ndim == 3 else (0, 0)
    if (not groups or not size or H.ndim != 2 or len(H) < groups or s.ndim != 1 or Kd.ndim != 2
            or len(Kd) < groups * size or Kd.shape[1] != len(s) or W.shape != (len(s), H.shape[1])):
        raise ShapeError(f"attention needs [G, K, C] features, keys of at least G*K rows of width A, at "
                         f"least G [H] states, an [A, H] weight and an [A] score, got {X.shape}, keys "
                         f"{Kd.shape}, {H.shape}, {W.shape} and {s.shape}")
    attn = len(s)
    H = H[:groups]
    t = Kd[:groups * size].reshape(groups, size, attn) + (H @ W.T)[:, None, :]
    np.tanh(t, out=t)
    e = (t.reshape(-1, attn) @ s[:, None]).reshape(groups, -1)
    e = np.exp(e - e.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(np.matmul(y[:, None, :], X)[:, 0, :])
    key_rows, state_rows = len(Kd), len(h.data)

    def grad(g):
        # the numpy calls of the weighted sum, softmax, scores and query
        # product it replaced, in their order: the gradients stay bitwise equal
        gy = np.matmul(X, g[:, :, None])[:, :, 0]
        ge = y * (gy - (gy * y).sum(axis=-1, keepdims=True))
        d = np.multiply(t, t)
        np.subtract(1.0, d, out=d)
        d *= s
        d *= ge[:, :, None]
        gq = d.sum(axis=1)
        return (_row_grad(d.reshape(-1, attn), 0, key_rows), _row_grad(gq @ W, 0, state_rows),
                _Outer(gq, H), ge.reshape(-1) @ t.reshape(-1, attn))

    _record(out, (keys, h, w_state, score), grad)
    return out, y


def relu(x: Tensor) -> Tensor:
    # gradient at exactly zero is zero
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))
    _record(out, (x,), lambda g: (g * mask,))
    return out


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """Σ w_k t_k over tensors of one shape, added left to right, as one
    entry; term k's gradient is ``g * w_k``."""
    terms, weights = tuple(terms), [float(w) for w in weights]
    if not terms or len(weights) != len(terms) or len({t.shape for t in terms}) != 1:
        raise ShapeError(f"weighted_sum needs one or more terms of one shape and a weight each, got shapes "
                         f"{[t.shape for t in terms]} and {len(weights)} weights")
    out = Tensor(terms[0].data * weights[0])
    for t, w in zip(terms[1:], weights[1:]):
        out.data += t.data * w
    _record(out, terms, lambda g: tuple(g * w for w in weights))
    return out


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= start < stop <= x.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] invalid for shape {x.shape}")
    out = Tensor(x.data[start:stop])
    total = x.shape[0]
    _record(out, (x,), lambda g: (_row_grad(g, start, total),))
    return out


def concat_rows(parts: Sequence[Tensor], rows: list[int] | None = None) -> Tensor:
    """Stack the rows of ``parts``, or of each part its leading ``rows[k]``."""
    if not parts:
        raise ShapeError("concat_rows needs at least one part")
    widths = {p.shape[1:] for p in parts}
    if len(widths) != 1:
        raise ShapeError(f"concat_rows parts disagree beyond axis 0: {sorted(widths)}")
    sizes = [p.shape[0] for p in parts]
    counts = sizes if rows is None else rows
    if len(counts) != len(sizes) or not all(0 <= n <= size for n, size in zip(counts, sizes)):
        raise ShapeError(f"concat_rows cannot take leading rows {counts} of parts with {sizes} rows")
    out = Tensor(np.concatenate([p.data[:n] for p, n in zip(parts, counts)], axis=0))

    def grad(g):
        pieces = []
        at = 0
        for n, size in zip(counts, sizes):
            pieces.append(_row_grad(g[at:at + n], 0, size))
            at += n
        return tuple(pieces)

    _record(out, tuple(parts), grad)
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


def sigmoid_ce(logits: Tensor, targets) -> Tensor:
    """Sigmoid cross-entropy computed in log space from logits, summed over
    every element to a scalar.

    ``targets`` is a constant array of the same shape with values in [0, 1].
    Each element equals -y*log(sigmoid(z)) - (1-y)*log(1 - sigmoid(z)) but
    never forms the probability first, so large logits stay finite.
    """
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.shape:
        raise ShapeError(f"sigmoid_ce targets {y.shape} do not match logits {logits.shape}")
    z = logits.data
    out = Tensor((np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))).sum())
    _record(out, (logits,), lambda g: (g * (_stable_sigmoid(z) - y),))
    return out


def softmax_ce(logits: Tensor, targets) -> Tensor:
    """Each row's softmax cross-entropy ``logsumexp(x) - x[target]``, summed:
    [S, V] logits and S targets give a scalar."""
    x = logits.data
    pos = np.asarray(targets, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] == 0 or pos.shape != (x.shape[0],):
        raise ShapeError(f"softmax_ce needs nonempty [S, V] logits and S targets, got {x.shape} and {pos.shape}")
    bad = (pos < 0) | (pos >= x.shape[1])
    if bad.any():
        raise IndexError(f"softmax_ce target {int(pos[bad][0])} out of range for width {x.shape[1]}")
    rows = np.arange(x.shape[0])
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=1, keepdims=True)
    out = Tensor(((m + np.log(z)).reshape(-1) - x[rows, pos]).sum())
    soft = e / z

    def grad(g):
        # soft·g, minus g at the targets: bitwise equal to the unfused
        # logsumexp - select chain, whose two gradients add to the same sum
        gx = soft * g
        gx[rows, pos] -= g
        return (gx,)

    _record(out, (logits,), grad)
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
    analytic = flat_views({name: p.shape for name, p in named_params.items()})
    with Tape() as tape:
        out = f()
    backward(tape, out, {p: analytic[name] for name, p in named_params.items()})
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
