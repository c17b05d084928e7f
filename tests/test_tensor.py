"""Tensor core: forward oracles, gradient rules, finite differences."""

import ast
import math
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from hdlm import tensor as T
from hdlm.tensor import Tensor, Tape, backward, gradient_audit

from oracles import (
    add, add_bias, additive_scores, attention_chain, logsumexp_lastdim, mul, mul_const, repeat_rows, reshape,
    scale, select_positions, sigmoid, sigmoid_ce_chain, sigmoid_ce_elementwise, slice_cols, softmax_ce_chain,
    softmax_ce_elementwise, softmax_lastdim, sub, sum_rowgroups, weighted_sum_rowgroups,
)


# --- independent oracles -----------------------------------------------------


def matmul_oracle(a, b):
    """Naive triple loop, no numpy matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def tanh_series_oracle(x, terms=20):
    """tanh via a 20-term exp series: tanh(x) = (E - 1)/(E + 1), E = e^{2x}."""
    e2x = 0.0
    term = 1.0
    for k in range(terms):
        if k > 0:
            term *= (2.0 * x) / k
        e2x += term
    return (e2x - 1.0) / (e2x + 1.0)


def softmax_oracle(xs):
    es = [math.exp(v) for v in xs]
    z = sum(es)
    return [e / z for e in es]


# --- matmul ------------------------------------------------------------------


def test_matmul_identity():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    eye = Tensor(np.eye(3))
    assert np.array_equal(T.matmul(eye, x).data, x.data)


def test_matmul_zero_annihilates():
    x = Tensor(np.ones((3, 4)))
    z = Tensor(np.zeros((2, 3)))
    assert np.array_equal(T.matmul(z, x).data, np.zeros((2, 4)))


def test_matmul_against_triple_loop_oracle():
    rng = T.seeded_rng(11)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2))
    got = T.matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, matmul_oracle(a, b), atol=1e-12, rtol=0)
    got = T.matmul(Tensor(a), Tensor(b[:, 1])).data
    np.testing.assert_allclose(got, matmul_oracle(a, b)[:, 1], atol=1e-12, rtol=0)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_linear_against_triple_loop_oracle():
    rng = T.seeded_rng(12)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(2, 4))
    got = T.linear(Tensor(x), Tensor(w)).data
    np.testing.assert_allclose(got, matmul_oracle(x, w.T), atol=1e-12, rtol=0)


def test_linear_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_linear_rejects_a_bias_that_is_not_one_per_output():
    x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3)))
    for bias, shown in ((np.zeros(3), r"\(3,\)"), (np.zeros((1, 4)), r"\(1, 4\)")):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\) x \(4, 3\)\^T \+ " + shown):
            T.linear(x, w, Tensor(bias))


def test_linear_bias_bitwise_equal_to_add_bias_oracle():
    # one bias fans out over three calls: on a tensor input, on that call's
    # activated output and on a constant input; a fourth call's weight and
    # bias are products, as in attention_keys.  Every value and leaf
    # gradient equals that of the linear-then-add_bias pair it replaced.
    rng = T.seeded_rng(44)
    x0 = Tensor(rng.normal(size=(7, 4)))
    const = rng.normal(size=(7, 4)) * 10.0 ** rng.integers(-3, 4, size=(7, 1))
    w, b = Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=4))
    m = Tensor(rng.normal(size=(3, 4)))
    w_in, b_in = Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=4))
    features = rng.normal(size=(7, 5))
    coef = rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-3, 4, size=(7, 1))

    def run(op):
        with Tape() as tape:
            h = T.tanh(op(T.tanh(op(x0, w, b)), w, b))
            y = op(const, w, b)
            keys = op(features, T.matmul(m, w_in), T.matmul(m, b_in))
            loss = add(T.sum_all(mul(h, y)), T.sum_all(mul_const(keys, coef)))
        values = [h.data, y.data, keys.data, loss.data]
        grads = backward(tape, loss)
        return values + [grads[t] for t in (x0, w, b, m, w_in, b_in)]

    for got, want in zip(run(T.linear), run(lambda x, w, b: add_bias(T.linear(x, w), b)), strict=True):
        np.testing.assert_array_equal(got, want)


def test_linear_weight_gradient_is_contiguous():
    # clipping and Adam stream over it; a strided transpose view is slow there
    rng = T.seeded_rng(13)
    x = Tensor(rng.normal(size=(5, 3)))
    w = Tensor(rng.normal(size=(4, 3)))
    with Tape() as tape:
        loss = T.sum_all(T.linear(x, w))
    g = backward(tape, loss)[w]
    assert g.flags.c_contiguous
    np.testing.assert_allclose(g, np.tile(x.data.sum(axis=0), (4, 1)), atol=1e-12, rtol=0)


# --- activations -------------------------------------------------------------


def test_sigmoid_at_zero():
    assert sigmoid(Tensor([0.0])).data[0] == 0.5


def test_relu_negative():
    assert T.relu(Tensor([-2.5])).data[0] == 0.0


def test_tanh_matches_series_oracle():
    got = T.tanh(Tensor([0.3])).data[0]
    assert abs(got - tanh_series_oracle(0.3)) <= 1e-12


def test_sigmoid_stable_at_large_magnitudes():
    y = sigmoid(Tensor([800.0, -800.0])).data
    assert y[0] == 1.0 and y[1] == 0.0 and np.all(np.isfinite(y))


def masked_sigmoid_oracle(x):
    """The logistic split by sign so that ``exp`` never overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_tanh_form_matches_masked_formula():
    x = np.concatenate([np.linspace(-50.0, 50.0, 200001), [-745.0, 745.0]])
    want = masked_sigmoid_oracle(x)
    got = sigmoid(Tensor(x)).data
    # the forms differ by at most 2^-52 (two ulps just below 1.0) ...
    assert np.abs(got - want).max() <= np.finfo(np.float64).eps
    # ... and most of that is the masked formula's own rounding
    if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        exact = 1.0 / (1.0 + np.exp(-x.astype(np.longdouble)))
        assert np.abs(got - exact).max() <= np.abs(want - exact).max()
    # sigmoid_ce's gradient is sigmoid(z) - y
    z = Tensor(x)
    with Tape() as tape:
        loss = T.sum_all(T.sigmoid_ce(z, np.zeros_like(x)))
    g = backward(tape, loss)[z]
    np.testing.assert_array_equal(g, got)


# --- softmax -----------------------------------------------------------------


def test_softmax_uniform():
    y = softmax_lastdim(Tensor([2.0, 2.0, 2.0, 2.0])).data
    np.testing.assert_allclose(y, [0.25] * 4, atol=1e-12, rtol=0)


def test_softmax_no_overflow():
    y = softmax_lastdim(Tensor([1000.0, 0.0])).data
    assert np.all(np.isfinite(y))
    assert y[0] > 1 - 1e-12 and y[1] < 1e-12


def test_softmax_matches_direct_oracle():
    xs = [0.1, 0.7, -0.3]
    got = softmax_lastdim(Tensor(xs)).data
    np.testing.assert_allclose(got, softmax_oracle(xs), atol=1e-12, rtol=0)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = T.seeded_rng(5)
    x = rng.normal(size=(6, 9)) * 3
    y = softmax_lastdim(Tensor(x)).data
    np.testing.assert_allclose(y.sum(axis=1), np.ones(6), atol=1e-12, rtol=0)
    y_shift = softmax_lastdim(Tensor(x + 7.25)).data
    np.testing.assert_allclose(y, y_shift, atol=1e-10, rtol=0)


# --- backward ----------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        loss = T.sum_all(x)
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[x], np.ones((2, 3)))


def test_backward_square_gives_two_x():
    x = Tensor([1.5])
    with Tape() as tape:
        loss = T.sum_all(mul(x, x))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[x], [3.0], atol=1e-12)


def test_backward_rejects_nonscalar_loss():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        y = scale(x, 2.0)
    with pytest.raises(T.TapeError, match="scalar"):
        backward(tape, y)


def test_backward_rejects_offtape_loss():
    x = Tensor([1.0])
    with Tape() as tape:
        pass
    with pytest.raises(T.TapeError, match="not recorded"):
        backward(tape, T.sum_all(x))


def test_backward_fanout_accumulates():
    x = Tensor([2.0])
    with Tape() as tape:
        loss = T.sum_all(add(scale(x, 3.0), scale(x, 4.0)))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[x], [7.0], atol=1e-12)


def test_backward_in_place_accumulation_leaves_aliased_gradients_intact():
    # ``add`` hands one gradient array to both of its inputs; y then receives
    # two more contributions, which must not leak into x's gradient
    x = Tensor([1.0, 2.0])
    y = Tensor([3.0, 4.0])
    with Tape() as tape:
        u = scale(y, 3.0)
        t = mul_const(y, [7.0, 11.0])
        s = add(x, y)
        loss = T.sum_all(add(add(mul_const(s, [2.0, 5.0]), t), u))
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[x], [2.0, 5.0])
    np.testing.assert_array_equal(grads[y], [12.0, 19.0])
    # only leaves keep a gradient
    assert set(grads) == {x, y}


def test_backward_adds_row_ranges_before_and_after_whole_gradients():
    # the walk runs backwards, so x's gradient arrives as rows 2:5, then
    # whole, then rows 1:3; y's arrives whole and shared with z by ``add``,
    # then as rows 0:2, then whole again, and z's must not see the rows
    rng = T.seeded_rng(59)
    x, y, z = (Tensor(rng.normal(size=(5, 3))) for _ in range(3))
    ca, cb, cc, cs, cr, cw = (rng.normal(size=(n, 3)) for n in (2, 5, 3, 5, 2, 5))
    with Tape() as tape:
        terms = [
            mul_const(T.slice_rows(x, 1, 3), ca), mul_const(x, cb), mul_const(T.slice_rows(x, 2, 5), cc),
            mul_const(scale(y, 2.0), cw), mul_const(T.slice_rows(y, 0, 2), cr), mul_const(add(y, z), cs),
        ]
        loss = T.sum_all(T.concat_rows(terms))
    grads = backward(tape, loss)
    want_x = np.zeros((5, 3))
    want_x[2:5] += cc
    want_x += cb
    want_x[1:3] += ca
    want_y = cs.copy()
    want_y[0:2] += cr
    want_y += cw * 2.0
    np.testing.assert_array_equal(grads[x], want_x)
    np.testing.assert_array_equal(grads[y], want_y)
    np.testing.assert_array_equal(grads[z], cs)


def test_concat_rows_takes_leading_rows():
    rng = T.seeded_rng(61)
    parts = [Tensor(rng.normal(size=(n, 3))) for n in (4, 2, 3)]
    coef = rng.normal(size=(5, 3))
    with Tape() as tape:
        out = T.concat_rows(parts, [3, 2, 0])
        loss = T.sum_all(mul_const(out, coef))
    np.testing.assert_array_equal(out.data, np.concatenate([parts[0].data[:3], parts[1].data]))
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[parts[0]], np.concatenate([coef[:3], np.zeros((1, 3))]))
    np.testing.assert_array_equal(grads[parts[1]], coef[3:])
    np.testing.assert_array_equal(grads[parts[2]], np.zeros((3, 3)))
    for rows in ([5, 2, 3], [1, 1], [-1, 2, 3]):
        with pytest.raises(T.ShapeError, match="concat_rows"):
            T.concat_rows(parts, rows)


def test_backward_twice_on_one_tape_raises():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        loss = T.sum_all(mul(x, x))
    grads = backward(tape, loss)
    with pytest.raises(T.TapeError, match="already walked"):
        backward(tape, loss)
    assert tape.entries == []
    np.testing.assert_array_equal(grads[x], [2.0, 4.0])


def test_a_tape_entered_inside_another_raises_and_the_outer_keeps_recording():
    # a nested tape would take the inner ops, and the outer walk would
    # silently miss w's gradient; refusing it keeps every op on one tape
    rng = T.seeded_rng(3)
    x = Tensor(rng.normal(size=(2, 4)))
    w = Tensor(rng.normal(size=(4, 4)))
    with Tape() as tape:
        h = T.tanh(x)
        with pytest.raises(T.TapeError, match="already recording"):
            with Tape():
                h = T.linear(h, w)
        h = T.linear(h, w)
        loss = T.sum_all(h)
    grads = backward(tape, loss)
    assert set(grads) == {x, w}
    g = np.ones((2, 4))
    np.testing.assert_array_equal(grads[w], g.T @ np.tanh(x.data))
    np.testing.assert_array_equal(grads[x], (g @ w.data) * (1.0 - np.tanh(x.data) ** 2))
    with Tape() as again:  # the slot is free once the outer tape exits
        loss = T.sum_all(x)
    assert set(backward(again, loss)) == {x}


def test_each_thread_records_on_its_own_tape():
    x = Tensor([1.0, 2.0])
    seen = {}

    def other():
        with Tape() as tape:
            seen["loss"] = T.sum_all(mul(x, x))
        seen["grads"] = backward(tape, seen["loss"])

    with Tape() as tape:
        loss = T.sum_all(x)
        worker = threading.Thread(target=other)
        worker.start()
        worker.join()
    assert len(tape.entries) == 1
    np.testing.assert_array_equal(backward(tape, loss)[x], [1.0, 1.0])
    np.testing.assert_array_equal(seen["grads"][x], [2.0, 4.0])


def test_backward_frees_outputs_before_their_gradients_and_returns_leaves_only():
    # s fans out (so its gradient is owned) and is the last input handed a
    # gradient before its own entry runs; its forward value must still be
    # gone when add's grad_fn runs, since only s held it
    x = Tensor([[1.0, 2.0]])
    y = Tensor([[3.0, 4.0]])
    w = Tensor(np.ones((2, 2)))
    c = np.array([[1.0, 2.0]])
    with Tape() as tape:
        s = add(x, y)
        loss = T.sum_all(add(add(add(scale(s, 2.0), s), y), T.linear(c, w)))
    value = weakref.ref(s.data)
    out, inputs, grad_fn = tape.entries[0]
    assert out is s
    alive = []

    def spy(g):
        alive.append(value() is not None)
        return grad_fn(g)

    tape.entries[0] = (out, inputs, spy)
    del out, s
    grads = backward(tape, loss)
    assert alive == [False]
    # leaves only, y first (its first gradient comes before x's), and w,
    # which got only weight-gradient factors, last
    assert list(grads) == [y, x, w]
    np.testing.assert_array_equal(grads[x], [[3.0, 3.0]])
    np.testing.assert_array_equal(grads[y], [[4.0, 4.0]])
    np.testing.assert_array_equal(grads[w], [[1.0, 2.0], [1.0, 2.0]])
    assert tape.entries == []


def test_backward_tuple_output_entry_gets_one_gradient_or_none_per_output():
    # an entry with two outputs, of which only the first reaches the loss:
    # grad_fn gets its gradient and None for the other
    x = Tensor([1.0, 2.0])
    a, b = Tensor(x.data * 2.0), Tensor(x.data * 3.0)
    seen = []

    def grad_fn(ga, gb):
        seen.append((ga, gb))
        return (ga * 2.0 + (0.0 if gb is None else gb * 3.0),)

    with Tape() as tape:
        T._record((a, b), (x,), grad_fn)
        loss = T.sum_all(mul_const(a, [5.0, 7.0]))
    grads = backward(tape, loss)
    assert len(seen) == 1 and seen[0][1] is None
    np.testing.assert_array_equal(seen[0][0], [5.0, 7.0])
    np.testing.assert_array_equal(grads[x], [10.0, 14.0])


def test_backward_skips_tuple_output_entry_without_gradients():
    x = Tensor([1.0, 2.0])
    calls = []
    with Tape() as tape:
        T._record((Tensor(x.data * 2.0), Tensor(x.data * 3.0)), (x,), lambda *g: calls.append(g))
        loss = T.sum_all(x)
    grads = backward(tape, loss)
    assert calls == []
    assert list(grads) == [x]
    np.testing.assert_array_equal(grads[x], [1.0, 1.0])


def test_weight_gradient_stacks_every_use():
    # one weight read by linear calls of 3, 1 and 5 rows, once more through
    # a dense op, and a second weight read only through a reshape
    rng = T.seeded_rng(14)
    w = Tensor(rng.normal(size=(4, 6)))
    v = Tensor(rng.normal(size=(24,)))
    xs = [rng.normal(size=(n, 6)) for n in (3, 1, 5)]
    gs = [rng.normal(size=(n, 4)) for n in (3, 1, 5)]
    h = Tensor(rng.normal(size=(2, 6)))
    k = rng.normal(size=(4, 6))
    with Tape() as tape:
        terms = [mul_const(T.linear(x, w), g) for x, g in zip(xs, gs)]
        terms.append(mul_const(T.linear(h, reshape(v, (4, 6))), gs[0][:2]))
        terms.append(mul_const(w, k))
        loss = T.sum_all(T.concat_rows([reshape(t, (-1, 1)) for t in terms]))
    grads = backward(tape, loss)
    want_w = sum(g.T @ x for x, g in zip(xs, gs)) + k
    want_v = (gs[0][:2].T @ h.data).reshape(-1)
    got_w = grads[w]
    got_v = grads[v]
    assert np.abs(got_w - want_w).max() <= 1e-13 * np.abs(want_w).max()
    assert np.abs(got_v - want_v).max() <= 1e-13 * np.abs(want_v).max()
    np.testing.assert_allclose(grads[h], gs[0][:2] @ v.data.reshape(4, 6),
                               atol=1e-12, rtol=0)


def test_linear_array_input_is_a_constant():
    rng = T.seeded_rng(15)
    x = rng.normal(size=(3, 2))
    w = Tensor(rng.normal(size=(4, 2)))
    with Tape() as tape:
        y = T.linear(x, w)
        loss = T.sum_all(y)
    _, inputs, _ = tape.entries[0]
    assert inputs == (w,)
    np.testing.assert_array_equal(y.data, x @ w.data.T)
    grads = backward(tape, loss)
    assert list(grads) == [w]
    np.testing.assert_allclose(grads[w], np.tile(x.sum(axis=0), (4, 1)),
                               atol=1e-12, rtol=0)


def additive_scores_oracle(keys, query, score):
    groups, attn = query.shape
    out = np.zeros((groups, keys.shape[0] // groups))
    for i in range(groups):
        for j in range(out.shape[1]):
            out[i, j] = sum(math.tanh(keys[i * out.shape[1] + j, a] + query[i, a]) * score[a]
                            for a in range(attn))
    return out


def test_additive_scores_against_loop_oracle():
    rng = T.seeded_rng(16)
    keys, query, score = rng.normal(size=(6, 4)), rng.normal(size=(2, 4)), rng.normal(size=4)
    got = additive_scores(Tensor(keys), Tensor(query), Tensor(score)).data
    np.testing.assert_allclose(got, additive_scores_oracle(keys, query, score), atol=1e-12, rtol=0)


@pytest.mark.parametrize("shapes", [
    ((2, 3, 3), (6, 4), (1, 2), (4, 2), (4,)),  # fewer states than groups
    ((2, 3, 3), (6, 4), (2, 2), (4, 3), (4,)),  # weight unlike the states
    ((2, 3, 3), (6, 4), (2, 2), (4, 2), (3,)),  # score unlike the keys
    ((2, 3, 3), (6, 4), (0, 2), (4, 2), (4,)),  # no state
    ((2, 3, 3), (5, 4), (2, 2), (4, 2), (4,)),  # a key per location missing
    ((2, 0, 3), (0, 4), (2, 2), (4, 2), (4,)),  # no location
    ((2, 3, 3), (6, 4), (2,), (4, 2), (4,)),  # rank-1 state
    ((6, 3), (6, 4), (2, 2), (4, 2), (4,)),  # rank-2 features, not in groups
    ((2, 3, 3), (6, 4), (2, 2), (4, 2), ()),  # scalar score
])
def test_attention_shape_error(shapes):
    features = np.zeros(shapes[0])
    keys, h, w_state, score = (Tensor(np.zeros(s)) for s in shapes[1:])
    with pytest.raises(T.ShapeError, match="attention"):
        T.attention(features, keys, h, w_state, score)


@pytest.mark.parametrize("shapes", [
    ((7, 8), (8, 2), (8,), (3, 2), (3, 2)),  # inputs not whole steps of S rows
    ((6, 6), (8, 2), (8,), (3, 2), (3, 2)),  # inputs not 4H wide
    ((6, 8), (8, 2), (8,), (3, 2), (2, 2)),  # cell unlike the hidden state
    ((6, 8), (8, 2), (8,), (2,), (2,)),  # rank-1 state
    ((6, 8), (8, 3), (8,), (3, 2), (3, 2)),
    ((6, 8), (8, 2), (6,), (3, 2), (3, 2)),
    ((0, 8), (8, 2), (8,), (3, 2), (3, 2)),  # no step
    ((6, 8), (8, 2), (8,), (0, 2), (0, 2)),  # no row
])
def test_fused_cell_ops_shape_error(shapes):
    x_proj, w_recur, bias, h, c = (Tensor(np.zeros(s)) for s in shapes)
    with pytest.raises(T.ShapeError, match="lstm"):
        T.lstm(x_proj, w_recur, bias, h, c)


def _packed_lstm_case(seed):
    # steps of 4, 3, 3 and 1 rows from a 5-row start state, small enough
    # that no gate saturates
    rng = T.seeded_rng(seed)
    rows, hs = [4, 3, 3, 1], 3
    leaves = [Tensor(rng.normal(size=shape) * 0.5)
              for shape in ((sum(rows), 4 * hs), (4 * hs, hs), (4 * hs,), (5, hs), (5, hs))]
    coef, coef_c = rng.normal(size=(sum(rows), hs)), rng.normal(size=(1, hs))

    def loss(states, c_last):
        return add(T.sum_all(mul_const(states, coef)), T.sum_all(mul_const(c_last, coef_c)))

    return rows, leaves, loss


def test_lstm_packed_rows_match_the_unpacked_op_per_step():
    # each step run by itself with the unpacked op, on that step's input rows
    # and the leading rows of the state before it
    for seed in range(4):
        rows, leaves, loss = _packed_lstm_case(seed)
        x_proj, w_recur, bias, h0, c0 = leaves

        def stepwise():
            h, c, outs, at = h0, c0, [], 0
            for n in rows:
                h, c = T.lstm(T.slice_rows(x_proj, at, at + n), w_recur, bias,
                              T.slice_rows(h, 0, n), T.slice_rows(c, 0, n))
                outs.append(h)
                at += n
            return T.concat_rows(outs), c

        def run(build):
            with Tape() as tape:
                states, c_last = build()
                total = loss(states, c_last)
            grads = backward(tape, total)
            return [states.data, c_last.data, total.data, *(grads[t] for t in leaves)]

        got = run(lambda: T.lstm(x_proj, w_recur, bias, h0, c0, rows))
        for k, (g, w) in enumerate(zip(got, run(stepwise), strict=True)):
            assert g.shape == w.shape, (seed, k)
            assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max()), (seed, k)
        # the start state's last row is read by no step
        assert not got[-2][4:].any() and not got[-1][4:].any()


def test_lstm_packed_rows_pass_the_gradient_audit():
    rows, leaves, loss = _packed_lstm_case(7)
    named = dict(zip(("x_proj", "w_recur", "bias", "h", "c"), leaves))
    report = gradient_audit(lambda: loss(*T.lstm(*leaves, rows)), named, atol=0.0)
    assert max(err for err, _ in report.values()) <= 1e-4


@pytest.mark.parametrize("rows", [[4, 5], [6, 3], [4, 4, 4], [5, 4, 0], [4, 1]],
                         ids=["growing", "above_state", "too_many", "empty_step", "too_few"])
def test_lstm_rejects_bad_step_rows(rows):
    x_proj, w_recur, bias, h, c = (Tensor(np.zeros(s)) for s in ((9, 8), (8, 2), (8,), (5, 2), (5, 2)))
    with pytest.raises(T.ShapeError, match="lstm"):
        T.lstm(x_proj, w_recur, bias, h, c, rows)


def test_lstm_tape_holds_one_gate_array_per_step():
    # a taped recurrence keeps, per step, the [n, 4H] gate array, the cell
    # state before the step and tanh(c'), plus its outputs; the first step's
    # cell state is the input's own array.  numpy reports its buffers to
    # tracemalloc.
    steps, n, hs = 10, 16, 64
    rng = T.seeded_rng(5)
    leaves = [Tensor(rng.normal(size=shape)) for shape in
              ((steps * n, 4 * hs), (4 * hs, hs), (4 * hs,), (n, hs), (n, hs))]
    tracemalloc.start()
    try:
        with Tape() as tape:
            states, c_last = T.lstm(*leaves)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expected = 8 * (steps * (n * 4 * hs + n * hs) + (steps - 1) * n * hs + states.size + c_last.size)
    assert abs(held - expected) <= 0.05 * expected, (held, expected)
    assert len(tape.entries) == 1


def test_backward_composite_lstm_like_step_matches_fd():
    rng = T.seeded_rng(3)
    w = Tensor(rng.normal(size=(4, 5)) * 0.4)
    u = Tensor(rng.normal(size=(4, 4)) * 0.4)
    x = Tensor(rng.normal(size=(1, 5)))
    h = Tensor(rng.normal(size=(1, 4)))
    c = Tensor(rng.normal(size=(1, 4)))

    def f():
        z = add(T.linear(x, w), T.linear(h, u))
        i = sigmoid(z)
        g = T.tanh(z)
        c2 = add(mul(i, g), c)
        return T.sum_all(mul(sigmoid(z), T.tanh(c2)))

    leaves = {"w": w, "u": u, "x": x, "h": h, "c": c}
    assert max(err for err, _ in gradient_audit(f, leaves, atol=0.0).values()) <= 1e-4


# --- finite differences ------------------------------------------------------


def test_fd_exact_on_quadratic():
    x = Tensor([1.0, 2.0])

    def f():
        return T.sum_all(mul(x, x))

    assert max(err for err, _ in gradient_audit(f, {"x": x}, atol=0.0).values()) <= 1e-8


def test_fd_sigmoid_composition():
    x = Tensor([0.3, -0.6, 1.1])

    def f():
        return T.sum_all(sigmoid(scale(x, 1.7)))

    assert max(err for err, _ in gradient_audit(f, {"x": x}, atol=0.0).values()) <= 1e-4


def test_fd_constant_function_is_zero_error():
    x = Tensor([0.4, 0.2])

    def f():
        return T.sum_all(mul_const(x, 0.0))

    assert max(err for err, _ in gradient_audit(f, {"x": x}, atol=0.0).values()) == 0.0


# --- per-op gradient property ------------------------------------------------

# Each entry builds a scalar-valued f from fresh random inputs; together the
# eight seeded repetitions probe >= 100 coordinates per op.


def _op_cases(rng):
    a = Tensor(rng.normal(size=(4, 5)))
    b = Tensor(rng.normal(size=(5, 3)))
    s = Tensor(rng.normal(size=(4, 5)))
    bias = Tensor(rng.normal(size=5))
    wide = Tensor(rng.normal(size=(3, 6)))
    idx = rng.integers(0, 4, size=6)
    pos = rng.integers(0, 6, size=3)
    targets = rng.uniform(0.0, 1.0, size=(4, 5))
    parts = [Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(3, 3)))]
    w_out = Tensor(rng.normal(size=(3, 5)))
    pool = Tensor(rng.normal(size=(2, 2)))
    query = Tensor(rng.normal(size=(2, 5)))
    rng.normal(size=(3, 8))  # unused; drawn so the draws after it stay put
    cell = Tensor(rng.normal(size=(3, 2)))
    rng.choice([0.0, 0.5, 2.0], size=3)  # unused; drawn so the draws after it stay put
    sigmoid_weights = rng.choice([0.0, 0.5, 2.0], size=(4, 5))
    vec = Tensor(rng.normal(size=5))
    tall = Tensor(rng.normal(size=(5, 7)))
    # three steps of three rows, small enough that no gate saturates: a
    # saturated gate's gradient sinks into the central difference's noise
    seq = Tensor(rng.normal(size=(9, 8)) * 0.5)
    recur = Tensor(rng.normal(size=(8, 2)) * 0.5)
    lstm_bias = Tensor(rng.normal(size=8) * 0.5)
    state = Tensor(rng.normal(size=(3, 2)) * 0.5)
    # two states over three locations each; the rows are constant
    rows = rng.normal(size=(6, 4))
    keys = Tensor(rng.normal(size=(6, 5)))
    att_state = Tensor(rng.normal(size=(2, 3)))
    w_state = Tensor(rng.normal(size=(5, 3)))
    score = Tensor(rng.normal(size=5))
    out_bias = Tensor(rng.normal(size=3))
    return {
        "matmul": ([a, b], lambda: T.matmul(a, b)),
        "linear": ([a, w_out], lambda: T.linear(a, w_out)),
        "tanh": ([a], lambda: T.tanh(a)),
        "sigmoid": ([a], lambda: sigmoid(a)),
        "relu": ([a], lambda: T.relu(a)),
        # summed softmax alone is constant; weight rows so the probe is informative
        "softmax_lastdim": ([a], lambda: mul_const(softmax_lastdim(a), targets)),
        "add": ([a, s], lambda: add(a, s)),
        "sub": ([a, s], lambda: sub(a, s)),
        "mul": ([a, s], lambda: mul(a, s)),
        "scale": ([a], lambda: scale(a, -1.7)),
        # a fans out to two terms
        "weighted_sum": ([a, s], lambda: T.weighted_sum([a, s, a], [0.5, -1.7, 2.0])),
        "mul_const": ([a], lambda: mul_const(a, np.sign(s.data) + 0.5)),
        "linear_bias": ([a, w_out, out_bias], lambda: T.linear(a, w_out, out_bias)),
        "reshape": ([a], lambda: reshape(a, (2, 10))),
        "slice_cols": ([a], lambda: slice_cols(a, 1, 4)),
        "slice_rows": ([a], lambda: T.slice_rows(a, 1, 3)),
        "concat_rows": (parts, lambda: T.concat_rows(parts)),
        "repeat_rows": ([a], lambda: repeat_rows(a, 3)),
        "sum_rowgroups": ([a], lambda: sum_rowgroups(a, 2)),
        # the rows are constant: only the weights get a gradient
        "weighted_sum_rowgroups": ([pool], lambda: weighted_sum_rowgroups(a.data, pool)),
        "additive_scores": ([a, query, bias], lambda: additive_scores(a, query, bias)),
        "gather_rows": ([a], lambda: T.gather_rows(a, idx)),
        "select_positions": ([wide], lambda: select_positions(wide, pos)),
        "logsumexp_lastdim": ([wide], lambda: logsumexp_lastdim(wide)),
        "sigmoid_ce": ([a], lambda: T.sigmoid_ce(a, targets)),
        # every step's states and the last cell reach the loss
        "lstm": ([seq, recur, lstm_bias, state, cell],
                 lambda: T.concat_rows(T.lstm(seq, recur, lstm_bias, state, cell))),
        "softmax_ce": ([wide], lambda: T.softmax_ce(wide, pos)),
        # the weighted form the package's losses no longer take, as an oracle
        "sigmoid_ce_weighted": ([a], lambda: sigmoid_ce_chain(a, targets, sigmoid_weights)),
        "matmul_vector": ([a, vec], lambda: T.matmul(a, vec)),
        "matmul_matrix": ([a, tall], lambda: T.matmul(a, tall)),
        "attention": ([keys, att_state, w_state, score],
                      lambda: T.attention(rows.reshape(2, 3, 4), keys, att_state, w_state, score)[0]),
    }


OP_NAMES = sorted(_op_cases(T.seeded_rng(0)))


@pytest.mark.parametrize("op_name", OP_NAMES)
def test_every_op_passes_fd_at_seeded_probes(op_name):
    for rep in range(8):
        cases = _op_cases(T.seeded_rng(1000 * rep + 17))
        params, build = cases[op_name]

        def f():
            return T.sum_all(build())

        named = {f"input{k}": p for k, p in enumerate(params)}
        worst = max(err for err, _ in gradient_audit(f, named, atol=0.0).values())
        assert worst <= 1e-4, f"{op_name} rep {rep}"


# --- attention -----------------------------------------------------------------


def test_attention_bitwise_equal_to_oracle_chain():
    # three steps share the keys, w_state and score, and each step's state
    # feeds the next, so the weight's factors stack and the states fan out
    rng = T.seeded_rng(43)
    for groups, size, width, attn, hidden in ((1, 5, 3, 4, 2), (3, 4, 6, 5, 3), (2, 49, 8, 7, 4)):
        features = rng.normal(size=(groups * size, width))
        keys = Tensor(rng.normal(size=(groups * size, attn)))
        h0 = Tensor(rng.normal(size=(groups, hidden)))
        w_state, score = Tensor(rng.normal(size=(attn, hidden))), Tensor(rng.normal(size=attn))
        w_back = Tensor(rng.normal(size=(hidden, width)))
        coef = rng.normal(size=(groups, width))

        def run(op):
            values = []
            with Tape() as tape:
                h, loss = h0, None
                for _ in range(3):
                    attended, weights = op(features, keys, h, w_state, score)
                    values += [attended.data, getattr(weights, "data", weights)]
                    term = T.sum_all(mul_const(attended, coef))
                    loss = term if loss is None else add(loss, term)
                    h = add(h, T.tanh(T.linear(attended, w_back)))
                loss = add(loss, T.sum_all(mul(h, h)))
            grads = backward(tape, loss)
            return [loss.data, *values, *(grads[t] for t in (keys, h0, w_state, score, w_back))]

        def grouped(features, *args):
            return T.attention(features.reshape(groups, size, width), *args)

        for got, want in zip(run(grouped), run(attention_chain), strict=True):
            np.testing.assert_array_equal(got, want)


def test_attention_with_fewer_states_than_key_groups():
    # two of four groups attend from a three-row state: the values and
    # gradients of the op on exactly those rows, and none for the others
    rng = T.seeded_rng(53)
    groups, size, width, attn, hidden = 2, 3, 4, 5, 3
    features = rng.normal(size=(groups, size, width))
    keys = Tensor(rng.normal(size=(4 * size, attn)))
    h = Tensor(rng.normal(size=(3, hidden)))
    w_state, score = Tensor(rng.normal(size=(attn, hidden))), Tensor(rng.normal(size=attn))
    coef = rng.normal(size=(groups, width))
    keys_used, h_used = Tensor(keys.data[:groups * size]), Tensor(h.data[:groups])

    def run(k, s):
        with Tape() as tape:
            attended, weights = T.attention(features, k, s, w_state, score)
            loss = T.sum_all(mul_const(attended, coef))
        grads = backward(tape, loss)
        return attended.data, weights, grads[k], grads[s], grads[w_state], grads[score]

    got, want = run(keys, h), run(keys_used, h_used)
    for k in (0, 1, 4, 5):
        np.testing.assert_array_equal(got[k], want[k])
    np.testing.assert_array_equal(got[2], np.concatenate([want[2], np.zeros((2 * size, attn))]))
    np.testing.assert_array_equal(got[3], np.concatenate([want[3], np.zeros((1, hidden))]))


# --- weighted sum --------------------------------------------------------------


def test_weighted_sum_rejects_no_terms_unlike_shapes_and_a_wrong_weight_count():
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))
    for terms, weights in (([], []), ([a, b], [1.0, 1.0]), ([a, a], [1.0]), ([a], [1.0, 2.0])):
        with pytest.raises(T.ShapeError, match="weighted_sum"):
            T.weighted_sum(terms, weights)


def _add_scale_chain(terms, weights):
    out = scale(terms[0], weights[0])
    for t, w in zip(terms[1:], weights[1:]):
        out = add(out, scale(t, w))
    return out


@pytest.mark.parametrize("count", [2, 3])
def test_weighted_sum_bitwise_equal_to_add_and_scale_chain(count):
    # the value is added left to right as the chain adds it, and term k's
    # gradient g·w_k is the chain's; the terms are [4, 5] rows or their
    # scalar sums, one leaf feeds every term, and the weights include 1.0
    rng = T.seeded_rng(47 + count)
    for rep in range(12):
        x = Tensor(rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-3, 4, size=(4, 1)))
        ws = [Tensor(rng.normal(size=(5, 3))) for _ in range(count)]
        weights = (rng.normal(size=count) * 10.0 ** rng.integers(-3, 4, size=count)).tolist()
        weights = [1.0] * count if rep == 0 else weights
        coef = rng.normal(size=(4, 5)) if rep % 2 else rng.normal()

        def run(combine):
            with Tape() as tape:
                terms = [T.tanh(T.linear(x, w)) for w in ws]
                total = combine([T.sum_all(t) for t in terms] if rep % 2 == 0 else terms, weights)
                loss = T.sum_all(mul_const(total, coef))
            grads = backward(tape, loss)
            return [total.data, loss.data] + [grads[t] for t in (x, *ws)]

        for got, want in zip(run(T.weighted_sum), run(_add_scale_chain), strict=True):
            np.testing.assert_array_equal(got, want)


# --- fused cross-entropy ops ---------------------------------------------------


def _value_and_leaf_grads(build, leaves):
    with Tape() as tape:
        loss = build()
    grads = backward(tape, loss)
    return [loss.data] + [grads[t] for t in leaves]


def test_fused_ce_ops_equal_oracle_chains_bitwise():
    # each op's sum and its gradient equal the sum_all of its elementwise
    # form at unit weights, since a scalar g*1 equals g, and the chain of ops
    # it fuses: the fused gradient soft*g - g at a target equals the chain's
    # (-g) + soft*g exactly, because IEEE addition commutes and a - b is
    # a + (-b); the logits come from a product so the gradient reaches leaves
    rng = T.seeded_rng(41)
    for rep in range(40):
        rows, width = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        x = Tensor(rng.normal(size=(rows, 3)) * 3.0)
        w = Tensor(rng.normal(size=(width, 3)))
        targets = rng.integers(0, width, size=rows)
        labels = rng.uniform(0.0, 1.0, size=(rows, width))
        factor = [0.0, 0.5, 3.0][rep % 3]
        cases = [
            (lambda: T.softmax_ce(T.linear(x, w), targets),
             lambda: T.sum_all(softmax_ce_elementwise(T.linear(x, w), targets, np.ones(rows))),
             lambda: softmax_ce_chain(T.linear(x, w), targets, np.ones(rows))),
            (lambda: T.sigmoid_ce(T.linear(x, w), labels),
             lambda: T.sum_all(sigmoid_ce_elementwise(T.linear(x, w), labels)),
             lambda: sigmoid_ce_chain(T.linear(x, w), labels, np.ones((rows, width)))),
        ]
        for fused, *oracles in cases:
            assert fused().shape == ()
            got = _value_and_leaf_grads(lambda: scale(fused(), factor), [x, w])
            for oracle in oracles:
                want = _value_and_leaf_grads(lambda: scale(oracle(), factor), [x, w])
                for g, h in zip(got, want, strict=True):
                    np.testing.assert_array_equal(g, h)
                np.testing.assert_array_equal(fused().data, oracle().data)


def test_softmax_ce_rejects_bad_targets_and_shapes():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(IndexError, match="target 3 out of range for width 3"):
        T.softmax_ce(x, [0, 3])
    with pytest.raises(IndexError, match="target -1"):
        T.softmax_ce(x, [-1, 0])
    for targets in ([0], [0, 1, 2], [[0, 1]]):
        with pytest.raises(T.ShapeError, match="softmax_ce"):
            T.softmax_ce(x, targets)
    with pytest.raises(T.ShapeError, match="softmax_ce"):
        T.softmax_ce(Tensor(np.zeros((2, 0))), [0, 0])
    with pytest.raises(T.ShapeError, match="sigmoid_ce"):
        T.sigmoid_ce(x, np.zeros((2, 1)))


# public names only tests call, each with its reason to stay
CALLED_ONLY_BY_TESTS = {
    "data.tokenize": "the paper's embedding-distance annotation of abnormal sentences",
    "data.load_embeddings": "the same annotation; the repository has no word vectors",
    "data.auto_annotate_abnormal": "the same annotation; the repository has no report text",
    "training.load_training_log": "reads losses.jsonl, for a planned summary in `hdlm analyze`",
}


def test_every_public_op_has_a_caller_in_the_package():
    # a top-level public function or class of hdlm needs a reference in the
    # code of src/ or demos/ outside its own definition; imports, __all__ and
    # docstrings do not count.  One that only tests call belongs in
    # tests/oracles.py.
    package = Path(T.__file__).parent
    paths = [*sorted(package.glob("*.py")), *sorted((package.parents[1] / "demos").glob("*.py"))]
    statements = [(p, node) for p in paths for node in ast.parse(p.read_text(encoding="utf-8")).body]
    names = {id(node): {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}
             for _, node in statements}
    unused = [f"{p.stem}.{node.name}" for p, node in statements
              if p.parent == package and isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and not any(node.name in names[id(other)] for _, other in statements if other is not node)]
    assert sorted(unused) == sorted(CALLED_ONLY_BY_TESTS)


# parameters with a default that only tests pass, each with its reason to stay
PASSED_ONLY_BY_TESTS = {
    "data.auto_annotate_abnormal(threshold)": "the paper's annotation threshold; the path is kept for real text",
    "tensor.gradient_audit(eps)": "acceptance criterion 1 passes its finite-difference step explicitly",
    "tensor.gradient_audit(atol)": "tests pass atol=0.0 to read the plain worst relative error",
    "data.build_vocab(min_frequency)": "the real-text path (tokenize, auto_annotate_abnormal) keeps it",
}


def _literal(node):
    """(type, value) of a literal expression, or None for any other node."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value), value


def test_every_default_parameter_is_passed_by_a_caller():
    # a parameter with a default, on a public function or method of hdlm,
    # needs a call in src/, demos/ or perfbench/ that passes it, by keyword or
    # by position, a value other than the default's own literal; a call
    # matches by the callee's name alone, and one that spreads *args or
    # **kwargs passes everything.  A default that no program call overrides
    # is a switch only tests turn.
    package = Path(T.__file__).parent
    root = package.parents[1]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in [*sorted(package.glob("*.py")), *sorted((root / "demos").glob("*.py")),
                       *sorted((root / "perfbench").glob("*.py"))]}
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def passed(name, position, param, default):
        def overrides(value):
            return _literal(value) is None or _literal(value) != _literal(default)

        return any(
            any(k.arg is None or (k.arg == param and overrides(k.value)) for k in call.keywords)
            or (position is not None and len(call.args) > position and overrides(call.args[position]))
            or any(isinstance(a, ast.Starred) for a in call.args)
            for call in calls
            if (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) == name)

    unpassed = []
    for path in trees:
        if path.parent != package:
            continue
        body = trees[path].body
        # (function, count of leading parameters a call does not pass)
        defs = [(node, 0) for node in body if isinstance(node, ast.FunctionDef)]
        defs += [(item, 0 if any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list) else 1)
                 for node in body if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                 for item in node.body if isinstance(item, ast.FunctionDef)]
        for fn, bound in defs:
            if fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i - bound, a.arg, d)
                         for i, (a, d) in enumerate(zip(positional[first:], args.defaults), start=first)]
            defaulted += [(None, a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            unpassed += [f"{path.stem}.{fn.name}({param})" for position, param, default in defaulted
                         if not passed(fn.name, position, param, default)]
    assert sorted(unpassed) == sorted(PASSED_ONLY_BY_TESTS)


# --- tape neutrality ----------------------------------------------------------


def test_forward_identical_with_and_without_tape():
    rng = T.seeded_rng(9)
    a = Tensor(rng.normal(size=(3, 3)))
    b = Tensor(rng.normal(size=(3, 3)))

    def run():
        return softmax_lastdim(T.tanh(T.matmul(a, b))).data.copy()

    bare = run()
    with Tape():
        taped = run()
    np.testing.assert_array_equal(bare, taped)


def test_item_needs_a_single_element():
    with pytest.raises(T.ShapeError, match=r"item\(\) needs a single-element tensor, got shape \(2,\)"):
        Tensor([1.0, 2.0]).item()


@pytest.mark.parametrize("op, message", [
    (lambda x: T.slice_rows(x, 2, 2), r"slice_rows \[2:2\] invalid for shape \(3, 2\)"),
    (lambda x: T.slice_rows(x, 1, 4), r"slice_rows \[1:4\] invalid for shape \(3, 2\)"),
    (lambda x: T.slice_rows(Tensor(np.zeros(3)), 0, 1), r"slice_rows \[0:1\] invalid for shape \(3,\)"),
    (lambda x: T.concat_rows([]), "concat_rows needs at least one part"),
    (lambda x: T.concat_rows([x, Tensor(np.zeros((1, 3)))]), r"disagree beyond axis 0: \[\(2,\), \(3,\)\]"),
    (lambda x: T.gather_rows(Tensor(np.zeros(3)), [0]), r"gather_rows needs .* got \(3,\)"),
    (lambda x: T.gather_rows(x, [[0]]), r"gather_rows needs .* got \(3, 2\)"),
], ids=["slice_empty", "slice_past_end", "slice_rank_1", "concat_no_parts", "concat_widths_differ",
        "gather_rank_1_source", "gather_rank_2_indices"])
def test_row_ops_reject_bad_shapes(op, message):
    with pytest.raises(T.ShapeError, match=message):
        op(Tensor(np.zeros((3, 2))))


def test_gather_rows_out_of_range_names_id():
    x = Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError, match="7"):
        T.gather_rows(x, [0, 7])


def test_values_finite_after_forward_chain():
    rng = T.seeded_rng(21)
    x = Tensor(rng.normal(size=(4, 4)) * 50)
    y = softmax_lastdim(T.tanh(x))
    z = logsumexp_lastdim(scale(y, 30.0))
    assert np.all(np.isfinite(y.data)) and np.all(np.isfinite(z.data))


# --- gradient audit -----------------------------------------------------------


def test_gradient_audit_passes_smooth_composite():
    rng = T.seeded_rng(31)
    w = Tensor(rng.normal(size=(3, 3)))
    x = Tensor(rng.normal(size=(3, 3)))

    def f():
        return T.sum_all(sigmoid(T.matmul(x, T.tanh(w))))

    report = T.gradient_audit(f, {"w": w, "x": x})
    assert max(err for err, _ in report.values()) < 1e-6
    assert report["w"][1] == 9 and report["x"][1] == 9


def test_gradient_audit_skips_noise_floor_coordinates():
    # gradients ~1e-8 sit under the absolute floor and must not be judged
    x = Tensor(np.zeros(4))

    def f():
        return T.sum_all(mul_const(sigmoid(x), np.full(4, 4e-8)))

    report = T.gradient_audit(f, {"x": x})
    assert report["x"] == (0.0, 0)


def test_gradient_audit_catches_wrong_gradient():
    from hdlm.tensor import _record

    x = Tensor(np.ones(3))

    def halved_grad_copy(t):
        out = Tensor(t.data * 2.0)
        _record(out, (t,), lambda g: (g,))  # true derivative is 2, claims 1
        return out

    def f():
        return T.sum_all(halved_grad_copy(x))

    report = T.gradient_audit(f, {"x": x})
    assert report["x"][0] > 0.4


def test_gradient_audit_catches_wrongly_dead_gradient():
    from hdlm.tensor import _record

    x = Tensor(np.ones(3))

    def dead_grad_copy(t):
        out = Tensor(t.data * 2.0)
        _record(out, (t,), lambda g: (np.zeros_like(g),))
        return out

    def f():
        return T.sum_all(dead_grad_copy(x))

    # analytic is a wrong zero; the numeric side is far above the floor
    report = T.gradient_audit(f, {"x": x})
    assert report["x"][0] > 0.9
