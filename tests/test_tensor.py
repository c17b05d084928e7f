"""Tensor core: forward oracles, gradient rules, finite differences."""

import math

import numpy as np
import pytest

from hdlm import tensor as T
from hdlm.tensor import Tensor, Tape, backward, gradient_audit

from oracles import matmul, mul, repeat_rows, reshape, sigmoid, slice_cols


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
    assert np.array_equal(matmul(eye, x).data, x.data)


def test_matmul_zero_annihilates():
    x = Tensor(np.ones((3, 4)))
    z = Tensor(np.zeros((2, 3)))
    assert np.array_equal(matmul(z, x).data, np.zeros((2, 4)))


def test_matmul_against_triple_loop_oracle():
    rng = T.seeded_rng(11)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2))
    got = matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, matmul_oracle(a, b), atol=1e-12, rtol=0)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_linear_against_triple_loop_oracle():
    rng = T.seeded_rng(12)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(2, 4))
    got = T.linear(Tensor(x), Tensor(w)).data
    np.testing.assert_allclose(got, matmul_oracle(x, w.T), atol=1e-12, rtol=0)


def test_linear_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_linear_weight_gradient_is_contiguous():
    # clipping and Adam stream over it; a strided transpose view is slow there
    rng = T.seeded_rng(13)
    x = Tensor(rng.normal(size=(5, 3)))
    w = Tensor(rng.normal(size=(4, 3)))
    with Tape() as tape:
        loss = T.sum_all(T.linear(x, w))
    g = backward(tape, loss)[tape.node_of(w)].data
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
    g = backward(tape, loss)[tape.node_of(z)].data
    np.testing.assert_array_equal(g, got)


# --- softmax -----------------------------------------------------------------


def test_softmax_uniform():
    y = T.softmax_lastdim(Tensor([2.0, 2.0, 2.0, 2.0])).data
    np.testing.assert_allclose(y, [0.25] * 4, atol=1e-12, rtol=0)


def test_softmax_no_overflow():
    y = T.softmax_lastdim(Tensor([1000.0, 0.0])).data
    assert np.all(np.isfinite(y))
    assert y[0] > 1 - 1e-12 and y[1] < 1e-12


def test_softmax_matches_direct_oracle():
    xs = [0.1, 0.7, -0.3]
    got = T.softmax_lastdim(Tensor(xs)).data
    np.testing.assert_allclose(got, softmax_oracle(xs), atol=1e-12, rtol=0)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = T.seeded_rng(5)
    x = rng.normal(size=(6, 9)) * 3
    y = T.softmax_lastdim(Tensor(x)).data
    np.testing.assert_allclose(y.sum(axis=1), np.ones(6), atol=1e-12, rtol=0)
    y_shift = T.softmax_lastdim(Tensor(x + 7.25)).data
    np.testing.assert_allclose(y, y_shift, atol=1e-10, rtol=0)


# --- backward ----------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        loss = T.sum_all(x)
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[tape.node_of(x)].data, np.ones((2, 3)))


def test_backward_square_gives_two_x():
    x = Tensor([1.5])
    with Tape() as tape:
        loss = T.sum_all(mul(x, x))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[tape.node_of(x)].data, [3.0], atol=1e-12)


def test_backward_rejects_nonscalar_loss():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        y = T.scale(x, 2.0)
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
        loss = T.sum_all(T.add(T.scale(x, 3.0), T.scale(x, 4.0)))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[tape.node_of(x)].data, [7.0], atol=1e-12)


def test_backward_in_place_accumulation_leaves_aliased_gradients_intact():
    # ``add`` hands one gradient array to both of its inputs; y then receives
    # two more contributions, which must not leak into x's gradient
    x = Tensor([1.0, 2.0])
    y = Tensor([3.0, 4.0])
    with Tape() as tape:
        u = T.scale(y, 3.0)
        t = T.mul_const(y, [7.0, 11.0])
        s = T.add(x, y)
        loss = T.sum_all(T.add(T.add(T.mul_const(s, [2.0, 5.0]), t), u))
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[tape.node_of(x)].data, [2.0, 5.0])
    np.testing.assert_array_equal(grads[tape.node_of(y)].data, [12.0, 19.0])
    # only leaves keep a gradient
    assert set(grads) == {tape.node_of(x), tape.node_of(y)}
    assert all(tape.node_of(v) is None for v in (u, t, s, loss))


def test_backward_twice_on_one_tape_raises():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        loss = T.sum_all(mul(x, x))
    grads = backward(tape, loss)
    with pytest.raises(T.TapeError, match="already walked"):
        backward(tape, loss)
    assert tape.entries == []
    np.testing.assert_array_equal(grads[tape.node_of(x)].data, [2.0, 4.0])


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
        terms = [T.mul_const(T.linear(x, w), g) for x, g in zip(xs, gs)]
        terms.append(T.mul_const(T.linear(h, reshape(v, (4, 6))), gs[0][:2]))
        terms.append(T.mul_const(w, k))
        loss = T.sum_all(T.concat_rows([reshape(t, (-1, 1)) for t in terms]))
    grads = backward(tape, loss)
    want_w = sum(g.T @ x for x, g in zip(xs, gs)) + k
    want_v = (gs[0][:2].T @ h.data).reshape(-1)
    got_w = grads[tape.node_of(w)].data
    got_v = grads[tape.node_of(v)].data
    assert np.abs(got_w - want_w).max() <= 1e-13 * np.abs(want_w).max()
    assert np.abs(got_v - want_v).max() <= 1e-13 * np.abs(want_v).max()
    np.testing.assert_allclose(grads[tape.node_of(h)].data, gs[0][:2] @ v.data.reshape(4, 6),
                               atol=1e-12, rtol=0)


def test_linear_array_input_is_a_constant():
    rng = T.seeded_rng(15)
    x = rng.normal(size=(3, 2))
    w = Tensor(rng.normal(size=(4, 2)))
    with Tape() as tape:
        y = T.linear(x, w)
        loss = T.sum_all(y)
    assert tape.entries[0].input_ids == (tape.node_of(w),)
    np.testing.assert_array_equal(y.data, x @ w.data.T)
    grads = backward(tape, loss)
    assert set(grads) == {tape.node_of(w)}
    np.testing.assert_allclose(grads[tape.node_of(w)].data, np.tile(x.sum(axis=0), (4, 1)),
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
    got = T.additive_scores(Tensor(keys), Tensor(query), Tensor(score)).data
    np.testing.assert_allclose(got, additive_scores_oracle(keys, query, score), atol=1e-12, rtol=0)


@pytest.mark.parametrize("shapes", [((6, 4), (4, 4), (4,)), ((6, 4), (2, 3), (4,)),
                                    ((6, 4), (2, 4), (3,)), ((6, 4), (0, 4), (4,))])
def test_additive_scores_shape_error(shapes):
    keys, query, score = (Tensor(np.zeros(s)) for s in shapes)
    with pytest.raises(T.ShapeError, match="additive_scores"):
        T.additive_scores(keys, query, score)


@pytest.mark.parametrize("shapes", [((2, 8), (2, 3)), ((2, 6), (2, 2)), ((2, 8), (3, 2)), ((8,), (2,))])
def test_fused_cell_ops_shape_error(shapes):
    z, c = (Tensor(np.zeros(s)) for s in shapes)
    for op in (T.lstm_cell_state, T.lstm_hidden):
        with pytest.raises(T.ShapeError, match=op.__name__):
            op(z, c)


def test_backward_composite_lstm_like_step_matches_fd():
    rng = T.seeded_rng(3)
    w = Tensor(rng.normal(size=(4, 5)) * 0.4)
    u = Tensor(rng.normal(size=(4, 4)) * 0.4)
    x = Tensor(rng.normal(size=(1, 5)))
    h = Tensor(rng.normal(size=(1, 4)))
    c = Tensor(rng.normal(size=(1, 4)))

    def f():
        z = T.add(T.linear(x, w), T.linear(h, u))
        i = sigmoid(z)
        g = T.tanh(z)
        c2 = T.add(mul(i, g), c)
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
        return T.sum_all(sigmoid(T.scale(x, 1.7)))

    assert max(err for err, _ in gradient_audit(f, {"x": x}, atol=0.0).values()) <= 1e-4


def test_fd_constant_function_is_zero_error():
    x = Tensor([0.4, 0.2])

    def f():
        return T.sum_all(T.mul_const(x, 0.0))

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
    gates = Tensor(rng.normal(size=(3, 8)) * 2.0)
    cell = Tensor(rng.normal(size=(3, 2)))
    return {
        "matmul": ([a, b], lambda: matmul(a, b)),
        "linear": ([a, w_out], lambda: T.linear(a, w_out)),
        "tanh": ([a], lambda: T.tanh(a)),
        "sigmoid": ([a], lambda: sigmoid(a)),
        "relu": ([a], lambda: T.relu(a)),
        # summed softmax alone is constant; weight rows so the probe is informative
        "softmax_lastdim": ([a], lambda: T.mul_const(T.softmax_lastdim(a), targets)),
        "add": ([a, s], lambda: T.add(a, s)),
        "sub": ([a, s], lambda: T.sub(a, s)),
        "mul": ([a, s], lambda: mul(a, s)),
        "scale": ([a], lambda: T.scale(a, -1.7)),
        "mul_const": ([a], lambda: T.mul_const(a, np.sign(s.data) + 0.5)),
        "add_bias": ([a, bias], lambda: T.add_bias(a, bias)),
        "reshape": ([a], lambda: reshape(a, (2, 10))),
        "slice_cols": ([a], lambda: slice_cols(a, 1, 4)),
        "slice_rows": ([a], lambda: T.slice_rows(a, 1, 3)),
        "concat_rows": (parts, lambda: T.concat_rows(parts)),
        "repeat_rows": ([a], lambda: repeat_rows(a, 3)),
        "sum_rowgroups": ([a], lambda: T.sum_rowgroups(a, 2)),
        "weighted_sum_rowgroups": ([a, pool], lambda: T.weighted_sum_rowgroups(a, pool)),
        "additive_scores": ([a, query, bias], lambda: T.additive_scores(a, query, bias)),
        "gather_rows": ([a], lambda: T.gather_rows(a, idx)),
        "select_positions": ([wide], lambda: T.select_positions(wide, pos)),
        "logsumexp_lastdim": ([wide], lambda: T.logsumexp_lastdim(wide)),
        "sigmoid_ce": ([a], lambda: T.sigmoid_ce(a, targets)),
        "lstm_cell_state": ([gates, cell], lambda: T.lstm_cell_state(gates, cell)),
        "lstm_hidden": ([gates, cell], lambda: T.lstm_hidden(gates, cell)),
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


# --- tape neutrality ----------------------------------------------------------


def test_forward_identical_with_and_without_tape():
    rng = T.seeded_rng(9)
    a = Tensor(rng.normal(size=(3, 3)))
    b = Tensor(rng.normal(size=(3, 3)))

    def run():
        return T.softmax_lastdim(T.tanh(matmul(a, b))).data.copy()

    bare = run()
    with Tape():
        taped = run()
    np.testing.assert_array_equal(bare, taped)


def test_gather_rows_out_of_range_names_id():
    x = Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError, match="7"):
        T.gather_rows(x, [0, 7])


def test_values_finite_after_forward_chain():
    rng = T.seeded_rng(21)
    x = Tensor(rng.normal(size=(4, 4)) * 50)
    y = T.softmax_lastdim(T.tanh(x))
    z = T.logsumexp_lastdim(T.scale(y, 30.0))
    assert np.all(np.isfinite(y.data)) and np.all(np.isfinite(z.data))


# --- gradient audit -----------------------------------------------------------


def test_gradient_audit_passes_smooth_composite():
    rng = T.seeded_rng(31)
    w = Tensor(rng.normal(size=(3, 3)))
    x = Tensor(rng.normal(size=(3, 3)))

    def f():
        return T.sum_all(sigmoid(matmul(x, T.tanh(w))))

    report = T.gradient_audit(f, {"w": w, "x": x})
    assert max(err for err, _ in report.values()) < 1e-6
    assert report["w"][1] == 9 and report["x"][1] == 9


def test_gradient_audit_skips_noise_floor_coordinates():
    # gradients ~1e-8 sit under the absolute floor and must not be judged
    x = Tensor(np.zeros(4))

    def f():
        return T.sum_all(T.mul_const(sigmoid(x), np.full(4, 4e-8)))

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
