"""Layer blocks: LSTM cell, attention, embeddings, linear maps."""

import math

import numpy as np
import pytest

from hdlm import layers as L
from hdlm import tensor as T
from hdlm.tensor import Tensor, Tape, backward, gradient_audit

from oracles import lstm_update_composed, mul


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def lstm_gate_oracle(w_input, w_recur, bias, x, h, c):
    """Gate-by-gate reimplementation with explicit loops (order i, f, g, o)."""
    hs = w_recur.shape[1]
    z = w_input @ x + w_recur @ h + bias
    h_new = np.zeros(hs)
    c_new = np.zeros(hs)
    for j in range(hs):
        i = sigmoid(z[j])
        f = sigmoid(z[hs + j])
        g = math.tanh(z[2 * hs + j])
        o = sigmoid(z[3 * hs + j])
        c_new[j] = f * c[j] + i * g
        h_new[j] = o * math.tanh(c_new[j])
    return h_new, c_new


def zero_cell(input_dim, hidden_dim, forget_bias=0.0):
    bias = np.zeros(4 * hidden_dim)
    bias[hidden_dim:2 * hidden_dim] = forget_bias
    return L.LSTMCellParams(
        Tensor(np.zeros((4 * hidden_dim, input_dim))),
        Tensor(np.zeros((4 * hidden_dim, hidden_dim))),
        Tensor(bias),
    )


# --- lstm_step ----------------------------------------------------------------


def test_lstm_step_all_zero():
    cell = zero_cell(3, 2)
    h, c = L.lstm_step(cell, Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))))
    np.testing.assert_array_equal(h.data, np.zeros((1, 2)))
    np.testing.assert_array_equal(c.data, np.zeros((1, 2)))


def test_lstm_step_forget_bias_scales_cell():
    cell = zero_cell(3, 2, forget_bias=1.0)
    c0 = np.array([[1.0, 1.0]])
    _, c = L.lstm_step(cell, Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2))), Tensor(c0))
    np.testing.assert_allclose(c.data, sigmoid(1.0) * c0, atol=1e-12)


def test_lstm_step_matches_gate_oracle():
    rng = T.seeded_rng(42)
    cell = L.LSTMCellParams.create(5, 3, rng)
    x, h, c = rng.normal(size=5), rng.normal(size=3), rng.normal(size=3)
    got_h, got_c = L.lstm_step(cell, Tensor(x[None]), Tensor(h[None]), Tensor(c[None]))
    want_h, want_c = lstm_gate_oracle(cell.w_input.data, cell.w_recur.data, cell.bias.data, x, h, c)
    np.testing.assert_allclose(got_h.data[0], want_h, atol=1e-12, rtol=0)
    np.testing.assert_allclose(got_c.data[0], want_c, atol=1e-12, rtol=0)


def test_lstm_step_cell_bound():
    rng = T.seeded_rng(7)
    cell = L.LSTMCellParams.create(4, 6, rng)
    c = rng.normal(size=(1, 6)) * 3
    for _ in range(20):
        x, h = rng.normal(size=(1, 4)) * 5, rng.normal(size=(1, 6))
        _, c_new = L.lstm_step(cell, Tensor(x), Tensor(h), Tensor(c))
        assert np.all(np.abs(c_new.data) <= np.abs(c) + 1.0 + 1e-12)
        c = c_new.data


def test_lstm_step_shape_mismatch():
    cell = zero_cell(3, 2)
    with pytest.raises(T.ShapeError):
        L.lstm_step(cell, Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))))


def test_lstm_step_gradients_pass_fd():
    rng = T.seeded_rng(12)
    cell = L.LSTMCellParams.create(3, 4, rng)
    x = Tensor(rng.normal(size=(2, 3)))
    h = Tensor(rng.normal(size=(2, 4)))
    c = Tensor(rng.normal(size=(2, 4)))

    def f():
        h2, c2 = L.lstm_step(cell, x, h, c)
        return T.sum_all(mul(h2, c2))

    params = {"w_input": cell.w_input, "w_recur": cell.w_recur, "bias": cell.bias,
              "x": x, "h": h, "c": c}
    assert max(err for err, _ in gradient_audit(f, params, atol=0.0).values()) <= 1e-4


def test_lstm_update_bitwise_equal_to_gate_composition():
    # three steps, so each cell state reaches the loss through the next step,
    # through its own hidden state and directly
    rng = T.seeded_rng(13)
    cell = L.LSTMCellParams.create(3, 4, rng)
    x_proj = [Tensor(rng.normal(size=(5, 16)) * 2.0) for _ in range(3)]
    h0, c0 = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, 4)))
    weights = rng.normal(size=(2, 5, 4))

    def run(update):
        with Tape() as tape:
            h, c = h0, c0
            terms = []
            for x in x_proj:
                h, c = update(cell, x, h, c)
                terms += [T.mul_const(h, weights[0]), T.mul_const(c, weights[1])]
            loss = T.sum_all(T.concat_rows(terms))
        grads = backward(tape, loss)
        leaves = [cell.w_recur, cell.bias, h0, c0, *x_proj]
        return [h.data, c.data] + [grads[tape.node_of(t)].data for t in leaves]

    for got, want in zip(run(L.lstm_update), run(lstm_update_composed), strict=True):
        np.testing.assert_array_equal(got, want)


def test_rank1_input_raises_shape_error():
    cell = zero_cell(3, 2)
    row = Tensor(np.zeros((1, 2)))
    with pytest.raises(T.ShapeError):
        L.lstm_step(cell, Tensor(np.zeros(3)), row, row)
    with pytest.raises(T.ShapeError):
        L.lstm_step(cell, Tensor(np.zeros((1, 3))), Tensor(np.zeros(2)), Tensor(np.zeros(2)))
    with pytest.raises(T.ShapeError):
        L.LinearLayer.create(2, 3, T.seeded_rng(0))(Tensor(np.zeros(3)))


def test_lstm_forget_bias_initialized_to_one():
    cell = L.LSTMCellParams.create(3, 5, T.seeded_rng(0))
    np.testing.assert_array_equal(cell.bias.data[5:10], np.ones(5))
    assert np.all(np.abs(cell.bias.data[:5]) <= L.INIT_RANGE)


# --- attention -----------------------------------------------------------------


def attend(params, v_e, h_prev, locations):
    return L.soft_attention_batch(params, v_e, L.attention_keys(params, v_e), h_prev, locations)


def test_attention_identical_locations_uniform():
    rng = T.seeded_rng(3)
    params = L.AttentionParams.create(4, 3, 2, rng)
    row = rng.normal(size=3)
    v_e = Tensor(np.tile(row, (5, 1)))
    context, weights = attend(params, v_e, Tensor(rng.normal(size=(1, 2))), 5)
    np.testing.assert_allclose(weights.data, np.full((1, 5), 0.2), atol=1e-12)
    np.testing.assert_allclose(context.data[0], row, atol=1e-12)


def test_attention_zero_score_vector_means_mean():
    rng = T.seeded_rng(4)
    params = L.AttentionParams.create(4, 3, 2, rng)
    params.score.data[:] = 0.0
    v = rng.normal(size=(6, 3))
    context, weights = attend(params, Tensor(v), Tensor(np.zeros((1, 2))), 6)
    np.testing.assert_allclose(weights.data, np.full((1, 6), 1 / 6), atol=1e-12)
    np.testing.assert_allclose(context.data[0], v.mean(axis=0), atol=1e-12)


def test_attention_two_location_hand_oracle():
    params = L.AttentionParams(
        w_location=Tensor([[1.0, 0.0], [0.0, 1.0]]),
        w_state=Tensor([[0.5], [-0.25]]),
        score=Tensor([1.0, 2.0]),
    )
    v = np.array([[0.3, -0.1], [-0.4, 0.8]])
    h = np.array([0.6])
    scores = []
    for l in range(2):
        pre = v[l] @ params.w_location.data.T + params.w_state.data @ h
        scores.append(params.score.data @ np.tanh(pre))
    e = np.exp(np.array(scores) - max(scores))
    w = e / e.sum()
    want_context = w[0] * v[0] + w[1] * v[1]
    context, weights = attend(params, Tensor(v), Tensor(h[None]), 2)
    np.testing.assert_allclose(weights.data[0], w, atol=1e-12, rtol=0)
    np.testing.assert_allclose(context.data[0], want_context, atol=1e-12, rtol=0)


def test_attention_weights_simplex_and_hull():
    rng = T.seeded_rng(8)
    params = L.AttentionParams.create(5, 4, 3, rng)
    for _ in range(25):
        v = rng.normal(size=(7, 4)) * 3
        h = rng.normal(size=(1, 3))
        context, weights = attend(params, Tensor(v), Tensor(h), 7)
        assert np.all(weights.data >= 0)
        assert abs(weights.data.sum() - 1.0) <= 1e-12
        assert np.all(context.data >= v.min(axis=0) - 1e-10)
        assert np.all(context.data <= v.max(axis=0) + 1e-10)


def test_attention_empty_locations_rejected():
    params = L.AttentionParams.create(4, 3, 2, T.seeded_rng(0))
    with pytest.raises(T.ShapeError):
        attend(params, Tensor(np.zeros((0, 3))), Tensor(np.zeros((1, 2))), 0)


def test_attention_gradients_pass_fd():
    rng = T.seeded_rng(13)
    params = L.AttentionParams.create(3, 4, 2, rng)
    v = Tensor(rng.normal(size=(5, 4)))
    h = Tensor(rng.normal(size=(1, 2)))

    def f():
        context, _ = attend(params, v, h, 5)
        return T.sum_all(mul(context, context))

    leaves = {"w_location": params.w_location, "w_state": params.w_state,
              "score": params.score, "v": v, "h": h}
    assert max(err for err, _ in gradient_audit(f, leaves, atol=0.0).values()) <= 1e-4


def test_attention_rejects_keys_of_another_shape():
    rng = T.seeded_rng(2)
    params = L.AttentionParams.create(4, 3, 2, rng)
    v = Tensor(rng.normal(size=(6, 3)))
    keys = L.attention_keys(params, v)
    with pytest.raises(T.ShapeError, match="keys"):
        L.soft_attention_batch(params, v, Tensor(keys.data[:3]), Tensor(np.zeros((1, 2))), 6)
    with pytest.raises(T.ShapeError, match="keys"):
        L.soft_attention_batch(params, v, Tensor(keys.data[:, :3]), Tensor(np.zeros((1, 2))), 6)


def test_attention_batch_agrees_with_single():
    rng = T.seeded_rng(19)
    params = L.AttentionParams.create(4, 3, 5, rng)
    v = rng.normal(size=(2, 6, 3))
    h = rng.normal(size=(2, 5))
    ctx_b, w_b = attend(params, Tensor(v.reshape(12, 3)), Tensor(h), 6)
    for b in range(2):
        ctx, w = attend(params, Tensor(v[b]), Tensor(h[b:b + 1]), 6)
        np.testing.assert_allclose(ctx_b.data[b], ctx.data[0], atol=1e-12)
        np.testing.assert_allclose(w_b.data[b], w.data[0], atol=1e-12)


# --- embeddings -----------------------------------------------------------------


def test_embed_single_row():
    table = L.EmbeddingTable.create(6, 3, T.seeded_rng(1))
    out = L.embed(table, [4])
    np.testing.assert_array_equal(out.data[0], table.matrix.data[4])


def test_embed_repeated_id_accumulates_gradient():
    table = L.EmbeddingTable.create(5, 2, T.seeded_rng(2))
    with Tape() as tape:
        loss = T.sum_all(L.embed(table, [3, 3]))
    grads = backward(tape, loss)
    g = grads[tape.node_of(table.matrix)].data
    np.testing.assert_array_equal(g[3], np.full(2, 2.0))
    assert np.all(g[[0, 1, 2, 4]] == 0)


def test_embed_out_of_range_names_id():
    table = L.EmbeddingTable.create(4, 2, T.seeded_rng(0))
    with pytest.raises(IndexError, match="9"):
        L.embed(table, [1, 9])


def test_embed_gather_passes_fd():
    table = L.EmbeddingTable.create(5, 3, T.seeded_rng(14))
    ids = [0, 2, 2, 4]

    def f():
        e = L.embed(table, ids)
        return T.sum_all(mul(e, e))

    assert max(err for err, _ in gradient_audit(f, {"matrix": table.matrix}, atol=0.0).values()) <= 1e-4


# --- linear ---------------------------------------------------------------------


def test_linear_matches_direct_product():
    rng = T.seeded_rng(6)
    lin = L.LinearLayer.create(3, 4, rng)
    x = rng.normal(size=(2, 4))
    got = lin(Tensor(x))
    np.testing.assert_allclose(got.data, x @ lin.weight.data.T + lin.bias.data, atol=1e-12)


def test_linear_without_bias():
    rng = T.seeded_rng(6)
    lin = L.LinearLayer.create(2, 3, rng, bias=False)
    assert lin.bias is None
    assert len(lin.named("p")) == 1


def test_named_parameters_unique():
    rng = T.seeded_rng(10)
    names = [n for n, _ in L.LSTMCellParams.create(3, 2, rng).named("cell")]
    names += [n for n, _ in L.AttentionParams.create(2, 3, 2, rng).named("attn")]
    names += [n for n, _ in L.LinearLayer.create(2, 2, rng).named("lin")]
    assert len(names) == len(set(names))


def test_init_range_respected():
    rng = T.seeded_rng(11)
    lin = L.LinearLayer.create(20, 20, rng)
    assert np.all(np.abs(lin.weight.data) <= L.INIT_RANGE)
