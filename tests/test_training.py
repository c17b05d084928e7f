"""Optimizer math, the training loop's schedule and logging, and checkpoint
round trips."""

import ast
import hashlib
import math
import re
import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hdlm.cli
import hdlm.training
from hdlm.data import EOS_ID, ConfigError, ReportRecord
from hdlm.model import ModelConfig, ModelParams, compute_losses
from hdlm.tensor import FlatStore, Tensor, flat_views, seeded_rng
from hdlm.training import (
    _ADAM_BLOCK,
    AdamState,
    CheckpointError,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    clip_gradients,
    config_fingerprint,
    eval_boundaries,
    load_checkpoint,
    load_training_log,
    save_checkpoint,
    train,
)

from oracles import adam_step_reference, clip_gradients_reference


def small_config(**kw):
    base = dict(vocab_size=10, mti_labels=2, channels=3, embed_dim=4,
                hidden_dim=4, locations=3)
    base.update(kw)
    return ModelConfig(**base)


def small_records(cfg, count=6, seed=0):
    rng = seeded_rng(seed)
    out = []
    for i in range(count):
        n_sent = 1 + i % 2
        sentences = [[4 + (i + j) % 5, 5 + j % 4, EOS_ID] for j in range(n_sent)]
        out.append(
            ReportRecord(
                id=f"r{i}",
                sentences=sentences,
                abnormal_flags=[bool((i + j) % 2) for j in range(n_sent)],
                mti_labels=(i % 2,),
                feature_ref=rng.normal(size=(cfg.locations, cfg.channels)),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Adam


def store_of(arrays) -> FlatStore:
    """A flat_views store holding a copy of each named array, in order."""
    store = flat_views({n: np.shape(a) for n, a in arrays.items()})
    for n, view in store.items():
        view[...] = arrays[n]
    return store


def adam_oracle(theta, gs, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Reference loop straight from the update equations."""
    theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def test_adam_step_rejects_stores_of_other_shapes():
    params = store_of({"w": np.zeros((2, 3))})
    state = AdamState.create(params)
    with pytest.raises(ValueError, match="stores of one size, got 6, 8, 6 and 6"):
        adam_step(params, store_of({"w": np.zeros((2, 4))}), state, learning_rate=0.1)
    assert state.t == 0 and not params.flat.any()


def test_adam_matches_reference_equations():
    rng = seeded_rng(3)
    start = rng.normal(size=(2, 3))
    gs = [rng.normal(size=(2, 3)) for _ in range(7)]
    named = store_of({"w": start})
    p = Tensor(named["w"])
    state = AdamState.create(named)
    for g in gs:
        adam_step(named, store_of({"w": g}), state, learning_rate=0.01)
    assert np.allclose(p.data, adam_oracle(start, gs, 0.01), atol=1e-12)
    assert state.t == 7


def test_adam_and_clip_bitwise_equal_to_first_formulation():
    # the blocked update on flat-store views must round exactly as the one
    # that built a fresh array for every term of each parameter; "still"
    # never gets a gradient
    rng = seeded_rng(17)
    shapes = {"big": (5, 7), "row": (7,), "still": (3, 2), "cell": ()}
    starts = {n: rng.normal(size=s) for n, s in shapes.items()}
    steps = [{n: rng.normal(size=s) * 10.0 ** (step - 1) for n, s in shapes.items()}
             for step in range(3)]
    # drawn after the shapes above, so those see the same numbers: one
    # block's worth of elements, a ragged last block, and rows longer than a
    # block; in the flat store the block edges fall inside parameters
    edges = {"one_block": (128, _ADAM_BLOCK // 128), "ragged": (2 * _ADAM_BLOCK + 7, 1),
             "long_rows": (2, _ADAM_BLOCK + 3)}
    starts.update({n: rng.normal(size=s) for n, s in edges.items()})
    for grads in steps:
        grads.update({n: rng.normal(size=s) for n, s in edges.items()})
    shapes.update(edges)
    store = store_of(starts)
    ours = {n: Tensor(view) for n, view in store.items()}
    ref = {n: Tensor(a.copy()) for n, a in starts.items()}
    ours_state, ref_state = AdamState.create(ours), AdamState.create(ref)
    assert store.flat.size > 5 * _ADAM_BLOCK
    for step, grads in enumerate(steps):
        grads["still"] = np.zeros(shapes["still"])
        grads = {n: np.array(g) for n, g in grads.items()}  # "cell" as a 0-d array the clip can scale
        ours_grads = store_of(grads)
        assert clip_gradients(ours_grads, 4.0) == clip_gradients_reference(grads, 4.0)
        adam_step(store, ours_grads, ours_state, learning_rate=0.03)
        adam_step_reference(ref, grads, ref_state, learning_rate=0.03)
        for n in shapes:
            assert ours_grads[n].tobytes() == grads[n].tobytes(), (step, n)
            assert ours[n].data.tobytes() == ref[n].data.tobytes(), (step, n)
            assert ours_state.m[n].tobytes() == ref_state.m[n].tobytes(), (step, n)
            assert ours_state.v[n].tobytes() == ref_state.v[n].tobytes(), (step, n)
    assert ours["still"].data.tobytes() == starts["still"].tobytes()


def test_adam_scratch_stays_block_sized():
    # numpy reports its buffers to tracemalloc: a parameter of 8 blocks must
    # be updated through block-sized scratch, not scratch of its own size
    shape = (8 * _ADAM_BLOCK // 64, 64)
    params = store_of({"w": np.ones(shape)})
    named = {"w": Tensor(params["w"])}
    state = AdamState.create(named)
    grads = store_of({"w": np.full(shape, 0.5)})
    tracemalloc.start()
    try:
        adam_step(params, grads, state, learning_rate=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * _ADAM_BLOCK * 8, peak
    assert np.all(named["w"].data < 1.0)


def test_adam_first_step_is_signlike():
    named = store_of({"w": np.array([1.0, -2.0])})
    p = Tensor(named["w"])
    g = np.array([0.3, -0.7])
    adam_step(named, store_of({"w": g}), AdamState.create(named), learning_rate=0.5)
    want = np.array([1.0, -2.0]) - 0.5 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, want, atol=1e-12)


def test_adam_zero_grad_fresh_state_is_exact_noop():
    named = store_of({"w": np.array([0.1, -0.2, 0.3])})
    p = Tensor(named["w"])
    before = p.data.copy()
    state = AdamState.create(named)
    adam_step(named, store_of({"w": np.zeros(3)}), state, learning_rate=1.0)
    assert np.array_equal(p.data, before)


def test_adam_refuses_stores_in_another_order():
    # moments laid out b before a would pair a's gradient with b's moments
    shapes, swapped = {"a": (2,), "b": (3,)}, {"b": (3,), "a": (2,)}
    params = flat_views(shapes)
    named = {n: Tensor(view) for n, view in params.items()}
    grads = flat_views(shapes)
    grads["a"][...], grads["b"][...] = 1.0, -1.0
    state = AdamState(m=flat_views(swapped), v=flat_views(swapped))
    with pytest.raises(ValueError, match="names in order"):
        adam_step(params, grads, state, learning_rate=0.1)
    # the same views, listed in the parameters' order but not in their layout's
    m, v = flat_views(swapped), flat_views(swapped)
    state = AdamState(m={"a": m["a"], "b": m["b"]}, v={"a": v["a"], "b": v["b"]})
    with pytest.raises(ValueError, match="flat_views stores"):
        adam_step(params, grads, state, learning_rate=0.1)
    assert state.t == 0
    assert not any(a.any() for a in [*m.values(), *v.values(), *(t.data for t in named.values())])
    # in one layout, one step moves each moment by a tenth of its own gradient
    state = AdamState.create(named)
    adam_step(params, grads, state, learning_rate=0.1)
    assert np.allclose(state.m["a"], 0.1) and np.allclose(state.m["b"], -0.1)


def test_adam_and_clip_refuse_a_plain_dict_of_one_arrays_views():
    # views that fill one array in order, but in a plain dict, carry no
    # flat array: both refuse them before anything changes
    params, grads = flat_views({"a": (2,), "b": (3,)}), flat_views({"a": (2,), "b": (3,)})
    grads.flat[...] = 7.0
    state = AdamState.create(params)
    for args in [(dict(params), grads, state), (params, dict(grads), state),
                 (params, grads, AdamState(m=dict(state.m), v=state.v))]:
        with pytest.raises(ValueError, match="flat_views stores"):
            adam_step(*args, learning_rate=0.1)
    with pytest.raises(ValueError, match="flat_views store"):
        clip_gradients(dict(grads), max_norm=1.0)
    assert state.t == 0
    assert not params.flat.any() and not state.m.flat.any() and not state.v.flat.any()
    assert np.all(grads.flat == 7.0)


# ---------------------------------------------------------------------------
# clipping


def test_clip_scales_to_global_norm():
    # the gradients are views of one flat array, as training's store is;
    # arrays that fill no one array are refused
    grads = store_of(dict(zip("ab", np.array([[3.0, 0.0], [0.0, 4.0]]))))
    with pytest.raises(ValueError, match="flat_views store"):
        clip_gradients({n: g.copy() for n, g in grads.items()}, max_norm=2.5)
    norm = clip_gradients(grads, max_norm=2.5)
    assert abs(norm - 5.0) < 1e-12
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert abs(total - 2.5) < 1e-12
    assert np.allclose(grads["a"], [1.5, 0.0])


def test_clip_leaves_small_gradients_untouched():
    g = np.array([0.3, 0.4])
    grads = store_of({"a": g})
    norm = clip_gradients(grads, max_norm=5.0)
    assert abs(norm - 0.5) < 1e-12
    assert np.array_equal(grads["a"], g)


# ---------------------------------------------------------------------------
# schedule


def test_eval_boundaries_spread_and_dedupe():
    assert eval_boundaries(4, 2) == [2, 4]
    assert eval_boundaries(4, 1) == [4]
    assert eval_boundaries(1, 3) == [1]
    assert eval_boundaries(5, 2) == [3, 5]
    assert eval_boundaries(4, 0) == []


def test_eval_boundaries_cost_follows_the_batches_not_the_setting():
    # more evaluations than batches mark every batch once, at a cost that
    # follows the batches: a loop over 10**7 requested evaluations takes
    # about 1.4 s, and over 10**9 minutes per epoch
    start = time.perf_counter()
    assert eval_boundaries(8, 10**7) == list(range(1, 9))
    assert time.perf_counter() - start < 0.1
    assert eval_boundaries(8, 10**9) == eval_boundaries(8, 8) == list(range(1, 9))
    assert eval_boundaries(0, 10**9) == []


def test_train_config_validation():
    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError, match="clip_norm"):
        TrainConfig(clip_norm=-1.0)


# ---------------------------------------------------------------------------
# training loop


def test_train_reduces_loss_and_counts_iterations():
    cfg = small_config()
    params = ModelParams.create(cfg, seed=1)
    records = small_records(cfg)
    before = compute_losses(params, cfg, records).numbers()["total"]
    result = train(params, cfg, records, TrainConfig(
        learning_rate=1e-2, batch_size=3, epochs=60, seed=0))
    after = compute_losses(params, cfg, records).numbers()["total"]
    assert after < 0.8 * before
    assert result.iterations == 2 * 60
    assert len(result.history) == result.iterations
    assert [e["iteration"] for e in result.history] == list(range(1, 121))


def test_train_is_seed_deterministic():
    cfg = small_config()
    records = small_records(cfg)

    def run(train_seed):
        # every field but the phase timings
        params = ModelParams.create(cfg, seed=2)
        history = train(params, cfg, records, TrainConfig(
            batch_size=2, epochs=3, seed=train_seed)).history
        return [{k: v for k, v in e.items() if not k.endswith("_ms")} for e in history]

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_train_eval_hook_fires_at_boundaries():
    cfg = small_config()
    params = ModelParams.create(cfg, seed=3)
    records = small_records(cfg, count=6)
    seen = []
    train(params, cfg, records, TrainConfig(batch_size=2, epochs=2, seed=0,
                                            evals_per_epoch=3),
          eval_hook=lambda it, p: seen.append(it))
    # 3 batches per epoch, hook after batches 1, 2, 3 of each epoch
    assert seen == [1, 2, 3, 4, 5, 6]
    seen.clear()
    params = ModelParams.create(cfg, seed=3)
    train(params, cfg, records, TrainConfig(batch_size=4, epochs=2, seed=0,
                                            evals_per_epoch=2),
          eval_hook=lambda it, p: seen.append(it))
    # 2 batches per epoch, boundaries ceil(2k/2) = 1 and 2
    assert seen == [1, 2, 3, 4]


def test_train_writes_jsonl_log(tmp_path):
    cfg = small_config()
    params = ModelParams.create(cfg, seed=4)
    records = small_records(cfg, count=4)
    log = tmp_path / "train.jsonl"
    result = train(params, cfg, records, TrainConfig(batch_size=2, epochs=2, seed=0),
                   log_path=log)
    entries = load_training_log(log)
    assert entries == result.history
    assert set(entries[0]) == {"iteration", "stop", "hierarchical", "abnormal", "mti", "total",
                               "grad_norm", "clipped", "tape_entries", "forward_ms",
                               "backward_ms", "update_ms", "clip_ms"}
    for e in entries:
        assert type(e["grad_norm"]) is float and e["grad_norm"] > 0.0
        assert type(e["clipped"]) is bool
        assert type(e["tape_entries"]) is int and e["tape_entries"] > 0
        for phase in ("forward_ms", "backward_ms", "update_ms", "clip_ms"):
            assert type(e[phase]) is float and e[phase] >= 0.0
        assert e["clip_ms"] <= e["update_ms"]
    assert [e["iteration"] for e in entries] == [1, 2, 3, 4]


def test_train_log_on_disk_holds_every_iteration_at_each_evaluation(tmp_path):
    cfg = small_config()
    params = ModelParams.create(cfg, seed=4)
    records = small_records(cfg, count=6)
    log = tmp_path / "train.jsonl"
    seen = []

    def hook(iteration, _):
        seen.append((iteration, len(log.read_text().splitlines())))

    train(params, cfg, records, TrainConfig(batch_size=2, epochs=2, seed=0, evals_per_epoch=2),
          eval_hook=hook, log_path=log)
    assert seen == [(it, it) for it in (2, 3, 5, 6)]


def test_train_log_records_clipping():
    cfg = small_config()
    params = ModelParams.create(cfg, seed=4)
    records = small_records(cfg, count=4)
    loose = train(params, cfg, records, TrainConfig(batch_size=2, epochs=1, seed=0))
    params = ModelParams.create(cfg, seed=4)
    norm = loose.history[0]["grad_norm"]
    tight = train(params, cfg, records,
                  TrainConfig(batch_size=2, epochs=1, seed=0, clip_norm=norm / 2))
    assert not loose.history[0]["clipped"]
    assert tight.history[0]["clipped"] and tight.history[0]["grad_norm"] == norm


def test_train_divergence_names_batch():
    cfg = small_config()
    params = ModelParams.create(cfg, seed=5)
    params.img_embed.weight.data[0, 0] = float("nan")
    with pytest.raises(TrainingDivergedError, match=r"iteration 1 \(epoch 1, batch 1\)"):
        train(params, cfg, small_records(cfg), TrainConfig(batch_size=2, epochs=1, seed=0))


def test_train_rejects_empty_corpus():
    cfg = small_config()
    with pytest.raises(ValueError, match="nonempty"):
        train(ModelParams.create(cfg, seed=0), cfg, [], TrainConfig())


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bitwise(tmp_path):
    cfg = small_config()
    params = ModelParams.create(cfg, seed=6)
    records = small_records(cfg, count=4)
    train(params, cfg, records, TrainConfig(batch_size=2, epochs=2, seed=0))
    named = params.named_parameters()
    state = AdamState.create(named)
    state.t = 9
    rng = seeded_rng(7)
    for n in state.m:
        state.m[n][...] = rng.normal(size=state.m[n].shape)
        state.v[n][...] = np.abs(rng.normal(size=state.v[n].shape))

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, cfg, iteration=42, adam=state)

    fresh = ModelParams.create(cfg, seed=99)
    iteration, adam = load_checkpoint(path, fresh, cfg)
    assert iteration == 42
    assert adam is not None and adam.t == 9
    for name, t in fresh.named_parameters().items():
        assert np.array_equal(t.data, named[name].data), name
        assert np.array_equal(adam.m[name], state.m[name])
        assert np.array_equal(adam.v[name], state.v[name])


def test_adam_state_caught_by_a_wrapper_round_trips(tmp_path, monkeypatch):
    # the benchmark rebinds hdlm.training.adam_step and keeps its third
    # positional argument, then saves and loads that state; the clip must
    # still return the pre-clip norm
    seen, norms = [], []
    adam, clip = hdlm.training.adam_step, hdlm.training.clip_gradients

    def caught_adam_step(named, grads, state, *args, **kwargs):
        result = adam(named, grads, state, *args, **kwargs)
        seen.append(state)
        return result

    def checked_clip(grads, max_norm):
        before = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        norm = clip(grads, max_norm)
        norms.append((before, norm))
        return norm

    monkeypatch.setattr(hdlm.training, "adam_step", caught_adam_step)
    monkeypatch.setattr(hdlm.training, "clip_gradients", checked_clip)
    cfg = small_config()
    params = ModelParams.create(cfg, seed=4)
    records = small_records(cfg, count=4)
    result = train(params, cfg, records, TrainConfig(batch_size=2, epochs=1, clip_norm=0.5))
    assert result.iterations == 2 and len(seen) == 2 and seen[0] is seen[1]
    assert all(before == norm > 0.5 for before, norm in norms)
    assert [e["grad_norm"] for e in result.history] == [norm for _, norm in norms]
    path = tmp_path / "bench.ckpt"
    save_checkpoint(path, params, cfg, result.iterations, seen[-1])
    target = ModelParams.create(cfg, seed=5)
    iteration, loaded = load_checkpoint(path, target, cfg)
    assert iteration == 2 and loaded.t == seen[-1].t == 2
    saved = params.named_parameters()
    for name, t in target.named_parameters().items():
        assert t.data.tobytes() == saved[name].data.tobytes(), name
    for kind in ("m", "v"):
        for name, arr in getattr(seen[-1], kind).items():
            assert getattr(loaded, kind)[name].tobytes() == arr.tobytes(), (kind, name)


def test_checkpoint_without_optimizer_state(tmp_path):
    cfg = small_config()
    params = ModelParams.create(cfg, seed=8)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, params, cfg, iteration=0)
    fresh = ModelParams.create(cfg, seed=9)
    iteration, adam = load_checkpoint(path, fresh, cfg)
    assert iteration == 0 and adam is None
    assert np.array_equal(fresh.embedding.matrix.data, params.embedding.matrix.data)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path):
    cfg = small_config()
    params = ModelParams.create(cfg, seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, cfg, iteration=1)
    before = path.read_bytes()
    params.embedding.matrix.data += 1.0
    # empty Adam moments fail the write after every parameter is written
    with pytest.raises(KeyError):
        save_checkpoint(path, params, cfg, iteration=2, adam=AdamState(m={}, v={}))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    save_checkpoint(path, params, cfg, iteration=2)
    assert load_checkpoint(path, ModelParams.create(cfg, seed=0), cfg) == (2, None)


def test_checkpoint_rejects_config_mismatch(tmp_path):
    cfg = small_config()
    params = ModelParams.create(cfg, seed=10)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, cfg, iteration=1)
    other = small_config(lambda_mti=3.0)
    assert not np.array_equal(config_fingerprint(cfg), config_fingerprint(other))
    with pytest.raises(CheckpointError, match="different model configuration"):
        load_checkpoint(path, ModelParams.create(other, seed=0), other)


def test_checkpoint_rejects_bad_magic_and_truncation(tmp_path):
    cfg = small_config()
    params = ModelParams.create(cfg, seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, cfg, iteration=1)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad, params, cfg)

    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:-9])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(cut, params, cfg)


def test_checkpoint_rejects_missing_parameter(tmp_path):
    cfg = small_config()
    params = ModelParams.create(cfg, seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, cfg, iteration=1)
    bigger = small_config(hidden_dim=6)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, ModelParams.create(bigger, seed=0), bigger)


def test_failed_load_leaves_parameters_unchanged(tmp_path):
    cfg = small_config()
    params = ModelParams.create(cfg, seed=13)
    bare, full = tmp_path / "bare.ckpt", tmp_path / "full.ckpt"
    save_checkpoint(bare, params, cfg, iteration=1)
    state = AdamState.create(params.named_parameters())
    state.t = 3
    save_checkpoint(full, params, cfg, iteration=1, adam=state)
    bias = b"mti_head.bias"
    last = 4 + len(bias) + 4 + 4 + 8 * cfg.mti_labels  # the bare file's last entry
    assert bare.read_bytes()[-last + 4:-last + 4 + len(bias)] == bias
    fractional_step = full.read_bytes()[:-8] + struct.pack("<d", 2.5)
    fresh = ModelParams.create(cfg, seed=99)
    before = {name: t.data.tobytes() for name, t in fresh.named_parameters().items()}
    assert len(before) == 27
    # the last value of the bare file's last parameter, and of the full
    # file's last moment, which the adam/t entry follows
    nan_parameter = bare.read_bytes()[:-8] + struct.pack("<d", math.nan)
    step = 4 + len(b"adam/t") + 4 + 4 + 8
    inf_moment = full.read_bytes()[:-step - 8] + struct.pack("<d", math.inf) + full.read_bytes()[-step:]
    for blob, message in [(fractional_step, "'adam/t' is 2.5"),
                          (bare.read_bytes()[:-last], "missing parameter 'mti_head.bias'"),
                          (full.read_bytes()[:-9], "truncated"),
                          (nan_parameter, "'mti_head.bias' holds a value that is not finite"),
                          (inf_moment, "'adam/v/mti_head.bias' holds a value that is not finite")]:
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(bad, fresh, cfg)
        after = {name: t.data.tobytes() for name, t in fresh.named_parameters().items()}
        assert after == before, message


def test_checkpoint_v1_bytes_are_pinned(tmp_path):
    cfg = small_config()
    params = ModelParams.create(cfg, seed=0)
    m = {n: np.arange(t.data.size, dtype=float).reshape(t.data.shape) / 8
         for n, t in params.named_parameters().items()}
    state = AdamState(m=m, v={n: a + 1.0 for n, a in m.items()}, t=3)
    digests = []
    for adam in (None, state):
        path = tmp_path / "v1.ckpt"
        save_checkpoint(path, params, cfg, iteration=5, adam=adam)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests == [
        "79b7e65135bb21792ee7911f0f331691257afecc89c14691fcfdc0fb0f80f0b4",
        "2a5135300a345e5dfd460dce39634b42139018caba4f4625f3258be0baaa06ef",
    ]


def test_fingerprint_reflects_dual_normalization():
    # dual off zeroes the abnormal weight, so both spellings fingerprint alike
    a = small_config(dual_enabled=False, lambda_abnormal=0.0)
    b = small_config(dual_enabled=False, lambda_abnormal=9.0)
    assert np.array_equal(config_fingerprint(a), config_fingerprint(b))


# ---------------------------------------------------------------------------
# the parameter store


def assert_views_of_store(params):
    for name, t in params.named_parameters().items():
        assert t.data is params.store[name], name
        assert np.shares_memory(t.data, params.store.flat), name


def test_parameters_stay_views_of_their_store(tmp_path, monkeypatch):
    # adam_step updates params.store.flat and trusts each tensor to be a
    # view of it; a rebound t.data would train a copy nobody reads
    cfg = small_config()
    params = ModelParams.create(cfg, seed=2)
    assert_views_of_store(params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ModelParams.create(cfg, seed=3), cfg, iteration=1)
    load_checkpoint(path, params, cfg)
    assert_views_of_store(params)
    before = params.store.flat.copy()
    assert train(params, cfg, small_records(cfg, count=4), TrainConfig(batch_size=2, epochs=1)).iterations == 2
    assert_views_of_store(params)
    assert not np.array_equal(params.store.flat, before)
    # hdlm gradcheck scales every weight before its audit
    created, create = [], ModelParams.create

    def recorded_create(*args, **kwargs):
        created.append(create(*args, **kwargs))
        return created[-1]

    def checked_audit(loss, named_params, **kwargs):
        assert_views_of_store(created[-1])
        return {name: (0.0, 1) for name in named_params}

    monkeypatch.setattr(ModelParams, "create", staticmethod(recorded_create))
    monkeypatch.setattr(hdlm.cli, "gradient_audit", checked_audit)
    assert hdlm.cli.run(["gradcheck"]) == 0
    assert len(created) == 1


def test_only_the_constructors_rebind_a_data_attribute():
    # nothing else in the package may assign to `.data`: a parameter's data
    # rebound after ModelParams.create leaves the store that Adam updates
    allowed = {"Tensor.__init__", "ModelParams.create"}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target] if isinstance(child, ast.AnnAssign) else [])
            while targets:  # `x.data = ...` or within `a, x.data = ...`, not `x.data[...] = ...`
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets += target.elts
                elif isinstance(target, ast.Starred):
                    targets.append(target.value)
                elif isinstance(target, ast.Attribute) and target.attr == "data" and scope not in allowed:
                    found.append(f"{path.name}:{target.lineno} in {scope or 'module'}")
            visit(child, scope)

    for path in sorted(Path(hdlm.training.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    assert found == []
