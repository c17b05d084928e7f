"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single summary line, so
running this module with ``-s`` reads as a checklist.  Budgets are asserted
with wall-clock margins; every run is fully seeded.
"""

import statistics
import time

import numpy as np

from hdlm import (
    CheckpointRecord,
    EOS_ID,
    EvalPair,
    GenerationLimits,
    ModelConfig,
    ModelParams,
    ReportRecord,
    SynthConfig,
    Tape,
    TrainConfig,
    backward,
    bleu,
    build_eval_pairs,
    cider_d,
    compute_losses,
    compute_metrics,
    count_below,
    generate_corpus,
    lcs_length,
    load_checkpoint,
    load_generated,
    meteor_lite,
    mode_baseline,
    rouge_l,
    save_checkpoint,
    save_corpus,
    save_generated,
    seeded_rng,
    select_model,
    sentence_frequency_table,
    split_corpus,
    synth_corpus,
    train,
)
from hdlm.data import RARE_BELOW
from hdlm.metrics import distinct_per_index, paragraph_tokens
from hdlm.tensor import gradient_audit


def _sentence(rng, vocab_size, low=2, high=5):
    n = int(rng.integers(low, high))
    return [int(v) for v in rng.integers(4, vocab_size, size=n)] + [EOS_ID]


def _record(rng, config, rid, flags=None, n_sentences=2):
    flags = list(flags) if flags is not None else [
        bool(rng.integers(0, 2)) for _ in range(n_sentences)
    ]
    return ReportRecord(
        id=rid,
        sentences=[_sentence(rng, config.vocab_size) for _ in range(len(flags))],
        abnormal_flags=flags,
        mti_labels=[int(rng.integers(0, config.mti_labels))],
        feature_ref=rng.normal(size=(config.locations, config.channels)),
    )


def _grads_by_name(params, config, records):
    with Tape() as tape:
        bundle = compute_losses(params, config, records)
    grads = backward(tape, bundle.total)
    return {
        name: grads.get(t)
        for name, t in params.named_parameters().items()
    }


def test_criterion_01_gradients_match_finite_differences():
    started = time.monotonic()
    config = ModelConfig(vocab_size=12, mti_labels=3, channels=6, embed_dim=8,
                         hidden_dim=8, locations=4, max_sentences=3, max_words=6)
    params = ModelParams.create(config, seed=3)
    rng = seeded_rng(17)
    records = [
        _record(rng, config, "r0", flags=[True, False]),
        _record(rng, config, "r1", flags=[False, True, True]),
    ]
    named = params.named_parameters()
    report = gradient_audit(
        lambda: compute_losses(params, config, records).total,
        named, eps=1e-5, max_coords=None, seed=0,
    )
    assert set(report) == set(named)
    worst, _ = max(report.values())
    worst_name = max(report, key=report.get)
    elapsed = time.monotonic() - started
    assert worst <= 1e-4, f"{worst_name} relative error {worst:.3e}"
    assert elapsed < 60.0
    coords = sum(p.data.size for p in named.values())
    print(f"PASS criterion 1: {len(named)} parameter groups, {coords} coordinates, "
          f"worst relative error {worst:.2e} ({worst_name}), {elapsed:.1f}s")


def test_criterion_02_branch_isolation_is_exact():
    config = ModelConfig(vocab_size=14, mti_labels=3, channels=5, embed_dim=7,
                         hidden_dim=9, locations=4, max_sentences=3, max_words=6)
    params = ModelParams.create(config, seed=5)
    rng = seeded_rng(29)
    all_normal = [_record(rng, config, f"n{i}", flags=[False, False]) for i in range(2)]
    all_abnormal = [_record(rng, config, f"a{i}", flags=[True, True]) for i in range(2)]

    def branch_grads(records, prefix):
        grads = _grads_by_name(params, config, records)
        own = {k: v for k, v in grads.items() if k.startswith(prefix)}
        assert own
        return own

    for records, idle, busy in (
        (all_normal, "word_abnormal.", "word_normal."),
        (all_abnormal, "word_normal.", "word_abnormal."),
    ):
        for name, grad in branch_grads(records, idle).items():
            assert grad is None or not np.any(grad), name
        assert any(
            grad is not None and np.any(grad)
            for grad in branch_grads(records, busy).values()
        )
    print("PASS criterion 2: unused word decoder receives exactly zero gradient "
          "in both routing directions")


def test_criterion_03_single_decoder_ignores_abnormal_weight():
    rng = seeded_rng(123)
    checked = 0
    for trial in range(20):
        dims = dict(
            vocab_size=int(rng.integers(10, 17)),
            mti_labels=int(rng.integers(2, 5)),
            channels=int(rng.integers(4, 9)),
            embed_dim=int(rng.integers(6, 13)),
            hidden_dim=int(rng.integers(6, 13)),
            locations=int(rng.integers(3, 7)),
            max_sentences=3,
            max_words=6,
            lambda_stop=float(rng.uniform(0.1, 3.0)),
            lambda_hierarchical=float(rng.uniform(0.1, 3.0)),
            lambda_mti=float(rng.uniform(0.1, 12.0)),
        )
        weights = rng.uniform(0.0, 9.0, size=2)
        losses = []
        record_seed = int(rng.integers(0, 2**31))
        for lam in weights:
            config = ModelConfig(dual_enabled=False, lambda_abnormal=float(lam), **dims)
            params = ModelParams.create(config, seed=trial)
            rec_rng = seeded_rng(record_seed)
            records = [_record(rec_rng, config, f"t{trial}")]
            losses.append(compute_losses(params, config, records).numbers())
        first, second = losses
        assert first == second, f"trial {trial} diverged: {first} vs {second}"
        assert first["abnormal"] == 0.0
        checked += 1
    print(f"PASS criterion 3: with the dual decoder off, every loss term is "
          f"bit-identical across abnormal weights ({checked} random configs)")


def test_criterion_04_metric_oracles():
    def pair(hyp, ref):
        return EvalPair(hypothesis=list(hyp), reference=list(ref))

    checks = []
    checks.append(("BLEU-1 clipping",
                   bleu([pair("the the the the".split(), "the cat".split())])[0],
                   0.25))
    checks.append(("ROUGE-L",
                   rouge_l([pair(list("abcd"), list("acde"))]),
                   0.75))
    checks.append(("METEOR",
                   meteor_lite([pair([1, 2, 3], [1, 2, 3])]),
                   1.0 - 0.5 / 27.0))
    checks.append(("CIDEr-D",
                   cider_d([pair([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]),
                            pair([6, 7, 8, 9, 10], [6, 7, 8, 9, 10])]),
                   10.0))
    for name, got, want in checks:
        assert abs(got - want) <= 1e-6, f"{name}: {got!r} vs {want!r}"

    def oracle(a, b):
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                table[i][j] = (table[i - 1][j - 1] + 1 if a[i - 1] == b[j - 1]
                               else max(table[i - 1][j], table[i][j - 1]))
        return table[-1][-1]

    rng = seeded_rng(41)
    for _ in range(1000):
        a = rng.integers(0, 6, size=int(rng.integers(0, 13))).tolist()
        b = rng.integers(0, 6, size=int(rng.integers(0, 13))).tolist()
        assert lcs_length(a, b) == oracle(a, b)
    summary = ", ".join(f"{name} {got:.6f}" for name, got, _ in checks)
    print(f"PASS criterion 4: {summary}; LCS matched the reference table "
          f"on 1000 random pairs")


def test_criterion_05_mode_baseline_rivals_degenerate_model():
    started = time.monotonic()
    synth = synth_corpus(SynthConfig(
        seed=7, records=300, normal_pool=60, abnormal_pool=20,
        zipf_exponent=1.5, abnormal_prob=0.25, noise_scale=3.0,
        vocab_words=80, tag_count=6, min_sentences=3, max_sentences=3,
        min_words=3, max_words=7, locations=8, channels=12,
    ))
    assert all(len(r.sentences) == 3 for r in synth.records)
    train_recs, val_recs = split_corpus(synth.records, 0.8, seed=7)

    config = ModelConfig(
        vocab_size=synth.vocab.size, mti_labels=6, channels=12, embed_dim=24,
        hidden_dim=24, locations=8, max_sentences=4, max_words=9,
    )
    params = ModelParams.create(config, seed=0)
    result = train(params, config, train_recs, TrainConfig(
        learning_rate=5e-3, batch_size=16, epochs=40, seed=0, evals_per_epoch=0))
    assert result.history[-1]["total"] < result.history[0]["total"]

    limits = GenerationLimits(max_sentences=4, max_words=9)
    reports = generate_corpus(params, config, val_recs, limits)
    model_metrics = compute_metrics(
        build_eval_pairs(reports, val_recs),
        paragraphs=[r.sentences for r in reports],
    )

    mode = mode_baseline(train_recs)
    mode_pairs = [EvalPair(hypothesis=paragraph_tokens(mode),
                           reference=paragraph_tokens(r.sentences))
                  for r in val_recs]
    mode_bleu1, _, _, mode_bleu4 = bleu(mode_pairs)
    mode_distinct = distinct_per_index([mode for _ in val_recs])

    assert mode_distinct[0] == 1
    assert mode_bleu1 >= 0.9 * model_metrics.bleu1, (
        f"mode {mode_bleu1:.4f} vs model {model_metrics.bleu1:.4f}"
    )
    gate = select_model([CheckpointRecord(
        iteration=result.iterations, bleu4=mode_bleu4,
        distinct=tuple(mode_distinct),
    )])
    assert gate.chosen is None
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    print(f"PASS criterion 5: mode baseline BLEU-1 {mode_bleu1:.4f} vs trained "
          f"model {model_metrics.bleu1:.4f} (ratio "
          f"{mode_bleu1 / model_metrics.bleu1:.3f}), mode distinct@0 = 1, "
          f"selector refuses it, {elapsed:.1f}s")


def test_criterion_06_selection_matches_brute_force():
    rng = seeded_rng(59)
    trials = 200
    for _ in range(trials):
        history = [
            CheckpointRecord(
                iteration=int(i),
                bleu4=float(rng.integers(0, 5)) / 4.0,
                distinct=tuple(int(v) for v in rng.integers(1, 8, size=2)),
            )
            for i in rng.permutation(10)
        ]
        eligible = [r for r in history if r.distinct[0] >= 4]
        expected = (min(eligible, key=lambda r: (-r.bleu4, r.iteration))
                    if eligible else None)
        assert select_model(history).chosen is expected
    print(f"PASS criterion 6: selector agreed with the brute-force oracle on "
          f"{trials} random 10-checkpoint histories")


def test_criterion_07_small_corpus_exact_overfit():
    started = time.monotonic()
    synth = synth_corpus(SynthConfig(
        seed=11, records=8, normal_pool=6, abnormal_pool=4, zipf_exponent=1.0,
        abnormal_prob=0.4, noise_scale=0.05, vocab_words=30, tag_count=3,
        min_sentences=1, max_sentences=3, min_words=3, max_words=5,
        locations=6, channels=8,
    ))
    records = synth.records
    flags = [f for r in records for f in r.abnormal_flags]
    assert any(flags) and not all(flags)  # both decoders are exercised

    config = ModelConfig(
        vocab_size=synth.vocab.size, mti_labels=3, channels=8, embed_dim=48,
        hidden_dim=48, locations=6, max_sentences=4, max_words=8,
    )
    assert config.dual_enabled
    params = ModelParams.create(config, seed=0)
    limits = GenerationLimits(max_sentences=4, max_words=8)

    iterations = 0
    reports = []
    while iterations < 2000:
        chunk = train(params, config, records, TrainConfig(
            learning_rate=5e-3, batch_size=8, epochs=100,
            seed=iterations, evals_per_epoch=0))
        iterations += chunk.iterations
        reports = generate_corpus(params, config, records, limits)
        if all(rep.sentences == rec.sentences
               for rep, rec in zip(reports, records)):
            break
    exact = sum(rep.sentences == rec.sentences
                for rep, rec in zip(reports, records))
    assert exact == len(records), f"only {exact}/{len(records)} reproduced"
    score = bleu(build_eval_pairs(reports, records))[3]
    assert abs(score - 1.0) < 1e-12
    elapsed = time.monotonic() - started
    assert iterations <= 2000 and elapsed < 300.0
    print(f"PASS criterion 7: greedy decoding reproduced all {len(records)} "
          f"records exactly after {iterations} iterations (BLEU-4 = {score:.1f}), "
          f"{elapsed:.1f}s")


def test_criterion_08_dual_decoder_keeps_more_distinct_openings():
    synth = synth_corpus(SynthConfig(
        seed=21, records=100, normal_pool=20, abnormal_pool=20,
        zipf_exponent=1.3, abnormal_prob=0.5, noise_scale=0.5, vocab_words=60,
        tag_count=4, min_sentences=2, max_sentences=3, min_words=3, max_words=6,
        locations=8, channels=12,
    ))
    train_recs, val_recs = split_corpus(synth.records, 0.8, seed=21)
    limits = GenerationLimits(max_sentences=4, max_words=8)
    chunks, epochs_per = 3, 3

    def first_position_series(dual: bool, seed: int) -> list[int]:
        config = ModelConfig(
            vocab_size=synth.vocab.size, mti_labels=4, channels=12,
            embed_dim=24, hidden_dim=24, locations=8, max_sentences=4,
            max_words=8, dual_enabled=dual,
        )
        params = ModelParams.create(config, seed=seed)
        series = []
        for chunk in range(chunks):
            train(params, config, train_recs, TrainConfig(
                learning_rate=5e-3, batch_size=16, epochs=epochs_per,
                seed=seed * 10 + chunk, evals_per_epoch=0))
            reports = generate_corpus(params, config, val_recs, limits)
            counts = distinct_per_index([r.sentences for r in reports])
            series.append(counts[0] if counts else 0)
        return series

    seeds = range(5)
    dual_series = [first_position_series(True, s) for s in seeds]
    single_series = [first_position_series(False, s) for s in seeds]
    print(f"dual   distinct@0 per seed: {dual_series}")
    print(f"single distinct@0 per seed: {single_series}")
    dual_medians, single_medians = [], []
    for k in range(chunks):
        dual_medians.append(statistics.median(row[k] for row in dual_series))
        single_medians.append(statistics.median(row[k] for row in single_series))
        assert dual_medians[-1] >= single_medians[-1], (
            f"checkpoint {k}: dual median {dual_medians[-1]} < "
            f"single median {single_medians[-1]}"
        )
    print(f"PASS criterion 8: median distinct@0 across 5 seeds, dual "
          f"{dual_medians} vs single {single_medians} at matched iterations")


def test_criterion_09_synthetic_corpus_has_a_long_tail():
    synth = synth_corpus(SynthConfig(
        seed=13, records=500, normal_pool=140, abnormal_pool=60,
        zipf_exponent=1.3, abnormal_prob=0.3, noise_scale=0.1,
        vocab_words=180, tag_count=8, min_sentences=1, max_sentences=4,
        min_words=3, max_words=7, locations=16, channels=24,
    ))
    table = sentence_frequency_table(
        [tuple(s) for r in synth.records for s in r.sentences]
    )
    rare, fraction = count_below(table)
    assert fraction > 0.5, f"rare fraction {fraction:.3f}"
    assert table[0][1] > table[-1][1]
    print(f"PASS criterion 9: {rare}/{len(table)} distinct sentences occur "
          f"fewer than {RARE_BELOW} times ({fraction:.1%})")


def test_criterion_10_determinism_and_round_trips(tmp_path):
    synth_config = SynthConfig(
        seed=31, records=20, normal_pool=8, abnormal_pool=4, zipf_exponent=1.2,
        abnormal_prob=0.4, noise_scale=0.2, vocab_words=40, tag_count=3,
        min_sentences=1, max_sentences=2, min_words=3, max_words=5,
        locations=5, channels=6,
    )
    first, second = synth_corpus(synth_config), synth_corpus(synth_config)
    for a, b in zip(first.records, second.records):
        assert a.sentences == b.sentences
        assert a.abnormal_flags == b.abnormal_flags
        assert a.mti_labels == b.mti_labels
        assert a.feature_map().tobytes() == b.feature_map().tobytes()
    assert first.vocab.id_to_token == second.vocab.id_to_token

    corpus_a, corpus_b = tmp_path / "a", tmp_path / "b"
    corpus_a.mkdir(), corpus_b.mkdir()
    save_corpus(corpus_a / "c.jsonl", first.records)
    save_corpus(corpus_b / "c.jsonl", second.records)
    assert (corpus_a / "c.jsonl").read_bytes() == (corpus_b / "c.jsonl").read_bytes()

    config = ModelConfig(
        vocab_size=first.vocab.size, mti_labels=3, channels=6, embed_dim=10,
        hidden_dim=10, locations=5, max_sentences=3, max_words=7,
    )
    train_config = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=3,
                               seed=2, evals_per_epoch=0)

    def fit():
        params = ModelParams.create(config, seed=2)
        train(params, config, first.records, train_config)
        return params

    run_a, run_b = fit(), fit()
    for name, tensor in run_a.named_parameters().items():
        assert tensor.data.tobytes() == run_b.named_parameters()[name].data.tobytes(), name

    ckpt = tmp_path / "model.bin"
    save_checkpoint(ckpt, run_a, config, iteration=77)
    restored = ModelParams.create(config, seed=9)
    iteration, adam = load_checkpoint(ckpt, restored, config)
    assert iteration == 77 and adam is None
    for name, tensor in run_a.named_parameters().items():
        assert tensor.data.tobytes() == restored.named_parameters()[name].data.tobytes()

    limits = GenerationLimits(max_sentences=3, max_words=7)
    reports = generate_corpus(run_a, config, first.records, limits)
    again = generate_corpus(restored, config, first.records, limits)
    assert reports == again
    out = tmp_path / "generated.jsonl"
    save_generated(out, reports)
    assert load_generated(out) == reports
    print("PASS criterion 10: synthesis, training, checkpoints, and generated "
          "reports are bit-reproducible across runs and round trips")
