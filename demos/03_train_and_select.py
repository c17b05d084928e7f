"""End-to-end: synthesize, train, evaluate checkpoints, select one.

The eval hook scores every checkpoint on held-out records, building the
history that the distinctness-gated selector consumes.  Run time is about a
minute on a laptop-class CPU.
"""

from hdlm import (
    CheckpointRecord,
    GenerationLimits,
    ModelConfig,
    ModelParams,
    SynthConfig,
    TrainConfig,
    build_eval_pairs,
    compute_metrics,
    generate_corpus,
    render_analysis,
    select_model,
    split_corpus,
    synth_corpus,
    train,
)


def main():
    synth = synth_corpus(SynthConfig(
        seed=2, records=120, normal_pool=16, abnormal_pool=10,
        zipf_exponent=1.1, abnormal_prob=0.4, noise_scale=0.2,
        vocab_words=60, tag_count=4, min_sentences=1, max_sentences=3,
        min_words=3, max_words=6, locations=8, channels=12,
    ))
    train_recs, val_recs = split_corpus(synth.records, 0.8, seed=2)
    print(f"training on {len(train_recs)} records, validating on {len(val_recs)}")

    config = ModelConfig(
        vocab_size=synth.vocab.size, mti_labels=4, channels=12,
        embed_dim=32, hidden_dim=32, locations=8, max_sentences=4, max_words=8,
    )
    params = ModelParams.create(config, seed=0)
    limits = GenerationLimits(max_sentences=4, max_words=8)
    history = []

    def score_checkpoint(iteration, current):
        reports = generate_corpus(current, config, val_recs, limits)
        metrics = compute_metrics(
            build_eval_pairs(reports, val_recs),
            paragraphs=[r.sentences for r in reports],
        )
        history.append(CheckpointRecord(
            iteration=iteration, bleu4=metrics.bleu4,
            distinct=tuple(metrics.distinct),
        ))

    result = train(params, config, train_recs, TrainConfig(
        learning_rate=5e-3, batch_size=16, epochs=48, seed=0,
        evals_per_epoch=1,
    ), eval_hook=score_checkpoint)
    first, last = result.history[0]["total"], result.history[-1]["total"]
    print(f"{result.iterations} iterations, total loss {first:.2f} -> {last:.2f}\n")

    # keep the table readable: every sixth checkpoint
    selection = select_model(history[::6])
    print(render_analysis(selection))


if __name__ == "__main__":
    main()
