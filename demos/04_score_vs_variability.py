"""Why a single corpus score is not enough.

A "model" that always prints the most common training paragraph gets a BLEU
score in the same league as a trained network, because corpus BLEU rewards
matching the head of a long-tail distribution.  Positional distinctness
exposes the difference immediately, which is exactly what the checkpoint
selector gates on.
"""

from hdlm import (
    CheckpointRecord,
    EvalPair,
    GenerationLimits,
    ModelConfig,
    ModelParams,
    SynthConfig,
    TrainConfig,
    bleu,
    build_eval_pairs,
    compute_metrics,
    generate_corpus,
    mode_baseline,
    select_model,
    split_corpus,
    synth_corpus,
    train,
)
from hdlm.metrics import distinct_per_index, paragraph_tokens


def main():
    synth = synth_corpus(SynthConfig(
        seed=7, records=200, normal_pool=40, abnormal_pool=15,
        zipf_exponent=1.5, abnormal_prob=0.25, noise_scale=2.0,
        vocab_words=70, tag_count=5, min_sentences=3, max_sentences=3,
        min_words=3, max_words=6, locations=8, channels=12,
    ))
    train_recs, val_recs, _ = split_corpus(synth.records, (0.8, 0.2, 0.0), seed=7)

    config = ModelConfig(
        vocab_size=synth.vocab.size, mti_labels=5, channels=12,
        embed_dim=24, hidden_dim=24, locations=8, max_sentences=4, max_words=8,
    )
    params = ModelParams.create(config, seed=0)
    train(params, config, train_recs, TrainConfig(
        learning_rate=5e-3, batch_size=16, epochs=30, seed=0, evals_per_epoch=0))

    limits = GenerationLimits(max_sentences=4, max_words=8)
    reports = generate_corpus(params, config, val_recs, limits)
    model = compute_metrics(
        build_eval_pairs(reports, val_recs),
        paragraphs=[r.sentences for r in reports],
    )

    stock = mode_baseline(train_recs)
    stock_pairs = [
        EvalPair(hypothesis=paragraph_tokens(stock),
                 references=[paragraph_tokens(r.sentences)])
        for r in val_recs
    ]
    stock_bleu1, _, _, stock_bleu4 = bleu(stock_pairs)
    stock_distinct = distinct_per_index([stock for _ in val_recs])

    print("                    BLEU-1   BLEU-4   distinct@0")
    print(f"trained model       {model.bleu1:.4f}   {model.bleu4:.4f}   "
          f"{model.distinct[0] if model.distinct else 0}")
    print(f"stock paragraph     {stock_bleu1:.4f}   {stock_bleu4:.4f}   "
          f"{stock_distinct[0]}")

    gate = select_model([
        CheckpointRecord(iteration=0, bleu4=stock_bleu4, distinct=tuple(stock_distinct)),
    ])
    print(f"\nselector verdict on the stock paragraph: {gate.reason}")
    print("scores alone cannot tell these apart; the distinctness gate can.")


if __name__ == "__main__":
    main()
