"""What the synthetic corpus looks like.

Records pair a feature map with a few sentences drawn from fixed pools under
a Zipf rank distribution, so a handful of sentences dominate while most
appear once or twice.  That skew is the whole point: it is what makes a
single memorized paragraph so competitive on corpus-level scores.
"""

from hdlm import SynthConfig, count_below, sentence_frequency_table, synth_corpus
from hdlm.data import RARE_BELOW


def main():
    synth = synth_corpus(SynthConfig(seed=4, records=400))
    records, vocab = synth.records, synth.vocab

    print(f"{len(records)} records, vocabulary of {vocab.size} tokens")
    example = records[0]
    print(f"\nrecord {example.id}: feature map {example.feature_map().shape}, "
          f"tags {list(example.mti_labels)}")
    for sent, flag in zip(example.sentences, example.abnormal_flags):
        text = " ".join(vocab.decode(sent))
        print(f"  [{'abnormal' if flag else 'normal  '}] {text}")

    table = sentence_frequency_table(
        [tuple(s) for r in records for s in r.sentences]
    )
    print("\nmost frequent sentences:")
    for sent, count in table[:5]:
        print(f"  {count:4d}x  {' '.join(vocab.decode(list(sent)))}")
    print("least frequent:")
    for sent, count in table[-3:]:
        print(f"  {count:4d}x  {' '.join(vocab.decode(list(sent)))}")

    rare, fraction = count_below(table)
    print(f"\n{rare} of {len(table)} distinct sentences occur fewer than "
          f"{RARE_BELOW} times ({fraction:.1%}) - a long tail.")


if __name__ == "__main__":
    main()
