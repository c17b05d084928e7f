"""Hierarchical report generation with a dual word decoder.

The package is self-contained: a reverse-mode autodiff tensor core, the
attention/LSTM model, Adam training with binary checkpoints, greedy
inference, MT-style evaluation metrics, and distinctness-gated checkpoint
selection, exercised end to end on a synthetic long-tail corpus.
"""

from .tensor import (
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    backward,
    gradient_audit,
    seeded_rng,
)
from .data import (
    BOS_ID,
    ConfigError,
    CorpusFormatError,
    EOS_ID,
    PAD_ID,
    ReportRecord,
    SynthConfig,
    SynthResult,
    UNK_ID,
    Vocabulary,
    auto_annotate_abnormal,
    build_vocab,
    count_below,
    load_corpus,
    load_embeddings,
    load_features,
    load_vocab,
    save_corpus,
    save_features,
    save_vocab,
    sentence_frequency_table,
    split_corpus,
    synth_corpus,
    tokenize,
)
from .model import (
    LossBundle,
    ModelConfig,
    ModelParams,
    compute_losses,
)
from .training import (
    AdamState,
    CheckpointError,
    TrainConfig,
    TrainResult,
    TrainingDivergedError,
    adam_step,
    clip_gradients,
    load_checkpoint,
    load_training_log,
    save_checkpoint,
    train,
)
from .inference import (
    GeneratedReport,
    GenerationLimits,
    generate_corpus,
    load_generated,
    save_generated,
)
from .metrics import (
    EvalPair,
    MetricsReport,
    bleu,
    build_eval_pairs,
    cider_d,
    compute_metrics,
    distinct_per_index,
    lcs_length,
    meteor_lite,
    render_table,
    rouge_l,
    save_metrics,
)
from .selection import (
    CheckpointRecord,
    SelectionResult,
    load_history,
    mode_baseline,
    render_analysis,
    save_history,
    select_model,
    selectable,
)

__version__ = "0.1.0"
