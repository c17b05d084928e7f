"""Per-layer spans and counters for the traced run, and the per-layer
metrics computed from them.

Layers are the modules of ``src/hdlm``.  Each probe rebinds the name the
caller uses (``hdlm.training.backward`` is what ``train`` calls), so no file
of the program changes.
"""

from __future__ import annotations

import os

import hdlm.cli
import hdlm.data
import hdlm.inference
import hdlm.metrics
import hdlm.model
import hdlm.training
from hdlm.data import EOS_ID

from spans import Tracer, median, percentile, supported_tail

EVAL_HOOK = "training.eval_hook"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    cli, data, training, model = hdlm.cli, hdlm.data, hdlm.training, hdlm.model
    inference, metrics = hdlm.inference, hdlm.metrics

    for owner in (cli, data):
        tracer.wrap(owner, "synth_corpus", "data.synth_corpus")
        tracer.wrap(owner, "save_corpus", "data.save_corpus")
        tracer.wrap(owner, "load_corpus", "data.load_corpus")

    tracer.wrap(training, "compute_losses", "model.compute_losses")

    def tape_size(args, kwargs):
        tracer.count("tensor.tape_entries", len(_arg(args, kwargs, 0, "tape").entries))
        return args, kwargs

    def clipped(args, kwargs, norm):
        tracer.count("training.clipped", float(norm > _arg(args, kwargs, 1, "max_norm")))

    tracer.wrap(training, "backward", "tensor.backward", before=tape_size)
    tracer.wrap(training, "clip_gradients", "training.clip_gradients", after=clipped)
    tracer.wrap(training, "adam_step", "training.adam_step")

    tracer.wrap(model, "lstm_step", "layers.lstm_step")
    tracer.wrap(model, "soft_attention_batch", "layers.soft_attention_batch")

    def trace_eval_hook(args, kwargs):
        hook = kwargs.get("eval_hook", args[4] if len(args) > 4 else None)
        if hook is None:
            return args, kwargs

        def traced_hook(*a, **k):
            idx = tracer.begin(EVAL_HOOK)
            try:
                return hook(*a, **k)
            finally:
                tracer.end(idx)

        if len(args) > 4:
            args = args[:4] + (traced_hook,) + args[5:]
        else:
            kwargs = dict(kwargs, eval_hook=traced_hook)
        return args, kwargs

    def checkpoint_size(args, kwargs, result):
        tracer.count("training.checkpoint_mb", os.path.getsize(args[0]) / 2 ** 20)

    for owner in (cli, training):
        tracer.wrap(owner, "train", "training.train", before=trace_eval_hook)
        tracer.wrap(owner, "save_checkpoint", "training.save_checkpoint", after=checkpoint_size)
        tracer.wrap(owner, "load_checkpoint", "training.load_checkpoint")

    def decoded(args, kwargs, reports):
        max_words = _arg(args, kwargs, 3, "limits").max_words
        sentences = [s for r in reports for s in r.sentences]
        tracer.count("inference.sentences", len(sentences))
        tracer.count("inference.tokens", sum(len(s) for s in sentences))
        tracer.count("inference.capped", sum(
            1 for s in sentences if len(s) == max_words and s[-1] != EOS_ID))
        tracer.count("inference.abnormal", sum(
            1 for r in reports for b in r.branches if b == "abnormal"))

    for owner in (cli, inference):
        tracer.wrap(owner, "generate_corpus", "inference.generate_corpus", after=decoded)

    def scored(args, kwargs, result):
        tracer.count("metrics.hyp_tokens", sum(len(p.hypothesis) for p in args[0]))

    for owner in (cli, metrics):
        tracer.wrap(owner, "compute_metrics", "metrics.compute_metrics", after=scored)
    for name in ("bleu", "rouge_l", "cider_d", "meteor_lite", "distinct_per_index"):
        tracer.wrap(metrics, name, f"metrics.{name}")

    def selected(args, kwargs, result):
        history = list(args[0])
        tracer.count("selection.eligible_share",
                     len(result.eligible) / len(history) if history else 0.0)

    tracer.wrap(cli, "select_model", "selection.select_model", after=selected)


# ---------------------------------------------------------------------------
# per-layer metrics

MS = 1e3

# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "cli.synth_ms": "ms", "cli.train_ms": "ms", "cli.generate_ms": "ms",
    "cli.evaluate_ms": "ms", "cli.select_ms": "ms",
    "data.synth_corpus_ms": "ms", "data.save_corpus_ms": "ms", "data.load_corpus_ms": "ms",
    "model.compute_losses_ms_p50": "ms", "model.compute_losses_ms_p98": "ms",
    "tensor.backward_ms_p50": "ms", "tensor.backward_ms_p98": "ms",
    "tensor.tape_entries": "count",
    "layers.lstm_step_calls": "count", "layers.lstm_step_self_ms": "ms",
    "layers.soft_attention_batch_calls": "count", "layers.soft_attention_batch_self_ms": "ms",
    "training.step_ms_p50": "ms", "training.step_ms_p98": "ms",
    "training.clip_adam_ms_p50": "ms", "training.clipped_share": "ratio",
    "training.eval_hook_ms_p50": "ms", "training.eval_hook_share": "ratio",
    "training.save_checkpoint_ms": "ms", "training.load_checkpoint_ms": "ms",
    "training.checkpoint_mb": "MiB",
    "inference.generate_corpus_ms": "ms", "inference.sentences": "count",
    "inference.tokens": "count", "inference.word_cap_share": "ratio",
    "inference.abnormal_share": "ratio",
    "metrics.bleu_ms": "ms", "metrics.rouge_l_ms": "ms", "metrics.cider_d_ms": "ms",
    "metrics.meteor_lite_ms": "ms", "metrics.distinct_ms": "ms", "metrics.hyp_tokens": "count",
    "selection.select_model_ms": "ms", "selection.eligible_share": "ratio",
    "trace.overhead_ms": "ms",
}


# The per-layer metrics of the JSON line of a traced run, and of
# BENCHMARK.json: all but the p98 ones, which too few samples support on
# paper_step (see ``per_layer_metrics``). A layer that a workload does not
# exercise reads 0 there, as the cli, eval-hook, inference, metrics and
# selection metrics do on paper_step.
IN_JSON_LINE = tuple(name for name in PER_LAYER_UNITS if not name.endswith("_p98"))


class Units:
    """The operations a per-layer number is taken over: the timed
    operations when the layer ran in them, else the set-up repetitions."""

    def __init__(self, tracer: Tracer, timed: list[str], setups: list[str]):
        self.tracer = tracer
        self.timed, self.setups = timed, setups
        self.self_time = tracer.self_times()
        self.by_name: dict[str, list[int]] = {}
        for i, name in enumerate(tracer.names):
            self.by_name.setdefault(name, []).append(i)

    def units_for(self, span: str) -> list[str]:
        ran = {self.tracer.ops[i] for i in self.by_name.get(span, ())}
        return self.timed if ran & set(self.timed) else self.setups

    def _per_unit(self, span: str, value) -> dict[str, float]:
        per_unit = dict.fromkeys(self.units_for(span), 0.0)
        for i in self.by_name.get(span, ()):
            if self.tracer.ops[i] in per_unit:
                per_unit[self.tracer.ops[i]] += value(i)
        return per_unit

    def total_ms(self, span: str, self_only: bool = False) -> tuple[float, int]:
        """Median over units of the summed (self) time of ``span``; returns
        (value, number of spans)."""
        t = self.tracer
        per_unit = self._per_unit(
            span, (lambda i: self.self_time[i]) if self_only else (lambda i: t.ends[i] - t.starts[i]))
        calls = self._per_unit(span, lambda i: 1)
        return (median(per_unit.values()) * MS if per_unit else 0.0), int(sum(calls.values()))

    def calls(self, span: str) -> tuple[float, int]:
        per_unit = self._per_unit(span, lambda i: 1)
        return (median(per_unit.values()) if per_unit else 0.0), int(sum(per_unit.values()))

    def samples_ms(self, span: str) -> list[float]:
        units = set(self.units_for(span))
        t = self.tracer
        return [(t.ends[i] - t.starts[i]) * MS for i in self.by_name.get(span, ())
                if t.ops[i] in units]

    def counter(self, name: str, span: str) -> list[float]:
        return [v for u in self.units_for(span) for v in self.tracer.counts.get(u, {}).get(name, [])]

    def counter_per_unit(self, name: str, span: str) -> float:
        sums = [sum(self.tracer.counts.get(u, {}).get(name, [])) for u in self.units_for(span)]
        return float(median(sums)) if sums else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, timed: list[str], setups: list[str], steps: list[float],
                      overhead_ms: float) -> dict[str, tuple[float | None, int]]:
    """Every per-layer metric as name -> (value, sample count).

    ``steps`` are the training iteration times (s) that ``StepClock`` took
    over the same operations. A p98 whose samples leave fewer than
    ``TAIL_BEYOND`` beyond it has the value None.
    """
    u = Units(tracer, timed, setups)
    out: dict[str, tuple[float, int]] = {}

    for sub in ("synth", "train", "generate", "evaluate", "select"):
        out[f"cli.{sub}_ms"] = u.total_ms(f"cli.{sub}")
    for fn in ("synth_corpus", "save_corpus", "load_corpus"):
        out[f"data.{fn}_ms"] = u.total_ms(f"data.{fn}")

    def pcts(metric: str, xs: list[float]) -> None:
        out[f"{metric}_p50"] = (percentile(xs, 50) if xs else 0.0, len(xs))
        tail = supported_tail(len(xs))
        out[f"{metric}_p98"] = (percentile(xs, 98) if tail and tail >= 98 else None, len(xs))

    pcts("model.compute_losses_ms", u.samples_ms("model.compute_losses"))
    pcts("tensor.backward_ms", u.samples_ms("tensor.backward"))
    tape = u.counter("tensor.tape_entries", "tensor.backward")
    out["tensor.tape_entries"] = (median(tape) if tape else 0.0, len(tape))

    for fn in ("lstm_step", "soft_attention_batch"):
        out[f"layers.{fn}_calls"] = u.calls(f"layers.{fn}")
        out[f"layers.{fn}_self_ms"] = u.total_ms(f"layers.{fn}", self_only=True)

    pcts("training.step_ms", [x * MS for x in steps])
    clip = u.samples_ms("training.clip_gradients")
    adam = u.samples_ms("training.adam_step")
    clip_adam = [a + b for a, b in zip(clip, adam)]
    out["training.clip_adam_ms_p50"] = (percentile(clip_adam, 50) if clip_adam else 0.0,
                                        len(clip_adam))
    clipped = u.counter("training.clipped", "training.clip_gradients")
    out["training.clipped_share"] = (_ratio(sum(clipped), len(clipped)), len(clipped))

    hooks = u.samples_ms(EVAL_HOOK)
    out["training.eval_hook_ms_p50"] = (percentile(hooks, 50) if hooks else 0.0, len(hooks))
    hook_total, _ = u.total_ms(EVAL_HOOK)
    train_total, n_train = u.total_ms("training.train")
    out["training.eval_hook_share"] = (_ratio(hook_total, train_total), n_train)
    out["training.save_checkpoint_ms"] = u.total_ms("training.save_checkpoint")
    out["training.load_checkpoint_ms"] = u.total_ms("training.load_checkpoint")
    sizes = u.counter("training.checkpoint_mb", "training.save_checkpoint")
    out["training.checkpoint_mb"] = (max(sizes) if sizes else 0.0, len(sizes))

    gen = "inference.generate_corpus"
    out["inference.generate_corpus_ms"] = u.total_ms(gen)
    n_gen = len(u.samples_ms(gen))
    sentences = u.counter_per_unit("inference.sentences", gen)
    out["inference.sentences"] = (sentences, n_gen)
    out["inference.tokens"] = (u.counter_per_unit("inference.tokens", gen), n_gen)
    out["inference.word_cap_share"] = (
        _ratio(u.counter_per_unit("inference.capped", gen), sentences), n_gen)
    out["inference.abnormal_share"] = (
        _ratio(u.counter_per_unit("inference.abnormal", gen), sentences), n_gen)

    out["metrics.bleu_ms"] = u.total_ms("metrics.bleu")
    for fn in ("rouge_l", "cider_d", "meteor_lite"):
        out[f"metrics.{fn}_ms"] = u.total_ms(f"metrics.{fn}")
    out["metrics.distinct_ms"] = u.total_ms("metrics.distinct_per_index")
    out["metrics.hyp_tokens"] = (u.counter_per_unit("metrics.hyp_tokens", "metrics.compute_metrics"),
                                 len(u.samples_ms("metrics.compute_metrics")))

    out["selection.select_model_ms"] = u.total_ms("selection.select_model")
    shares = u.counter("selection.eligible_share", "selection.select_model")
    out["selection.eligible_share"] = (median(shares) if shares else 0.0, len(shares))
    out["trace.overhead_ms"] = (overhead_ms, len(timed))
    if list(out) != list(PER_LAYER_UNITS):
        raise RuntimeError("per-layer metrics out of step with PER_LAYER_UNITS")
    return out


def tail_note(n: int) -> str:
    p = supported_tail(n)
    return f"n={n}, tail p{p:g}" if p is not None else f"n={n}, no tail"


# ROADMAP baseline shares of `train` on readme_pipeline, and the tolerance
# (absolute share) within which a traced share counts as agreeing
ROADMAP_SHARES = {
    "forward (compute_losses)": (0.27, ("model.compute_losses",)),
    "backward": (0.17, ("tensor.backward",)),
    "eval-hook decode": (0.44, ("inference.generate_corpus",)),
    "eval-hook metrics": (0.06, ("metrics.compute_metrics",)),
    "checkpoints": (0.01, ("training.save_checkpoint",)),
}
SHARE_TOLERANCE = 0.08


def roadmap_shares(tracer: Tracer, timed: list[str]) -> list[tuple[str, float, float, bool]]:
    """(phase, baseline, measured, agrees) for each phase inside
    ``training.train`` spans of the timed operations."""
    u = Units(tracer, timed, [])
    train_ms, _ = u.total_ms("training.train")
    t = tracer
    inside = [i for i, n in enumerate(t.names) if n == "training.train" and t.ops[i] in timed]
    rows = []
    for phase, (baseline, spans) in ROADMAP_SHARES.items():
        total = 0.0
        for i, name in enumerate(t.names):
            if name in spans and t.ops[i] in timed and any(
                    t.starts[j] <= t.starts[i] and t.ends[i] <= t.ends[j] for j in inside):
                total += t.ends[i] - t.starts[i]
        share = _ratio(total * MS / max(len(timed), 1), train_ms)
        agrees = share < baseline if phase == "checkpoints" else abs(share - baseline) <= SHARE_TOLERANCE
        rows.append((phase, baseline, share, agrees))
    return rows
