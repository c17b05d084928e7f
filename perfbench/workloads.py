"""The three benchmark workloads, their set-up and their correctness gates.

Each workload has ``setup(seed, workdir) -> state`` (run several times per
benchmark run, the last state is kept), ``op(state, index) -> outcome`` (one
operation of the timed phase; the outcome carries its own wall time,
excluding checks) and ``check(state, outcome) -> problems`` (an empty list
when the outputs are correct).

The program is always reached through module attributes at call time
(``hdlm.training.train``, ``hdlm.cli.run``, ...), so the tracer's rebinding
sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hdlm.cli
import hdlm.data
import hdlm.inference
import hdlm.metrics
import hdlm.model
import hdlm.selection
import hdlm.training

DEFAULT_SEED = 9
GATE_MIN_DISTINCT = 4


REFERENCE_INTERVAL_S = 0.5  # least time between reference samples in training


class StepClock:
    """Times training iterations from ``compute_losses`` entry to
    ``adam_step`` exit, and keeps the last optimizer state it saw.

    Between iterations, at most every ``REFERENCE_INTERVAL_S``, it also
    samples the reference kernel, outside the timed iteration; pass no
    reference in a traced run, where the sample would land inside the
    traced ``adam_step`` span. Two rebound names and two clock reads per
    iteration are the only instrumentation in untraced runs.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.phase = "setup"
        self.samples: list[float] = []
        self.adam = None
        self._start = None
        self._last_reference = -math.inf
        self._patched = []

    def install(self) -> None:
        training = hdlm.training
        compute_losses, adam_step = training.compute_losses, training.adam_step
        clock = time.perf_counter

        def timed_compute_losses(*args, **kwargs):
            self._start = clock()
            return compute_losses(*args, **kwargs)

        def timed_adam_step(named, grads, state, *args, **kwargs):
            result = adam_step(named, grads, state, *args, **kwargs)
            end = clock()
            self.samples.append(end - self._start)
            self.adam = state
            if self.reference is not None and end - self._last_reference >= REFERENCE_INTERVAL_S:
                self.reference.sample(self.phase)
                self._last_reference = clock()
            return result

        self._patched = [(training, "compute_losses", compute_losses),
                         (training, "adam_step", adam_step)]
        training.compute_losses = timed_compute_losses
        training.adam_step = timed_adam_step

    def restore(self) -> None:
        for owner, attr, original in self._patched:
            setattr(owner, attr, original)
        self._patched = []


class LineClock(io.TextIOBase):
    """A stdout replacement that timestamps every completed line."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = self.clock()
        parts = (self._partial + text).split("\n")
        self._partial = parts.pop()
        self.lines.extend((now, line) for line in parts)
        return len(text)

    def text(self) -> list[str]:
        return [line for _, line in self.lines]


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _digest(reports) -> str:
    h = hashlib.sha256()
    for r in reports:
        h.update(json.dumps([r.id, r.sentences, r.branches]).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# readme_pipeline: the README quick start through hdlm.cli.run


README_SETTINGS = """\
synth.records = 150
synth.normal_pool = 30
synth.abnormal_pool = 15
synth.zipf_exponent = 1.1
synth.vocab_words = 60
synth.seed = {seed}
model.embed_dim = 24
model.hidden_dim = 24
train.epochs = 80
train.evals_per_epoch = 1
"""

# README transcript at synth.seed = 9
README_TRANSCRIPT = {
    "iterations": 640,
    "final_loss": "80.7924",
    "bleu4": "0.1037",
    "distinct": [4, 3, 2],
    "selected": 640,
}

EVAL_LINE = re.compile(r"^iteration (\d+): BLEU-4 [0-9.]+, distinct \[([0-9, ]*)\]$")
TRAINED_LINE = re.compile(r"^trained (\d+) iterations; final total loss (\S+)$")
SELECT_LINE = re.compile(r"^iteration=(\d+) bleu4=\S+ path=\S+$")
SPLIT_LINE = re.compile(r"^records: \d+ \(train (\d+), val \d+\)$")
README_EPOCHS = 80


@dataclass
class ReadmeState:
    seed: int
    workdir: Path
    config: Path


@dataclass
class Step:
    name: str
    rc: int
    wall_s: float
    stdout: LineClock
    stderr: str


@dataclass
class ReadmeOutcome:
    wall_s: float
    out: Path
    steps: dict[str, Step] = field(default_factory=dict)
    train_start: float = 0.0
    train_records: int = 0
    gate_s: float | None = None


def readme_setup(seed: int, workdir: Path) -> ReadmeState:
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "run.cfg"
    config.write_text(README_SETTINGS.format(seed=seed), encoding="utf-8")
    return ReadmeState(seed, workdir, config)


def readme_commands(state: ReadmeState, out: Path):
    cfg = str(state.config)
    return [
        ("synth", ["synth", "--config", cfg, "--out", str(out / "data")]),
        ("train", ["train", str(out / "data"), "--config", cfg, "--out", str(out / "run")]),
        ("generate", ["generate", str(out / "data" / "val.jsonl"),
                      "--config", str(out / "run" / "resolved.cfg"),
                      "--checkpoint", str(out / "run" / "final.bin"),
                      "--out", str(out / "gen")]),
        ("evaluate", ["evaluate", str(out / "gen" / "generated.jsonl"),
                      str(out / "data" / "val.jsonl"), "--out", str(out / "scores")]),
        ("select", ["select", str(out / "run" / "history.jsonl")]),
    ]


def readme_op(state: ReadmeState, index: int, clock: StepClock, tracer=None) -> ReadmeOutcome:
    out = state.workdir / f"op{index}"
    shutil.rmtree(out, ignore_errors=True)
    outcome = ReadmeOutcome(wall_s=0.0, out=out)
    start = time.perf_counter()
    for name, argv in readme_commands(state, out):
        stdout, stderr = LineClock(), io.StringIO()
        span = tracer.begin(f"cli.{name}") if tracer is not None else None
        t0 = time.perf_counter()
        if name == "train":
            outcome.train_start = t0
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = hdlm.cli.run(argv)
        t1 = time.perf_counter()
        if span is not None:
            tracer.end(span)
        outcome.steps[name] = Step(name, rc, t1 - t0, stdout, stderr.getvalue())
        if rc != 0 and name != "select":
            break
    outcome.wall_s = time.perf_counter() - start
    return outcome


def readme_gate_time(outcome: ReadmeOutcome) -> float | None:
    """Seconds from the start of ``train`` to the printed eval line of the
    first checkpoint with distinct@0 >= the gate."""
    train = outcome.steps.get("train")
    if train is None:
        return None
    for stamp, line in train.stdout.lines:
        m = EVAL_LINE.match(line)
        if m and m.group(2) and int(m.group(2).split(",")[0]) >= GATE_MIN_DISTINCT:
            return stamp - outcome.train_start
    return None


def readme_check(state: ReadmeState, outcome: ReadmeOutcome) -> list[str]:
    try:
        outcome.gate_s = readme_gate_time(outcome)
        return _readme_problems(state, outcome)
    finally:
        shutil.rmtree(outcome.out, ignore_errors=True)


def _readme_problems(state: ReadmeState, outcome: ReadmeOutcome) -> list[str]:
    problems: list[str] = []
    steps = outcome.steps
    for name in ("synth", "train", "generate", "evaluate"):
        if name not in steps:
            problems.append(f"{name} did not run")
        elif steps[name].rc != 0:
            problems.append(f"{name} exited {steps[name].rc}: {steps[name].stderr.strip()}")
    if problems:
        return problems
    run = outcome.out / "run"
    losses = hdlm.training.load_training_log(run / "losses.jsonl")
    if not losses or not all(_finite(e.values()) for e in losses):
        problems.append("losses.jsonl is empty or holds a non-finite value")
    history = hdlm.selection.load_history(run / "history.jsonl")
    scores = json.loads((outcome.out / "scores" / "metrics.json").read_text())
    if not history:
        return problems + ["history.jsonl is empty"]
    if scores["bleu4"] != history[-1].bleu4 or tuple(scores["distinct"]) != history[-1].distinct:
        problems.append(
            f"evaluate (BLEU-4 {scores['bleu4']}, distinct {scores['distinct']}) differs from "
            f"the last history entry (BLEU-4 {history[-1].bleu4}, distinct {list(history[-1].distinct)})"
        )
    expected = hdlm.selection.select_model(history, min_distinct_m0=GATE_MIN_DISTINCT).chosen
    select = steps.get("select")
    if select is None:
        problems.append("select did not run")
    elif expected is None:
        if select.rc != 1:
            problems.append(f"select exited {select.rc} although no checkpoint passes the gate")
    else:
        m = SELECT_LINE.match(select.stdout.text()[-1]) if select.stdout.lines else None
        if select.rc != 0 or m is None or int(m.group(1)) != expected.iteration:
            problems.append(f"select picked {select.stdout.text()} (exit {select.rc}), "
                            f"history says iteration {expected.iteration}")
    split = SPLIT_LINE.match(steps["synth"].stdout.text()[0])
    outcome.train_records = int(split.group(1)) * README_EPOCHS if split else 0
    if not split:
        problems.append("synth did not report its train split")
    if state.seed == DEFAULT_SEED:
        problems += readme_transcript_problems(outcome)
    return problems


def readme_transcript_problems(outcome: ReadmeOutcome) -> list[str]:
    want = README_TRANSCRIPT
    train_lines = outcome.steps["train"].stdout.text()
    trained = [TRAINED_LINE.match(line) for line in train_lines]
    trained = [m for m in trained if m]
    got = {
        "iterations": int(trained[0].group(1)) if trained else None,
        "final_loss": trained[0].group(2) if trained else None,
    }
    table = dict(
        line.split(None, 1) for line in outcome.steps["evaluate"].stdout.text()
        if line and not line.startswith("wrote")
    )
    got["bleu4"] = table.get("BLEU-4", "").strip()
    got["distinct"] = [int(v) for k, v in table.items() if k.startswith("distinct@")]
    m = SELECT_LINE.match(outcome.steps["select"].stdout.text()[-1]) \
        if outcome.steps["select"].stdout.lines else None
    got["selected"] = int(m.group(1)) if m else None
    return [f"transcript {k}: expected {want[k]!r}, got {got[k]!r}" for k in want if got[k] != want[k]]


# ---------------------------------------------------------------------------
# paper_step: paper-scale training steps, then one checkpoint round trip

PAPER_STEPS = 3
PAPER_BATCH = 16


@dataclass
class PaperState:
    seed: int
    workdir: Path
    config: object
    params: object
    initial: dict
    target: object
    records: list
    first: object = None


@dataclass
class PaperOutcome:
    wall_s: float
    train_s: float
    records: int
    losses: list
    roundtrip: list[str]


def paper_setup(seed: int, workdir: Path) -> PaperState:
    synth_cfg = hdlm.data.SynthConfig(
        seed=seed, records=PAPER_STEPS * PAPER_BATCH, normal_pool=30, abnormal_pool=15,
        zipf_exponent=1.1, vocab_words=60, locations=196, channels=1024,
    )
    corpus_dir = workdir / "corpus"
    shutil.rmtree(corpus_dir, ignore_errors=True)
    corpus_dir.mkdir(parents=True)
    synth = hdlm.data.synth_corpus(synth_cfg)
    hdlm.data.save_corpus(corpus_dir / "train.jsonl", synth.records)
    records = hdlm.data.load_corpus(corpus_dir / "train.jsonl")
    config = hdlm.model.ModelConfig(
        vocab_size=synth.vocab.size, mti_labels=synth_cfg.tag_count, channels=1024,
        embed_dim=512, hidden_dim=512, locations=196,
        max_sentences=synth_cfg.max_sentences + 1, max_words=synth_cfg.max_words + 3,
    )
    params = hdlm.model.ModelParams.create(config, seed=seed)
    initial = {n: t.data.copy() for n, t in params.named_parameters().items()}
    target = hdlm.model.ModelParams.create(config, seed=seed + 1)
    return PaperState(seed, workdir, config, params, initial, target, records)


def paper_op(state: PaperState, index: int, clock: StepClock, tracer=None) -> PaperOutcome:
    for name, t in state.params.named_parameters().items():
        np.copyto(t.data, state.initial[name])
    clock.adam = None
    path = state.workdir / "paper.ckpt"
    train_cfg = hdlm.training.TrainConfig(epochs=1, batch_size=PAPER_BATCH, seed=state.seed)
    t0 = time.perf_counter()
    result = hdlm.training.train(state.params, state.config, state.records, train_cfg)
    t1 = time.perf_counter()
    hdlm.training.save_checkpoint(path, state.params, state.config, result.iterations, clock.adam)
    iteration, adam = hdlm.training.load_checkpoint(path, state.target, state.config)
    t2 = time.perf_counter()
    problems = []
    if iteration != result.iterations:
        problems.append(f"checkpoint iteration {iteration} != {result.iterations}")
    saved = state.params.named_parameters()
    for name, t in state.target.named_parameters().items():
        if t.data.tobytes() != saved[name].data.tobytes():
            problems.append(f"parameter {name} changed in the checkpoint round trip")
    if clock.adam is None or adam is None:
        problems.append("no optimizer state was saved and restored")
    else:
        for kind in ("m", "v"):
            for name, arr in getattr(clock.adam, kind).items():
                if getattr(adam, kind)[name].tobytes() != arr.tobytes():
                    problems.append(f"adam/{kind}/{name} changed in the checkpoint round trip")
        if adam.t != clock.adam.t:
            problems.append(f"adam step {adam.t} != {clock.adam.t}")
    path.unlink()
    return PaperOutcome(
        wall_s=t2 - t0, train_s=t1 - t0,
        records=len(state.records) * train_cfg.epochs,
        losses=[e["total"] for e in result.history], roundtrip=problems,
    )


def paper_check(state: PaperState, outcome: PaperOutcome) -> list[str]:
    problems = list(outcome.roundtrip)
    if len(outcome.losses) != PAPER_STEPS or not _finite(outcome.losses):
        problems.append(f"expected {PAPER_STEPS} finite losses, got {outcome.losses}")
    first = state.first
    if first is not None and outcome.losses != first.losses:
        problems.append(f"losses {outcome.losses} differ from the first operation's {first.losses}")
    return problems


# ---------------------------------------------------------------------------
# eval_heavy: decode and score a 400-record validation set

EVAL_TRAIN_RECORDS = 160
EVAL_VAL_RECORDS = 400
EVAL_EPOCHS = 8
EVAL_LEARNING_RATE = 1e-2
EVAL_TOLERANCE = 1e-9  # relative, on every metric value

# recorded at the default seed; the short training leaves a decoder that
# emits one stock sentence at every position (distinct@m = 1)
EVAL_GOLDEN = {
    "digest": "1aae2ec5a807632c98ff998f028296fc1708911d29442f884cce8073b486dc76",
    "metrics": {
        "bleu1": 0.25123456790123455, "bleu2": 0.18596776195796497,
        "bleu3": 0.16345079881202637, "bleu4": 0.14972884977376794,
        "rouge_l": 0.2985271679892563, "cider_d": 0.044459168330706476,
        "meteor": 0.3052171971939785, "distinct": [1, 1, 1, 1, 1, 1, 1, 1, 1],
    },
}


@dataclass
class EvalState:
    seed: int
    config: object
    params: object
    limits: object
    val: list
    train_records: int
    train_s: float
    first: object = None


@dataclass
class EvalOutcome:
    wall_s: float
    decode_s: float
    score_s: float
    reports: list
    metrics: object
    digest: str


def eval_setup(seed: int, workdir: Path) -> EvalState:
    synth_cfg = hdlm.data.SynthConfig(
        seed=seed, records=EVAL_TRAIN_RECORDS + EVAL_VAL_RECORDS, normal_pool=30,
        abnormal_pool=15, zipf_exponent=1.1, vocab_words=60,
        min_sentences=4, max_sentences=8, min_words=6, max_words=12,
    )
    corpus_dir = workdir / "corpus"
    shutil.rmtree(corpus_dir, ignore_errors=True)
    corpus_dir.mkdir(parents=True)
    synth = hdlm.data.synth_corpus(synth_cfg)
    hdlm.data.save_corpus(corpus_dir / "train.jsonl", synth.records[:EVAL_TRAIN_RECORDS])
    hdlm.data.save_corpus(corpus_dir / "val.jsonl", synth.records[EVAL_TRAIN_RECORDS:])
    train_recs = hdlm.data.load_corpus(corpus_dir / "train.jsonl")
    val = hdlm.data.load_corpus(corpus_dir / "val.jsonl")
    config = hdlm.model.ModelConfig(
        vocab_size=synth.vocab.size, mti_labels=synth_cfg.tag_count,
        channels=synth_cfg.channels, locations=synth_cfg.locations,
        embed_dim=24, hidden_dim=24,
        max_sentences=synth_cfg.max_sentences + 1, max_words=synth_cfg.max_words + 3,
    )
    params = hdlm.model.ModelParams.create(config, seed=seed)
    t0 = time.perf_counter()
    hdlm.training.train(params, config, train_recs, hdlm.training.TrainConfig(
        learning_rate=EVAL_LEARNING_RATE, epochs=EVAL_EPOCHS, seed=seed))
    train_s = time.perf_counter() - t0
    limits = hdlm.inference.GenerationLimits(config.max_sentences, config.max_words)
    return EvalState(seed, config, params, limits, val, len(train_recs) * EVAL_EPOCHS, train_s)


def eval_op(state: EvalState, index: int, clock=None, tracer=None) -> EvalOutcome:
    t0 = time.perf_counter()
    reports = hdlm.inference.generate_corpus(state.params, state.config, state.val, state.limits)
    t1 = time.perf_counter()
    pairs = hdlm.metrics.build_eval_pairs(reports, state.val)
    metrics = hdlm.metrics.compute_metrics(pairs, paragraphs=[r.sentences for r in reports])
    t2 = time.perf_counter()
    return EvalOutcome(t2 - t0, t1 - t0, t2 - t1, reports, metrics, _digest(reports))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EVAL_TOLERANCE * max(abs(a), abs(b), 1e-12)


def eval_check(state: EvalState, outcome: EvalOutcome, golden=EVAL_GOLDEN) -> list[str]:
    problems = []
    ids = [r.id for r in outcome.reports]
    if ids != [r.id for r in state.val]:
        problems.append("generated reports do not follow the validation records")
    m = outcome.metrics.as_dict()
    for key, value in m.items():
        if key == "distinct":
            if any(v < 1 or v > len(ids) for v in value):
                problems.append(f"distinct counts {value} out of range")
        elif not (math.isfinite(value) and value >= 0.0) or (key != "cider_d" and value > 1.0):
            problems.append(f"{key} = {value} out of range")
    if state.first is not None:
        if outcome.digest != state.first.digest:
            problems.append("tokens or branches differ from the first operation")
        if m != state.first.metrics.as_dict():
            problems.append("metric values differ from the first operation")
    if state.seed == DEFAULT_SEED:
        if outcome.digest != golden["digest"]:
            problems.append(f"token/branch digest {outcome.digest} != recorded {golden['digest']}")
        for key, want in golden["metrics"].items():
            got = m[key]
            same = got == want if key == "distinct" else _close(got, want)
            if not same:
                problems.append(f"{key} = {got!r}, recorded {want!r}")
    return problems


# name -> (setup, op, check)
WORKLOADS = {
    "readme_pipeline": (readme_setup, readme_op, readme_check),
    "paper_step": (paper_setup, paper_op, paper_check),
    "eval_heavy": (eval_setup, eval_op, eval_check),
}
