"""Tests of the benchmark's own logic: self time, the tail rule and the
correctness gates.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import probes  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer, self_times, supported_tail  # noqa: E402

import hdlm  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_nested_children():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    t = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    a = t.begin("a")
    b = t.begin("b")
    c = t.begin("c")
    t.end(c)
    t.end(b)
    d = t.begin("d")
    t.end(d)
    t.end(a)
    assert t.parents == [-1, a, b, a]
    assert t.self_times() == [3, 2, 1, 4]


def test_self_time_counts_overlapping_children_once():
    # children [1, 5] and [3, 7] of [0, 10] cover 6 units, not 8
    assert self_times([0, 1, 3], [10, 5, 7], [-1, 0, 0])[0] == 4


def test_wrap_records_spans_and_restores():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    t = Tracer()
    t.wrap(Owner, "f", "owner.f", after=lambda a, k, r: t.count("seen", r))
    assert Owner.f(1) == 2
    t.restore()
    assert Owner.f(1) == 2
    assert t.names == ["owner.f"] and t.counts["setup"]["seen"] == [2.0]


@pytest.mark.parametrize("n, tail", [
    (9, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
    (500, 98.0), (640, 98.0), (999, 98.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_keeps_ten_samples_beyond(n, tail):
    assert supported_tail(n) == tail
    if tail is not None:
        assert round(n * (100 - tail) / 100, 9) >= 10


def test_p98_is_left_out_without_ten_samples_beyond():
    few = probes.per_layer_metrics(Tracer(), ["op0"], [], [1.0] * 21, 0.0)
    assert few["training.step_ms_p50"] == (1000.0, 21)
    assert few["training.step_ms_p98"] == (None, 21)
    many = probes.per_layer_metrics(Tracer(), ["op0"], [], [i / 1e3 for i in range(500)], 0.0)
    assert many["training.step_ms_p98"] == (pytest.approx(489.02), 500)


def test_reference_sample_stays_out_of_timed_steps(monkeypatch):
    pause = 0.2
    sampled = []

    class SlowReference:
        def sample(self, phase):
            time.sleep(pause)
            sampled.append(phase)

    monkeypatch.setattr(hdlm.training, "compute_losses", lambda *a: None)
    monkeypatch.setattr(hdlm.training, "adam_step", lambda named, grads, state: None)
    # untraced: the sample follows the step; traced: no reference is passed
    for reference, tracer in ((SlowReference(), None), (None, Tracer())):
        clock = W.StepClock(reference)
        clock.install()
        if tracer is not None:
            probes.install(tracer)
        hdlm.training.compute_losses()
        hdlm.training.adam_step({}, {}, "state")
        if tracer is not None:
            tracer.restore()
        clock.restore()
        assert len(clock.samples) == 1 and clock.samples[0] < pause
        assert clock.adam == "state"
        if tracer is not None:
            adam = tracer.names.index("training.adam_step")
            assert tracer.ends[adam] - tracer.starts[adam] < pause
    assert sampled == ["setup"]


def _tiny_eval_state():
    synth = hdlm.synth_corpus(hdlm.SynthConfig(seed=3, records=6, normal_pool=5, abnormal_pool=3,
                                               vocab_words=20, locations=4, channels=6))
    config = hdlm.ModelConfig(vocab_size=synth.vocab.size, mti_labels=8, channels=6,
                              embed_dim=8, hidden_dim=8, locations=4,
                              max_sentences=3, max_words=5)
    params = hdlm.ModelParams.create(config, seed=0)
    limits = hdlm.GenerationLimits(max_sentences=3, max_words=5)
    return W.EvalState(seed=3, config=config, params=params, limits=limits,
                       val=synth.records, train_records=0, train_s=1.0)


def _perturbed(outcome):
    reports = [hdlm.GeneratedReport(r.id, [list(s) for s in r.sentences], list(r.branches),
                                    r.stop_probs, r.abnormal_probs) for r in outcome.reports]
    first = reports[0].sentences[0]
    first[0] = 4 if first[0] != 4 else 5
    return W.EvalOutcome(outcome.wall_s, outcome.decode_s, outcome.score_s, reports,
                         outcome.metrics, W._digest(reports))


def test_perturbed_decode_fails_gate_and_counts_as_error():
    state = _tiny_eval_state()
    good = W.eval_op(state, 0)
    assert W.eval_check(state, good) == []
    state.first = good
    bad = _perturbed(good)
    assert any("differ from the first" in p for p in W.eval_check(state, bad))

    # a clock that ticks once per read lets exactly four operations fit
    outputs = iter([good, bad, good, bad])
    outcomes, failures, attempted = run.run_ops(
        lambda i: next(outputs), lambda o: W.eval_check(state, o), seconds=12,
        clock=FakeClock(range(100)))
    assert attempted == 4 and [i for i, _ in failures] == [1, 3]
    assert len(failures) / attempted == 0.5


def test_eval_gate_at_default_seed_compares_recorded_values():
    state = _tiny_eval_state()
    state.seed = W.DEFAULT_SEED
    outcome = W.eval_op(state, 0)
    golden = {"digest": outcome.digest, "metrics": outcome.metrics.as_dict()}
    assert W.eval_check(state, outcome, golden) == []
    shifted = dict(golden["metrics"], bleu1=golden["metrics"]["bleu1"] * (1 + 1e-6) + 1e-6)
    assert W.eval_check(state, outcome, {"digest": golden["digest"], "metrics": shifted})
    assert W.eval_check(state, _perturbed(outcome), golden)


def _readme_outcome(final_loss="80.7924", bleu4="0.1037", selected=640):
    def lines(*text):
        clock = W.LineClock(clock=lambda: 0.0)
        clock.write("\n".join(text) + "\n")
        return clock

    steps = {
        "train": W.Step("train", 0, 1.0, lines(
            "iteration 640: BLEU-4 0.1037, distinct [4, 3, 2]",
            f"trained 640 iterations; final total loss {final_loss}",
            "history: run/history.jsonl (80 checkpoints)"), ""),
        "evaluate": W.Step("evaluate", 0, 1.0, lines(
            "BLEU-1      0.2200", f"BLEU-4      {bleu4}", "distinct@0  4",
            "distinct@1  3", "distinct@2  2", "wrote scores/metrics.json"), ""),
        "select": W.Step("select", 0, 1.0, lines(
            f"iteration={selected} bleu4=0.1037 path=run/checkpoints/ckpt_000640.bin"), ""),
    }
    return W.ReadmeOutcome(wall_s=3.0, out=Path("."), steps=steps)


def test_readme_transcript_gate():
    assert W.readme_transcript_problems(_readme_outcome()) == []
    assert W.readme_transcript_problems(_readme_outcome(final_loss="80.7925"))
    assert W.readme_transcript_problems(_readme_outcome(bleu4="0.1036"))
    assert W.readme_transcript_problems(_readme_outcome(selected=632))


def test_gate_time_uses_first_line_reaching_the_gate():
    clock = W.LineClock(clock=FakeClock([5.0, 7.0, 9.0]))
    clock.write("iteration 8: BLEU-4 0.0000, distinct [1, 1]\n")
    clock.write("iteration 16: BLEU-4 0.0100, distinct [4, 1]\n")
    clock.write("iteration 24: BLEU-4 0.0200, distinct [5, 2]\n")
    outcome = W.ReadmeOutcome(wall_s=1.0, out=Path("."), train_start=1.0,
                              steps={"train": W.Step("train", 0, 1.0, clock, "")})
    assert W.readme_gate_time(outcome) == 6.0


def test_benchmark_json_lists_the_gated_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.GATED.values())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["per_layer"]] == list(probes.IN_JSON_LINE)
    assert [m["unit"] for m in spec["per_layer"]] == [
        probes.PER_LAYER_UNITS[k] for k in probes.IN_JSON_LINE]
