"""Benchmark of the hdlm synth -> train -> decode -> score -> select loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload readme_pipeline --seed 9 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
reruns the workload with per-layer spans and reports the per-layer metrics,
their sample counts and the tracing overhead.  Either way the last line of
stdout is one JSON object {correct, attempted, failed, metrics}; everything
above it is a human-readable report.  Full results (environment, every
metric, sample counts, failures) go to ``.perfbench/`` in the checkout.

One process, one caller, closed loop: each operation starts after the
previous one returns.  BLAS is pinned to one thread (at most nproc).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
WORKLOAD_NAMES = ("readme_pipeline", "paper_step", "eval_heavy")
SETUP_REPS = 5

# The metrics BENCHMARK.json lists as end_to_end, in order, with units.
GATED = {
    "setup_s": "s",
    "train_step_ms": "ms",
    "peak_rss_mb": "MiB",
}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import hdlm.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=9)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas() -> None:
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_seconds(root: Path) -> float:
    """Import time of ``hdlm.cli`` in a fresh interpreter, as a user of the
    command line pays it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def run_ops(op, check, seconds: float, on_success=None, clock=time.perf_counter):
    """Closed loop: run ``op(index)`` until ``seconds`` have passed or the
    next operation would overrun them (at least one operation).  Returns
    (outcomes, failures, attempted) where a failure is (index, problems)."""
    outcomes, failures = [], []
    start = clock()
    index = 0
    while True:
        t0 = clock()
        try:
            outcome = op(index)
            problems = check(outcome)
        except Exception as exc:  # a failed operation is counted, never fatal
            outcome, problems = None, [f"{type(exc).__name__}: {exc}"]
        took = clock() - t0
        if problems:
            failures.append((index, problems))
        else:
            outcomes.append(outcome)
            if on_success is not None:
                on_success(outcome)
        index += 1
        if clock() - start + took > seconds:
            return outcomes, failures, index


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hdlm" / "__init__.py").is_file():
        print(f"error: {root} holds no src/hdlm; run from the root of an hdlm checkout",
              file=sys.stderr)
        return 2
    pin_blas()
    sys.path.insert(0, str(root / "src"))
    import hdlm

    if Path(hdlm.__file__).resolve().parent != (root / "src" / "hdlm").resolve():
        print(f"error: imported hdlm from {hdlm.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    out_dir = root / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, root, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root: Path, out_dir: Path, workdir: Path) -> int:
    # imported here: numpy must not load before pin_blas
    import envinfo
    import probes
    import workloads
    from reference import NOMINAL_S, Reference
    from spans import Tracer, median

    setup_fn, op_fn, check_fn = workloads.WORKLOADS[args.workload]
    reference = Reference()
    tracer = Tracer() if args.trace else None
    clock = workloads.StepClock(reference if tracer is None else None)
    clock.install()
    if tracer is not None:
        probes.install(tracer)

    setup_times, setup_steps = [], []
    state = None
    for k in range(SETUP_REPS):
        imported = import_seconds(root)
        state = None  # free the previous set-up before building the next
        if tracer is not None:
            tracer.op = f"setup{k}"
        first_step = len(clock.samples)
        reference.sample("setup")
        t0 = time.perf_counter()
        state = setup_fn(args.seed, workdir)
        setup_times.append(imported + time.perf_counter() - t0)
        reference.sample("setup")
        setup_steps += clock.samples[first_step:]
    clock.phase = "ops"

    def remember_first(outcome):
        if hasattr(state, "first") and state.first is None:
            state.first = outcome

    def check(outcome):
        reference.sample("ops")
        return check_fn(state, outcome)

    untraced_wall = None
    if tracer is None:
        first_step = len(clock.samples)
        outcomes, failures, attempted = run_ops(
            lambda i: op_fn(state, i, clock), check, args.seconds, remember_first)
        op_steps = clock.samples[first_step:]
    else:
        # one untraced operation first: the tracing overhead is the traced
        # operations' median wall minus its wall
        tracer.restore()
        base, failures, _ = run_ops(lambda i: op_fn(state, i, clock), check, 0.0, remember_first)
        untraced_wall = base[0].wall_s if base else None
        failures = [(f"untraced {i}", p) for i, p in failures]
        probes.install(tracer)
        first_step = len(clock.samples)

        def traced_op(index):
            tracer.op = f"op{index}"
            return op_fn(state, index, clock, tracer)

        outcomes, traced_failures, attempted = run_ops(
            traced_op, check, args.seconds, remember_first)
        failures += traced_failures
        attempted += 1
        op_steps = clock.samples[first_step:]
        tracer.restore()
    clock.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = envinfo.describe(root)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for index, problems in failures:
        for problem in problems:
            print(f"FAILED op {index}: {problem}")
    failed = len(failures)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "failures": failures, **result}

    if tracer is None:
        steps = op_steps or setup_steps
        speed = {"setup_s": reference.factor("setup"),
                 "train_step_ms": reference.factor("ops" if op_steps else "setup")}
        e2e = end_to_end(args.workload, outcomes, state, steps, setup_times,
                         peak_rss_mb, failed, attempted, speed)
        print("end-to-end metrics (tracing off):")
        for name, (value, unit, n) in e2e.items():
            note = f"  (n={n})" if n is not None else ""
            print(f"  {name:24s} {fmt(value):>12s} {unit}{note}")
        report["end_to_end"] = {k: {"value": v, "unit": u, "samples": n}
                                for k, (v, u, n) in e2e.items()}
        report["reference_ms"] = {phase: [x * 1e3 for x in xs]
                                  for phase, xs in reference.samples.items()}
        print(f"reference kernel (nominal {NOMINAL_S * 1e3:.2f} ms): " + ", ".join(
            f"{phase} median {median(xs) * 1e3:.2f} ms (n={len(xs)})"
            for phase, xs in reference.samples.items()))
        missing = [k for k in GATED if e2e[k][0] is None]
        if missing:
            print(f"error: no value for {missing}", file=sys.stderr)
            return 1
        result["metrics"] = {k: {"value": e2e[k][0], "unit": u} for k, u in GATED.items()}
    else:
        traced = [f"op{i}" for i in range(attempted - 1)]
        setups = [f"setup{k}" for k in range(SETUP_REPS)]
        traced_walls = [o.wall_s for o in outcomes]
        overhead_ms = ((median(traced_walls) - untraced_wall) * 1e3
                       if traced_walls and untraced_wall is not None else 0.0)
        layers = probes.per_layer_metrics(tracer, traced, setups, op_steps or setup_steps,
                                          overhead_ms)
        print(f"per-layer metrics (traced; untraced wall {fmt(untraced_wall)} s, "
              f"traced wall median {fmt(median(traced_walls) if traced_walls else None)} s):")
        for name, (value, n) in layers.items():
            print(f"  {name:36s} {fmt(value):>12s} {probes.PER_LAYER_UNITS[name]:6s} "
                  f"({probes.tail_note(n)})")
        if args.workload == "readme_pipeline":
            print(f"shares of `train` against the ROADMAP baseline "
                  f"(tolerance ±{probes.SHARE_TOLERANCE:.2f}):")
            for phase, baseline, share, agrees in probes.roadmap_shares(tracer, traced):
                verdict = "agrees" if agrees else "DISAGREES"
                print(f"  {phase:26s} baseline {baseline:5.2f}  traced {share:5.3f}  {verdict}")
        report["per_layer"] = {k: {"value": v, "unit": probes.PER_LAYER_UNITS[k], "samples": n}
                               for k, (v, n) in layers.items()}
        result["metrics"] = {k: {"value": layers[k][0], "unit": probes.PER_LAYER_UNITS[k]}
                             for k in probes.IN_JSON_LINE}
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def end_to_end(workload, outcomes, state, steps, setup_times, peak_rss_mb, failed, attempted,
               speed):
    """Every end-to-end metric of the workload as name -> (value, unit,
    sample count); the value is None where the workload has no such
    operation.  ``speed`` maps each gated time to the reference factor that
    brings it to nominal machine speed; the raw time is kept as ``*_raw``."""
    from spans import median, percentile, supported_tail

    def med(xs):
        return median(xs) if xs else None

    def step_ms(p):
        return (percentile(steps, p) * 1e3 if steps else None, "ms", len(steps))

    train_rps = decode_rps = score_pps = gate = None
    if workload == "readme_pipeline":
        train_rps = med([o.train_records / o.steps["train"].wall_s for o in outcomes])
        gate = med([o.gate_s for o in outcomes if o.gate_s is not None])
    elif workload == "paper_step":
        train_rps = med([o.records / o.train_s for o in outcomes])
    else:
        train_rps = state.train_records / state.train_s
        decode_rps = med([len(state.val) / o.decode_s for o in outcomes])
        score_pps = med([len(state.val) / o.score_s for o in outcomes])
    n = len(outcomes)
    raw_step = step_ms(50)
    metrics = {
        "setup_s": (median(setup_times) * speed["setup_s"], "s", len(setup_times)),
        "setup_s_raw": (median(setup_times), "s", len(setup_times)),
        "train_step_ms": ((raw_step[0] * speed["train_step_ms"] if steps else None),
                          "ms", len(steps)),
        "train_step_ms_raw": raw_step,
        "wall_s": (med([o.wall_s for o in outcomes]), "s", n),
    }
    tail = supported_tail(len(steps))
    if tail is not None and tail > 50:
        metrics[f"train_step_ms_p{tail:g}"] = step_ms(tail)
    return metrics | {
        "train_records_per_s": (train_rps, "records/s", n),
        "time_to_gate_s": (gate, "s", n),
        "decode_reports_per_s": (decode_rps, "reports/s", n),
        "score_pairs_per_s": (score_pps, "pairs/s", n),
        "peak_rss_mb": (peak_rss_mb, "MiB", None),
        "error_rate": (failed / attempted, "ratio", attempted),
    }


if __name__ == "__main__":
    sys.exit(main())
