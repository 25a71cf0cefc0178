"""Benchmark runner for groupft: one workload per process, closed loop.

    python3 perfbench/run.py --workload euclid|motion|nilpotent|all \
        [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
set-up time (median of fresh processes), sweep passes repeated for
``--seconds``, and the single check.  With ``--trace 1`` it alternates
untraced and traced passes (sweep plus single check) for ``--seconds`` and
reports the per-layer metrics and the tracing overhead.  Either way it
checks every number it produced, prints a table of the metrics, writes a
full record (environment, every check's number or error class) under
perfbench/results/, and prints as its last line one JSON object with keys
correct, attempted, failed, metrics.
It exits 1 when a completed check gave a wrong number.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("euclid", "motion", "nilpotent")

SETUP_PROBES = 5
MIN_PASSES = 2  # sweep passes per run, at least
MIN_SINGLES = 2  # single checks per run, at least
SINGLE_S = 4.0  # repeat the single check until this much raw time is measured

END_TO_END = {
    "checks_per_s": "1/s",
    "single_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "1",
    "plancherel_digits": "digits",
}


def cap_blas_threads() -> tuple[int, int]:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        want = int(value) if value.isdigit() and int(value) > 0 else nproc
        os.environ[var] = str(min(want, nproc))
    return nproc, int(os.environ["OPENBLAS_NUM_THREADS"])


def import_library():
    """Import groupft from this checkout's src/ (and nothing else) plus our modules."""
    if not (SRC / "groupft").is_dir():
        raise SystemExit(f"groupft sources not found at {SRC / 'groupft'}")
    sys.path.insert(0, str(SRC))
    import groupft.fields

    if Path(groupft.fields.__file__).resolve().parent != SRC / "groupft":
        raise SystemExit(f"imported groupft from {groupft.fields.__file__}, not {SRC}")
    import spans
    import workloads

    return spans, workloads


def environment(seed: int, nproc: int, blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads,
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
    }


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh process until its set-up is done."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def cross_check(wl, sweep_numbers: dict, single_numbers: dict, same_tol: float) -> list[str]:
    """The single check must reproduce the sweep's Plancherel ratio on its field."""
    want = sweep_numbers.get(wl.reference)
    got = single_numbers.get("single.plancherel")
    if want is None and got is None:
        return []
    if want is None or got is None or abs(got - want) > same_tol * abs(want):
        return [f"single-check Plancherel {got!r} != sweep {wl.reference} {want!r}"]
    return []


def typical_total(samples: list[dict[str, tuple[float, float]]], which: int) -> float:
    """Sum over units of each unit's median time across repeats.

    ``which`` picks the raw (0) or calibrated (1) time of reference.Reference.time_units.
    """
    return sum(statistics.median(s[label][which] for s in samples) for label in samples[0])


def run_pass(wl, ctx, seed, tally, tracer=None, index=0) -> float:
    """One sweep plus one single check; returns its wall time."""
    start = time.perf_counter()
    if tracer is not None:
        tracer.run = f"pass{index}.sweep"
    for _ in wl.sweep(ctx, seed, tally):
        pass
    if tracer is not None:
        tracer.run = f"pass{index}.single"
    for _ in wl.single(ctx, wl.single_input(ctx, seed), tally):
        pass
    return time.perf_counter() - start


def measure(name, wl, workloads, seed, seconds) -> dict:
    """Untraced run: the end-to-end metrics, times calibrated by the reference kernel."""
    from reference import Reference  # loads numpy: only after cap_blas_threads

    reference = Reference()
    probes = [reference.time_call(lambda: probe_setup(name)) for _ in range(SETUP_PROBES)]
    ctx = wl.setup()
    sweeps, sweep_units = [], []
    start = time.perf_counter()
    while len(sweeps) < MIN_PASSES or time.perf_counter() - start < seconds:
        sweeps.append(workloads.Tally())
        sweep_units.append(reference.time_units(wl.sweep(ctx, seed, sweeps[-1])))
    singles, single_units = [], []
    while len(singles) < MIN_SINGLES or sum(r for u in single_units for r, _ in u.values()) < SINGLE_S:
        f = wl.single_input(ctx, seed)
        singles.append(workloads.Tally())
        single_units.append(reference.time_units(wl.single(ctx, f, singles[-1])))
    first, single = sweeps[0], singles[0]
    tallies = sweeps + singles
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    metrics = {
        "checks_per_s": first.completed / typical_total(sweep_units, 1),
        "single_s": typical_total(single_units, 1),
        "setup_s": statistics.median(c for _, c in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_frac": 1.0 - failed / attempted,
        "plancherel_digits": statistics.fmean(first.digits),
    }
    wrong = [w for t in tallies for w in t.wrong]
    wrong += cross_check(wl, first.numbers, single.numbers, workloads.SAME_TOL)
    return {
        "units": END_TO_END,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "wrong": sorted(set(wrong)),
        "checks": {**first.numbers, **single.numbers},
        "errors": {**first.errors, **single.errors},
        "repeat_identical": all(t.numbers == first.numbers for t in sweeps)
        and all(t.numbers == single.numbers for t in singles),
        "uncalibrated": {
            "checks_per_s": first.completed / typical_total(sweep_units, 0),
            "single_s": typical_total(single_units, 0),
            "setup_s": statistics.median(r for r, _ in probes),
        },
        "reference_s": reference.times,
        "sweep_units_s": sweep_units,
        "single_units_s": single_units,
        "setup_probes_s": probes,
    }


def trace(name, wl, spans, workloads, seed, seconds) -> dict:
    """Traced run: per-layer metrics and the tracing overhead.

    After an untraced warm-up pass, untraced and traced passes alternate
    in pairs (which goes first alternates too) until ``seconds`` elapse;
    the overhead is the median over pairs of traced minus untraced wall.
    """
    tracer = spans.Tracer()
    with tracer:
        ctx = wl.setup()
    tallies = [workloads.Tally()]
    run_pass(wl, ctx, seed, tallies[0])
    overheads, walls = [], []
    start = time.perf_counter()
    while not overheads or time.perf_counter() - start < seconds:
        index = len(overheads)
        wall = {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            tally = workloads.Tally()
            with tracer if traced else contextlib.nullcontext():
                wall[traced] = run_pass(wl, ctx, seed, tally, tracer if traced else None, index)
            tallies.append(tally)
        overheads.append(wall[True] - wall[False])
        walls.append(wall[False])
    passes = len(overheads)
    metrics = spans.layer_metrics(tracer.spans, passes)
    for cls in spans.ERROR_CLASSES:
        raised = sum(list(t.errors.values()).count(cls) for t in tallies[1:])
        metrics[f"errors.{cls}.count"] = raised / len(tallies[1:])
    metrics["trace.overhead_s"] = statistics.median(overheads)
    RESULTS.mkdir(exist_ok=True)
    tracer.dump(RESULTS / f"{name}-seed{seed}-spans.json")
    first = tallies[0]
    wrong = [w for t in tallies for w in t.wrong]
    wrong += cross_check(wl, first.numbers, first.numbers, workloads.SAME_TOL)
    return {
        "units": spans.per_layer_units(),
        "metrics": metrics,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "wrong": sorted(set(wrong)),
        "checks": first.numbers,
        "errors": first.errors,
        "repeat_identical": all(t.numbers == first.numbers for t in tallies[1:]),
        "passes": passes,
        "untraced_pass_s": walls,
        "overheads_s": overheads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up, print 'ready' and exit (set-up probe)"
    )
    args = parser.parse_args(argv)

    if args.workload == "all":
        worst = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            worst = max(worst, subprocess.run(cmd).returncode)
        return worst

    nproc, blas_threads = cap_blas_threads()
    spans, workloads = import_library()
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup()
        print("ready", flush=True)
        return 0

    if args.trace:
        result = trace(args.workload, wl, spans, workloads, args.seed, args.seconds)
    else:
        result = measure(args.workload, wl, workloads, args.seed, args.seconds)
    correct = not result["wrong"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, nproc, blas_threads),
        "correct": correct,
        "failed_frac": result["failed"] / result["attempted"],
        **result,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    units = result["units"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  record {out}")
    for key, value in result["metrics"].items():
        print(f"  {key:40s} {value:16.6g} {units[key]}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {correct}")
    for message in result["wrong"]:
        print(f"  WRONG {message}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
