#!/usr/bin/env python3
"""Benchmark of the seeded Monte Carlo engine, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload power_sweep --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one fresh process each
    python3 perfbench/run.py --smoke             # tiny run of every workload plus self-checks
    python3 perfbench/run.py --write-golden      # write missing reference CSVs (seed 1)

With ``--trace 0`` a run reports the end-to-end metrics of BENCHMARK.json
(trials per second, median and tail call time, each normalized by the
reference loop of ``reference.py``; set-up time; peak RSS) and prints the
raw wall-clock figures and the failed fraction beside them.  With
``--trace 1`` it runs the calls untraced, then the same calls under the span
tracer, and reports per-layer self times, call counts,
computed work counts and the tracing overhead; the spans go to
``perfbench/out/trace_<workload>.json``.  Every run first checks one call
at the reference seed against the stored CSVs, cell for cell, and counts
every timed call that raises, exits non-zero or writes a NaN or inf where
the reference is finite as failed.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import golden
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("power_sweep", "antenna_sweep", "power_sweep_parallel", "plan_reports")

# On a shared machine other tenants slow every call by up to 2x for stretches
# of seconds to minutes, and the share of a run spent slowed varies from run
# to run.  Raw call times follow that share; call times normalized by the
# reference loop timed beside them (see reference.py) do not, so the bounded
# metrics are the normalized ones and the raw figures are printed.
SETUP_REPEATS = 21  # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10    # the tail percentile keeps at least this many calls beyond it


def call_seeds(seed: int):
    """Endless master seeds of successive calls; the same seed gives the same list."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def tail_percentile(durations: list[float]) -> tuple[int, float, int]:
    """(p, value, calls beyond it) for the highest integer percentile, 50..99,
    with at least TAIL_BEYOND calls beyond its nearest-rank value."""
    ordered = sorted(durations)
    n = len(ordered)
    best = (50, ordered[(n + 1) // 2 - 1], n - (n + 1) // 2)
    for p in range(51, 100):
        rank = -(-p * n // 100)          # nearest rank, 1-based
        if n - rank < TAIL_BEYOND:
            break
        best = (p, ordered[rank - 1], n - rank)
    return best


def setup_once(workload: str, workdir: str) -> float:
    """Wall time for a fresh interpreter to import the package and finish the
    workload's smallest call."""
    probe = os.path.join(HERE, "setup_probe.py")
    t0 = time.perf_counter()
    # A blocking wait: with a timeout, Popen.wait polls in steps of up to 50 ms.
    code = subprocess.Popen([sys.executable, probe, workload, workdir],
                            stdout=subprocess.DEVNULL).wait()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, probe)
    return elapsed


@dataclass
class Calls:
    seeds: list[int] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)   # wall seconds per call
    normalized: list[float] = field(default_factory=list)  # at the reference speed
    failed: int = 0
    wall: float = 0.0
    problems: list[str] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)   # loop times, one more than calls

    def extend(self, other: "Calls") -> None:
        for name in ("seeds", "durations", "normalized", "problems", "reference"):
            getattr(self, name).extend(getattr(other, name))
        self.failed += other.failed
        self.wall += other.wall


def run_calls(workload, checker, seeds, workdir, until=None, normalize=True) -> Calls:
    """Closed loop of calls, one per seed from the iterator ``seeds``, stopping
    at ``until`` (perf_counter) after at least one call.

    With ``normalize`` the reference loop runs before the first call and
    after each call, and each call's duration is also given at the reference
    speed.  Output checks run between calls and are not part of a call's
    duration.
    """
    out = Calls()
    start = time.perf_counter()
    if normalize:
        out.reference.append(reference.timed())
    while not (out.seeds and until is not None and time.perf_counter() >= until):
        seed = next(seeds, None)
        if seed is None:
            break
        out.seeds.append(seed)
        t0 = time.perf_counter()
        try:
            result = workload.call(seed, workload.trials, workdir)
        except Exception as exc:  # a failed call is counted, the loop goes on
            result, found = None, [f"{type(exc).__name__}: {exc}"]
        else:
            found = None
        out.durations.append(time.perf_counter() - t0)
        if normalize:
            out.reference.append(reference.timed())
            out.normalized.append(reference.normalized(out.durations[-1], *out.reference[-2:]))
        if found is None:
            found = checker.seeded(workload.outputs(result, workdir))
        if found:
            out.failed += 1
            out.problems.append(f"seed {seed}: {found[0]}")
    out.wall = time.perf_counter() - start
    out.problems = out.problems[:5]
    return out


def kernel_backend() -> str:
    try:
        from multibeam_noma._kernels import get_backend
    except ImportError:
        return "unknown"
    return get_backend()


def environment(workload, args) -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "backend": kernel_backend(), "nproc": os.cpu_count(), "workload": workload.name,
            "seed": args.seed, "trials_per_call": workload.trials}


def emit(env: dict, lines: list[str], correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple]) -> None:
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def run_workload(args) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    import workloads as W

    workload = W.WORKLOADS[args.workload]
    checker = golden.References(W.GOLDEN_DIR, workload.golden)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        # The reference-seed call checks the outputs and warms every code path.
        try:
            result = workload.call(W.GOLDEN_SEED, workload.trials, workdir)
            golden_problems = checker.exact(workload.outputs(result, workdir))
        except Exception as exc:  # reported as incorrect; the timed calls still run
            golden_problems = [f"reference call raised {type(exc).__name__}: {exc}"]
        for p in golden_problems[:5]:
            print(f"golden mismatch: {p}", file=sys.stderr)
        env = environment(workload, args)
        if args.trace:
            return _traced(args, workload, checker, workdir, env, golden_problems)
        # Set-ups are spread over the timed phase, one before each of
        # SETUP_REPEATS equal segments of calls, so that setup_s samples the
        # whole run rather than one moment of it; each is normalized by the
        # reference loop timed just before it and the one that opens its
        # segment.  Each segment ends when the calls so far have used their
        # share of --seconds, so the part of a call that runs past a
        # segment's end is not added up over segments.
        seeds = call_seeds(args.seed)
        calls, setups, raw_setups = Calls(), [], []
        reference.loop()  # warm
        for i in range(SETUP_REPEATS):
            before = reference.timed()
            raw_setups.append(setup_once(workload.name, workdir))
            share = args.seconds * (i + 1) / SETUP_REPEATS - calls.wall
            segment = run_calls(workload, checker, seeds, workdir,
                                until=time.perf_counter() + share)
            setups.append(reference.normalized(raw_setups[-1], before, segment.reference[0]))
            calls.extend(segment)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in calls.problems[:5]:
        print(f"failed call: {p}", file=sys.stderr)
    n = len(calls.durations)
    trials = n * workload.trials
    env["calls"] = n
    env["trials"] = trials
    p, tail, beyond = tail_percentile(calls.normalized)
    _, raw_tail, _ = tail_percentile(calls.durations)
    metrics = {
        "norm_trials_per_s": (trials / sum(calls.normalized), "1/s"),
        "norm_call_ms_p50": (statistics.median(calls.normalized) * 1e3, "ms"),
        "norm_call_ms_tail": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    ref = reference.REF_SECONDS * 1e3
    loops = calls.reference
    lines = [
        f"golden: {'ok' if not golden_problems else 'MISMATCH'} "
        f"({', '.join(workload.golden)} at seed {W.GOLDEN_SEED})",
        f"reference loop: median {statistics.median(loops) * 1e3:.4g} ms, "
        f"fastest {min(loops) * 1e3:.4g} ms, slowest {max(loops) * 1e3:.4g} ms "
        f"over {len(loops)} loops; norm_* times are at the speed where it takes {ref:g} ms",
        f"norm_trials_per_s = {metrics['norm_trials_per_s'][0]:.6g} 1/s ({n} calls)",
        f"norm_call_ms_p50 = {metrics['norm_call_ms_p50'][0]:.6g} ms ({n} calls)",
        f"norm_call_ms_tail = {metrics['norm_call_ms_tail'][0]:.6g} ms "
        f"(p{p}, {beyond} of {n} calls beyond it)",
        f"setup_s = {metrics['setup_s'][0]:.6g} s (median of {SETUP_REPEATS} fresh "
        f"interpreters spread over the run, normalized; raw median "
        f"{statistics.median(raw_setups):.6g} s)",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB",
        f"failed_fraction = {calls.failed / n:.6g} ({calls.failed} of {n} calls)",
        f"raw wall clock, not bounded: trials_per_s = {trials / sum(calls.durations):.6g} 1/s, "
        f"call_ms_p50 = {statistics.median(calls.durations) * 1e3:.6g} ms, "
        f"call_ms_tail = {raw_tail * 1e3:.6g} ms (p{p})",
    ]
    emit(env, lines, not golden_problems and calls.failed == 0, n, calls.failed, metrics)
    return 0


def _traced(args, workload, checker, workdir, env, golden_problems) -> int:
    import tracer as T

    untraced = run_calls(workload, checker, call_seeds(args.seed), workdir,
                         until=time.perf_counter() + args.seconds / 2.0, normalize=False)
    n = len(untraced.seeds)
    tr = T.Tracer()
    skipped = tr.install()
    for site in skipped:
        print(f"trace: {site} not found, left unwrapped", file=sys.stderr)
    start = time.perf_counter()
    try:
        traced = run_calls(workload, checker, iter(untraced.seeds), workdir, normalize=False)
    finally:
        tr.uninstall()
    for p in untraced.problems + traced.problems:
        print(f"failed call: {p}", file=sys.stderr)
    metrics, concurrent = T.layer_metrics(tr, traced.wall, untraced.wall)
    trace_path = os.path.join(OUT_DIR, f"trace_{workload.name}.json")
    tr.write(trace_path, start, {"workload": workload.name, "seed": args.seed, "calls": n,
                                 "trials_per_call": workload.trials, "wall_s": traced.wall})
    env["calls"] = 2 * n
    env["trials"] = 2 * n * workload.trials
    lines = [f"golden: {'ok' if not golden_problems else 'MISMATCH'}",
             f"trace: {n} calls untraced in {untraced.wall:.4g} s, the same calls traced in "
             f"{traced.wall:.4g} s; {len(tr.spans)} spans written to "
             f"{os.path.relpath(trace_path, REPO)}",
             f"trace: concurrent_s = {concurrent:.6g} s (overlapping child spans; "
             f"sum(self_s) + unwrapped_s - concurrent_s = wall_s)"]
    ranked = sorted((k for k in metrics if k.endswith(".self_s")),
                    key=lambda k: -metrics[k][0])
    for k in ranked:
        if metrics[k][0] > 0:
            name = k[:-len(".self_s")]
            lines.append(f"  {name:<42} calls {metrics[name + '.calls'][0]:>8} "
                         f"self {metrics[k][0]:9.4f} s  share {metrics[name + '.share'][0]:6.3f}")
    failed = untraced.failed + traced.failed
    emit(env, lines, not golden_problems and failed == 0, 2 * n, failed, metrics)
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; prints each run and a summary."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        print(f"== {name}")
        print(proc.stdout, end="")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    if not args.trace:
        print("== summary")
        for name, res in results.items():
            cells = "  ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
            print(f"{name:<21} {cells}  failed_fraction "
                  f"{res['failed'] / res['attempted']:.4g}  correct {res['correct']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload, then the golden self-checks")
    parser.add_argument("--write-golden", action="store_true",
                        help="write missing reference CSVs from the current code")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import workloads  # noqa: F401  imports the package from this checkout's src
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        import selftest
        return selftest.smoke()
    if args.write_golden:
        import selftest
        return selftest.write_golden()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
