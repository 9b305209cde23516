"""Self-checks of the benchmark, and the writer of its reference CSVs.

``smoke`` runs every workload briefly, traced and untraced, each in a fresh
process, and checks that the result line holds every metric of
BENCHMARK.json with its unit, that the reference check passed and that no
call failed.  It then runs the reference-check cases of GOLDEN_CASES, which
the pytest self-tests share: among them, a perturbed cell must be rejected
and an added column accepted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import golden

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SMOKE_SECONDS = "0.5"


def expected_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric units by name, from BENCHMARK.json."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def check_result(result: dict, expected: dict[str, str]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"attempted {result.get('attempted')}, failed {result.get('failed')}")
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append(f"metrics missing {missing}, extra {extra}, wrong unit {wrong}")
    return problems


# Reference-check cases: (label, CSV compared with GOLDEN_REF, should it match).
GOLDEN_REF = "# seed = 1\n# trials = 2\ntrial,rate,gain\n0,1.5,0.25\n1,2.5,0.5\n"
GOLDEN_CASES = (
    ("identical", GOLDEN_REF, True),
    ("added column",
     "# seed = 1\n# trials = 2\ntrial,rate,sic_ok_fraction,gain\n0,1.5,1,0.25\n1,2.5,0.5,0.5\n",
     True),
    ("perturbed cell", GOLDEN_REF.replace("0.25", "0.250000001"), False),
    ("changed metadata", GOLDEN_REF.replace("seed = 1", "seed = 2"), False),
    ("missing metadata", GOLDEN_REF.replace("# trials = 2\n", ""), False),
    ("renamed column", GOLDEN_REF.replace(",gain", ",gain2"), False),
    ("extra row", GOLDEN_REF + "2,3.5,0.75\n", False),
)


def golden_case_matches(actual: str) -> bool:
    return not golden.mismatches(golden.parse(GOLDEN_REF), golden.parse(actual))


def smoke_workloads() -> list[str]:
    """Run every workload briefly, untraced and traced; return the failures."""
    from run import WORKLOAD_NAMES

    end_to_end, per_layer = expected_metrics()
    failures = []
    for name in WORKLOAD_NAMES:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
                capture_output=True, text=True, timeout=300, cwd=REPO)
            label = f"{name} trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            problems = check_result(json.loads(proc.stdout.splitlines()[-1]), expected)
            failures += [f"{label}: {p}" for p in problems]
            print(f"smoke {label}: {'ok' if not problems else 'FAILED'}")
    return failures


def smoke() -> int:
    failures = smoke_workloads()
    for label, actual, should_match in GOLDEN_CASES:
        ok = golden_case_matches(actual) == should_match
        if not ok:
            failures.append(f"golden {label}: {'rejected' if should_match else 'accepted'}")
        print(f"smoke golden {label}: {'ok' if ok else 'FAILED'}")
    for f in failures:
        print(f"smoke failure: {f}", file=sys.stderr)
    return 1 if failures else 0


def write_golden() -> int:
    """Write each missing reference CSV from one call of its workload at the
    reference seed.  A stored reference that the code no longer reproduces is
    reported and kept; delete it first to record a deliberate output change."""
    import shutil
    import tempfile

    import workloads as W

    os.makedirs(W.GOLDEN_DIR, exist_ok=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        for workload in W.WORKLOADS.values():
            texts = workload.outputs(
                workload.call(W.GOLDEN_SEED, workload.trials, workdir), workdir)
            for name, text in texts.items():
                path = os.path.join(W.GOLDEN_DIR, name)
                if os.path.exists(path):
                    with open(path) as fh:
                        if fh.read() != text:
                            print(f"{workload.name}: {name} differs from the stored reference",
                                  file=sys.stderr)
                            return 1
                    continue
                with open(path, "w", newline="\n") as fh:
                    fh.write(text)
                print(f"wrote {os.path.relpath(path, REPO)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0
