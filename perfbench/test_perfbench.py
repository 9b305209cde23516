"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import os
import shutil
import subprocess
import sys

import pytest

import golden
import reference
import run
import selftest
import tracer as T
import workloads as W
from multibeam_noma import experiments
from multibeam_noma.channel import ScenarioConfig


@pytest.mark.parametrize("label,actual,should_match", selftest.GOLDEN_CASES,
                         ids=[case[0] for case in selftest.GOLDEN_CASES])
def test_golden_check(label, actual, should_match):
    assert selftest.golden_case_matches(actual) == should_match


def test_nonfinite_cells_only_in_columns_finite_in_reference():
    ref = golden.parse("a,b\n1,nan\n2,0.5\n")
    assert golden.finite_columns(ref) == ("a",)
    actual = golden.parse("a,b\ninf,nan\n2,nan\n")
    assert golden.nonfinite_cells(actual, ("a",)) == ["column a: inf"]


def test_stored_references_match_the_code():
    for workload in W.WORKLOADS.values():
        refs = golden.References(W.GOLDEN_DIR, workload.golden)
        workdir = os.path.join(run.OUT_DIR, "test_refs")
        os.makedirs(workdir, exist_ok=True)
        try:
            texts = workload.outputs(workload.call(W.GOLDEN_SEED, workload.trials, workdir),
                                     workdir)
        finally:
            shutil.rmtree(workdir)
        assert refs.exact(texts) == [], workload.name
        assert refs.seeded(texts) == [], workload.name


def test_tail_percentile_keeps_ten_calls_beyond():
    durations = [float(i) for i in range(1, 201)]     # 200 calls
    p, value, beyond = run.tail_percentile(durations)
    assert (p, value, beyond) == (95, 190.0, 10)
    assert run.tail_percentile([1.0, 2.0, 3.0])[0] == 50


def test_normalized_times_rescale_by_the_loops_around_each_call():
    ref = reference.REF_SECONDS
    # A call between loops twice as slow as the reference takes half as long normalized.
    assert reference.normalized(0.5, 2 * ref, 2 * ref) == pytest.approx(0.25)
    assert reference.normalized(0.5, ref, 3 * ref) == pytest.approx(0.25)


class _Stub:
    trials = 3

    @staticmethod
    def call(seed, trials, workdir):
        if seed == 2:
            raise ValueError("bad seed")
        return seed

    @staticmethod
    def outputs(result, workdir):
        return {}


class _Checker:
    @staticmethod
    def seeded(texts):
        return []


def test_run_calls_times_a_loop_around_every_call_and_counts_failures():
    calls = run.run_calls(_Stub, _Checker, iter([1, 2, 3]), workdir=".")
    assert calls.seeds == [1, 2, 3]
    assert len(calls.reference) == 4 and len(calls.normalized) == 3
    assert calls.failed == 1 and "bad seed" in calls.problems[0]
    untimed = run.run_calls(_Stub, _Checker, iter([1]), workdir=".", normalize=False)
    assert untimed.reference == [] and untimed.normalized == []


def test_self_times_account_for_children_and_overlap():
    spans = [
        # sid, parent, name, thread, start, end
        (0, -1, "root", 1, 0.0, 10.0),
        (1, 0, "a", 1, 1.0, 4.0),
        (2, 0, "a", 2, 2.0, 6.0),      # overlaps sibling 1 by 2 s
        (3, 2, "b", 2, 3.0, 4.0),
        (4, -1, "root", 1, 11.0, 12.0),
    ]
    per_name, roots, concurrent = T.self_times(spans)
    assert per_name["root"] == [2, 10.0 - 5.0 + 1.0]
    assert per_name["a"] == [2, 3.0 + 3.0]
    assert per_name["b"] == [1, 1.0]
    assert roots == 11.0 and concurrent == 2.0
    wall = 13.0
    total_self = sum(s for _, s in per_name.values())
    assert total_self + (wall - roots) - concurrent == pytest.approx(wall)


def test_tracer_parents_pool_threads_and_restores_the_package():
    originals = (experiments.monte_carlo, experiments.generate_user_channel)
    tr = T.Tracer()
    assert tr.install() == []
    try:
        scenario = ScenarioConfig(num_users=5, num_nlos_paths=30, rng_seed=5)
        spec = experiments.SweepSpec(kind="power", scenario=scenario, trials=4,
                                     values=W.POWER_BUDGETS_DBM)
        experiments.run_power_sweep(spec, workers=2)
    finally:
        tr.uninstall()
    assert (experiments.monte_carlo, experiments.generate_user_channel) == originals
    by_id = {s[0]: s for s in tr.spans}
    (mc,) = [s for s in tr.spans if s[2] == "experiments.monte_carlo"]
    trials = [s for s in tr.spans if s[2] == T.TRIAL_SPAN]
    assert len(trials) == 4 and all(s[1] == mc[0] for s in trials)
    assert all(by_id[s[1]][2] == T.TRIAL_SPAN
               for s in tr.spans if s[2] == "experiments.drop_users")
    assert tr.counts["channel.paths_drawn"] == 4 * 5 * 31
    assert tr.counts["kernels.vhh_row.elements"] == 4 * 5 * 31 * 128
    metrics, concurrent = T.layer_metrics(tr, wall_s=1.0, untraced_wall_s=1.0)
    assert metrics["experiments.trial.calls"] == (4, "count")
    total_self = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert total_self + metrics["trace.unwrapped_s"][0] - concurrent == pytest.approx(1.0)


def test_sic_ok_ratio_without_checks_reads_all_ok():
    metrics, _ = T.layer_metrics(T.Tracer(), wall_s=1.0, untraced_wall_s=1.0)
    assert metrics["rates.sic_checks"] == (0, "count")
    assert metrics["rates.sic_ok_ratio"] == (1.0, "ratio")


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "power_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_smoke_workloads():
    assert selftest.smoke_workloads() == []
