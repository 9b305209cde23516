"""Span tracer for the traced benchmark run.

It wraps the public functions of each layer of ``multibeam_noma`` where
their callers look them up: ``experiments`` and ``cli`` bind names at
import, so ``experiments.generate_user_channel`` is patched rather than
``channel.generate_user_channel``.  One wrapper per function is installed
at every lookup site, so a call is counted once whichever site it went
through.  Spans (name, parent, thread, start, end) stay in memory until
the run ends.  Each thread keeps its own span stack, and the evaluator
that ``monte_carlo`` hands to its thread pool is adopted by the calling
``monte_carlo`` span, so trial spans on pool threads get the right parent.

Self time is a span's duration minus the part of it that its children
cover.  When children overlap (pool threads), the overlap is counted as
``concurrent`` time, so that for the traced wall time W

    sum(self_s) + unwrapped_s - concurrent_s = W

where ``unwrapped_s`` is the part of W outside every root span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

PKG = "multibeam_noma"

# span name -> modules whose attribute of that function name callers use
SITES: dict[str, tuple[str, ...]] = {
    "channel.generate_user_channel": ("experiments",),
    "channel.user_rng": ("experiments",),
    "channel.channel_matrix": ("channel",),
    "_kernels.vhh_row": ("_kernels",),
    "_kernels.segment_gains": ("_kernels",),
    "_kernels.two_segment_sweep": ("_kernels",),
    "_kernels.pattern_mags": ("_kernels",),
    "beams.rf_chain_precoder": ("effective", "experiments"),
    "beams.beam_pattern": ("beams",),
    "effective.effective_closed_form": ("cli",),
    "effective.effective_channel_matrix": ("cli",),
    "rates.single_beam_noma_baseline": ("experiments",),
    "rates.cluster_users": ("rates",),
    "rates.noma_rates_from_gains": ("experiments", "rates"),
    "rates.system_sum_rate": ("cli",),
    "rates.sic_feasible": ("rates",),
    "asymptotic.min_antennas_for_superiority": ("experiments",),
    "asymptotic.noma_gain": ("experiments",),
    "experiments.drop_users": ("experiments", "cli"),
    "experiments.monte_carlo": ("experiments",),
    "experiments.write_table": ("experiments", "cli"),
    "experiments.run_power_sweep": ("experiments",),
    "experiments.run_antenna_sweep": ("experiments",),
    "experiments.run_beam_pattern": ("cli",),
    "config.load_config": ("cli",),
    "cli.main": ("cli",),
}
# The per-trial evaluator closure of a sweep, wrapped as monte_carlo receives it.
TRIAL_SPAN = "experiments.trial"
SPAN_NAMES = tuple(SITES) + (TRIAL_SPAN,)


def _sic_counts(args, result):
    checks = result.sic_checks
    return (("rates.sic_checks", len(checks)), ("rates.sic_ok", sum(c.ok for c in checks)))


# Work counts computed from array sizes at the call boundary.
COUNTERS = {
    "channel.generate_user_channel": lambda a, r: (("channel.paths_drawn", len(r.paths)),),
    # sum of L * M_BS
    "_kernels.vhh_row": lambda a, r: (("kernels.vhh_row.elements", len(a[0]) * int(a[4])),),
    # sum of M_BS + number of splits
    "_kernels.two_segment_sweep": lambda a, r: (
        ("kernels.two_segment_sweep.elements", int(a[4]) + len(a[3])),),
    # sum of the antennas in every segment
    "_kernels.segment_gains": lambda a, r: (
        ("kernels.segment_gains.elements", int(np.sum(a[3]))),),
    # sum of angles * M_BS
    "_kernels.pattern_mags": lambda a, r: (
        ("kernels.pattern_mags.elements", len(a[1]) * len(a[0])),),
    "experiments.write_table": lambda a, r: (
        ("experiments.write_table.bytes", os.path.getsize(a[1])),),
    "rates.system_sum_rate": _sic_counts,
    "rates.single_beam_noma_baseline": _sic_counts,
}
COUNT_UNITS = {
    "channel.paths_drawn": "count",
    "kernels.vhh_row.elements": "count",
    "kernels.two_segment_sweep.elements": "count",
    "kernels.segment_gains.elements": "count",
    "kernels.pattern_mags.elements": "count",
    "experiments.write_table.bytes": "bytes",
    "rates.sic_checks": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, threading.get_ident(), t0, t1))
            if counter is not None:
                pairs = counter(args, result)
                with self._count_lock:
                    for key, n in pairs:
                        self.counts[key] += n
            return result
        return traced

    def adopt(self, fn):
        """``fn`` runs under the caller's current span, in whichever thread runs it."""
        stack = self._stack()
        parent = stack[-1] if stack else None

        def adopted(*args, **kwargs):
            own = self._stack()
            if own or parent is None:
                return fn(*args, **kwargs)
            own.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                own.pop()
        return adopted

    def _monte_carlo(self, original):
        def monte_carlo(trials, evaluator, *args, **kwargs):
            evaluator = self.adopt(self.wrap(TRIAL_SPAN, evaluator))
            return original(trials, evaluator, *args, **kwargs)
        return monte_carlo

    def install(self) -> list[str]:
        """Patch every lookup site; return the sites skipped because the package
        no longer binds the function there (their spans then read zero)."""
        def module(name):
            try:
                return importlib.import_module(f"{PKG}.{name}")
            except ImportError:
                return None

        skipped = []
        for name, sites in SITES.items():
            home, attr = name.split(".")
            original = getattr(module(home), attr, None)
            if original is None:
                skipped.append(name)
                continue
            fn = self._monte_carlo(original) if name == "experiments.monte_carlo" else original
            wrapper = self.wrap(name, fn, COUNTERS.get(name))
            for site in sites:
                mod = module(site)
                if getattr(mod, attr, None) is not original:
                    skipped.append(f"{site}.{attr}")
                    continue
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)
        return skipped

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def write(self, path: str, wall_start: float, extra: dict) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = sorted({s[3] for s in self.spans})
        tindex = {t: i for i, t in enumerate(threads)}
        doc = dict(extra, span_names=names,
                   span_fields=["id", "parent", "name", "thread", "start_s", "end_s"],
                   spans=[[sid, parent, index[name], tindex[th],
                           round(t0 - wall_start, 7), round(t1 - wall_start, 7)]
                          for sid, parent, name, th, t0, t1 in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> tuple[dict[str, list], float, float]:
    """Per span name [calls, self_s]; the summed root-span time; the concurrent time."""
    interval = {sid: (t0, t1) for sid, _, _, _, t0, t1 in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _, _, t0, t1 in spans:
        if parent >= 0:
            p0, p1 = interval[parent]
            children[parent].append((max(t0, p0), min(t1, p1)))
    per_name: dict[str, list] = defaultdict(lambda: [0, 0.0])
    roots = concurrent = 0.0
    for sid, parent, name, _, t0, t1 in spans:
        kids = children.get(sid, ())
        covered = _union_length(kids) if kids else 0.0
        concurrent += sum(b - a for a, b in kids) - covered
        entry = per_name[name]
        entry[0] += 1
        entry[1] += (t1 - t0) - covered
        if parent < 0:
            roots += t1 - t0
    return per_name, roots, concurrent


def layer_metrics(tracer: Tracer, wall_s: float,
                  untraced_wall_s: float) -> tuple[dict[str, tuple], float]:
    """Per-layer metrics of a traced phase as {name: (value, unit)}, and its
    concurrent seconds.  The concurrent time is not a metric: it is 0 except
    on the pool threads of ``power_sweep_parallel``."""
    per_name, roots, concurrent = self_times(tracer.spans)
    metrics: dict[str, tuple] = {}
    for name in SPAN_NAMES:
        calls, self_s = per_name.get(name, (0, 0.0))
        # A metric name starts with a letter: ``_kernels`` is reported as ``kernels``.
        key = name.lstrip("_")
        metrics[f"{key}.calls"] = (calls, "count")
        metrics[f"{key}.self_s"] = (self_s, "s")
        metrics[f"{key}.share"] = (self_s / wall_s, "ratio")
    for key, unit in COUNT_UNITS.items():
        metrics[key] = (tracer.counts.get(key, 0), unit)
    checks = tracer.counts.get("rates.sic_checks", 0)
    ok = tracer.counts.get("rates.sic_ok", 0)
    # With no checks, no check failed: 1.0, so that adding passing checks to a
    # workload does not read as a gain.
    metrics["rates.sic_ok_ratio"] = (ok / checks if checks else 1.0, "ratio")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.unwrapped_s"] = (wall_s - roots, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    metrics["trace.overhead_ratio"] = (wall_s / untraced_wall_s, "ratio")
    return metrics, concurrent
