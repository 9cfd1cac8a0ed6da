"""Spans around the calls into each fqcsim layer, recorded from outside.

`install` replaces the public functions named in LAYERS at every module
that imports them with a wrapper that records a span (name, start, end,
parent, thread id, run id) in memory.  Pool threads of the sweep module
have no open span of their own, so their spans hang under the sweep span
that started the pool.  `layer_metrics` turns one pass's spans into the
per-layer metrics; `check_tree` proves the tree is well formed.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

# Span name -> (module attribute sites, result summary).  A site is
# "module:attr" for a function or "module:Class.method" for a method.
_CLI = "fqcsim.cli"
_SWEEP = "fqcsim.sweep"
_WRITERS = [
    f"{_CLI}:_dump_json",
    "fqcsim.evolve:TimeSeries.to_csv",
    "fqcsim.evolve:TimeSeries.dump_json",
    "fqcsim.evolve:DensitySeries.to_csv",
    "fqcsim.sweep:SweepMap.to_csv",
    "fqcsim.sweep:SweepMap.dump_json",
    "fqcsim.sweep:SizeScanResult.to_csv",
    "fqcsim.metrics:NonMarkovianityResult.to_csv",
    "fqcsim.analysis:SidebandSpectrum.to_csv",
]
_COMMANDS = [f"{_CLI}:{name}" for name in (
    "cmd_decay", "cmd_rabi", "cmd_sidebands", "cmd_markov", "cmd_fit",
    "cmd_sweep", "cmd_adaptive_compare",
)]


def _both(attr):
    return [f"{_CLI}:{attr}", f"{_SWEEP}:{attr}"]


LAYERS = {
    "cli.main": ([f"{_CLI}:main"], None),
    "cli.cmd": (_COMMANDS, None),
    "cli.write": (_WRITERS, None),
    "sweep.run": ([f"{_CLI}:run_sweep", f"{_CLI}:run_size_scan"], None),
    "hamiltonian.build": (
        _both("build_single_level") + _both("build_two_level") + _both("build_adaptive"),
        None,
    ),
    "evolve.propagate": (
        _both("propagate"),
        lambda r: {"nt": r.amplitudes.shape[0], "dim": r.amplitudes.shape[1]},
    ),
    "evolve.diagonalize": (
        ["fqcsim.evolve:diagonalize", "fqcsim.metrics:diagonalize", "fqcsim.analysis:diagonalize"],
        lambda r: {"dim": int(r.values.size)},
    ),
    "evolve.source_term_series": ([f"{_CLI}:source_term_series"], None),
    "reference.evolve_nonhermitian": (_both("evolve_nonhermitian"), None),
    "reference.decay_single": ([f"{_CLI}:decay_single"], None),
    "metrics.d1": (_both("d1"), None),
    "metrics.d2": (_both("d2"), None),
    "metrics.nonmarkovianity": (
        [f"{_CLI}:nonmarkovianity"],
        lambda r: {"pair_steps": int(r.count) * int(r.grid_points)},
    ),
    "analysis.fit": (_both("fit_effective_params"), lambda r: {"converged": bool(r.converged)}),
    "analysis.sidebands": ([f"{_CLI}:sideband_spectrum"], None),
    "analysis.zeno_revival": ([f"{_CLI}:zeno_time", f"{_CLI}:revival_time"], None),
}
# Spans whose pool threads attach to them.
POOL_SPANS = ("sweep.run",)
# Computed bytes per phase element: the four nt x dim complex128 arrays the
# seed propagate materialises (phase argument, phases, scaled phases,
# amplitudes).
PROPAGATE_BYTES_PER_ELEM = 4 * 16


class Recorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, summarize=None):
        pool = name in POOL_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._pool_parent
            sid = next(self._ids)
            stack.append(sid)
            if pool:
                outer, self._pool_parent = self._pool_parent, sid
            attrs = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter_ns()
                if summarize is not None:
                    attrs = summarize(result)
                return result
            except BaseException as exc:
                end = time.perf_counter_ns()
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
                if pool:
                    self._pool_parent = outer
                self.spans.append(
                    (sid, parent, name, threading.get_ident(), start, end, attrs)
                )

        return traced

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans

    def write_jsonl(self, spans: list[tuple], path) -> None:
        with open(path, "a") as fh:
            for sid, parent, name, tid, start, end, attrs in spans:
                fh.write(json.dumps({
                    "run_id": self.run_id, "id": sid, "parent": parent, "name": name,
                    "tid": tid, "start_ns": start, "end_ns": end, "attrs": attrs,
                }) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap every site in LAYERS.  The fqcsim modules must be importable."""
    import importlib

    for name, (sites, summarize) in LAYERS.items():
        for site in sites:
            module_name, attr = site.split(":")
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, recorder.wrap(name, getattr(owner, leaf), summarize))


# ---------------------------------------------------------------- analysis


def _covered(start: int, end: int, children: list[tuple]) -> int:
    """Length of [start, end] covered by the union of the children's spans."""
    total, cursor = 0, start
    for _, _, _, _, c_start, c_end, _ in sorted(children, key=lambda s: s[4]):
        lo, hi = max(c_start, cursor), min(c_end, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the part its children cover, in ns."""
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    return {s[0]: (s[5] - s[4]) - _covered(s[4], s[5], children[s[0]]) for s in spans}


def check_tree(spans: list[tuple]) -> list[str]:
    """Problems with the span tree: missing parents, children outside their
    parent's interval, negative self times.  Empty when well formed."""
    by_id = {s[0]: s for s in spans}
    problems = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    for sid, parent, name, _, start, end, _ in spans:
        if end < start:
            problems.append(f"{name}#{sid} ends before it starts")
        if parent is None:
            continue
        p = by_id.get(parent)
        if p is None:
            problems.append(f"{name}#{sid} has unknown parent {parent}")
        elif start < p[4] or end > p[5]:
            problems.append(f"{name}#{sid} lies outside its parent {p[2]}#{parent}")
    problems += [f"span #{sid} has negative self time"
                 for sid, t in self_times(spans).items() if t < 0]
    return problems


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (times in seconds)."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)

    def self_s(name):
        return sum(selfs[s[0]] for s in by_name[name]) / 1e9

    def calls(name):
        return len(by_name[name])

    def attr_sum(name, key, fn=lambda v: v):
        return sum(fn(s[6][key]) for s in by_name[name] if s[6] and key in s[6])

    # Pool workers are the threads other than the sweep caller's; a serial
    # sweep runs its cells on the caller's thread and counts as one worker.
    pools = {s[0]: s[3] for s in by_name["sweep.run"]}
    pool_children = [s for s in spans if s[1] in pools]
    sweep_wall = sum(s[5] - s[4] for s in by_name["sweep.run"]) / 1e9
    busy = sum(s[5] - s[4] for s in pool_children) / 1e9
    workers = len({s[3] for s in pool_children if s[3] != pools[s[1]]})
    if pool_children and not workers:
        workers = 1
    propagate_s = [(s[5] - s[4]) / 1e9 for s in by_name["evolve.propagate"]]
    phase_elems = sum(
        s[6]["nt"] * s[6]["dim"] for s in by_name["evolve.propagate"] if s[6] and "nt" in s[6]
    )
    return {
        "cli.cmd.self_s": self_s("cli.cmd"),
        "cli.write.self_s": self_s("cli.write"),
        "sweep.wall_s": sweep_wall,
        "sweep.busy_s": busy,
        "sweep.parallel_eff": busy / (sweep_wall * workers) if workers else 0.0,
        "sweep.workers": workers,
        "hamiltonian.build.calls": calls("hamiltonian.build"),
        "hamiltonian.build.self_s": self_s("hamiltonian.build"),
        "evolve.diagonalize.calls": calls("evolve.diagonalize"),
        "evolve.diagonalize.self_s": self_s("evolve.diagonalize"),
        "evolve.diagonalize.dim_max": max(
            (s[6]["dim"] for s in by_name["evolve.diagonalize"] if s[6] and "dim" in s[6]),
            default=0,
        ),
        "evolve.propagate.calls": calls("evolve.propagate"),
        "evolve.propagate.self_s": self_s("evolve.propagate"),
        "evolve.propagate.call_s.p50": _percentile(propagate_s, 50),
        "evolve.propagate.call_s.p99": _percentile(propagate_s, 99),
        "evolve.propagate.phase_elems": phase_elems,
        "evolve.propagate.bytes": phase_elems * PROPAGATE_BYTES_PER_ELEM,
        "evolve.source_term_series.self_s": self_s("evolve.source_term_series"),
        "reference.evolve_nonhermitian.calls": calls("reference.evolve_nonhermitian"),
        "reference.evolve_nonhermitian.self_s": self_s("reference.evolve_nonhermitian"),
        "reference.decay_single.self_s": self_s("reference.decay_single"),
        "metrics.d1.self_s": self_s("metrics.d1"),
        "metrics.d2.self_s": self_s("metrics.d2"),
        "metrics.nonmarkovianity.self_s": self_s("metrics.nonmarkovianity"),
        "metrics.nonmarkovianity.pair_steps": attr_sum("metrics.nonmarkovianity", "pair_steps"),
        "analysis.fit.calls": calls("analysis.fit"),
        "analysis.fit.self_s": self_s("analysis.fit"),
        "analysis.fit.unconverged": attr_sum("analysis.fit", "converged", lambda c: int(not c)),
        "analysis.sidebands.self_s": self_s("analysis.sidebands"),
        "analysis.zeno_revival.self_s": self_s("analysis.zeno_revival"),
    }
