"""fqcsim benchmark runner.

    python3 perfbench/run.py --workload {map,scan,markov,cli} --seed N \
        --seconds S --trace {0,1} [--quick] [--expected DIR]

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  The runner pins every BLAS/OpenMP pool to one
thread and sets FQCSIM_THREADS to the number of usable cores, then starts
fresh worker processes (perfbench/worker.py) one after another, each of
which times `import fqcsim` and runs closed-loop passes of the workload
through `fqcsim.cli.main` for its share of --seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 also
runs traced workers and reports the per-layer metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Run facts, sample counts and per-pass details go to the lines before it and
to perfbench/_runs/<run id>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every run ends well inside the 180 s a run may take.
RUN_CAP_S = 170.0

# Fresh worker processes per untraced run.  A map pass takes ~10 s, so its
# workers run one pass each.  The short workloads share --seconds between
# their workers, which also gives one import timing each for setup_s;
# markov, the most drift-sensitive (memory-bound einsum), gets ten.
UNTRACED_PROCESSES = {"map": 3, "scan": 5, "markov": 10, "cli": 5}
# Traced runs interleave untraced (U) and traced (T) workers so that the
# difference of their medians is the tracing overhead; S is one serial
# sweep pass (FQCSIM_THREADS=1), the baseline of sweep.speedup.
TRACED_PLAN = {"map": "UTS", "scan": "UTUTS", "markov": "UTUT", "cli": "UTUT"}
IMPORT_PROBES = 3


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    env["FQCSIM_THREADS"] = str(threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ---------------------------------------------------------------- run facts


def _openblas_config() -> str:
    """OpenBLAS runtime config string of the library numpy loaded."""
    import ctypes

    import numpy as np

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                       "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return str(blas.get("openblas configuration", blas.get("name", "unknown")))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fqcsim").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def calibration() -> dict[str, float]:
    """Fixed numpy-only timings: an 82x82 eigh and a 2001x82 complex exp
    (the shapes of one N=40 map cell), median of 25 repeats each."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((82, 82))
    sym = a + a.T
    arg = -1j * np.outer(np.linspace(0.0, 10.0, 2001), rng.standard_normal(82))

    def median_time(fn):
        samples = []
        for _ in range(25):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    return {"eigh_82_s": median_time(lambda: np.linalg.eigh(sym)),
            "exp_2001x82_s": median_time(lambda: np.exp(arg))}


def run_facts(args, threads: int) -> dict:
    from importlib import metadata

    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "nproc": nproc(),
        "threads": {**{var: "1" for var in BLAS_VARS}, "FQCSIM_THREADS": str(threads)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "openblas": _openblas_config(),
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "calibration": calibration(),
    }


# ---------------------------------------------------------------- workers


class RunAborted(Exception):
    pass


def run_worker(args, run_dir: Path, index: int, kind: str, budget_s: float,
               threads: int, deadline: float) -> dict:
    """Start one fresh worker process and wait for its result."""
    tag = f"w{index}{kind}"
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "trace": kind == "T",
        "budget_s": budget_s,
        "min_passes": 1,
        "max_passes": 1 if kind == "S" else 10_000,
        "run_id": run_dir.name,
        "run_dir": str(run_dir / tag),
        "src_dir": str(ROOT / "src"),
        "expected_dir": str(Path(args.expected).resolve()),
        "result_path": str(run_dir / f"{tag}.json"),
        "spans_path": str(run_dir / "spans.jsonl"),
    }
    spec_path = run_dir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunAborted("run cap reached before all workers ran")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=child_env(1 if kind == "S" else threads),
            cwd=str(ROOT), timeout=timeout, capture_output=True, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunAborted(f"worker {tag} exceeded the run cap") from exc
    if proc.returncode != 0:
        raise RunAborted(f"worker {tag} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(Path(spec["result_path"]).read_text())
    result["kind"] = kind
    return result


def import_probe(threads: int, deadline: float) -> dict[str, float]:
    """`python -X importtime -c "import fqcsim"`: total and scipy seconds."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunAborted("run cap reached before the import probes ran")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fqcsim"],
        env=child_env(threads), cwd=str(ROOT), timeout=timeout,
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RunAborted(f"import probe failed: {proc.stderr[-2000:]}")
    total_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:  # the column header
            continue
        module = fields[2].strip()
        if module == "scipy" or module.startswith("scipy."):
            scipy_us += self_us
        if module == "fqcsim":
            total_us = cumulative_us
    return {"import.total_s": total_us / 1e6, "import.scipy_s": scipy_us / 1e6}


# ---------------------------------------------------------------- metrics


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end(workers: list[dict]) -> dict[str, float]:
    passes = [p for w in workers for p in w["passes"]]
    return {
        "setup_s": _median(w["setup_s"] for w in workers),
        "wall_s": _median(p["wall_s"] for p in passes),
        "cpu_s": _median(p["cpu_s"] for p in passes),
        "peak_rss_mb": _median(w["peak_rss_mb"] for w in workers),
    }


def per_layer(workers: list[dict], probes: list[dict]) -> tuple[dict, list[str]]:
    untraced = [p for w in workers if w["kind"] == "U" for p in w["passes"]]
    traced = [p for w in workers if w["kind"] == "T" for p in w["passes"]]
    serial = [p for w in workers if w["kind"] == "S" for p in w["passes"]]
    layers = {name: _median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    parallel_wall = _median(p["wall_s"] for p in untraced)
    layers.update({
        name: _median(probe[name] for probe in probes)
        for name in ("import.total_s", "import.scipy_s")
    })
    layers["cli.write.bytes"] = _median(p["write_bytes"] for p in traced)
    layers["cli.write.rows"] = _median(p["write_rows"] for p in traced)
    layers["sweep.cell_errors"] = max(p["cell_errors"] for p in untraced + traced + serial)
    layers["sweep.speedup"] = _median(p["wall_s"] for p in serial) / parallel_wall if serial else 0.0
    layers["trace.overhead_s"] = _median(p["wall_s"] for p in traced) - parallel_wall
    problems = [problem for p in traced for problem in p["tree_problems"]]
    return layers, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced map and scan inputs, one process per kind (for selftest)")
    parser.add_argument("--expected", default=str(HERE / "expected"),
                        help="directory of stored expected outputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fqcsim" / "__init__.py").is_file():
        print(f"no fqcsim sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running worker instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_CAP_S
    threads = nproc()
    for var in BLAS_VARS:  # before numpy is imported here, for the calibration
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    facts = run_facts(args, threads)

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{uuid.uuid4().hex[:8]}"
    run_dir.mkdir(parents=True)
    if args.quick:
        plan = "UT" + ("S" if "S" in TRACED_PLAN[args.workload] else "") if args.trace else "U"
    else:
        plan = TRACED_PLAN[args.workload] if args.trace else "U" * UNTRACED_PROCESSES[args.workload]
    probes = []
    try:
        if args.trace:
            probes = [import_probe(threads, deadline)
                      for _ in range(1 if args.quick else IMPORT_PROBES)]
        budget = args.seconds / len(plan)
        workers = [run_worker(args, run_dir, index, kind, budget, threads, deadline)
                   for index, kind in enumerate(plan)]
    except RunAborted as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3

    untraced = [w for w in workers if w["kind"] == "U"]
    passes = [p for w in workers for p in w["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    e2e = end_to_end(untraced)
    if args.trace:
        values, tree_problems = per_layer(workers, probes)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values, tree_problems = e2e, []
        names = [m["name"] for m in spec["end_to_end"]]
    correct = failed == 0 and not tree_problems

    samples = {"processes": len(untraced),
               "passes": sum(len(w["passes"]) for w in untraced),
               "traced_passes": sum(len(w["passes"]) for w in workers if w["kind"] == "T")}
    summary = {
        "facts": facts, "samples": samples, "run_dir": str(run_dir), "end_to_end": e2e,
        "fail_frac": failed / attempted,
        "identical_files": f"{sum(p['identical_files'] for p in passes)}/"
                           f"{sum(p['files'] for p in passes)}",
        "problems": sorted({q for p in passes for q in p["problems"]})[:20],
        "tree_problems": tree_problems[:20],
    }
    for name, value in e2e.items():
        per_pass = name in ("wall_s", "cpu_s")
        count = f"{samples['passes']} passes" if per_pass else f"{samples['processes']} processes"
        print(f"{args.workload:6s} {name:14s} {value:12.6f} {units[name]:5s} (median over {count})")
    print(f"{args.workload:6s} {'fail_frac':14s} {summary['fail_frac']:12.6f} ratio "
          f"({failed}/{attempted} commands)")
    if args.trace:
        for name in names:
            print(f"{args.workload:6s} {name:38s} {values[name]:16.6f} {units[name]}")
    print(json.dumps(summary, sort_keys=True))
    (run_dir / "result.json").write_text(json.dumps(
        {**summary, "layers": values if args.trace else None, "workers": workers}, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
