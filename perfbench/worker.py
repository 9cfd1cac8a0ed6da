"""One fresh workload process: time `import fqcsim`, then run passes.

Started by run.py as `python3 perfbench/worker.py SPEC.json`.  The spec
names the workload, seed, time budget and whether to trace.  Every pass
calls `fqcsim.cli.main` once per command of the workload, closed loop, into a
fresh directory, and its outputs are checked before the next pass starts.
The result (import time, per-pass timings, verdicts and, when traced, the
per-layer metrics of each pass) is written to the spec's `result_path`.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import Recorder, check_tree, install, layer_metrics
from workloads import check_pass, commands, file_hashes, identical_files, load_expected, output_volume


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run_command(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an escaped traceback counts as a failed command
        return -1


def run(spec: dict) -> dict:
    src = Path(spec["src_dir"]).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import fqcsim
    setup_s = time.perf_counter() - start
    if Path(fqcsim.__file__).resolve().parent != src / "fqcsim":
        raise SystemExit(f"fqcsim was imported from {fqcsim.__file__}, not from {src}")
    import fqcsim.cli

    expected = load_expected(Path(spec["expected_dir"]))
    recorder = Recorder(spec["run_id"]) if spec["trace"] else None
    if recorder is not None:
        install(recorder)
    workload, seed, quick = spec["workload"], spec["seed"], spec["quick"]
    cmds = commands(workload, seed, quick)
    run_dir = Path(spec["run_dir"])

    def run_pass(pass_dir: Path) -> list[int]:
        return [_run_command(fqcsim.cli.main, [*c.argv, "--out", str(pass_dir / c.subdir)])
                for c in cmds]

    if recorder is not None:
        run_pass = recorder.wrap("pass", run_pass)

    passes: list[dict] = []
    begin = time.perf_counter()
    while True:
        pass_dir = run_dir / f"pass{len(passes)}"
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        codes = run_pass(pass_dir)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0

        verdict = check_pass(workload, seed, pass_dir, codes, expected, quick)
        hashes = file_hashes(pass_dir) if pass_dir.exists() else {}
        nbytes, rows = output_volume(pass_dir) if pass_dir.exists() else (0, 0)
        record = {
            "wall_s": wall,
            "cpu_s": cpu,
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "problems": verdict.problems[:10],
            "cell_errors": verdict.cell_errors,
            "write_bytes": nbytes,
            "write_rows": rows,
            "files": len(hashes),
            "identical_files": identical_files(workload, seed, hashes, expected),
        }
        if not passes:
            record["sha256"] = hashes
        if recorder is not None:
            spans = recorder.take()
            record["layers"] = layer_metrics(spans)
            record["tree_problems"] = check_tree(spans)[:10]
            record["spans"] = len(spans)
            recorder.write_jsonl(spans, spec["spans_path"])
        shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append(record)

        if len(passes) >= spec["max_passes"]:
            break
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= spec["min_passes"] and elapsed + typical > spec["budget_s"]:
            break

    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {"setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0, "passes": passes}


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = run(spec)
    Path(spec["result_path"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
