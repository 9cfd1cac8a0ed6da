"""Write the stored expected outputs of every workload into perfbench/expected.

    python3 perfbench/make_expected.py

Run once, from the root of a checkout of the commit whose outputs become the
reference, under the benchmark's thread policy.  It refuses to overwrite
existing files: the gate compares later commits against these values, and
regenerating them to make a run pass would defeat it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "expected"

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ["FQCSIM_THREADS"] = str(len(os.sched_getaffinity(0)))
sys.path.insert(0, str(ROOT / "src"))

import fqcsim.cli  # noqa: E402

from run import git_commit, src_sha256  # noqa: E402
from workloads import MARKOV_SEEDS, READERS, WORKLOADS, commands, file_hashes  # noqa: E402


def run_pass(workload: str, seed: int, outdir: Path) -> None:
    for cmd in commands(workload, seed):
        code = fqcsim.cli.main([*cmd.argv, "--out", str(outdir / cmd.subdir)])
        if code != 0:
            raise SystemExit(f"{workload}: {cmd.argv} exited with {code}")


def main() -> None:
    targets = [OUT / f"{w}.json" for w in WORKLOADS] + [OUT / "sha256.json"]
    existing = [p.name for p in targets if p.exists()]
    if existing:
        raise SystemExit(f"refusing to overwrite stored expected outputs: {existing}")
    OUT.mkdir(exist_ok=True)
    scratch = HERE / "_runs" / "make-expected"
    shutil.rmtree(scratch, ignore_errors=True)
    source = {"git_commit": git_commit(), "src_sha256": src_sha256()}

    hashes = {}
    for workload in WORKLOADS:
        if workload == "markov":
            values, hashes[workload] = {}, {}
            for seed in range(MARKOV_SEEDS):
                outdir = scratch / f"markov{seed}"
                run_pass(workload, seed, outdir)
                values[str(seed)] = READERS[workload](outdir)
                hashes[workload][str(seed)] = file_hashes(outdir)
        else:
            outdir = scratch / workload
            run_pass(workload, 0, outdir)
            values = READERS[workload](outdir)
            hashes[workload] = file_hashes(outdir)
        if workload == "map":
            values = {"cells": values["cells"]}
        (OUT / f"{workload}.json").write_text(
            json.dumps(values, indent=0, sort_keys=True) + "\n")
        print(f"stored {workload}")
    hashes["source"] = source
    (OUT / "sha256.json").write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
