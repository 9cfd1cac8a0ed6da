"""Workload definitions and the correctness gate of the benchmark.

A workload is a list of CLI commands that make up one pass.  Every pass
writes into a fresh directory and its outputs are compared with the values
stored under ``expected/``, which were generated once from the seed commit
by ``make_expected.py`` and are never regenerated to make a run pass.

Numbers agree when ``|got - want| <= ATOL + RTOL * |want|``; strings,
integers, booleans and row keys must match exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("map", "scan", "markov", "cli")

RTOL = 1e-6
ATOL = 1e-9

# The markov sampling seed is the workload seed reduced to the stored table.
MARKOV_SEEDS = 32
# Sigma(t) is stored at every SIGMA_STRIDE-th grid point (plus the last one).
SIGMA_STRIDE = 50

SCAN_SIZES = ",".join(str(s) for s in range(10, 81))
SCAN_ARGS = ("--omega0", "10", "--tf", "16", "--grid-points", "4001")
CLI_COMMANDS = (
    ("decay", ("decay",)),
    ("rabi", ("rabi", "--sidebands")),
    ("fit", ("fit",)),
    ("sidebands", ("sidebands",)),
    ("adaptive-compare", ("adaptive-compare",)),
)
# Output files whose full payload the cli gate compares.
CLI_PAYLOADS = (
    "decay/metrics.json",
    "rabi/metrics.json",
    "fit/fit.json",
    "sidebands/sidebands.json",
    "adaptive-compare/compare.json",
)


@dataclass(frozen=True)
class Command:
    """One CLI call: `subdir` is its output directory inside the pass."""

    subdir: str
    argv: tuple[str, ...]


def markov_seed(seed: int) -> int:
    return seed % MARKOV_SEEDS


def commands(workload: str, seed: int, quick: bool = False) -> list[Command]:
    """The commands of one pass.  `quick` keeps the map and scan to a few
    cells and sizes whose expected values are a subset of the full ones."""
    if workload == "map":
        argv = ("sweep",)
        if quick:
            argv += ("--n-min", "2", "--n-max", "4", "--v-min", "0.05", "--v-max", "0.07")
        return [Command("map", argv)]
    if workload == "scan":
        sizes = "10,11,12" if quick else SCAN_SIZES
        return [Command("scan", ("sweep", "--size-scan", "--sizes", sizes) + SCAN_ARGS)]
    if workload == "markov":
        return [Command("markov", ("markov", "--seed", str(markov_seed(seed))))]
    if workload == "cli":
        return [Command(sub, argv) for sub, argv in CLI_COMMANDS]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- parsing


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_map(outdir: Path) -> dict:
    rows = _csv_rows(outdir / "map" / "map.csv")
    cells = {f"{r['n']}@{r['v']}": float(r["value"]) for r in rows}
    errors = json.loads((outdir / "map" / "map.json").read_text())["cell_errors"]
    return {"cells": cells, "cell_errors": len(errors)}


def read_scan(outdir: Path) -> dict:
    rows = _csv_rows(outdir / "scan" / "size_scan.csv")
    return {
        f"{r['variant']}@{r['n_fqc']}": [
            float(r["omega_eff"]), float(r["gamma_eff"]), float(r["d2"]), int(r["converged"])
        ]
        for r in rows
    }


def read_markov(outdir: Path) -> dict:
    sigma = [float(r["sigma"]) for r in _csv_rows(outdir / "markov" / "sigma.csv")]
    idx = list(range(0, len(sigma), SIGMA_STRIDE))
    if idx[-1] != len(sigma) - 1:
        idx.append(len(sigma) - 1)
    payload = json.loads((outdir / "markov" / "markov.json").read_text())["nonmarkovianity"]
    return {
        "nt": len(sigma),
        "sigma": [sigma[i] for i in idx],
        "value": payload["value"],
        "std_error": payload["std_error"],
    }


def read_cli(outdir: Path) -> dict:
    return {name: json.loads((outdir / name).read_text()) for name in CLI_PAYLOADS}


READERS = {"map": read_map, "scan": read_scan, "markov": read_markov, "cli": read_cli}


def file_hashes(outdir: Path) -> dict[str, str]:
    """sha256 of every output file, keyed by its path inside the pass."""
    return {
        p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*"))
        if p.is_file()
    }


def output_volume(outdir: Path) -> tuple[int, int]:
    """Bytes of all output files and data rows of all CSV outputs."""
    nbytes = rows = 0
    for p in outdir.rglob("*"):
        if not p.is_file():
            continue
        nbytes += p.stat().st_size
        if p.suffix == ".csv":
            with open(p) as fh:
                data = sum(1 for line in fh if not line.startswith("#"))
            rows += max(data - 1, 0)
    return nbytes, rows


# ---------------------------------------------------------------- comparing


def close(got, want) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        return abs(got - want) <= ATOL + RTOL * abs(want)
    return got == want


def diff(got, want, path: str = "") -> list[str]:
    """Every place where `got` departs from `want` beyond the tolerance."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{path}/{k}: missing" for k in want if k not in got]
        out += [f"{path}/{k}: unexpected" for k in got if k not in want]
        for k in want:
            if k in got:
                out += diff(got[k], want[k], f"{path}/{k}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += diff(g, w, f"{path}[{i}]")
        return out
    return [] if close(got, want) else [f"{path}: {got!r} != {want!r}"]


@dataclass
class Verdict:
    """Outcome of one pass: commands attempted and failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    cell_errors: int = 0


def check_pass(workload: str, seed: int, outdir: Path, exit_codes: list[int],
               expected: dict, quick: bool = False) -> Verdict:
    """Compare one pass's outputs with the stored values.

    A command fails on a nonzero exit code, a sweep `cell_errors` entry, or
    any output outside the tolerance.  In quick mode the map and scan cover a
    subset of the stored rows, so only the rows present are compared.
    """
    verdict = Verdict(attempted=len(exit_codes))
    bad_exit = [code for code in exit_codes if code != 0]
    if bad_exit:
        verdict.failed = len(bad_exit)
        verdict.problems.append(f"exit codes {exit_codes}")
        return verdict
    try:
        got = READERS[workload](outdir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        verdict.failed = verdict.attempted
        verdict.problems.append(f"unreadable output: {exc!r}")
        return verdict

    want = expected[workload]
    if workload == "map":
        verdict.cell_errors = got["cell_errors"]
        cells = want["cells"]
        if quick:
            cells = {k: cells.get(k, math.inf) for k in got["cells"]}
        per_command = [diff(got["cells"], cells, "map.csv")]
        if got["cell_errors"]:
            per_command[0].append(f"{got['cell_errors']} cell_errors")
    elif workload == "scan":
        rows = {k: want.get(k, []) for k in got} if quick else want
        per_command = [diff(got, rows, "size_scan.csv")]
    elif workload == "markov":
        per_command = [diff(got, want[str(markov_seed(seed))], "markov")]
    else:  # one payload per cli command
        per_command = [diff(got[name], want[name], name) for name in CLI_PAYLOADS]
    verdict.failed = sum(1 for problems in per_command if problems)
    verdict.problems = [p for problems in per_command for p in problems]
    return verdict


def load_expected(directory: Path) -> dict:
    return {w: json.loads((directory / f"{w}.json").read_text()) for w in WORKLOADS} | {
        "sha256": json.loads((directory / "sha256.json").read_text())
    }


def identical_files(workload: str, seed: int, hashes: dict[str, str], expected: dict) -> int:
    """How many output files are byte-identical to the seed commit's."""
    table = expected["sha256"][workload]
    if workload == "markov":
        table = table[str(markov_seed(seed))]
    return sum(1 for name, digest in hashes.items() if table.get(name) == digest)
