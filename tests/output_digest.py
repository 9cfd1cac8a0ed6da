"""Run a fixed list of CLI commands and print the sha256 of every file they write.

    PYTHONPATH=src python tests/output_digest.py OUTDIR

Each run goes through `fqcsim.cli.main` into its own directory under OUTDIR.
The script prints one line per run, its name and exit code, then one line per
file it wrote, its path under OUTDIR and its sha256.  It exits 1 if any run
exits with a code other than 0.

fqcsim is imported from PYTHONPATH, so the same script checks any tree: run
it against the sources of two commits, then `diff` the two listings.  A
refactor that keeps every output keeps every line.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from fqcsim.cli import main

# The adaptive model at omega0 2 through a config file, not through flags.
ADAPTIVE_CONFIG = {"model": "adaptive", "omega0": 2.0}

RUNS = {
    "decay": ["decay"],
    "decay-f0": ["decay", "--initial-state", "f0"],
    "decay-f3": ["decay", "--initial-state", "f3"],
    "decay-hole": ["decay", "--hole-half-width", "0.3"],
    "decay-v0": ["decay", "--v", "0"],
    "rabi-sidebands-markov": ["rabi", "--sidebands", "--markov"],
    "rabi-g": ["rabi", "--initial-state", "g"],
    "rabi-g-detuned": ["rabi", "--initial-state", "g", "--detuning", "0.4"],
    "rabi-adaptive-sidebands": ["rabi", "--sidebands", "--config", "{config}"],
    "fit": ["fit"],
    "fit-g": ["fit", "--initial-state", "g"],
    "sidebands": ["sidebands"],
    "markov": ["markov"],
    "adaptive-compare": ["adaptive-compare"],
    "adaptive-compare-g": ["adaptive-compare", "--initial-state", "g"],
    "map": ["sweep"],
    "map-rabi-d2": ["sweep", "--model", "rabi", "--metric", "d2", "--omega0", "1"],
    "map-rabi-fit": ["sweep", "--model", "rabi", "--metric", "fit", "--omega0", "1"],
    "map-adaptive-d2": ["sweep", "--model", "adaptive", "--metric", "d2", "--omega0", "2"],
    "size-scan": ["sweep", "--size-scan"],
}


def digest(outdir: Path) -> bool:
    """Run every command of RUNS under outdir and print its exit code and
    file hashes; True if every run exits 0."""
    outdir.mkdir(parents=True, exist_ok=True)
    config = outdir / "adaptive-config.json"
    config.write_text(json.dumps(ADAPTIVE_CONFIG))
    ok = True
    for name, argv in RUNS.items():
        run_dir = outdir / name
        args = [arg.format(config=config) for arg in argv]
        code = main([*args, "--out", str(run_dir)])
        ok &= code == 0
        print(f"{name} exit {code}", flush=True)
        for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"  {path.relative_to(outdir).as_posix()} {sha}", flush=True)
    return ok


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(0 if digest(Path(sys.argv[1])) else 1)
