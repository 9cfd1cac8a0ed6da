"""Each experiment script runs end to end on tiny inputs and writes its CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, args: list[str]) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)] + args,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _header(path: Path) -> str:
    return next(line for line in path.read_text().splitlines() if not line.startswith("#"))


def test_damping_regimes(tmp_path):
    _run("damping_regimes.py", ["--n", "4", "--tf", "2", "--omega0", "1",
                                "--grid-points", "101", "--out-dir", str(tmp_path)])
    assert _header(tmp_path / "omega0_1.csv") == "t,pi_e_fqc,pi_e_reference"


def test_size_scan(tmp_path):
    out = tmp_path / "scan.csv"
    _run("size_scan.py", ["--sizes", "10,11", "--omega0", "4", "--tf", "2", "--out", str(out)])
    assert _header(out) == "variant,n_fqc,omega_eff,gamma_eff,d2,converged"


@pytest.mark.parametrize("drive", [[], ["--omega0", "1"]])
def test_suitability_map(tmp_path, drive):
    out = tmp_path / "map.csv"
    _run("suitability_map.py", ["--n-min", "2", "--n-max", "3", "--v-min", "0.2",
                                "--v-max", "0.3", "--v-step", "0.1", "--tf", "2",
                                "--out", str(out)] + drive)
    assert _header(out) == "n,v,value"
