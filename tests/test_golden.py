"""Golden values of small CLI runs, one run per model path.

`golden_cli.json` holds the values these runs gave before every command and
sweep cell built its quasi-continuum through `sweep.build_model`.  The values
are never regenerated: a difference is a change of behaviour, to be argued,
not absorbed.  JSON outputs contribute every number, string and bool (config
and version left out); CSV outputs contribute, per column, the row count, the
sum and the sum of magnitudes, the sums compared to a relative bound plus a
1e-12 per-row floor.  Every CSV a case writes is also compared, byte for
byte, with what the row writer `oracles.write_csv_rows` makes of the same
columns.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fqcsim import analysis, cli, evolve, metrics, sweep
from fqcsim.cli import main
from fqcsim.output import write_csv
from oracles import write_csv_rows

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
RTOL = 1e-9
RTOL_FIT = 1e-6
# Every CSV entry here is at most about 1.  Columns that vanish identically
# (Im rho_ii, Re rho_eg and Im s_ge on resonance) carry only rounding, such
# as the residue of a fused complex multiply, which another CPU or numpy
# build need not reproduce; so each row of any CSV column may differ by 1e-12
REF_ATOL = 1e-12
FIT_KEYS = ("omega_eff", "gamma_eff", "residual_norm")

_MAP = ["--n-min", "8", "--n-max", "12", "--n-step", "4",
        "--v-min", "0.25", "--v-max", "0.35", "--v-step", "0.1",
        "--omega0", "4", "--tf", "4", "--grid-points", "401"]
_HOLE_CASE = ["--n", "30", "--v", "0.3", "--omega0", "10", "--tf", "4",
              "--grid-points", "401", "--hole-half-width", "2"]

CASES = {
    "decay": ["decay", "--n", "15", "--v", "0.45", "--tf", "10", "--grid-points", "1001"],
    "rabi": ["rabi", "--n", "20", "--v", "0.3", "--omega0", "1", "--tf", "6",
             "--grid-points", "601", "--sidebands"],
    "rabi_markov": ["rabi", "--n", "10", "--v", "0.3", "--omega0", "1", "--tf", "6",
                    "--grid-points", "401", "--markov", "--count", "8"],
    "fit": ["fit", "--n", "20", "--v", "0.3", "--omega0", "10", "--tf", "8",
            "--grid-points", "801"],
    "markov": ["markov", "--n", "10", "--v", "0.25", "--omega0", "1", "--tf", "12",
               "--grid-points", "401", "--count", "16", "--seed", "3"],
    "sidebands": ["sidebands", "--n", "22", "--v", "0.3", "--omega0", "10"],
    "adaptive_compare": ["adaptive-compare", "--v", "0.3", "--omega0", "10",
                         "--flat-size", "21", "--adaptive-size", "20", "--tf", "8",
                         "--grid-points", "801"],
    # a fit needs a driven model: `--model decay --metric fit` exits 2
    **{f"sweep_{model}_{metric}": ["sweep", "--model", model, "--metric", metric] + _MAP
       for model in ("decay", "rabi", "adaptive") for metric in ("d1", "d2", "fit")
       if (model, metric) != ("decay", "fit")},
    "size_scan": ["sweep", "--size-scan", "--sizes", "20,21,22", "--omega0", "10",
                  "--v", "0.3", "--tf", "8", "--grid-points", "801"],
    "decay_hole": ["decay", "--n", "15", "--v", "0.3", "--tf", "6", "--grid-points", "601",
                   "--hole-half-width", "1"],
    "rabi_hole": ["rabi"] + _HOLE_CASE,
    "markov_hole": ["markov", "--n", "12", "--v", "0.3", "--omega0", "1", "--tf", "8",
                    "--grid-points", "401", "--count", "8", "--hole-half-width", "1"],
}


def _leaves(value, key: str, found: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _leaves(v, f"{key}.{k}", found)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _leaves(v, f"{key}.{i}", found)
    else:
        found[key] = value


def _column(cells: list[str]):
    try:
        x = np.array([float(c) for c in cells])
    except ValueError:
        return ",".join(cells)
    return [x.size, math.fsum(x), math.fsum(np.abs(x))]


def fingerprint(out: Path) -> dict:
    """The compared values of every output file in a run directory."""
    found = {}
    for path in sorted(out.iterdir()):
        text = path.read_text()
        if path.suffix == ".json":
            payload = json.loads(text)
            payload.pop("config", None)
            payload.pop("version", None)
            _leaves(payload, path.name, found)
            continue
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        for j, name in enumerate(header):
            found[f"{path.name}:{name}"] = _column([row[j] for row in rows])
    return found


def _run(args, out: Path) -> dict:
    assert main(args + ["--out", str(out)]) == 0
    return fingerprint(out)


@pytest.fixture
def csv_oracle(monkeypatch, tmp_path_factory):
    """Names of the CSVs written, each checked against the row writer."""
    twins, written = tmp_path_factory.mktemp("rows"), []

    def checked(path, columns, header=()):
        write_csv(path, columns, header)
        write_csv_rows(twins / "twin.csv", columns, header)
        assert Path(path).read_bytes() == (twins / "twin.csv").read_bytes(), path
        written.append(Path(path).name)

    for module in (analysis, cli, evolve, metrics, sweep):
        monkeypatch.setattr(module, "write_csv", checked)
    return written


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_values(tmp_path, name, csv_oracle):
    got, want = _run(CASES[name], tmp_path), GOLDEN[name]
    assert sorted(csv_oracle) == sorted(p.name for p in tmp_path.glob("*.csv"))
    assert sorted(got) == sorted(want)
    for key, expected in want.items():
        fit = name.endswith("_fit") or any(k in key for k in FIT_KEYS)
        rtol = RTOL_FIT if fit else RTOL
        value = got[key]
        if isinstance(expected, list):  # CSV column: rows, sum, sum of magnitudes
            atol = REF_ATOL * expected[0]
            assert value[0] == expected[0], key
            assert abs(value[1] - expected[1]) <= rtol * expected[2] + atol or (
                math.isnan(value[1]) and math.isnan(expected[1])), key
            np.testing.assert_allclose(value[2], expected[2], rtol=rtol, atol=atol,
                                       err_msg=key)
        elif isinstance(expected, float):
            np.testing.assert_allclose(value, expected, rtol=rtol, err_msg=key)
        else:
            assert value == expected, key


@pytest.mark.parametrize("name, model, metric", [
    ("rabi_hole", "rabi", "d2"),
    ("decay_hole", "decay", "d1"),
])
def test_sweep_hole_width_cuts_a_hole(tmp_path, name, model, metric):
    # a given --hole-half-width holes the quasi-continuum in a sweep cell as
    # it does in the command with the same model
    args = CASES[name][1:]
    n, v = args[args.index("--n") + 1], args[args.index("--v") + 1]
    grid = ["--n-min", n, "--n-max", n, "--v-min", v, "--v-max", v]
    got = _run(["sweep", "--model", model, "--metric", metric] + grid + args, tmp_path)
    want = GOLDEN[name][f"metrics.json.{metric}.value"]
    np.testing.assert_allclose(got["map.json.values.0.0"], want, rtol=RTOL)
