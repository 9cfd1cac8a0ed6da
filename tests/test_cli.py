import json
import re
import tracemalloc

import numpy as np
import pytest

from fqcsim import FqcsimError
from fqcsim import cli, sweep
from fqcsim.cli import main
from fqcsim.output import embedded_config

FAST = ["--grid-points", "301"]


def run(args):
    return main([str(a) for a in args])


def test_decay_smoke(tmp_path):
    out = tmp_path / "run"
    assert run(["decay", "--out", out, "--n", 15, "--v", 0.3, "--tf", 10,
                "--grid-points", "2001"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["d1"]["value"] <= 0.01
    assert metrics["zeno"]["params"]["t_zeno"] == pytest.approx(0.6, abs=0.02)
    assert "no revival" in metrics["revival"]["notes"]
    assert metrics["config"]["n_half"] == 15
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[2] == "t,pi_e,pi_ref"
    assert len(lines) == 3 + 2001


def test_decay_coarse_grid_records_unresolved_zeno(tmp_path):
    out = tmp_path / "run"
    assert run(["decay", "--out", out, "--n", 15, "--v", 0.3, "--tf", 10] + FAST) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert not metrics["zeno"]["converged"]
    assert "under-resolved" in metrics["zeno"]["notes"]


def test_decay_decoupled_sanity(tmp_path):
    out = tmp_path / "run"
    assert run(["decay", "--out", out, "--n", 4, "--v", 0.0, "--tf", 5] + FAST) == 0
    rows = (out / "timeseries.csv").read_text().splitlines()[3:]
    pies = np.array([float(r.split(",")[1]) for r in rows])
    np.testing.assert_allclose(pies, 1.0, atol=1e-12)


@pytest.mark.parametrize("start, pi0", [("e", 1.0), ("f0", 0.0), ("f3", 0.0)])
def test_decay_reference_starts_from_the_exact_population(tmp_path, start, pi0):
    # pi_ref = pi0 exp(-gamma t) with the start state's population of |e>,
    # bit for bit, not the computed pi_e(0)
    out = tmp_path / "run"
    assert run(["decay", "--out", out, "--n", 15, "--v", 0.3, "--tf", 10,
                "--initial-state", start] + FAST) == 0
    rows = np.array([[float(x) for x in r.split(",")]
                     for r in _data_rows(out / "timeseries.csv")[1:]])
    np.testing.assert_array_equal(rows[:, 2], pi0 * np.exp(-rows[:, 0]))


def test_decay_revival_case(tmp_path):
    out = tmp_path / "run"
    assert run(["decay", "--out", out, "--n", 15, "--v", 0.45, "--tf", 10,
                "--grid-points", "2001"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["revival"]["params"]["t_revival"] == pytest.approx(5.0, abs=0.5)


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_half": 10, "coupling_v": 0.2, "t_f": 5.0}))
    out = tmp_path / "run"
    assert run(["decay", "--config", cfg, "--out", out, "--v", 0.25] + FAST) == 0
    resolved = json.loads((out / "metrics.json").read_text())["config"]
    assert resolved["n_half"] == 10       # from file
    assert resolved["coupling_v"] == 0.25  # flag wins
    assert resolved["t_f"] == 5.0


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_half": 10, "bogus_key": 1}))
    assert run(["decay", "--config", cfg, "--out", tmp_path / "x"]) == 2


@pytest.mark.parametrize("entry", [
    {"n_half": "15"},
    {"n_half": True},
    {"n_half": 15.0},
    {"coupling_v": "0.3"},
    {"coupling_v": False},
    {"t_f": None},
    {"hole_half_width": "1"},
    {"sizes": [10, "11"]},
    {"sizes": 10},
    {"v_values": [0.2, True]},
    {"initial_state": 1},
])
def test_wrong_config_type_rejected(tmp_path, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    assert run(["decay", "--config", cfg, "--out", tmp_path / "x"] + FAST) == 2


def test_int_accepted_for_float_and_none_for_optional(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coupling_v": 0, "t_f": 4, "hole_half_width": None,
                               "v_values": [1, 0.5]}))
    out = tmp_path / "run"
    assert run(["decay", "--config", cfg, "--out", out, "--n", 4] + FAST) == 0
    assert json.loads((out / "metrics.json").read_text())["config"]["t_f"] == 4


@pytest.mark.parametrize("bounds", [
    ["--n-min", 3], ["--n-max", 5], ["--v-min", 0.2], ["--v-max", 0.3],
])
def test_sweep_half_given_axis_bounds_rejected(tmp_path, bounds):
    assert run(["sweep", "--out", tmp_path / "x", "--metric", "d1"] + bounds) == 2


@pytest.mark.parametrize("axis", [
    ["--n-min", 3, "--n-max", 2],
    ["--n-min", -2, "--n-max", 1],
    ["--v-min", 0.3, "--v-max", 0.2],
    ["--v-step", -0.1],
    ["--n-min", 2, "--n-max", 3, "--n-step", 0],
    ["--n-min", 2, "--n-max", 3, "--n-step", -1],
    ["--v-min", 0.1, "--v-max", 0.2, "--v-step", 0],
    ["--v-min", 0.1, "--v-max", 0.2, "--v-step", "nan"],
    ["--v-min", "nan", "--v-max", "nan"],
    ["--v-min", 0.1, "--v-max", "inf"],
    ["--v-min=-inf", "--v-max", 0.2],
])
def test_sweep_bad_axis_rejected(tmp_path, axis, capsys):
    # each of these used to run the default axis or end in a traceback
    assert run(["sweep", "--out", tmp_path / "x", "--n-min", 5, "--n-max", 5,
                "--v-min", 0.3, "--v-max", 0.3] + axis + FAST) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [{"n_values": []}, {"v_values": []}, {"sizes": []},
                                   {"v_values": [0.3, float("nan")]}])
def test_sweep_empty_or_bad_config_axis_rejected(tmp_path, entry):
    # an empty axis is not the default axis; a NaN v failed every cell of its column
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    args = ["sweep", "--config", cfg, "--out", tmp_path / "x", "--omega0", 2] + FAST
    assert run(args + (["--size-scan"] if "sizes" in entry else [])) == 2


def test_sweep_non_integer_sizes_rejected(tmp_path, capsys):
    assert run(["sweep", "--size-scan", "--sizes", "10,x", "--out", tmp_path / "x"]) == 2
    assert "--sizes" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["0", "-1", "nan"])
@pytest.mark.parametrize("mode", [["--metric", "d1"], ["--metric", "d2"], ["--metric", "fit"],
                                  ["--size-scan", "--sizes", "11", "--omega0", 2]])
def test_sweep_bad_gamma_rejected_before_the_pool(tmp_path, gamma, mode, capsys):
    # a map used to exit 0 with every cell failed
    assert run(["sweep", "--out", tmp_path / "x", "--gamma", gamma, "--n-min", 5,
                "--n-max", 6, "--v-min", 0.3, "--v-max", 0.4] + mode + FAST) == 2
    assert "gamma must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "x" / "map.json").exists()


@pytest.mark.parametrize("model", [[], ["--model", "decay"]])
def test_sweep_fit_of_the_decay_model_rejected(tmp_path, model, capsys):
    # every cell used to fail the same way while the command exited 0
    assert run(["sweep", "--out", tmp_path / "x", "--metric", "fit", "--n-min", 5,
                "--n-max", 6, "--v-min", 0.3, "--v-max", 0.4] + model + FAST) == 2
    assert "needs a driven model" in capsys.readouterr().err
    assert not (tmp_path / "x" / "map.json").exists()


@pytest.mark.parametrize("args", [
    ["fit"], ["adaptive-compare"], ["sweep", "--size-scan", "--sizes", "11", "--omega0", 2],
    ["sweep", "--model", "rabi", "--metric", "fit", "--omega0", 2, "--n-min", 5, "--n-max", 5,
     "--v-min", 0.3, "--v-max", 0.3],
])
def test_fit_on_one_time_after_0_rejected(tmp_path, args, capsys):
    # a grid of 2 points fitted two parameters to one time after 0, and a fit
    # map of it would fail in every cell with exit 0
    assert run(args + ["--grid-points", 2, "--out", tmp_path / "x"]) == 2
    assert "2 grid times other than 0" in capsys.readouterr().err
    assert not (tmp_path / "x" / "map.json").exists()


@pytest.mark.parametrize("width, want", [(100, 3), (3, 0)])
def test_map_with_no_scored_cell_exits_3_after_writing_it(tmp_path, width, want, capsys):
    # a hole past the band edge of every cell used to exit 0 with an all-NaN
    # map; one scored cell (N 3, v 0.4 of a hole 3 wide) still exits 0
    out = tmp_path / "x"
    assert run(["sweep", "--out", out, "--hole-half-width", width, "--n-min", 2, "--n-max", 3,
                "--v-min", 0.39, "--v-max", 0.4] + FAST) == want
    err = capsys.readouterr().err
    assert err == ("error: no cell of the map was scored\n" if want else "")
    payload = json.loads((out / "map.json").read_text())
    assert len((out / "map.csv").read_text().splitlines()) == 3 + 4  # header, 2 x 2 cells
    assert len(payload["cell_errors"]) == 4 - (want == 0)
    assert all("exceeds the FQC band edge" in e["error"] for e in payload["cell_errors"])
    assert np.isnan(payload["values"]).sum() == len(payload["cell_errors"])


@pytest.mark.parametrize("mode", [[], ["--size-scan", "--sizes", "11", "--omega0", 2]])
def test_sweep_initial_state_other_than_e_rejected(tmp_path, mode, capsys):
    # every cell and the d2 reference start in |e>
    assert run(["sweep", "--out", tmp_path / "x", "--initial-state", "g", "--n-min", 5,
                "--n-max", 5, "--v-min", 0.3, "--v-max", 0.3] + mode + FAST) == 2
    assert "starts from e" in capsys.readouterr().err


@pytest.mark.parametrize("command, start", [("sidebands", "starts from g"),
                                            ("markov", "samples its own pairs")])
def test_initial_state_a_command_does_not_read_rejected(tmp_path, command, start, capsys):
    # sidebands always start the atom in |g> and markov samples its pairs:
    # any other value than the default would be recorded but not used
    assert run([command, "--out", tmp_path / "x", "--initial-state", "g"] + FAST) == 2
    assert start in capsys.readouterr().err
    assert not (tmp_path / "x" / f"{command}.json").exists()


_COMMON_FLAGS = {
    "--config": ("config", "c.json"), "--out": ("out", "o"), "--seed": ("seed", 3),
    "--grid-points": ("grid_points", 11), "--tf": ("t_f", 2.5), "--n": ("n_half", 4),
    "--v": ("coupling_v", 0.2), "--gamma": ("gamma", 1.5), "--omega0": ("omega0", 2.0),
    "--detuning": ("detuning", 0.5), "--hole-half-width": ("hole_half_width", 0.75),
    "--initial-state": ("initial_state", "g"),
}


@pytest.mark.parametrize("command", ["decay", "rabi", "sweep", "sidebands", "markov", "fit",
                                     "adaptive-compare"])
def test_common_flags_parse_under_every_subcommand(command):
    argv = [command] + [str(a) for flag, (_, value) in _COMMON_FLAGS.items()
                        for a in (flag, value)]
    args = cli.build_parser().parse_args(argv)
    assert {dest: getattr(args, dest) for dest, _ in _COMMON_FLAGS.values()} == dict(
        _COMMON_FLAGS.values())


def test_invalid_value_rejected(tmp_path):
    assert run(["decay", "--out", tmp_path / "x", "--v", -0.3]) == 2


@pytest.mark.parametrize("args, field", [
    (["rabi", "--omega0", "inf"], "rabi_omega0"),
    (["rabi", "--omega0", "nan"], "rabi_omega0"),
    (["rabi", "--detuning", "nan"], "detuning_delta"),
    (["rabi", "--detuning", "inf"], "detuning_delta"),
    (["rabi", "--gamma", "nan"], "gamma_target"),
    (["decay", "--gamma", "inf"], "gamma_target"),
    (["decay", "--v", "nan"], "coupling_v"),
    (["decay", "--v", "inf"], "coupling_v"),
    (["decay", "--hole-half-width", "nan"], "half_width"),
    (["rabi", "--hole-half-width", "inf"], "half_width"),
    (["adaptive-compare", "--hole-half-width", "inf"], "half_width"),
    (["sweep", "--hole-half-width", "nan", "--n-min", 5, "--n-max", 5, "--v-min", 0.3,
      "--v-max", 0.3], "half_width"),
    (["sweep", "--size-scan", "--sizes", 20, "--omega0", 2, "--v", "nan"], "coupling_v"),
    # v^2 overflows (an OverflowError, exit 1) or underflows the spacing to 0
    (["decay", "--v", 1e200], "coupling_v"),
    (["rabi", "--v", 1e200], "coupling_v"),
    (["adaptive-compare", "--v", 1e200], "coupling_v"),
    (["sweep", "--size-scan", "--sizes", 20, "--v", 1e200], "coupling_v"),
    (["decay", "--v", 1e-170], "coupling_v"),
    # a subnormal spacing overflowed a = (v / spacing)^2: exit 3, "secular residual inf"
    (["decay", "--v", 1e-160], "coupling_v"),
])
def test_non_finite_model_input_rejected(tmp_path, args, field, capsys):
    # rabi --omega0 inf wrote all-NaN outputs and decay --hole-half-width nan
    # cut no hole, both with exit 0; a NaN v, gamma, omega0 or detuning was
    # caught only by the symmetry check of `eigh`, which single-level cells
    # no longer run
    assert run(args + ["--out", tmp_path / "x"] + FAST) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err and "finite" in err
    assert not any((tmp_path / "x").iterdir())


def test_model_too_large_for_memory_exits_3(tmp_path, monkeypatch, capsys):
    # rabi --n 100000 ended in a MemoryError traceback with exit 1
    def too_large(spec, drive):
        raise MemoryError("Unable to allocate 298. GiB for an array with shape "
                          "(200003, 200003) and data type float64")

    monkeypatch.setattr(sweep, "build_two_level", too_large)
    assert run(["rabi", "--n", 100000, "--out", tmp_path / "x"] + FAST) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: out of memory: Unable to allocate")
    assert err.count("\n") == 1


@pytest.mark.parametrize("t_f", ["nan", "inf", "0", "-2"])
def test_non_positive_or_non_finite_t_f_rejected(tmp_path, t_f):
    # sidebands builds no time grid, so only the config check stands here
    assert run(["sidebands", "--out", tmp_path / "x", "--tf", t_f]) == 2


@pytest.mark.parametrize("args, message", [
    (["markov", "--seed", -1], "seed must be >= 0, got -1"),
    (["rabi", "--markov", "--seed", -3] + FAST, "seed must be >= 0, got -3"),
    (["markov", "--tf", 1e307, "--count", 2], "a grid of inf points"),
    (["markov", "--tf", 1e300, "--count", 2], "a grid of 6.3662e+300 points"),
    (["sidebands", "--tf", 1e300], "a grid of 7.92e+301 points"),
    (["rabi", "--sidebands", "--tf", 1e300, "--grid-points", 11], "a grid of 5.4e+301 points"),
])
def test_negative_seed_or_grid_beyond_any_array_rejected(tmp_path, args, message, capsys):
    # each exited 1 with a traceback: default_rng rejects a negative seed,
    # int() an infinite point count and np.linspace a count past its limit
    out = tmp_path / "x"
    assert run(args + ["--out", out]) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_sweep_records_a_negative_seed(tmp_path):
    # a map samples nothing: its seed is provenance only
    out = tmp_path / "x"
    assert run(["sweep", "--seed", -1, "--n-min", 5, "--n-max", 5, "--v-min", 0.3,
                "--v-max", 0.3, "--out", out] + FAST) == 0
    assert json.loads((out / "map.json").read_text())["provenance"]["seed"] == -1


def test_reference_beyond_the_float_range_exits_3(tmp_path, capsys):
    # K^2 of H_eff overflowed: exit 0, NaN in reference.csv and metrics.json
    out = tmp_path / "x"
    assert run(["rabi", "--detuning", 1e300, "--out", out] + FAST) == 3
    assert "numerical failure: the non-Hermitian reference overflows" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("args", [
    # sparse ladders, a = (v / delta)^2 about 3e-5 and 6e-5: the |e>-f0
    # doublet's root started far below sqrt(a) and failed its residual check
    ["--gamma", 0.01], ["--v", 20],
    # dense ladders, a about 2.5e14 and 2.5e198: the top root's digamma
    # difference cancelled, and (pi a)^2 overflowed
    ["--v", 1e-8], ["--v", 1e-100],
    # a subnormal a and one that underflows to 0: the limit a = 0
    ["--gamma", 1e-155], ["--gamma", 1e-300],
])
def test_decay_solves_sparse_and_dense_ladders(tmp_path, args):
    out = tmp_path / "x"
    assert run(["decay", "--out", out] + args + FAST) == 0
    if args[0] == "--gamma" and args[1] < 1e-100:
        # |e> and the level f0 at its energy alone: c_e = cos(v t), not 1
        rows = np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=3)
        assert np.abs(rows[:, 1] - np.cos(0.3 * rows[:, 0]) ** 2).max() <= 1e-13


def test_collective_coupling_beyond_1e300_exits_2(tmp_path, capsys):
    # (2N + 1)(v / delta)^2 = 7.9e301: the top root's Newton step overflowed
    assert run(["decay", "--v", 1e-151, "--out", tmp_path / "x"] + FAST) == 2
    assert "(2N + 1)(v / spacing)^2 = 7.85e+301: it must be at most 1e300" in (
        capsys.readouterr().err)


def test_sideband_occupation_beyond_the_float_range_exits_3(tmp_path, capsys):
    # (v omega0)^2 overflowed a Python float: exit 1 with an OverflowError
    out = tmp_path / "x"
    assert run(["sidebands", "--omega0", 1e160, "--out", out]) == 3
    assert "sideband occupations are not finite at omega0 1e+160" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("t_f", [1e-300, 1e-200])
def test_decay_zeno_window_whose_t4_underflows_is_recorded(tmp_path, t_f):
    # the Zeno fit divided by zero (exit 1); now it is under-resolved
    out = tmp_path / "x"
    assert run(["decay", "--tf", t_f, "--out", out]) == 0
    zeno = json.loads((out / "metrics.json").read_text())["zeno"]
    assert not zeno["converged"] and "under-resolved" in zeno["notes"]


def test_markov_grid_beyond_memory_exits_3(tmp_path, capsys):
    # 6.4e15 points fit a numpy array but no memory: the allocation fails at once
    assert run(["markov", "--tf", 1e15, "--out", tmp_path / "x"]) == 3
    assert "numerical failure: out of memory" in capsys.readouterr().err


def test_non_integer_thread_cap_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FQCSIM_THREADS", "abc")
    assert run(["sweep", "--out", tmp_path / "x", "--n-min", 5, "--n-max", 5,
                "--v-min", 0.3, "--v-max", 0.3] + FAST) == 2
    assert "FQCSIM_THREADS" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert run(["decay", "--config", tmp_path / "nope.json", "--out", tmp_path / "x"]) == 2


def test_io_failure_exit_code(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert run(["decay", "--out", blocker / "sub"] + FAST) == 4


def test_base_error_exit_code(tmp_path, monkeypatch, capsys):
    def fail(cfg, out):
        raise FqcsimError("cell failed")

    monkeypatch.setattr(cli, "cmd_decay", fail)
    assert run(["decay", "--out", tmp_path / "run"] + FAST) == 3
    assert capsys.readouterr().err == "error: cell failed\n"


def test_round_trip_bit_exact(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["decay", "--out", out1, "--n", 8, "--v", 0.3, "--tf", 4] + FAST) == 0
    cfg = embedded_config(out1 / "timeseries.csv")
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["decay", "--config", cfg_path, "--out", out2]) == 0
    for name in ("timeseries.csv", "metrics.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_csv_full_precision(tmp_path):
    out = tmp_path / "run"
    assert run(["decay", "--out", out, "--n", 8, "--v", 0.3, "--tf", 4] + FAST) == 0
    row = (out / "timeseries.csv").read_text().splitlines()[4]
    mantissa = row.split(",")[1].split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 17


def test_rabi_with_sidebands_and_markov(tmp_path):
    out = tmp_path / "run"
    assert run([
        "rabi", "--out", out, "--n", 10, "--v", 0.3, "--omega0", 2.0,
        "--tf", 6, "--markov", "--count", 4, "--sidebands", "--seed", 1,
    ] + FAST) == 0
    for name in ("timeseries.csv", "reference.csv", "source_terms.csv",
                 "sidebands.csv", "sigma.csv", "metrics.json"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert "d2" in metrics and "nonmarkovianity" in metrics
    assert metrics["nonmarkovianity"]["seed"] == 1


def test_rabi_markov_honours_grid_points(tmp_path):
    # the Rabi floor at omega0 = 1, t_f = 6 is 40 points, far below 3001
    out = tmp_path / "run"
    assert run(["rabi", "--out", out, "--n", 6, "--v", 0.3, "--tf", 6, "--markov",
                "--count", 2, "--grid-points", 3001]) == 0
    rows = [line for line in (out / "sigma.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "t,sigma"
    assert len(rows) == 1 + 3001
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["nonmarkovianity"]["grid_points"] == 3001


def test_markov_command(tmp_path):
    out = tmp_path / "run"
    assert run(["markov", "--out", out, "--n", 8, "--v", 0.25, "--omega0", 1.0,
                "--tf", 8, "--count", 4, "--seed", 3] + FAST) == 0
    payload = json.loads((out / "markov.json").read_text())
    assert payload["nonmarkovianity"]["count"] == 4
    assert (out / "sigma.csv").exists()


def test_fit_command(tmp_path):
    out = tmp_path / "run"
    assert run(["fit", "--out", out, "--n", 17, "--v", 0.3, "--omega0", 10.0,
                "--tf", 8, "--grid-points", "1601"]) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["fit"]["converged"]
    assert payload["fit"]["params"]["gamma_eff"] < 0.3


def test_sidebands_command(tmp_path):
    out = tmp_path / "run"
    assert run(["sidebands", "--out", out, "--n", 22, "--v", 0.3,
                "--omega0", 10.0]) == 0
    payload = json.loads((out / "sidebands.json").read_text())
    assert payload["n_max"] == 18


def test_sweep_single_cell(tmp_path):
    out = tmp_path / "run"
    assert run(["sweep", "--out", out, "--n-min", 15, "--n-max", 15,
                "--v-min", 0.3, "--v-max", 0.3, "--metric", "d1", "--tf", 10]) == 0
    payload = json.loads((out / "map.json").read_text())
    assert payload["values"][0][0] <= 0.01
    lines = (out / "map.csv").read_text().splitlines()
    assert lines[2] == "n,v,value"
    assert len(lines) == 4


def test_sweep_normalize_flag(tmp_path):
    out = tmp_path / "run"
    assert run(["sweep", "--out", out, "--n-min", 10, "--n-max", 14, "--n-step", 2,
                "--v-min", 0.2, "--v-max", 0.3, "--v-step", 0.05,
                "--metric", "d1", "--tf", 6, "--normalize",
                "--grid-points", "401"]) == 0
    payload = json.loads((out / "map.json").read_text())
    values = np.array(payload["values"])
    assert np.nanmax(values) == pytest.approx(1.0)
    assert payload["provenance"]["normalized_to_max"] > 0


def test_sweep_size_scan(tmp_path):
    out = tmp_path / "run"
    assert run(["sweep", "--out", out, "--size-scan",
                "--sizes", "34,35", "--omega0", 10.0, "--v", 0.3,
                "--tf", 12, "--grid-points", "1201"]) == 0
    payload = json.loads((out / "size_scan.json").read_text())
    rows = {r["variant"]: r for r in payload["rows"]}
    assert rows["flat"]["gamma_eff"] < rows["adaptive"]["gamma_eff"]


def test_sweep_size_scan_default_sizes_are_flat_and_adaptive(tmp_path):
    # the default scan is 10..80: odd sizes flat, even sizes adaptive
    out = tmp_path / "run"
    assert run(["sweep", "--out", out, "--size-scan", "--omega0", 10, "--tf", 4,
                "--grid-points", 401]) == 0
    rows = json.loads((out / "size_scan.json").read_text())["rows"]
    assert [r["n_fqc"] for r in rows] == list(range(10, 81))
    assert all(r["variant"] == ("flat" if r["n_fqc"] % 2 else "adaptive") for r in rows)


def test_adaptive_compare(tmp_path):
    out = tmp_path / "run"
    assert run(["adaptive-compare", "--out", out, "--v", 0.3, "--omega0", 10.0,
                "--flat-size", 35, "--adaptive-size", 34,
                "--tf", 12, "--grid-points", "1201"]) == 0
    payload = json.loads((out / "compare.json").read_text())
    assert payload["flat"]["n_fqc"] == 35
    assert payload["adaptive"]["n_fqc"] == 34
    assert payload["adaptive"]["d2"]["value"] < payload["flat"]["d2"]["value"]
    for name in ("flat.csv", "adaptive.csv", "reference.csv"):
        assert (out / name).exists()


def _data_rows(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_adaptive_compare_reference_starts_in_the_initial_state(tmp_path):
    grid = ["--v", 0.3, "--omega0", 10.0, "--tf", 4, "--grid-points", 401,
            "--initial-state", "g"]
    assert run(["adaptive-compare", "--out", tmp_path / "cmp", "--flat-size", 21,
                "--adaptive-size", 20] + grid) == 0
    assert run(["rabi", "--out", tmp_path / "rabi"] + grid) == 0
    assert (_data_rows(tmp_path / "cmp" / "reference.csv")
            == _data_rows(tmp_path / "rabi" / "reference.csv"))


@pytest.mark.parametrize("command", ["rabi", "fit", "adaptive-compare"])
def test_fqc_initial_state_is_a_config_error(tmp_path, command, capsys):
    # the non-Hermitian reference has only |g> and |e> to start from
    assert run([command, "--out", tmp_path / "x", "--initial-state", "f0"] + FAST) == 2
    assert "'g' or 'e'" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["sweep", "--size-scan", "--sizes", "10,11"],
    ["adaptive-compare", "--flat-size", 11, "--adaptive-size", 10],
])
def test_adaptive_sizes_without_a_hole_rejected(tmp_path, args):
    # omega0 = 0 and no --hole-half-width leave the adaptive hole zero wide
    assert run(args + ["--out", tmp_path / "x", "--omega0", 0.0] + FAST) == 2


def test_sweep_model_names_are_the_cli_names(tmp_path):
    assert cli.MODELS == ("decay", "rabi", "adaptive")
    out = tmp_path / "run"
    assert run(["sweep", "--out", out, "--model", "rabi", "--metric", "d2",
                "--n-min", 8, "--n-max", 8, "--v-min", 0.3, "--v-max", 0.3,
                "--omega0", 1.0, "--tf", 4] + FAST) == 0
    assert json.loads((out / "map.json").read_text())["fixed"]["model"] == "rabi"
    with pytest.raises(SystemExit):
        run(["sweep", "--out", out, "--model", "two-level"])


@pytest.mark.parametrize("command, model", [
    ("decay", "rabi"), ("decay", "adaptive"),
    ("rabi", "decay"), ("fit", "decay"), ("sidebands", "decay"), ("markov", "decay"),
])
def test_command_runs_only_the_model_it_names(tmp_path, command, model, capsys):
    # decay is the one single-level command and model: a config naming the
    # other kind is rejected, not reinterpreted
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model}))
    assert run([command, "--config", cfg, "--out", tmp_path / "x"] + FAST) == 2
    assert f"got {model!r}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_size_scan_records_the_rabi_model(tmp_path):
    # its default used to be the sweep's decay, recorded although no size
    # runs it; odd sizes run rabi and even ones adaptive
    out = tmp_path / "run"
    assert run(["sweep", "--out", out, "--size-scan", "--sizes", "10,11", "--omega0", 10,
                "--tf", 4, "--grid-points", 401]) == 0
    assert embedded_config(out / "size_scan.csv")["model"] == "rabi"
    assert embedded_config(out / "size_scan.json")["model"] == "rabi"


@pytest.mark.parametrize("args", [
    ["sweep", "--size-scan", "--sizes", "10", "--omega0", 10, "--tf", 4, "--grid-points", 401],
    ["adaptive-compare", "--flat-size", 11, "--adaptive-size", 10, "--tf", 4,
     "--grid-points", 401],
])
@pytest.mark.parametrize("model", ["decay", "adaptive"])
def test_size_commands_run_only_the_rabi_model(tmp_path, args, model, capsys):
    # a size scan and adaptive-compare take their variants from their sizes,
    # so a config naming another model is rejected, not recorded
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model}))
    assert run(args + ["--config", cfg, "--out", tmp_path / "x"]) == 2
    assert f"runs model 'rabi', got {model!r}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_size_scan_model_flag_rejected(tmp_path, capsys):
    assert run(["sweep", "--size-scan", "--sizes", 10, "--model", "decay", "--omega0", 10,
                "--tf", 4, "--grid-points", 401, "--out", tmp_path / "x"]) == 2
    assert "sweep --size-scan runs model 'rabi'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


_SCAN = ["sweep", "--size-scan", "--sizes", 11, "--omega0", 10, "--tf", 4, "--grid-points", 401]


@pytest.mark.parametrize("metric", ["d2", "fit"])
def test_size_scan_metric_flag_rejected(tmp_path, metric, capsys):
    # a size scan always fits and scores d2; it used to exit 0 and record
    # the metric it ignored
    assert run(_SCAN + ["--metric", metric, "--out", tmp_path / "x"]) == 2
    assert f"takes no metric, got {metric!r}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    assert run(_SCAN + ["--metric", "d1", "--out", tmp_path / "y"]) == 0


def test_size_scan_normalize_flag_rejected(tmp_path, capsys):
    # there is no map to rescale; the flag used to be ignored with exit 0
    assert run(_SCAN + ["--normalize", "--out", tmp_path / "x"]) == 2
    assert "takes no --normalize" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_embedded_config_errors(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b\n1,2\n")
    from fqcsim import ConfigError

    with pytest.raises(ConfigError):
        embedded_config(path)


@pytest.mark.parametrize("command", sorted(cli._COMMAND_DEFAULTS))
def test_every_command_runs_at_its_bare_defaults(tmp_path, command):
    # a bare `sweep --size-scan` exited 2: its defaults left omega0 at 0, so
    # the adaptive sizes had no hole to cut
    assert run(command.split() + ["--out", tmp_path / "run"]) == 0


@pytest.mark.parametrize("args", [
    ["sidebands", "--omega0", 0],
    ["sidebands", "--n", 0, "--omega0", 10],
    ["rabi", "--sidebands", "--omega0", 0] + FAST,
])
def test_rejected_sideband_run_writes_no_file(tmp_path, args):
    # n_max rejects these; they used to exit 2 after writing sidebands.csv,
    # or rabi's four CSVs
    out = tmp_path / "run"
    assert run(args + ["--out", out]) == 2
    assert list(out.iterdir()) == []


BIG = 10**30


@pytest.mark.parametrize("args, count", [
    (["decay", "--n", BIG], r"gives 2000000000000000000000000000003 basis states"),
    (["rabi", "--n", BIG], r"gives 2000000000000000000000000000003 basis states"),
    (["markov", "--count", BIG], rf"count {BIG} gives {8 * BIG} normal draws"),
    (["sweep", "--size-scan", "--sizes", BIG], r"gives \d{31} basis states"),
    (["sweep", "--n-min", 2, "--n-max", BIG, "--v-min", 0.1, "--v-max", 0.1],
     rf"gives {BIG - 1} values"),
    (["sweep", "--v-min", 0.1, "--v-max", 0.2, "--v-step", 1e-300],
     r"gives 1(\.0+\d*)?e\+299 values"),
], ids=["decay", "rabi", "markov", "size-scan", "n-axis", "v-axis"])
def test_counts_beyond_numpy_arrays_exit_2_before_allocating(tmp_path, capsys, args, count):
    # each count is checked by arithmetic against the limit of default_grid
    # before anything of that size is allocated
    tracemalloc.start()
    try:
        code = run(args + ["--out", tmp_path / "x"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(count, err) and "more than a numpy array holds" in err, err
    assert peak < 1 << 20
