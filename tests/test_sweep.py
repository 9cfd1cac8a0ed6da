import json

import numpy as np
import pytest

from fqcsim import (
    ConfigError,
    DriveSpec,
    SweepFixed,
    SweepGrid,
    run_size_scan,
    run_sweep,
)
from fqcsim.sweep import parallel_workers


def test_single_cell_d1():
    grid = SweepGrid((15,), (0.3,), SweepFixed(t_f=10.0), "d1")
    result = run_sweep(grid)
    assert result.values.shape == (1, 1)
    assert result.values[0, 0] <= 0.01
    assert not result.cell_errors


def test_sweep_deterministic_bit_exact():
    grid = SweepGrid((5, 10), (0.2, 0.3), SweepFixed(t_f=6.0, grid_points=401), "d1")
    a = run_sweep(grid, seed=42)
    b = run_sweep(grid, seed=42)
    assert np.array_equal(a.values, b.values)
    assert a.to_json()["values"] == b.to_json()["values"]


def test_sweep_schedule_independent():
    grid = SweepGrid((4, 8, 12), (0.2, 0.3), SweepFixed(t_f=6.0, grid_points=401), "d1")
    serial = run_sweep(grid, max_workers=1)
    parallel = run_sweep(grid, max_workers=4)
    assert np.array_equal(serial.values, parallel.values)


def test_sweep_monotone_in_size_below_critical():
    grid = SweepGrid((10, 20, 30), (0.25,), SweepFixed(t_f=10.0), "d1")
    values = run_sweep(grid).values[:, 0]
    assert np.all(np.diff(values) <= 1e-3)


def test_sweep_records_cell_failures():
    # a hole wider than the band is a per-cell error, not a crash
    grid = SweepGrid(
        (2, 20),
        (0.3,),
        SweepFixed(t_f=4.0, omega0=10.0, model="adaptive",
                   grid_points=401, hole_half_width=2.0),
        "d2",
    )
    result = run_sweep(grid)
    assert len(result.cell_errors) == 1
    assert result.cell_errors[0]["i"] == 0
    assert np.isnan(result.values[0, 0])
    assert np.isfinite(result.values[1, 0])


def test_sweep_boundary_tracks_most_occupied_level():
    # at omega0 = 10 and v = 0.3 the sidebands sit at |k| ~ 18; an FQC too
    # small to host them emulates far worse than one that does
    grid = SweepGrid(
        (10, 25), (0.3,),
        SweepFixed(t_f=8.0, omega0=10.0, model="rabi"),
        "d2",
    )
    values = run_sweep(grid).values[:, 0]
    assert values[0] > 4 * values[1]


def test_sweep_d2_metric_two_level():
    grid = SweepGrid(
        (30,), (0.3,),
        SweepFixed(t_f=8.0, omega0=1.0, model="rabi"),
        "d2",
    )
    result = run_sweep(grid)
    assert result.values[0, 0] <= 0.02


def test_sweep_fit_metric():
    grid = SweepGrid(
        (20,), (0.3,),
        SweepFixed(t_f=8.0, omega0=1.0, model="rabi", grid_points=801),
        "fit",
    )
    result = run_sweep(grid)
    assert np.isfinite(result.values[0, 0])


def test_sweep_validation():
    with pytest.raises(ConfigError):
        SweepGrid((), (0.3,), SweepFixed(), "d1")
    with pytest.raises(ConfigError):
        SweepGrid((5,), (-0.1,), SweepFixed(), "d1")
    with pytest.raises(ConfigError):
        SweepGrid((5,), (0.3,), SweepFixed(), "bogus")
    with pytest.raises(ConfigError):
        SweepFixed(model="bogus")


def test_sweep_serialization(tmp_path):
    grid = SweepGrid((5,), (0.2, 0.3), SweepFixed(t_f=4.0, grid_points=201), "d1")
    result = run_sweep(grid, seed=7)
    csv_path = tmp_path / "map.csv"
    result.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,v,value"
    assert len(lines) == 3
    payload = result.to_json()
    assert payload["provenance"]["seed"] == 7
    json.dumps(payload)  # must be serializable


@pytest.mark.parametrize("t_f", [np.nan, np.inf, 0.0, -1.0])
def test_sweep_rejects_bad_window_before_the_pool(t_f):
    # a non-finite t_f used to come back as the same error in every cell
    with pytest.raises(ConfigError):
        run_sweep(SweepGrid((5, 6), (0.3,), SweepFixed(t_f=t_f, grid_points=101), "d1"))


def test_parallel_workers_rejects_non_integer_cap(monkeypatch):
    monkeypatch.setenv("FQCSIM_THREADS", "abc")
    with pytest.raises(ConfigError, match="FQCSIM_THREADS"):
        parallel_workers()


def test_parallel_workers_env_cap(monkeypatch):
    monkeypatch.setenv("FQCSIM_THREADS", "2")
    assert parallel_workers() == 2
    assert parallel_workers(8) == 2
    assert parallel_workers(1) == 1
    monkeypatch.delenv("FQCSIM_THREADS")
    assert parallel_workers(3) >= 1


def test_size_scan_parity_split():
    drive = DriveSpec(10.0, 0.0)
    scan = run_size_scan(
        [34, 35], drive, coupling_v=0.3, t_f=12.0, grid_points=1201
    )
    variants = {(r.variant, r.n_fqc) for r in scan.rows}
    assert variants == {("adaptive", 34), ("flat", 35)}
    flat = next(r for r in scan.rows if r.variant == "flat")
    adaptive = next(r for r in scan.rows if r.variant == "adaptive")
    assert adaptive.gamma_eff > flat.gamma_eff
    assert adaptive.d2 < flat.d2


def test_size_scan_large_budgets_converge():
    # with plenty of levels both variants emulate well and agree
    scan = run_size_scan([80, 81], DriveSpec(10.0, 0.0), t_f=12.0, grid_points=1601)
    rows = {r.variant: r for r in scan.rows}
    assert 0.8 <= rows["flat"].gamma_eff <= 1.2
    assert 0.8 <= rows["adaptive"].gamma_eff <= 1.2
    assert rows["flat"].d2 < 0.06 and rows["adaptive"].d2 < 0.06


def test_size_scan_serialization(tmp_path):
    scan = run_size_scan([10, 11], DriveSpec(2.0, 0.0), t_f=6.0, grid_points=301)
    path = tmp_path / "scan.csv"
    scan.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "variant,n_fqc,omega_eff,gamma_eff,d2,converged"
    assert len(lines) == 3
    json.dumps(scan.to_json())


def test_size_scan_reraises_failing_task():
    # an adaptive FQC needs v > 0: the failure propagates, no NaN row is written
    with pytest.raises(ConfigError, match="coupling_v > 0"):
        run_size_scan([10, 11], DriveSpec(2.0, 0.0), coupling_v=0.0,
                      t_f=6.0, grid_points=301)
