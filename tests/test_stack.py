"""Stacked sweep cells: the spectra of a stack (`evolve._spectra`: one
closed-form secular solve of every single-level cell of a map, one batched
`eigh` per stack of two-level cells), one phase sum per stack and one
scoring of all its cells.

Each stacked cell must equal `propagate` plus the metric on that cell alone,
bit for bit; a few are also checked against a `scipy.linalg.expm`
propagation, an oracle that shares no code with the phase kernel.
"""

import math

import numpy as np
import pytest

from fqcsim import DriveSpec, FqcSpec, SweepFixed, SweepGrid, d1, d2, propagate, run_sweep
from fqcsim import evolve, sweep
from fqcsim.analysis import fit_effective_params
from fqcsim.cli import main
from fqcsim.evolve import _phase_sum, _spectra, default_grid
from fqcsim.reference import NonHermitianSpec, evolve_nonhermitian

N_VALUES = (2, 5, 9)
V_VALUES = (0.2, 0.3, 0.45)
A_03 = (0.3 / FqcSpec(1, 0.3).gap) ** 2  # a = (v / delta)^2 of the cells v = 0.3


def _grid(model, metric, **fixed):
    fixed = {"t_f": 4.0, "omega0": 2.0, "model": model, "grid_points": 401, **fixed}
    return SweepGrid(N_VALUES, V_VALUES, SweepFixed(**fixed), metric)


def _single_cell(grid, i, j):
    """The value of one cell through `propagate`, or the message of its error."""
    fx = grid.fixed
    drive = DriveSpec(fx.omega0, fx.detuning)
    times = default_grid(fx.t_f, fx.grid_points)
    try:
        h = sweep.build_model(fx.model, grid.n_values[i], grid.v_values[j], fx.gamma, drive,
                              fx.hole_half_width)
        series = propagate(h, "e", times)
        if grid.metric == "d2" and series.system_dim == 2:
            ref = evolve_nonhermitian(NonHermitianSpec(fx.gamma, drive), "e", times)
            return d2(series, ref, fx.t_f).value
        if grid.metric != "fit":
            return d1(series, fx.gamma, fx.t_f).value
        report = fit_effective_params(series, fx.t_f)
        if not report.converged:
            return "effective-parameter fit did not converge"
        return report.residual_norm / math.sqrt(report.grid_points)
    except Exception as exc:
        return str(exc)


def _cells(result):
    """Every cell of a map as its value or its error message."""
    got = {(e["i"], e["j"]): e["error"] for e in result.cell_errors}
    for (i, j), value in np.ndenumerate(result.values):
        if (i, j) not in got:
            got[(i, j)] = float(value)
    return got


# a fit needs a driven model (SweepGrid rejects decay with fit)
@pytest.mark.parametrize("metric, model", [
    (metric, model) for model in ("decay", "rabi", "adaptive")
    for metric in ("d1", "d2", "fit") if (model, metric) != ("decay", "fit")
])
def test_stacked_cells_equal_single_cells_bit_for_bit(model, metric):
    grid = _grid(model, metric)
    # every row is one stack of all its cells
    assert all(sweep._stack_cells(n, 401, model == "decay") >= len(V_VALUES)
               for n in N_VALUES)
    got = _cells(run_sweep(grid))
    for (i, j), value in got.items():
        assert value == _single_cell(grid, i, j), (i, j)


def test_stack_size_does_not_change_a_bit(monkeypatch):
    grids = [_grid("rabi", "d2"), _grid("decay", "d1"), _grid("decay", "d1", hole_half_width=0.3)]
    stacked = [run_sweep(grid) for grid in grids]
    monkeypatch.setattr(sweep, "_STACK_BYTES", 1)  # stacks of one
    assert sweep._stack_cells(9, 401, True) == sweep._stack_cells(9, 401, False) == 1
    for grid, result in zip(grids, stacked):
        assert not result.cell_errors
        assert result.values.tobytes() == run_sweep(grid).values.tobytes()


@pytest.mark.parametrize("model, single_level, omega0", [
    ("decay", True, 0.0), ("rabi", False, 1.5), ("adaptive", False, 3.0),
])
def test_stacked_cells_match_expm(model, single_level, omega0):
    expm = pytest.importorskip("scipy.linalg").expm
    drive = DriveSpec(omega0, 0.3)
    hs = [sweep.build_model(model, 6, v, 1.0, drive) for v in (0.5, 0.55, 0.6)]
    assert len({h.basis_labels for h in hs}) == 1
    times = default_grid(5.0, 51)
    values, weights, errors, real = _spectra(hs)
    assert errors == [None] * len(hs) and real == single_level
    proj = _phase_sum(values, weights, times, real)
    for h, got in zip(hs, proj):
        e = h.basis_labels.index("e")
        exact = np.array([expm(-1j * h.entries * t)[:, e] for t in times])
        # c_e, or c_g, c_e and sum_k c_k
        want = exact[:, :1] if single_level else np.column_stack(
            [exact[:, :2], exact[:, 2:].sum(axis=1)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("times", [
    default_grid(4.0, 2), default_grid(4.0, 401), default_grid(4.0, 1000), np.zeros(1),
    np.geomspace(0.01, 4.0, 60),
], ids=["2", "401", "1000", "1", "geometric"])
@pytest.mark.parametrize("single_level", [True, False])
def test_stacked_phase_sums_equal_single_ones_bit_for_bit(single_level, times):
    # the cosine sum runs the real path, and every stack the complex one too
    model = "decay" if single_level else "rabi"
    hs = [sweep.build_model(model, 6, v, 1.0, DriveSpec(1.5, 0.3)) for v in (0.5, 0.55, 0.6)]
    values, weights, errors, real = _spectra(hs)
    assert errors == [None] * len(hs) and real == single_level
    for flag in sorted({real, False}):
        stacked = _phase_sum(values, weights, times, flag)
        assert stacked.dtype == (float if flag else complex)
        for k in range(len(hs)):
            alone = _phase_sum(values[k:k + 1], weights[k:k + 1], times, flag)
            assert stacked[k].tobytes() == alone[0].tobytes()
    if real:  # the real matmul is the real part of the complex one, up to rounding
        np.testing.assert_allclose(_phase_sum(values, weights, times, True),
                                   _phase_sum(values, weights, times).real, rtol=0, atol=1e-14)


def test_thread_counts_write_identical_maps(tmp_path, monkeypatch):
    # several stacks per row N = 20 of every model, so both threads take
    # cells of one row
    grid = ["--n-min", "2", "--n-max", "20", "--n-step", "6",
            "--v-min", "0.1", "--v-max", "0.5", "--v-step", "0.05",
            "--tf", "4", "--grid-points", "401"]
    for model, budget in ((["--model", "rabi", "--metric", "d2", "--omega0", "2"], 1 << 17),
                          (["--model", "adaptive", "--metric", "fit", "--omega0", "2"], 1 << 17),
                          (["--model", "decay"], 1 << 15)):
        monkeypatch.setattr(sweep, "_STACK_BYTES", budget)
        assert sweep._stack_cells(20, 401, model[1] == "decay") < 9
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("FQCSIM_THREADS", threads)
            out = tmp_path / model[1] / threads
            assert main(["sweep"] + model + grid + ["--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("map.csv", "map.json")])
        assert outputs[0] == outputs[1]


def test_adaptive_rows_of_mixed_dimension_keep_per_cell_errors():
    # omega0 = 2 holes |E| < 1: the dimension varies along a row, and at
    # small N and v the hole swallows the band (fewer than 2 levels survive)
    grid = SweepGrid((2, 3, 6, 12), tuple(np.round(np.arange(0.2, 0.75, 0.05), 4)),
                     SweepFixed(t_f=4.0, omega0=2.0, model="adaptive", grid_points=401), "d2")
    got = _cells(run_sweep(grid))
    for (i, j), value in got.items():
        assert value == _single_cell(grid, i, j), (i, j)
    dims = {}
    for i, n in enumerate(grid.n_values):
        for v in grid.v_values:
            try:
                dims.setdefault(i, set()).add(sweep.build_model(
                    "adaptive", n, v, 1.0, DriveSpec(2.0)).dim)
            except Exception:
                pass
    mixed = [i for i in dims if len(dims[i]) > 1]
    failing = {i for (i, _), value in got.items() if isinstance(value, str)}
    assert mixed and any(i in failing for i in mixed)
    assert any("2 surviving levels" in str(v) for v in got.values())
    assert all(any(isinstance(got[i, j], float) for j in range(len(grid.v_values)))
               for i in failing)


def _marked(entries, coupling):
    """Which matrices of a stack couple the top FQC level to |e> by `coupling`."""
    return np.atleast_1d(entries[..., -1, :2].max(axis=-1) == coupling)


def _failed_column(monkeypatch, grid, name, patched, j):
    """Run the map with np.linalg.<name> patched: every cell outside column j
    keeps its clean value; the cells of column j come back, as a list."""
    clean = _cells(run_sweep(grid))
    monkeypatch.setattr(np.linalg, name, patched)
    got = _cells(run_sweep(grid))
    for (i, jj), value in got.items():
        if jj != j:
            assert value == clean[i, jj], (i, jj)
    return [value for (_, jj), value in got.items() if jj == j]


def _faulty_roots(monkeypatch, fault, marked):
    """Patch the closed-form Newton step so that `fault` takes the next
    iterate of the roots `marked(n, a, k)`."""
    step = evolve._secular_step

    def faulty(u, n, k_min, a, k):
        new, residual, dq = step(u, n, k_min, a, k)
        hit = marked(n, a, k)
        new[hit] = fault(new[hit])
        return new, residual, dq

    monkeypatch.setattr(evolve, "_secular_step", faulty)


def test_gram_check_failure_stays_in_its_cell(monkeypatch):
    # single-level cells: the health checks of the secular roots, which take
    # the place of the Gram check of an eigenbasis; the roots of the marked
    # cells turn NaN, or move into the next interval
    grid = _grid("decay", "d1")
    clean = _cells(run_sweep(grid))
    for fault in (lambda u: np.nan, lambda u: u + 1.0):
        with monkeypatch.context() as patch:
            _faulty_roots(patch, fault, lambda n, a, k: np.isclose(a, A_03))
            got = _cells(run_sweep(grid))
        for (i, j), value in got.items():
            want = "secular residual inf exceeds 1e-10" if j == 1 else clean[i, j]
            assert value == want, (i, j)


def test_eigh_gram_check_failure_stays_in_its_cell(monkeypatch):
    eigh = np.linalg.eigh

    def skewed_eigh(entries):
        values, vectors = eigh(entries)
        vectors[_marked(entries, 0.3), :, 0] *= 1.0 + 1e-8
        return values, vectors

    column = _failed_column(monkeypatch, _grid("rabi", "d2"), "eigh", skewed_eigh, 1)  # v = 0.3
    assert all("orthonormality defect" in value for value in column)


def test_lapack_failure_stays_in_its_cell(monkeypatch):
    grid = _grid("rabi", "d2")
    clean = _cells(run_sweep(grid))
    eigh = np.linalg.eigh

    def failing_eigh(entries):
        if _marked(entries, 0.45).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(entries)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    got = _cells(run_sweep(grid))
    for (i, j), value in got.items():
        if j == 2:  # v = 0.45
            assert value == "eigensolver failed: Eigenvalues did not converge"
        else:
            assert value == clean[i, j], (i, j)


def test_non_finite_root_stays_in_its_cell(monkeypatch):
    # the smallest root of each cell v = 0.3 turns NaN; its stack-mates keep
    # the values they get alone
    grid = _grid("decay", "d1")
    _faulty_roots(monkeypatch, lambda u: np.nan, lambda n, a, k: (k == 0) & np.isclose(a, A_03))
    got = _cells(run_sweep(grid))
    for (i, j), value in got.items():
        if j == 1:
            assert value == "secular residual inf exceeds 1e-10"
        else:
            assert value == _single_cell(grid, i, j), (i, j)


def test_a_subnormal_spacing_fails_its_cell_alone():
    # v = 1e-160 keeps a spacing delta = 6.3e-320 > 0, but a = (v / delta)^2
    # overflows: a ConfigError of the cell's build, not NaN roots
    fixed = SweepFixed(t_f=4.0, grid_points=401)
    grid = SweepGrid(N_VALUES, (V_VALUES[0], 1e-160, V_VALUES[2]), fixed)
    got = _cells(run_sweep(grid))
    for (i, j), value in got.items():
        if j == 1:
            assert value == "coupling_v 1e-160 gives (v / spacing)^2 = inf: it must be finite"
        else:
            assert value == _single_cell(grid, i, j), (i, j)


@pytest.mark.parametrize("model, metric, name, size", [
    ("decay", "d1", "roots", 6),   # the N + 1 secular roots of N = 5
    ("rabi", "d2", "eigh", 13),    # the (2N + 3)-square H of N = 5
    ("rabi", "fit", "eigh", 13),   # a failed cell is not fitted
])
def test_gram_failure_of_one_cell_leaves_its_stack_mates_alone(monkeypatch, model, metric,
                                                               name, size):
    # break the decomposition of the cell N = 5, v = 0.3 alone; its row is
    # one stack.  A two-level cell gets a skewed basis; a single-level one,
    # which has no basis, its smallest secular root in the next interval
    if name == "roots":
        _faulty_roots(monkeypatch, lambda u: u + 1.0,
                      lambda n, a, k: (n == size - 1) & (k == 0) & np.isclose(a, A_03))
    else:
        eigh = np.linalg.eigh

        def skewed(matrices, **kwargs):
            out = eigh(matrices, **kwargs)
            if matrices.shape[-1] == size:
                out[1][_marked(matrices, 0.3), :, 0] *= 1.0 + 1e-8
            return out

        monkeypatch.setattr(np.linalg, "eigh", skewed)
    grid = _grid(model, metric)
    got = _cells(run_sweep(grid))
    assert [idx for idx, value in got.items() if isinstance(value, str)] == [(1, 1)]
    assert ("secular residual" if name == "roots" else "orthonormality defect") in got[1, 1]
    for (i, j), value in got.items():
        if (i, j) != (1, 1):
            assert value == _single_cell(grid, i, j), (i, j)


def test_cell_errors_stay_row_major_when_build_and_eigh_failures_interleave(monkeypatch):
    # omega0 = 2 holes |E| < 1: small N and v fail to build; LAPACK fails on
    # every cell v = 0.45, which is built in each row, so the two kinds of
    # error alternate in row-major order
    grid = SweepGrid((2, 3, 6), (0.2, 0.25, 0.45, 0.6),
                     SweepFixed(t_f=4.0, omega0=2.0, model="adaptive", grid_points=401), "d2")
    eigh = np.linalg.eigh

    def failing_eigh(entries):
        if _marked(entries, 0.45).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(entries)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    errors = run_sweep(grid).cell_errors
    cells = [(e["i"], e["j"]) for e in errors]
    assert cells == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 2)]
    kinds = ["eigh" if "eigensolver" in e["error"] else "build" for e in errors]
    assert kinds == ["build", "build", "eigh", "build", "eigh", "eigh"]
    for (i, j), error in zip(cells, errors):
        assert error["error"] == _single_cell(grid, i, j), (i, j)
