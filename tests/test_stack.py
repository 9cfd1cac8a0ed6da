"""Stacked sweep cells: the spectra of a stack (`evolve._spectra`: one
values-only SVD and secular pass per row of single-level cells, one batched
`eigh` per stack of two-level cells), one phase sum per stack and one
scoring of all its cells.

Each stacked cell must equal `propagate` plus the metric on that cell alone,
bit for bit; a few are also checked against a `scipy.linalg.expm`
propagation, an oracle that shares no code with the phase kernel.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from fqcsim import DriveSpec, SweepFixed, SweepGrid, d1, d2, propagate, run_sweep
from fqcsim import sweep
from fqcsim.analysis import fit_effective_params
from fqcsim.cli import main
from fqcsim.evolve import _phase_sum, _spectra, default_grid
from fqcsim.reference import NonHermitianSpec, evolve_nonhermitian

N_VALUES = (2, 5, 9)
V_VALUES = (0.2, 0.3, 0.45)


def _grid(model, metric, **fixed):
    fixed = {"t_f": 4.0, "omega0": 2.0, "model": model, "grid_points": 401, **fixed}
    return SweepGrid(N_VALUES, V_VALUES, SweepFixed(**fixed), metric)


def _single_cell(grid, i, j):
    """The value of one cell through `propagate`, or the message of its error."""
    fx = grid.fixed
    drive = DriveSpec(fx.omega0, fx.detuning)
    times = default_grid(fx.t_f, fx.grid_points)
    try:
        h = sweep.build_model(grid.n_values[i], grid.v_values[j], fx.gamma, drive,
                              adaptive=fx.model == "adaptive",
                              hole_half_width=fx.hole_half_width,
                              single_level=fx.model == "decay")
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
    monkeypatch.setattr(sweep, "_STACK_BYTES", 1)  # stacks, and decay tasks, of one
    assert sweep._row_cells(9, len(V_VALUES)) == sweep._stack_cells(9, 401, True) == 1
    for grid, result in zip(grids, stacked):
        assert not result.cell_errors
        assert result.values.tobytes() == run_sweep(grid).values.tobytes()


@pytest.mark.parametrize("model, single_level, omega0", [
    ("decay", True, 0.0), ("rabi", False, 1.5), ("adaptive", False, 3.0),
])
def test_stacked_cells_match_expm(model, single_level, omega0):
    drive = DriveSpec(omega0, 0.3)
    hs = [sweep.build_model(6, v, 1.0, drive, adaptive=model == "adaptive",
                            single_level=single_level) for v in (0.5, 0.55, 0.6)]
    assert len({h.basis_labels for h in hs}) == 1
    times = default_grid(5.0, 51)
    values, weights, errors, real = _spectra(hs)
    assert errors == [None] * len(hs) and real == single_level
    proj = _phase_sum(values, weights, times)
    for h, got in zip(hs, proj.real if real else proj):
        e = h.basis_labels.index("e")
        exact = np.array([expm(-1j * h.entries * t)[:, e] for t in times])
        # c_e, or c_g, c_e and sum_k c_k
        want = exact[:, :1] if single_level else np.column_stack(
            [exact[:, :2], exact[:, 2:].sum(axis=1)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_thread_counts_write_identical_maps(tmp_path, monkeypatch):
    # several stacks per two-level row, and two tasks for the decay row N = 20,
    # so both threads take cells of one row
    grid = ["--n-min", "2", "--n-max", "20", "--n-step", "6",
            "--v-min", "0.1", "--v-max", "0.5", "--v-step", "0.05",
            "--tf", "4", "--grid-points", "401"]
    for model, budget in ((["--model", "rabi", "--metric", "d2", "--omega0", "2"], 1 << 17),
                          (["--model", "decay"], 1 << 15)):
        monkeypatch.setattr(sweep, "_STACK_BYTES", budget)
        assert model[1] == "rabi" or sweep._row_cells(20, 9) < 9
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
                    n, v, 1.0, DriveSpec(2.0), adaptive=True).dim)
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


def _marked_blocks(blocks, coupling):
    """Which single-level coupling blocks of a stack couple |e> to the top
    level pair by sqrt(2) `coupling`."""
    return np.atleast_1d(np.isclose(blocks[..., 0, -1], math.sqrt(2.0) * coupling))


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


def test_gram_check_failure_stays_in_its_cell(monkeypatch):
    # single-level cells: the health checks of the secular roots, which take
    # the place of the Gram check of U; the smallest root of the marked
    # cells turns NaN, or moves into the next pole interval
    svd = np.linalg.svd
    for fault in (lambda sigma: np.nan, lambda sigma: sigma[:, -2]):
        def faulty_svd(blocks, compute_uv):
            sigma = svd(blocks, compute_uv=compute_uv)
            marked = _marked_blocks(blocks, 0.3)
            sigma[marked, -1] = fault(sigma[marked])
            return sigma

        with monkeypatch.context() as patch:
            column = _failed_column(patch, _grid("decay", "d1"), "svd", faulty_svd, 1)  # v = 0.3
        assert column == ["secular residual inf exceeds 1e-10"] * len(N_VALUES)


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


def test_svd_lapack_failure_stays_in_its_cell(monkeypatch):
    svd = np.linalg.svd

    def failing_svd(blocks, **kwargs):
        if _marked_blocks(blocks, 0.45).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(blocks, **kwargs)

    column = _failed_column(monkeypatch, _grid("decay", "d1"), "svd", failing_svd, 2)  # v = 0.45
    assert column == ["eigensolver failed: SVD did not converge"] * len(N_VALUES)


@pytest.mark.parametrize("model, metric, name, size", [
    ("decay", "d1", "svd", 6),     # the (N + 1)-square coupling block of N = 5
    ("rabi", "d2", "eigh", 13),    # the (2N + 3)-square H of N = 5
    ("rabi", "fit", "eigh", 13),   # a failed cell is not fitted
])
def test_gram_failure_of_one_cell_leaves_its_stack_mates_alone(monkeypatch, model, metric,
                                                               name, size):
    # break the decomposition of the cell N = 5, v = 0.3 alone; its row is
    # one stack.  A two-level cell gets a skewed basis; a single-level one,
    # which has no basis, its smallest secular root in the next pole interval
    solve = getattr(np.linalg, name)

    def skewed(matrices, **kwargs):
        out = solve(matrices, **kwargs)
        if matrices.shape[-1] == size and name == "svd":
            marked = _marked_blocks(matrices, 0.3)
            out[marked, -1] = out[marked, -2]
        elif matrices.shape[-1] == size:
            out[1][_marked(matrices, 0.3), :, 0] *= 1.0 + 1e-8
        return out

    grid = _grid(model, metric)
    monkeypatch.setattr(np.linalg, name, skewed)
    got = _cells(run_sweep(grid))
    assert [idx for idx, value in got.items() if isinstance(value, str)] == [(1, 1)]
    assert ("secular residual" if name == "svd" else "orthonormality defect") in got[1, 1]
    for (i, j), value in got.items():
        if (i, j) != (1, 1):
            assert value == _single_cell(grid, i, j), (i, j)
