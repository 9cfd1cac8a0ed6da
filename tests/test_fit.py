"""The two-parameter trust-region-reflective fit against scipy's `trf`, and
its model against the direct formula.

`analysis._trf` is a port of `least_squares(method="trf")` with bounds at 0,
so the oracle is scipy itself, run on the same residuals from the same
start: the same parameters, status and number of evaluations, and on the
smaller problems the same trial points.  Those tests skip where scipy is
absent.  The model `_damped_cos2`, built from phase tables, is checked on
numpy alone against exp(-gamma t / 2) cos^2(omega t) evaluated per time.
"""

import json
import math

import numpy as np
import pytest

from fqcsim import (DriveSpec, FqcSpec, NonHermitianSpec, build_two_level, default_grid,
                    evolve_nonhermitian, propagate)
from fqcsim import analysis
from fqcsim.cli import main
from fqcsim.analysis import _damped_cos2, _trf
from fqcsim.sweep import size_cell

SCAN_SIZES = range(10, 81)


def least_squares(*args, **kwargs):
    """scipy's `least_squares`, the oracle: the calling test skips without scipy."""
    return pytest.importorskip("scipy.optimize").least_squares(*args, **kwargs)


def _direct(t, omega, gamma):
    """The model and its Jacobian with an exp, a cos and a sin at every time."""
    decay = np.exp(-0.5 * gamma * t)
    model = decay * np.cos(omega * t) ** 2
    return model, np.column_stack([-t * decay * np.sin(2.0 * omega * t), -0.5 * t * model])


def _residuals(t, target, model=_damped_cos2):
    def fun(p):
        values, jac = model(t, *p)
        return values - target, jac
    return fun


def _recorded(fun, trials):
    def call(p):
        trials.append(tuple(float(v) for v in p))
        return fun(p)
    return call


def _pair(fun, x0, max_nfev=400):
    """The port and `least_squares` on fun from x0, each with its trial points."""
    ours, theirs = [], []
    x, f, status, nfev = _trf(_recorded(fun, ours), x0, max_nfev)
    record = _recorded(fun, theirs)
    sol = least_squares(lambda p: record(p)[0], np.array(x0, dtype=float),
                        jac=lambda p: fun(p)[1], bounds=([0.0, 0.0], [np.inf, np.inf]),
                        max_nfev=max_nfev)
    return (np.array(x), f, status, nfev, np.array(ours)), (sol, np.array(theirs))


@pytest.fixture(scope="module")
def scan_cells():
    """The series and reports of the default size scan (omega0 10, t_f 16, 4001 points)."""
    times = default_grid(16.0, 4001)
    drive = DriveSpec(10.0, 0.0)
    ref = evolve_nonhermitian(NonHermitianSpec(1.0, drive), "e", times)
    return {size: size_cell(size, drive, 0.3, 1.0, None, times, ref, 16.0)[1:3]
            for size in SCAN_SIZES}


# the cases of test_fit_jacobian_matches_central_differences: gamma -> 0, no
# oscillation, omega t up to 3200 and a fast decay
MODEL_CASES = [(10.0, 1.0), (10.0, 0.0), (10.0, 1e-9), (0.0, 1.0), (1e-3, 0.5), (200.0, 0.3),
               (3.0, 50.0)]
MODEL_GRIDS = {
    "4001": default_grid(16.0, 4001),
    "2": default_grid(16.0, 2),  # one block of B = 2
    "1000": default_grid(16.0, 1000),  # blocks of B = 32 overrun the grid: 32 x 32 > 1000
    "non-uniform": np.cumsum(np.random.default_rng(3).uniform(0.001, 0.008, 2500)),  # B = 1
}


@pytest.mark.parametrize("grid", list(MODEL_GRIDS))
@pytest.mark.parametrize("omega, gamma", MODEL_CASES)
def test_damped_cos2_matches_the_direct_formula(grid, omega, gamma):
    # measured at worst (omega 200 on 1000 points): 1.0e-13 in the model and
    # 2.0e-13 t in the Jacobian, where 2 omega t reaches 6400; at omega 10 on
    # 4001 points 2.4e-14 and 4.7e-14 t
    t = MODEL_GRIDS[grid]
    model, jac = _damped_cos2(t, omega, gamma)
    want, want_jac = _direct(t, omega, gamma)
    assert np.abs(model - want).max() <= 4e-13
    assert (np.abs(jac - want_jac) <= 4e-13 * np.maximum(t, 1.0)[:, None]).all()


def test_scan_fits_take_the_steps_of_the_direct_formula(scan_cells):
    # measured: equal status and nfev on all 71 sizes, parameters within
    # 2.1e-14 relative
    for size, (series, report) in scan_cells.items():
        x, _, status, nfev = _trf(_residuals(series.times, series.pi_e), (10.0, 1.0), 400)
        want, _, want_status, want_nfev = _trf(_residuals(series.times, series.pi_e, _direct),
                                               (10.0, 1.0), 400)
        assert (status, nfev) == (want_status, want_nfev), size
        np.testing.assert_allclose(x, want, rtol=1e-12, err_msg=str(size))
        np.testing.assert_array_equal([report.params["omega_eff"], report.params["gamma_eff"]], x)


def test_scan_fits_take_the_steps_of_least_squares(scan_cells):
    # measured: 9.3e-16 relative at worst, equal status and nfev on every size
    for size, (series, report) in scan_cells.items():
        fun = _residuals(series.times, series.pi_e)
        (x, f, status, nfev, _), (sol, _) = _pair(fun, (10.0, 1.0))
        assert (status, nfev) == (sol.status, sol.nfev), size
        np.testing.assert_allclose(x, sol.x, rtol=1e-12, err_msg=str(size))
        got = np.array([report.params["omega_eff"], report.params["gamma_eff"]])
        np.testing.assert_array_equal(got, x)
        assert report.converged == sol.success
        assert report.residual_norm == pytest.approx(np.linalg.norm(sol.fun), rel=1e-12)


@pytest.mark.parametrize("size", [20, 37, 39, 60])
def test_scan_fits_lie_within_the_docstring_distance_of_a_tight_fit(scan_cells, size):
    # the four sizes farthest from the tight minimum: gamma 1.6e-4, 9.3e-5,
    # 2.2e-5 and 1.4e-5 relative; omega at most 2.0e-6 over all 71 sizes
    series, report = scan_cells[size]
    fun = _residuals(series.times, series.pi_e)
    tight = least_squares(lambda p: fun(p)[0], [10.0, 1.0], jac=lambda p: fun(p)[1],
                          bounds=([0.0, 0.0], [np.inf, np.inf]),
                          ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=4000)
    assert tight.success
    assert report.params["gamma_eff"] == pytest.approx(tight.x[1], rel=2e-4)
    assert report.params["omega_eff"] == pytest.approx(tight.x[0], rel=1e-5)


@pytest.mark.parametrize("t_f, points, gamma, omega, x0, reflects", [
    # undamped, gamma = 0 exactly, from gamma = 1: the trust-region step
    # leaves gamma >= 0 and the reflective step is taken
    (10.0, 2001, 0.0, 0.3, (0.3, 1.0), True),
    # a growing target, best fitted beyond the bound: the cut-back step and
    # the radius doubling on the trust-region boundary decide the path
    (16.0, 4001, -0.5, 0.3, (0.3, 1.0), True),
    # a start on the bound: moved 1e-10 inside, then gtol (status 1) wins
    # over the xtol met on the same step
    (16.0, 4001, 0.0, 10.0, (10.0, 0.0), False),
])
def test_a_bound_active_fit_takes_the_steps_of_least_squares(monkeypatch, t_f, points, gamma,
                                                              omega, x0, reflects):
    bounded = []
    to_bound = analysis._to_bound
    monkeypatch.setattr(analysis, "_to_bound",
                        lambda x, s: bounded.append(x) or to_bound(x, s))
    t = default_grid(t_f, points)
    fun = _residuals(t, np.exp(-0.5 * gamma * t) * np.cos(omega * t) ** 2)
    (x, _, status, nfev, ours), (sol, theirs) = _pair(fun, x0)
    assert bool(bounded) == reflects
    assert (status, nfev) == (sol.status, sol.nfev)
    assert ours.shape == theirs.shape
    # gamma ends between 1e-22 and 1e-6, so its trial values get an absolute bound
    np.testing.assert_allclose(ours[:, 0], theirs[:, 0], rtol=1e-12)
    np.testing.assert_allclose(ours[:, 1], theirs[:, 1], rtol=1e-12, atol=1e-15)
    assert 0 < x[1] < 1e-6


def test_a_non_finite_trial_shrinks_the_trust_region():
    # residuals are infinite above gamma = 1.3, short of the target's 2
    t = default_grid(16.0, 4001)
    model = _residuals(t, np.exp(-t) * np.cos(10.0 * t) ** 2)

    def fun(p):
        f, jac = model(p)
        return (f + np.inf if p[1] > 1.3 else f), jac

    (x, _, status, nfev, ours), (sol, theirs) = _pair(fun, (10.0, 1.0))
    assert (status, nfev) == (sol.status, sol.nfev)
    np.testing.assert_allclose(ours, theirs, rtol=1e-12)
    np.testing.assert_allclose(x, sol.x, rtol=1e-12)
    # after a non-finite trial the next one from the same point is closer
    current, cost, shrunk = ours[0], math.inf, 0
    for trial, after in zip(ours, ours[1:]):
        f = fun(trial)[0]
        if not np.isfinite(f).all():
            assert np.linalg.norm(after - current) < np.linalg.norm(trial - current)
            shrunk += 1
        elif 0.5 * f @ f < cost:
            current, cost = trial, 0.5 * f @ f
    assert shrunk > 0


def test_one_evaluation_is_not_converged():
    t = default_grid(16.0, 4001)
    fun = _residuals(t, np.exp(-0.5 * t) * np.cos(10.1 * t) ** 2)
    (x, f, status, nfev, ours), (sol, _) = _pair(fun, (10.0, 1.0), max_nfev=1)
    assert (status, nfev) == (sol.status, sol.nfev) == (0, 1)
    assert not sol.success
    np.testing.assert_array_equal(x, [10.0, 1.0])
    np.testing.assert_array_equal(f, fun((10.0, 1.0))[0])



def test_a_series_that_starts_outside_e_is_not_fitted(monkeypatch, tmp_path):
    # the model exp(-gamma t / 2) cos^2(omega t) is 1 at t = 0; from |g>
    # pi_e(0) = 0, so no (omega, gamma) fits it and _trf never runs
    h = build_two_level(FqcSpec(15, 0.3), DriveSpec(10.0))
    times = default_grid(8.0, 401)
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_trf", lambda *args: pytest.fail("_trf called"))
        report = analysis.fit_effective_params(propagate(h, "g", times), 8.0)
    assert (report.converged, report.params, report.grid_points) == (False, {}, 401)
    assert math.isnan(report.residual_norm) and "pi_e(0) = " in report.notes
    assert analysis.fit_effective_params(propagate(h, "e", times), 8.0).converged
    assert main(["fit", "--out", str(tmp_path / "fit"), "--initial-state", "g",
                 "--grid-points", "401"]) == 0
    fit = json.loads((tmp_path / "fit" / "fit.json").read_text())["fit"]
    assert fit["converged"] is False and fit["params"] == {}
