import math

import numpy as np
import pytest

from fqcsim import (
    ConfigError,
    DriveSpec,
    FqcSpec,
    NonHermitianSpec,
    adaptive_spec_for_size,
    build_single_level,
    build_two_level,
    critical_coupling,
    default_grid,
    effective_hamiltonian,
    fit_effective_params,
    n_max,
    propagate,
    revival_time,
    revival_time_from_spectrum,
    sideband_spectrum,
    zeno_time,
)
from fqcsim import analysis
from fqcsim.analysis import _damped_cos2, _refine_parabolic
from oracles import damped_rabi_population, direct_quadrature_occupations, underdamped_discriminant


def decay_series(n_half, v, t_f=10.0, points=2001):
    h = build_single_level(FqcSpec(n_half, v))
    return propagate(h, "e", default_grid(t_f, points))


# ---------------------------------------------------------------- zeno


def test_zeno_fit_matches_formula():
    report = zeno_time(decay_series(15, 0.3))
    analytic = 1.0 / (0.3 * math.sqrt(31))
    assert report.converged
    assert report.params["t_zeno_analytic"] == pytest.approx(analytic, rel=1e-10)
    assert report.params["t_zeno"] == pytest.approx(analytic, rel=0.02)
    assert report.params["t_zeno"] == pytest.approx(0.598, abs=0.01)


def test_zeno_doubling_v_halves_t_zeno():
    a = zeno_time(decay_series(15, 0.2, points=8001)).params["t_zeno"]
    b = zeno_time(decay_series(15, 0.4, points=8001)).params["t_zeno"]
    assert b == pytest.approx(a / 2, rel=0.02)


def test_zeno_two_state_exact_oracle():
    # N = 0 is a plain two-state flop: pi_e(t) = cos^2(v t), T_Z = 1/v
    series = decay_series(0, 0.3, t_f=2.0, points=4001)
    np.testing.assert_allclose(series.pi_e, np.cos(0.3 * series.times) ** 2, atol=1e-10)
    report = zeno_time(series)
    assert report.params["t_zeno"] == pytest.approx(1 / 0.3, rel=0.02)


def _zeno_oracle(h, times, window):
    """The Zeno fits from the dense eigenbasis of h, 1 - pi_e without
    cancellation: 1 - c_e = 2 sum_n |V[e, n]|^2 sin^2(E_n t / 2)."""
    values, vectors = np.linalg.eigh(h.entries)
    w = np.abs(vectors[h.basis_labels.index("e")]) ** 2
    t = times[times <= window]
    loss = 2.0 * np.sin(np.outer(t, 0.5 * values)) ** 2 @ w
    t2 = t**2
    return 1.0 / math.sqrt(float(t2 @ (loss * (2.0 - loss))) / float(t2 @ t2))


@pytest.mark.parametrize("n_half,hole", [(0, None), (15, None), (15, 1.0)])
def test_zeno_time_is_immune_to_rounding_in_pi_e(n_half, hole):
    # c_e nudged at the rounding level of the phase sum (4e-14 on the CLI
    # grids) must not move the fits: at N = 0 (decay --n 0, c_e = cos(v t))
    # subtracting pi_e from 1 moved t_zeno_half_window by 2.9e-10
    from fqcsim import HoleSpec, TimeSeries

    times = default_grid(10.0, 2001)
    h = build_single_level(FqcSpec(n_half, 0.3, hole=None if hole is None else HoleSpec(hole)))
    series = propagate(h, "e", times)
    noise = np.random.default_rng(0).uniform(-1.0, 1.0, series.projections.shape)
    nudged = TimeSeries(h, times, series.projections + 4e-14 * noise)
    t_analytic = 1.0 / math.sqrt(series.energy_variance0)
    for key, window in (("t_zeno", t_analytic / 10), ("t_zeno_half_window", t_analytic / 20)):
        want = _zeno_oracle(h, times, window)
        for s in (series, nudged):
            assert zeno_time(s).params[key] == pytest.approx(want, rel=1e-12)


def test_zeno_window_under_resolved():
    with pytest.raises(ConfigError):
        zeno_time(decay_series(15, 0.3, points=21))


@pytest.mark.parametrize("t_f", [1e-300, 1e-200, 1e-100])
def test_zeno_window_whose_t4_underflows_is_under_resolved(t_f):
    # the fit divided by sum t^4, which underflows to 0 below about 1e-81
    with pytest.raises(ConfigError, match="under-resolved: t\\^4 underflows"):
        zeno_time(decay_series(15, 0.3, t_f=t_f))


def test_zeno_on_decoupled_series_flags_nonconvergence():
    report = zeno_time(decay_series(4, 0.0, t_f=2.0, points=101))
    assert not report.converged


# ---------------------------------------------------------------- revival


def test_revival_onset_for_strong_coupling():
    # gamma = 1 makes the rephasing time exactly 1/v^2 = 4.94
    series = decay_series(15, 0.45, points=4001)
    report = revival_time(series)
    assert "t_revival" in report.params
    assert report.params["t_revival"] == pytest.approx(1 / 0.45**2, abs=0.4)
    assert report.params["t_peak"] > report.params["t_revival"]
    assert report.params["peak_height"] > 0.3


def test_no_revival_below_critical_coupling():
    report = revival_time(decay_series(15, 0.3))
    assert "t_revival" not in report.params
    assert report.converged
    assert "no revival" in report.notes


def test_revival_search_start_respected():
    # the search starts at 3 / gamma: at v = 1 a bump above the prominence
    # threshold peaks at 2.95, so the next one, at 3.32, is reported
    series = decay_series(15, 1.0, points=4001)
    t, pie = series.times, series.pi_e
    early = [i for i in range(1, t.size - 1) if t[i] < 3.0 and pie[i - 1] < pie[i] >= pie[i + 1]
             and pie[i] > 10.0 * np.exp(-t[i])]
    assert early
    assert 3.0 < revival_time(series).params["t_peak"] < 3.4


def test_refine_parabolic_non_uniform_grid():
    times = np.array([0.0, 0.3, 0.45, 1.1, 1.6, 2.9])
    vertex = 0.71
    y = 2.0 - 3.0 * (times - vertex) ** 2
    for i in (1, 2, 3, 4):
        assert _refine_parabolic(times, y, i) == pytest.approx(vertex, abs=1e-12)


def test_refine_parabolic_uniform_grid_unchanged():
    # the global-spacing formula used before local spacings, as the reference,
    # at every local extremum (where revival_time refines)
    times = default_grid(10.0, 2001)
    y = np.random.default_rng(3).random(times.size)
    extrema = np.flatnonzero((y[1:-1] - y[:-2]) * (y[1:-1] - y[2:]) > 0) + 1
    for i in extrema:
        den = y[i - 1] - 2.0 * y[i] + y[i + 1]
        old = times[i] + 0.5 * (y[i - 1] - y[i + 1]) / den * (times[1] - times[0])
        assert _refine_parabolic(times, y, i) == pytest.approx(old, rel=1e-12)


@pytest.mark.parametrize("n_half,v,t_f,points,onset,peak", [
    # values of the global-spacing formula
    (15, 0.45, 10.0, 4001, 5.024140955840455, 7.037145052390539),
    (20, 0.5, 12.0, 2001, 4.129939431828737, 6.102345086390106),
    (15, 0.3, 25.0, 2001, 10.644217636706188, 10.885068211191351),
])
def test_revival_time_uniform_grid_values(n_half, v, t_f, points, onset, peak):
    report = revival_time(decay_series(n_half, v, t_f, points))
    assert report.params["t_revival"] == pytest.approx(onset, rel=1e-12)
    assert report.params["t_peak"] == pytest.approx(peak, rel=1e-12)


def test_revival_time_from_spectrum_single_gap():
    gap = 1.272
    h = build_single_level(FqcSpec(80, math.sqrt(gap / (2 * math.pi))))
    t_r = revival_time_from_spectrum(h)
    assert t_r == pytest.approx(2 * math.pi / gap, rel=1e-3)


def test_revival_spectral_law_slope():
    gaps = [0.6, 1.0, 1.6, 2.2, 2.5]
    x = np.array([1 / g for g in gaps])
    y = np.array([
        revival_time_from_spectrum(
            build_single_level(FqcSpec(80, math.sqrt(g / (2 * math.pi))))
        )
        for g in gaps
    ])
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    assert abs(slope - 2 * math.pi) <= 1e-3
    assert abs(intercept) < 0.05


# ---------------------------------------------------------------- critical coupling


def test_critical_coupling_values():
    out = critical_coupling(10.0)
    assert out["v_c"] == pytest.approx(0.316, abs=5e-4)
    assert out["delta_c"] == pytest.approx(2 * math.pi / 10.0, rel=1e-12)
    assert critical_coupling(8.0)["v_c"] == pytest.approx(math.sqrt(1 / 8), rel=1e-12)


def test_critical_coupling_scaling():
    assert critical_coupling(40.0)["v_c"] == pytest.approx(
        critical_coupling(10.0)["v_c"] / 2, rel=1e-12
    )
    with pytest.raises(ConfigError):
        critical_coupling(0.0)


# ---------------------------------------------------------------- sidebands


def test_sidebands_vanish_without_drive():
    sb = sideband_spectrum(FqcSpec(10, 0.3), DriveSpec(0.0, 0.0))
    np.testing.assert_array_equal(sb.occupations, 0.0)


def test_sidebands_symmetric_on_resonance():
    sb = sideband_spectrum(FqcSpec(22, 0.3), DriveSpec(10.0, 0.0))
    np.testing.assert_allclose(sb.occupations, sb.occupations[::-1], rtol=1e-12)


def test_sidebands_peak_near_rabi_frequency():
    spec = FqcSpec(22, 0.3)
    sb = sideband_spectrum(spec, DriveSpec(10.0, 0.0))
    pos = sb.k > 0
    k_star = sb.k[pos][np.argmax(sb.occupations[pos])]
    assert abs(k_star * spec.gap - 10.0) / 10.0 <= 0.15


def test_sidebands_quadrature_cross_check():
    spec = FqcSpec(22, 0.3)
    sb = sideband_spectrum(spec, DriveSpec(10.0, 0.0), t_f=8.0)
    pos = sb.k > 0
    i = np.argmax(sb.occupations[pos])
    closed = sb.occupations[pos][i]
    quad = sb.occupations_quadrature[pos][i]
    assert abs(quad - closed) / closed <= 0.05


# a window long enough for the drive to decay: the over-damped slow mode
# decays at gamma/4 - sqrt(gamma^2/16 - omega0^2) = 0.021 at omega0 = 0.1, so
# t_f = 60 would leave 29% of its amplitude
@pytest.mark.parametrize("omega0, t_f", [
    (10.0, 40.0), (2.0, 60.0), (1.0, 60.0), (0.25, 60.0), (0.1, 500.0),
])
def test_sidebands_quadrature_converges_to_the_resolvent(omega0, t_f):
    # the quadrature is |c_k(t_f)|^2 from a |g> start, the resolvent the same
    # start at t = infinity: they meet at every level, in every regime
    sb = sideband_spectrum(FqcSpec(22, 0.3), DriveSpec(omega0, 0.0), t_f=t_f)
    np.testing.assert_allclose(sb.occupations_quadrature, sb.occupations, rtol=1e-3)


@pytest.mark.parametrize("n_half, omega0, t_f, rtol", [
    # `sidebands` defaults: 4001 points fill 63 blocks of B = 64, 31 slots padded
    (22, 10.0, 8.0, 1e-12),
    (15, 1.0, 8.0, 1e-12),     # `rabi --sidebands` defaults
    (22, 10.0, 40.0, 1e-12),
    (22, 0.25, 8.0, 1e-12),    # the exceptional point omega0 = gamma/4
    (40, 10.0, 60.0, 5e-12),
    (22, 0.1, 500.0, 1e-10),
])
def test_sidebands_quadrature_matches_direct_exponentials(n_half, omega0, t_f, rtol):
    # the phase-table kernel against a table of direct exp(i k delta t) and
    # np.trapezoid, level by level
    spec, drive = FqcSpec(n_half, 0.3), DriveSpec(omega0, 0.0)
    if t_f == 8.0:
        assert analysis._grid_block(default_grid(t_f, 4001)) == 64 and 4001 % 64
    got = sideband_spectrum(spec, drive, t_f=t_f).occupations_quadrature
    np.testing.assert_allclose(got, direct_quadrature_occupations(spec, drive, t_f),
                               rtol=rtol, atol=0)


def test_sidebands_match_the_resolvent_of_h_eff():
    # independent oracle: c_k = -v [(H_eff - k delta)^-1]_eg by a linear solve
    spec = FqcSpec(22, 0.3)
    for omega0 in (10.0, 1.0, 0.25, 0.1):
        drive = DriveSpec(omega0, 0.0)
        heff = effective_hamiltonian(NonHermitianSpec(1.0, drive))
        ck = [-spec.coupling_v * np.linalg.solve(heff - e * np.eye(2), [1.0, 0.0])[1]
              for e in spec.level_indices * spec.gap]
        sb = sideband_spectrum(spec, drive)
        np.testing.assert_allclose(sb.occupations, np.abs(ck) ** 2, rtol=1e-12)


def test_sidebands_reject_detuning_and_overdamped():
    # both sideband functions reject detuning, in every regime; an
    # over-damped drive has a spectrum like any other
    for omega0 in (1.0, 0.1):
        for call in (sideband_spectrum, n_max):
            with pytest.raises(ConfigError, match="zero detuning"):
                call(FqcSpec(22, 0.3), DriveSpec(omega0, 0.5))
    assert np.all(sideband_spectrum(FqcSpec(5, 0.3), DriveSpec(0.1, 0.0)).occupations > 0)


def test_sidebands_csv(tmp_path):
    sb = sideband_spectrum(FqcSpec(5, 0.3), DriveSpec(2.0, 0.0))
    path = tmp_path / "sb.csv"
    sb.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,energy,occupation,occupation_quadrature"
    assert len(lines) == 1 + 11


def test_n_max_examples():
    # independent argmax oracle straight from the response formula
    spec = FqcSpec(22, 0.3)
    drive = DriveSpec(1.0, 0.0)
    gamma = 1.0
    disc = 4 * drive.rabi_omega0**2 - gamma**2 / 4
    ks = np.arange(1, 23)
    denom = (drive.rabi_omega0**2 - (ks * spec.gap) ** 2) ** 2 + (
        gamma * ks * spec.gap / 2
    ) ** 2
    oracle = ks[np.argmax(1.0 / denom)]
    assert disc > 0
    assert n_max(spec, drive) == oracle == 2

    strong = n_max(spec, DriveSpec(10.0, 0.0))
    assert strong == pytest.approx(1.77 * 10.0, rel=0.15)


def test_n_max_weak_drive_near_center():
    # over-damped drive: occupation peak set by the decay-rate broadening
    k = n_max(FqcSpec(22, 0.3), DriveSpec(0.1, 0.0))
    assert 1 <= k <= 2


def test_n_max_invariant_under_occupation_rescaling():
    sb = sideband_spectrum(FqcSpec(22, 0.3), DriveSpec(10.0, 0.0))
    pos = sb.k > 0
    occ = sb.occupations[pos]
    assert np.argmax(occ) == np.argmax(3.7 * occ)
    with pytest.raises(ConfigError):
        n_max(FqcSpec(5, 0.3), DriveSpec(0.0, 0.0))


# ---------------------------------------------------------------- effective fits


def test_fit_recovers_its_own_model():
    from fqcsim import TimeSeries

    times = default_grid(8.0, 2001)
    target = damped_rabi_population(1.0, 10.0, times)
    proj = np.zeros((times.size, 3), dtype=complex)
    proj[:, 1] = np.sqrt(target)
    series = TimeSeries(build_two_level(FqcSpec(0, 0.3), DriveSpec(10.0, 0.0)), times, proj)
    report = fit_effective_params(series, 8.0)
    omega = math.sqrt(4 * 10.0**2 - 0.25) / 2
    assert report.converged
    assert report.params["omega_eff"] == pytest.approx(omega, rel=1e-6)
    assert report.params["gamma_eff"] == pytest.approx(1.0, rel=1e-6)
    assert report.residual_norm < 1e-8


@pytest.mark.parametrize("omega0,gamma", [(10.0, 1.0), (5.0, 0.5), (20.0, 2.0)])
def test_fit_scale_consistent_recovery(omega0, gamma):
    from fqcsim import TimeSeries

    times = default_grid(8.0 / gamma, 2001)
    target = damped_rabi_population(gamma, omega0, times)
    proj = np.zeros((times.size, 3), dtype=complex)
    proj[:, 1] = np.sqrt(target)
    h = build_two_level(FqcSpec(0, 0.3, gamma), DriveSpec(omega0, 0.0))
    series = TimeSeries(h, times, proj)
    report = fit_effective_params(series, times[-1])
    omega = math.sqrt(underdamped_discriminant(gamma, omega0)) / 2
    assert report.params["omega_eff"] == pytest.approx(omega, rel=1e-6)
    assert report.params["gamma_eff"] == pytest.approx(gamma, rel=1e-6)


@pytest.mark.parametrize("omega,gamma", [
    (10.0, 1.0), (10.0, 0.0), (10.0, 1e-9), (0.0, 1.0), (1e-3, 0.5), (200.0, 0.3), (3.0, 50.0),
])
def test_fit_jacobian_matches_central_differences(omega, gamma):
    # gamma -> 0, no oscillation, omega t up to 3200 and a fast decay
    t = default_grid(16.0, 4001)
    _, jac = _damped_cos2(t, omega, gamma)
    h = 1e-6
    for col, (d_omega, d_gamma) in enumerate(((h, 0.0), (0.0, h))):
        hi = _damped_cos2(t, omega + d_omega, gamma + d_gamma)[0]
        lo = _damped_cos2(t, omega - d_omega, gamma - d_gamma)[0]
        central = (hi - lo) / (2 * h)
        assert np.abs(jac[:, col] - central).max() <= 1e-6 * np.abs(central).max()


def test_fit_flags_nonconvergence(monkeypatch):
    h = build_two_level(FqcSpec(2, 0.2), DriveSpec(1.0, 0.0))
    series = propagate(h, "e", default_grid(4.0, 201))
    monkeypatch.setattr(analysis, "_MAX_NFEV", 1)
    report = fit_effective_params(series, 4.0)
    assert not report.converged


def test_fit_of_a_non_finite_population_is_a_numerical_error():
    from fqcsim import NumericalError, TimeSeries

    h = build_two_level(FqcSpec(2, 0.2), DriveSpec(1.0, 0.0))
    times = default_grid(4.0, 201)
    series = propagate(h, "e", times)
    broken = series.projections.copy()
    broken[50] = np.nan
    with pytest.raises(NumericalError):
        fit_effective_params(TimeSeries(h, times, broken), 4.0)


def test_fit_requires_provenance():
    series = decay_series(5, 0.3, t_f=4.0, points=201)
    with pytest.raises(ConfigError):
        fit_effective_params(series, 4.0)  # single-level series carries no drive


@pytest.mark.parametrize("t_f, message", [
    (-1.0, "t_f must be > 0"),
    (0.0, "t_f must be > 0"),
    (8.0, "shorter than t_f"),
    # the window [0, 0.01] of a grid spaced 0.02 holds t = 0 alone, [0, 0.03]
    # holds one time after it: the model is 1 at t = 0 whatever its parameters
    (0.01, "needs 2 grid times other than 0, got 0"),
    (0.03, "needs 2 grid times other than 0, got 1"),
])
def test_fit_rejects_an_empty_or_truncated_window(t_f, message):
    series = propagate(build_two_level(FqcSpec(2, 0.2), DriveSpec(1.0, 0.0)), "e",
                       default_grid(4.0, 201))
    with pytest.raises(ConfigError, match=message):
        fit_effective_params(series, t_f)


def test_fit_of_two_times_after_0_runs():
    series = propagate(build_two_level(FqcSpec(2, 0.2), DriveSpec(1.0, 0.0)), "e",
                       default_grid(4.0, 201))
    assert fit_effective_params(series, 0.05).grid_points == 3


def test_fit_flat_vs_adaptive_damping():
    times = default_grid(16.0, 4001)
    drive = DriveSpec(10.0, 0.0)
    flat = propagate(build_two_level(FqcSpec(17, 0.3), drive), "e", times)
    flat_fit = fit_effective_params(flat, 16.0)
    assert flat_fit.params["gamma_eff"] <= 0.1

    adaptive_spec = adaptive_spec_for_size(34, 0.3, 5.0)
    adaptive = propagate(build_two_level(adaptive_spec, drive), "e", times)
    adaptive_fit = fit_effective_params(adaptive, 16.0)
    assert 0.8 <= adaptive_fit.params["gamma_eff"] <= 1.2


@pytest.mark.parametrize("omega0", [0.1, 0.25, 10.0])
def test_sideband_occupation_at_zero_energy_is_v2_over_omega0_2(omega0):
    # the level degenerate with |g>: the first-order estimate v^2 / omega0^2,
    # above 1 whenever omega0 < v (outside its range of validity, v << omega0)
    sb = sideband_spectrum(FqcSpec(22, 0.3), DriveSpec(omega0, 0.0))
    occupation = sb.occupations[sb.k == 0][0]
    assert abs(occupation / (0.3**2 / omega0**2) - 1.0) <= 1e-15
