import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fqcsim import (
    ConfigError,
    DriveSpec,
    FqcSpec,
    NonHermitianSpec,
    adaptive_spec_for_size,
    build_single_level,
    build_two_level,
    d1,
    d2,
    decay_single,
    default_grid,
    evolve_nonhermitian,
    nonmarkovianity,
    propagate,
    trace_distance,
)
from fqcsim import NumericalError
from fqcsim import metrics
from fqcsim.evolve import _outer, _phase_sum, _spectra
from fqcsim.metrics import _sample_pairs, _td_two_by_two
from fqcsim.sweep import SweepFixed, SweepGrid, build_model, run_sweep, size_cell


def random_density(rng, dim=2):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = z @ z.conj().T
    return m / np.trace(m).real


def test_trace_distance_identity_zero():
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure_states():
    g = np.diag([1.0, 0.0]).astype(complex)
    e = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(g, e) == pytest.approx(1.0, abs=1e-14)


def test_trace_distance_diag_oracle():
    # eigenvalues of the difference are +/- 0.5, so T = 0.5
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.5, 0.5]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(0.5, abs=1e-14)


def test_trace_distance_rejects_non_hermitian():
    good = np.diag([0.5, 0.5]).astype(complex)
    bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ConfigError):
        trace_distance(good, bad)


def test_trace_distance_rejects_shape_mismatch():
    with pytest.raises(ConfigError):
        trace_distance(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


@given(st.integers(0, 10_000))
def test_trace_distance_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_density(rng) for _ in range(3))
    tab = trace_distance(a, b)
    assert tab >= 0.0
    assert tab == trace_distance(b, a)  # bit-exact symmetry
    assert tab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10


def test_trace_distance_matches_eigvalsh_oracle():
    rng = np.random.default_rng(11)
    a, b = random_density(rng), random_density(rng)
    ev = np.linalg.eigvalsh(a - b)
    assert trace_distance(a, b) == pytest.approx(0.5 * np.abs(ev).sum(), abs=1e-12)


def test_d1_zero_for_exact_exponential():
    times = default_grid(10.0)
    series = decay_single(1.0, 1.0, times)
    assert d1(series, 1.0, 10.0).value == 0.0


def test_d1_small_for_good_fqc():
    h = build_single_level(FqcSpec(15, 0.3))
    series = propagate(h, "e", default_grid(10.0))
    assert d1(series, 1.0, 10.0).value <= 0.01


def test_d1_revival_dominated_value():
    # above the critical coupling the revival dominates the average gap
    h = build_single_level(FqcSpec(15, 0.45))
    times = default_grid(10.0)
    series = propagate(h, "e", times)
    value = d1(series, 1.0, 10.0).value
    assert 0.05 <= value <= 0.3
    # cross-check with an independent rectangle-rule quadrature
    gap = np.abs(series.pi_e - np.exp(-times))
    rect = float(np.sum(gap[:-1] * np.diff(times)) / 10.0)
    assert value == pytest.approx(rect, abs=2e-3)


def test_trapezoid_weights_match_np_trapezoid_on_a_nonuniform_grid():
    rng = np.random.default_rng(3)
    t = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 7.0, 999)), [7.0]])
    w = metrics._trapezoid_weights(t)
    assert w.sum() == pytest.approx(7.0, rel=1e-14)
    for f in (np.exp(-t), 1.5 + np.cos(3.0 * t), t**2):
        assert (w * f).sum() == pytest.approx(np.trapezoid(f, t), rel=1e-14)
    # a grid of one point has an empty integral
    assert metrics._trapezoid_weights(np.array([2.0])).tolist() == [0.0]


def test_weighted_d1_and_d2_match_np_trapezoid_on_the_default_map():
    # every cell of the default 39x56 d1 map, and d2 over three of its rows
    # driven at omega0 = 1, against np.trapezoid of the same integrands
    times = default_grid(10.0)
    vs = [round(0.05 + 0.01 * i, 4) for i in range(56)]
    for n in range(2, 41):
        values, weights, _, real = _spectra([build_model("decay", n, v, 1.0, DriveSpec(0.0, 0.0)) for v in vs])
        pie = np.square(_phase_sum(values, weights, times, real)[..., 0])
        want = np.trapezoid(np.abs(pie - pie[:, :1] * np.exp(-times)), times, axis=-1) / 10.0
        np.testing.assert_allclose(metrics._d1_values(times, pie, 1.0, 10.0)[0], want,
                                   rtol=1e-14, atol=0)
    drive = DriveSpec(1.0, 0.0)
    ref_series = evolve_nonhermitian(NonHermitianSpec(1.0, drive), "e", times)
    ref = ref_series.rho
    for n in (2, 20, 40):
        values, weights, _, _ = _spectra([build_model("rabi", n, v, 1.0, drive) for v in vs])
        c = _phase_sum(values, weights, times)[..., :2]
        diff = _outer(c) - ref
        td = _td_two_by_two(diff[..., 0, 0].real, diff[..., 1, 1].real, diff[..., 0, 1])
        got = metrics._d2_values(times, metrics._amplitude_entries(c),
                                 metrics._system_entries(ref_series)[2], 10.0)[0]
        np.testing.assert_allclose(got, np.trapezoid(td, times, axis=-1) / 10.0,
                                   rtol=1e-14, atol=0)


def test_d1_grid_doubling_convergence():
    h = build_single_level(FqcSpec(15, 0.3))
    values = []
    for points in (2001, 4001):
        series = propagate(h, "e", default_grid(10.0, points))
        values.append(d1(series, 1.0, 10.0).value)
    assert abs(values[1] - values[0]) < 1e-4


@pytest.mark.parametrize("n, v, t_final", [(15, 0.3, 10.0), (25, 0.25, 24.0)])
def test_nonmarkovianity_grid_doubling_convergence(n, v, t_final):
    # undriven (omega0 = 0): driven cases can move more, e.g. 5.8e-4
    # relative at N = 25, v = 0.25, omega0 = 2
    h = build_two_level(FqcSpec(n, v), DriveSpec(0.0, 0.0))
    a, b = (nonmarkovianity(h, t_final, count=64, seed=0, grid_points=points).value
            for points in (2001, 4001))
    assert b > 0
    assert abs(b - a) < 1e-4 * b


def test_d1_rejects_short_series():
    series = decay_single(1.0, 1.0, default_grid(5.0, 101))
    with pytest.raises(ConfigError):
        d1(series, 1.0, 10.0)


def test_d2_zero_for_identical_series():
    times = default_grid(8.0, 201)
    ref = evolve_nonhermitian(NonHermitianSpec(1.0, DriveSpec(1.0, 0.0)),
                              np.array([0.0, 1.0]), times)
    assert d2(ref, ref, 8.0).value == 0.0


def test_d2_rejects_mismatched_grids():
    a = decay_single(1.0, 1.0, default_grid(8.0, 101))
    b = decay_single(1.0, 1.0, default_grid(8.0, 102))
    with pytest.raises(ConfigError):
        d2(a, b, 8.0)


def test_d2_reduces_to_d1_for_one_level():
    h = build_single_level(FqcSpec(15, 0.35))
    times = default_grid(10.0)
    series = propagate(h, "e", times)
    ref = decay_single(1.0, 1.0, times)
    v1 = d1(series, 1.0, 10.0).value
    v2 = d2(series, ref, 10.0).value
    assert abs(v1 - v2) < 1e-12


def _rho_route_d2(series, ref, t_f):
    """The oracle of d2 from the amplitudes: `_td_two_by_two` of `_outer` of
    the projections minus the reference rho, trapezoid-weighted."""
    n = metrics._window(series.times, t_f)
    diff = _outer(series.projections[:n, :2]) - ref.rho[:n]
    td = _td_two_by_two(diff[:, 0, 0].real, diff[:, 1, 1].real, diff[:, 0, 1])
    return np.multiply(td, metrics._trapezoid_weights(series.times[:n]), out=td).sum() / t_f


def test_d2_from_the_amplitudes_equals_the_density_route_on_every_scan_size():
    # the default size scan (omega0 10, t_f 16, 4001 points): byte-equal, and
    # so is d2 of the reduced DensitySeries, which takes the rho route
    times = default_grid(16.0, 4001)
    drive = DriveSpec(10.0, 0.0)
    ref = evolve_nonhermitian(NonHermitianSpec(1.0, drive), "e", times)
    for size in range(10, 81):
        _, series, _, dist = size_cell(size, drive, 0.3, 1.0, None, times, ref, 16.0)
        assert dist.value == _rho_route_d2(series, ref, 16.0), size
        assert d2(series.reduced(), ref, 16.0).value == dist.value, size


@pytest.mark.parametrize("model", ["rabi", "adaptive"])
def test_d2_map_from_the_amplitudes_equals_the_density_route(model):
    # the axes of the golden maps: stacks of two cells, N 8 and 12, v 0.25 and 0.35
    fixed = SweepFixed(t_f=4.0, omega0=4.0, model=model, grid_points=401)
    result = run_sweep(SweepGrid((8, 12), (0.25, 0.35), fixed, "d2"))
    assert not result.cell_errors
    times = default_grid(4.0, 401)
    drive = DriveSpec(4.0, 0.0)
    ref = evolve_nonhermitian(NonHermitianSpec(1.0, drive), "e", times)
    for (i, j), value in np.ndenumerate(result.values):
        h = build_model(model, (8, 12)[i], (0.25, 0.35)[j], 1.0, drive)
        assert value == _rho_route_d2(propagate(h, "e", times), ref, 4.0), (i, j)


def test_d2_grid_doubling_convergence():
    values = []
    for points in (2001, 4001):
        times = default_grid(8.0, points)
        h = build_two_level(FqcSpec(20, 0.3), DriveSpec(1.0, 0.0))
        series = propagate(h, "e", times)
        ref = evolve_nonhermitian(NonHermitianSpec(1.0, DriveSpec(1.0, 0.0)),
                                  np.array([0.0, 1.0]), times)
        values.append(d2(series, ref, 8.0).value)
    assert abs(values[1] - values[0]) < 1e-4


def test_d2_superimposed_regimes_small():
    times = default_grid(8.0)
    for omega0 in (0.1, 1.0):
        h = build_two_level(FqcSpec(30, 0.3), DriveSpec(omega0, 0.0))
        series = propagate(h, "e", times)
        ref = evolve_nonhermitian(NonHermitianSpec(1.0, DriveSpec(omega0, 0.0)),
                                  np.array([0.0, 1.0]), times)
        assert d2(series, ref, 8.0).value <= 0.02


def test_nonmarkovianity_closed_system_is_flat():
    # decoupled FQC: the system block evolves unitarily, distances frozen
    h = build_two_level(FqcSpec(4, 0.0), DriveSpec(1.0, 0.0))
    result = nonmarkovianity(h, 10.0, count=8, seed=3)
    assert result.value < 1e-9
    assert np.all(result.sigma < 1e-9)


def test_nonmarkovianity_monotone_in_time():
    h = build_two_level(FqcSpec(10, 0.3), DriveSpec(1.0, 0.0))
    result = nonmarkovianity(h, 12.0, count=8, seed=5)
    assert np.all(np.diff(result.sigma) >= -1e-15)


def test_nonmarkovianity_monotone_in_sample_count():
    h = build_two_level(FqcSpec(10, 0.3), DriveSpec(1.0, 0.0))
    small = nonmarkovianity(h, 10.0, count=8, seed=7)
    large = nonmarkovianity(h, 10.0, count=16, seed=7)
    assert large.value >= small.value - 1e-15
    # the first 8 pairs of the larger draw are the smaller draw
    np.testing.assert_allclose(large.per_pair_final[:8], small.per_pair_final, rtol=1e-14)


def test_nonmarkovianity_deterministic_given_seed():
    h = build_two_level(FqcSpec(10, 0.3), DriveSpec(1.0, 0.0))
    a = nonmarkovianity(h, 10.0, count=8, seed=11)
    b = nonmarkovianity(h, 10.0, count=8, seed=11)
    assert a.value == b.value
    assert a.std_error == b.std_error
    np.testing.assert_array_equal(a.sigma, b.sigma)


def test_nonmarkovianity_jump_at_revival():
    # rephasing time 1/v^2 = 16; backflow is silent before, loud after
    h = build_two_level(FqcSpec(25, 0.25), DriveSpec(1.0, 0.0))
    result = nonmarkovianity(h, 20.0, count=16, seed=1)
    t = result.times
    before = result.sigma[np.searchsorted(t, 14.0)]
    after = result.sigma[np.searchsorted(t, 19.0)]
    assert before < 0.02
    assert after > 10 * max(before, 1e-6)


def test_nonmarkovianity_grid_resolves_rabi_period():
    h = build_two_level(FqcSpec(5, 0.3), DriveSpec(10.0, 0.0))
    result = nonmarkovianity(h, 10.0, count=2, seed=0, grid_points=100)
    assert result.grid_points >= 40 * 10.0 * 10.0 / (2 * math.pi)


def test_nonmarkovianity_validates_input():
    h = build_two_level(FqcSpec(4, 0.2), DriveSpec(1.0, 0.0))
    with pytest.raises(ConfigError):
        nonmarkovianity(h, 5.0, count=1)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        nonmarkovianity(h, 5.0, count=4, seed=-1)
    with pytest.raises(ConfigError, match="a grid of inf points"):
        nonmarkovianity(h, 1e307, count=4)  # 40 points per Rabi period overflow
    single = build_single_level(FqcSpec(4, 0.2))
    with pytest.raises(ConfigError):
        nonmarkovianity(single, 5.0, count=4)


def test_nonmarkovianity_seed_to_seed_scatter_within_percent():
    # independent 256-pair estimates agree at the percent level
    h = build_two_level(FqcSpec(25, 0.25), DriveSpec(1.0, 0.0))
    a = nonmarkovianity(h, 20.0, count=256, seed=0)
    b = nonmarkovianity(h, 20.0, count=256, seed=1)
    assert abs(a.value - b.value) / a.value < 0.02
    assert a.std_error / a.value <= 0.01


def test_nonmarkovianity_reports_sampling_error(tmp_path):
    h = build_two_level(FqcSpec(8, 0.25), DriveSpec(1.0, 0.0))
    result = nonmarkovianity(h, 14.0, count=16, seed=9)
    assert result.std_error >= 0.0
    assert result.count == 16 and result.seed == 9
    path = tmp_path / "sigma.csv"
    result.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,sigma"
    assert len(lines) == 1 + result.times.size


@pytest.mark.parametrize("t_final,grid_points", [
    (0.0, None), (-5.0, None), (math.nan, None), (math.inf, None), (5.0, 1), (5.0, 0),
])
def test_nonmarkovianity_rejects_bad_window(t_final, grid_points):
    # each raises rather than yielding a decreasing, a silently refined or
    # the default grid
    h = build_two_level(FqcSpec(4, 0.2), DriveSpec(1.0, 0.0))
    with pytest.raises(ConfigError):
        nonmarkovianity(h, t_final, count=4, grid_points=grid_points)


def test_nonmarkovianity_rejects_non_orthonormal_eigenbasis(monkeypatch):
    # a 1% skew of one eigenvector moved Sigma in the fourth digit unnoticed
    h = build_two_level(FqcSpec(4, 0.5), DriveSpec(1.0, 0.0))
    eigh = np.linalg.eigh

    def skewed(entries):
        values, vectors = eigh(entries)
        vectors[..., 0] *= 1.01
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(NumericalError, match="orthonormality"):
        nonmarkovianity(h, 6.0, count=4)


# ------------------------------------------------- non-Markovianity oracles


def full_space_pairs(h, count, seed):
    """The sampled system pairs of `nonmarkovianity`, zero-padded to the
    full space."""
    out = np.zeros((count, 2, h.dim), dtype=complex)
    out[:, :, :2] = _sample_pairs(np.random.default_rng(seed), count)
    return out


def nonmarkovianity_dense(h, t_final, count, seed, grid_points=None):
    """Oracle: the former dense formula, every pair's projected amplitudes
    from the full (2, dim, nt) phase array by one einsum, with a bootstrap
    of 256 resamples.  Returns sigma, per_pair_final, value and std_error."""
    omega0 = abs(h.entries[0, 1])
    nt = grid_points or 2001
    if omega0 > 0:
        nt = max(nt, int(np.ceil(40.0 * t_final * omega0 / (2.0 * np.pi))) + 1)
    times = np.linspace(0.0, t_final, nt)
    values, vectors = np.linalg.eigh(h.entries)
    psis = full_space_pairs(h, count, seed)

    coeff = psis @ vectors
    proj = vectors[:2, :, None] * np.exp(-1j * np.outer(values, times))[None]
    amps = np.einsum("pqn,snt->pqst", coeff, proj)
    cg, ce = amps[:, :, 0, :], amps[:, :, 1, :]
    dgg = np.abs(cg[:, 0]) ** 2 - np.abs(cg[:, 1]) ** 2
    dee = np.abs(ce[:, 0]) ** 2 - np.abs(ce[:, 1]) ** 2
    dge = cg[:, 0] * ce[:, 0].conj() - cg[:, 1] * ce[:, 1].conj()
    td = _td_two_by_two(dgg, dee, dge)

    inc = np.clip(np.diff(td, axis=1), 0.0, None)
    sig_pairs = np.concatenate([np.zeros((count, 1)), np.cumsum(inc, axis=1)], axis=1)
    sigma, finals = sig_pairs.max(axis=0), sig_pairs[:, -1]
    boot_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB001]))
    maxima = np.array(
        [finals[boot_rng.integers(0, count, count)].max() for _ in range(256)]
    )
    return sigma, finals, float(sigma[-1]), float(maxima.std())


# `subspace` is the one markov.json records: pairs are drawn from the system
# subspace only, the quasi-continuum empty
@pytest.mark.parametrize("subspace", ["system"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("count,grid_points", [(13, None), (3, 20001)])
def test_nonmarkovianity_matches_dense_formula(subspace, seed, count, grid_points):
    # 13 pairs at the default 2001 points leave a partial last block; 20001
    # points make every block a single pair
    h = build_two_level(FqcSpec(10, 0.3), DriveSpec(1.0, 0.2))
    grid = {} if grid_points is None else {"grid_points": grid_points}
    result = nonmarkovianity(h, 14.0, count=count, seed=seed, **grid)
    sigma, finals, value, std_error = nonmarkovianity_dense(h, 14.0, count, seed, grid_points)
    assert result.to_json()["subspace"] == subspace
    assert result.grid_points == sigma.size
    assert np.abs(result.sigma - sigma).max() <= 1e-12
    assert np.abs(result.per_pair_final - finals).max() <= 1e-12
    assert abs(result.value - value) <= 1e-12
    assert abs(result.std_error - std_error) <= 1e-12


@pytest.mark.parametrize("subspace", ["system"])
def test_nonmarkovianity_matches_expm_oracle(subspace):
    expm = pytest.importorskip("scipy.linalg").expm
    # independent of the spectral code: exp(-i H t) by scipy at every grid
    # time, then the public trace_distance of the projected pair; past the
    # rephasing time 1/v^2 = 4, so the reduced map shows backflow
    h = build_two_level(FqcSpec(4, 0.5), DriveSpec(1.0, 0.2))
    count, t_final, nt = 4, 6.0, 41
    result = nonmarkovianity(h, t_final, count=count, seed=5, grid_points=nt)
    assert result.to_json()["subspace"] == subspace
    times = np.linspace(0.0, t_final, nt)
    psis = full_space_pairs(h, count, 5)
    td = np.empty((count, nt))
    for k, t in enumerate(times):
        states = psis @ expm(-1j * h.entries * t).T
        for p in range(count):
            rho = [np.outer(c[:2], c[:2].conj()) for c in states[p]]
            td[p, k] = trace_distance(rho[0], rho[1])
    sig_pairs = np.cumsum(np.maximum(np.diff(td, axis=1), 0.0), axis=1)
    np.testing.assert_allclose(result.per_pair_final, sig_pairs[:, -1], rtol=0, atol=1e-10)
    np.testing.assert_allclose(result.sigma[1:], sig_pairs.max(axis=0), rtol=0, atol=1e-10)
    assert result.sigma[0] == 0.0
    assert result.value > 0.1


# The system subspace takes the reduced map's Bloch form: a pair's traceless
# difference d . sigma evolves by one real (3, 4 nt) table.  The oracle
# evolves each state of each pair on its own, by the full eigensystem of H,
# and takes the public trace_distance of the projected states at every time
# of a grid of about 20 points (the Rabi guard refines omega0 = 10 to 383).

BLOCH_MODELS = {
    "flat": lambda omega0: build_model("rabi", 4, 0.5, 1.0, DriveSpec(omega0, 0.0)),
    "holed": lambda omega0: build_model("rabi", 4, 0.5, 1.0, DriveSpec(omega0, 0.0), 2.0),
    "detuned": lambda omega0: build_model("rabi", 4, 0.5, 1.0, DriveSpec(omega0, 0.5)),
}


def nonmarkovianity_by_state(h, times, count, seed):
    """Oracle: sigma and per_pair_final from rho_q = (G psi_q)(G psi_q)^dagger
    of every state, G the projected exp(-i H t) from eigh of the dense H."""
    values, vectors = np.linalg.eigh(h.entries)
    psis = full_space_pairs(h, count, seed)
    td = np.empty((count, times.size))
    for k, t in enumerate(times):
        g = (vectors[:2] * np.exp(-1j * values * t)) @ vectors.conj().T
        for p in range(count):
            rho_1, rho_2 = (np.outer(c, c.conj()) for c in psis[p] @ g.T)
            td[p, k] = trace_distance(rho_1, rho_2)
    sig_pairs = np.cumsum(np.maximum(np.diff(td, axis=1), 0.0), axis=1)
    return np.concatenate([[0.0], sig_pairs.max(axis=0)]), sig_pairs[:, -1]


@pytest.mark.parametrize("count", [2, 3, 17])
@pytest.mark.parametrize("omega0", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("model", sorted(BLOCH_MODELS))
def test_nonmarkovianity_matches_each_state_evolved(model, omega0, count):
    # past the rephasing time 2 pi / delta = 4; 21 points at omega0 0, the
    # Rabi guard's 40 and 383 points at omega0 1 and 10 (from 2 points)
    h = BLOCH_MODELS[model](omega0)
    grid_points = 2 if omega0 == 10.0 else 21
    result = nonmarkovianity(h, 6.0, count=count, seed=count, grid_points=grid_points)
    nt = max(grid_points, math.ceil(40.0 * 6.0 * omega0 / (2.0 * math.pi)) + 1)
    np.testing.assert_array_equal(result.times, np.linspace(0.0, 6.0, nt))
    sigma, finals = nonmarkovianity_by_state(h, result.times, count, count)
    np.testing.assert_allclose(result.sigma, sigma, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.per_pair_final, finals, rtol=0, atol=1e-12)
    assert result.value > 0.01


@pytest.mark.parametrize("subspace", ["system"])
@pytest.mark.parametrize("seed", [0, 4])
def test_nonmarkovianity_ignores_the_order_within_a_pair(monkeypatch, subspace, seed):
    # swapping the states negates the difference rho_1 - rho_2 exactly, and
    # the trace distance is even in it, bit for bit
    h = build_model("rabi", 10, 0.3, 1.0, DriveSpec(1.0, 0.2))
    kept = nonmarkovianity(h, 14.0, count=13, seed=seed)
    assert kept.to_json()["subspace"] == subspace
    monkeypatch.setattr(metrics, "_sample_pairs",
                        lambda *args: _sample_pairs(*args)[:, ::-1])
    swapped = nonmarkovianity(h, 14.0, count=13, seed=seed)
    np.testing.assert_array_equal(swapped.sigma, kept.sigma)
    np.testing.assert_array_equal(swapped.per_pair_final, kept.per_pair_final)


# ---------------------------------------------------------------- grid doubling
# default_grid and the metrics module promise d1 and d2 stable to 1e-4 under
# doubling of the grid points.  Cells: a stride over the default d1 map
# (N 2..40, v 0.05..0.60, t_f 10) and over the flat/adaptive size scan
# (sizes 10..80, omega0 10, v 0.3, t_f 16), plus the worst cells measured
# over the full domains (d1 2.9e-7 at N=37, v=0.48; d2 5.0e-8 at size 37).

MAP_CELLS = [(n, v) for n in (2, 12, 22, 31, 40) for v in (0.05, 0.2, 0.35, 0.5, 0.6)]


@pytest.mark.parametrize("n,v", MAP_CELLS + [(37, 0.48)])
def test_d1_converges_under_grid_doubling(n, v):
    h = build_single_level(FqcSpec(n, v))
    values = [d1(propagate(h, "e", default_grid(10.0, pts)), 1.0, 10.0).value
              for pts in (2001, 4001)]
    assert abs(values[0] - values[1]) <= 1e-4


@pytest.mark.parametrize("size", [10, 11, 20, 37, 44, 63, 79, 80])
def test_d2_converges_under_grid_doubling(size):
    drive = DriveSpec(10.0, 0.0)
    if size % 2:
        spec = FqcSpec((size - 1) // 2, 0.3)
    else:
        spec = adaptive_spec_for_size(size, 0.3, 5.0)
    h = build_two_level(spec, drive)
    values = []
    for pts in (4001, 8001):
        times = default_grid(16.0, pts)
        ref = evolve_nonhermitian(NonHermitianSpec(1.0, drive), np.array([0.0, 1.0]), times)
        values.append(d2(propagate(h, "e", times), ref, 16.0).value)
    assert abs(values[0] - values[1]) <= 1e-4
