import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

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
from fqcsim.metrics import _sample_pairs, _td_two_by_two


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
    np.testing.assert_allclose(large.per_pair_final[:8], small.per_pair_final)


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


def test_nonmarkovianity_full_subspace_option():
    h = build_two_level(FqcSpec(6, 0.25), DriveSpec(1.0, 0.0))
    full = nonmarkovianity(h, 6.0, count=4, seed=2, subspace="full")
    system = nonmarkovianity(h, 6.0, count=4, seed=2, subspace="system")
    # initially populated quasi-continuum feeds back immediately
    assert full.value > system.value


def test_nonmarkovianity_validates_input():
    h = build_two_level(FqcSpec(4, 0.2), DriveSpec(1.0, 0.0))
    with pytest.raises(ConfigError):
        nonmarkovianity(h, 5.0, count=1)
    with pytest.raises(ConfigError):
        nonmarkovianity(h, 5.0, count=4, subspace="bogus")
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


def full_space_pairs(h, count, seed, subspace):
    """The sampled pairs of `nonmarkovianity`, zero-padded to the full space."""
    psis = _sample_pairs(np.random.default_rng(seed), count, h.dim, subspace)
    out = np.zeros((count, 2, h.dim), dtype=complex)
    out[:, :, :psis.shape[-1]] = psis
    return out


def nonmarkovianity_dense(h, t_final, count, seed, grid_points=None,
                          subspace="system", bootstrap=256):
    """Oracle: the former dense formula, every pair's projected amplitudes
    from the full (2, dim, nt) phase array by one einsum.  Returns sigma,
    per_pair_final, value and std_error."""
    omega0 = abs(h.entries[0, 1])
    nt = grid_points or 2001
    if omega0 > 0:
        nt = max(nt, int(np.ceil(40.0 * t_final * omega0 / (2.0 * np.pi))) + 1)
    times = np.linspace(0.0, t_final, nt)
    values, vectors = np.linalg.eigh(h.entries)
    psis = full_space_pairs(h, count, seed, subspace)

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
        [finals[boot_rng.integers(0, count, count)].max() for _ in range(bootstrap)]
    )
    return sigma, finals, float(sigma[-1]), float(maxima.std())


@pytest.mark.parametrize("subspace", ["system", "full"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("count,grid_points", [(13, None), (3, 20001)])
def test_nonmarkovianity_matches_dense_formula(subspace, seed, count, grid_points):
    # 13 pairs leave a partial last block; 20001 points make every block
    # a single pair
    h = build_two_level(FqcSpec(10, 0.3), DriveSpec(1.0, 0.2))
    result = nonmarkovianity(h, 14.0, count=count, seed=seed,
                             grid_points=grid_points, subspace=subspace)
    sigma, finals, value, std_error = nonmarkovianity_dense(
        h, 14.0, count, seed, grid_points, subspace)
    assert result.grid_points == sigma.size
    assert np.abs(result.sigma - sigma).max() <= 1e-12
    assert np.abs(result.per_pair_final - finals).max() <= 1e-12
    assert abs(result.value - value) <= 1e-12
    assert abs(result.std_error - std_error) <= 1e-12


@pytest.mark.parametrize("subspace", ["system", "full"])
def test_nonmarkovianity_matches_expm_oracle(subspace):
    # independent of the spectral code: exp(-i H t) by scipy at every grid
    # time, then the public trace_distance of the projected pair; past the
    # rephasing time 1/v^2 = 4, so both subspaces show backflow
    h = build_two_level(FqcSpec(4, 0.5), DriveSpec(1.0, 0.2))
    count, t_final, nt = 4, 6.0, 41
    result = nonmarkovianity(h, t_final, count=count, seed=5,
                             grid_points=nt, subspace=subspace)
    times = np.linspace(0.0, t_final, nt)
    psis = full_space_pairs(h, count, 5, subspace)
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
