import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fqcsim import (
    ConfigError,
    DriveSpec,
    FqcSpec,
    HamiltonianMatrix,
    HoleSpec,
    NonHermitianSpec,
    NumericalError,
    SweepFixed,
    SweepGrid,
    TimeSeries,
    build_adaptive,
    build_single_level,
    build_two_level,
    default_grid,
    diagonalize,
    evolve_nonhermitian,
    propagate,
    run_sweep,
    source_term_series,
    write_csv,
)
from fqcsim import evolve, sweep
from fqcsim.cli import main
from fqcsim.evolve import _digamma, _phase_sum, _spectra
from oracles import coupling_block, source_infinity


def test_diagonalize_two_by_two_closed_form():
    h = build_single_level(FqcSpec(0, 0.3))
    eig = diagonalize(h)
    np.testing.assert_allclose(eig.values, [-0.3, 0.3], atol=1e-14)


def test_diagonalize_orthonormal_and_reconstructs():
    h = build_single_level(FqcSpec(10, 0.4))
    eig = diagonalize(h)
    gram = eig.vectors.T @ eig.vectors
    assert np.abs(gram - np.eye(h.dim)).max() < 1e-10
    rebuilt = (eig.vectors * eig.values) @ eig.vectors.T
    assert np.abs(rebuilt - h.entries).max() < 1e-10
    assert np.all(np.diff(eig.values) >= 0)


def test_diagonalize_wide_gap_spectrum_near_grid():
    # gap of 5 gamma: eigenvalues hug the bare grid on the scale of the band
    gap = 5.0
    spec = FqcSpec(15, math.sqrt(gap / (2 * math.pi)))
    eig = diagonalize(build_single_level(spec))
    nearest = np.round(eig.values / gap) * gap
    assert np.abs(eig.values - nearest).max() <= 0.02 * 15 * gap


def test_propagate_decoupled_is_stationary():
    h = build_single_level(FqcSpec(4, 0.0))
    series = propagate(h, "e", default_grid(5.0, 101))
    np.testing.assert_allclose(series.pi_e, 1.0, atol=1e-12)


def test_propagate_tracks_exponential_decay():
    h = build_single_level(FqcSpec(15, 0.3))
    times = default_grid(10.0)
    series = propagate(h, "e", times)
    gap = np.abs(series.pi_e - np.exp(-times))
    assert np.trapezoid(gap, times) / 10.0 <= 0.01


def test_propagate_revival_near_inverse_v_squared():
    # with gamma = 1 the rephasing time is exactly 1/v^2
    h = build_single_level(FqcSpec(15, 0.45))
    times = default_grid(10.0, 4001)
    series = propagate(h, "e", times)
    late = times > 5.5
    assert series.pi_e[late].max() > 0.3
    assert series.pi_e[(times > 4.0) & (times < 4.8)].max() < 0.05


@given(
    st.integers(1, 12),
    st.floats(0.05, 0.6),
)
def test_norm_conserved(n_half, v):
    # from every start: |e> by the secular path, each f_k in the eigenbasis
    h = build_single_level(FqcSpec(n_half, v))
    for label in h.basis_labels:
        series = propagate(h, label, default_grid(6.0, 301))
        norms = np.linalg.norm(series.amplitudes, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-10


def test_grid_refinement_independent():
    h = build_single_level(FqcSpec(15, 0.3))
    coarse = propagate(h, "e", np.linspace(0.0, 10.0, 11))
    fine = propagate(h, "e", np.linspace(0.0, 10.0, 2001))
    i, j = 5, 1000  # both t = 5.0
    assert coarse.times[i] == fine.times[j]
    assert abs(coarse.pi_e[i] - fine.pi_e[j]) < 1e-12


def test_zeno_quadratic_law():
    h = build_single_level(FqcSpec(15, 0.3))
    series = propagate(h, "e", default_grid(10.0))
    t_zeno = 1.0 / (0.3 * math.sqrt(31))
    mask = (series.times > 0) & (series.times <= t_zeno / 10)
    t2 = series.times[mask] ** 2
    y = 1.0 - series.pi_e[mask]
    fitted = 1.0 / math.sqrt(float(t2 @ y) / float(t2 @ t2))
    assert fitted == pytest.approx(t_zeno, rel=0.02)
    assert series.energy_variance0 == pytest.approx(31 * 0.09, rel=1e-10)


def projections(amps, n_system):
    """The projections of amplitudes (..., dim): c_e, or c_g, c_e and sum_k c_k."""
    if n_system == 1:
        return amps[..., :1]
    return np.concatenate([amps[..., :2], amps[..., 2:].sum(axis=-1, keepdims=True)], axis=-1)


def one_point(amps, h) -> TimeSeries:
    """A one-point series of h at the given amplitudes."""
    amps = np.asarray(amps, dtype=complex)
    return TimeSeries(h, np.zeros(1), projections(amps, h.n_system)[None])


def unit(h, label):
    """The basis state of h with the given label, as complex amplitudes."""
    amps = np.zeros(h.dim, dtype=complex)
    amps[h.basis_labels.index(label)] = 1.0
    return amps


def test_reduce_density_examples():
    h = build_two_level(FqcSpec(2, 0.1), DriveSpec(1.0, 0.0))
    rho_e = one_point(unit(h, "e"), h).reduced().rho[0]
    np.testing.assert_allclose(rho_e, np.diag([0.0, 1.0]))

    amps = np.zeros(h.dim, dtype=complex)
    amps[0] = amps[1] = 1 / math.sqrt(2)
    rho_plus = one_point(amps, h).reduced().rho[0]
    np.testing.assert_allclose(rho_plus, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_reduce_density_subnormalized_with_fqc_weight():
    h = build_two_level(FqcSpec(2, 0.1), DriveSpec(1.0, 0.0))
    amps = np.zeros(h.dim, dtype=complex)
    amps[0] = amps[1] = amps[2] = 1 / math.sqrt(3)
    rho = one_point(amps, h).reduced().rho[0]
    assert rho.trace().real < 1.0
    assert rho.trace().real == pytest.approx(2 / 3, rel=1e-10)


def test_single_level_reduce_is_scalar():
    h = build_single_level(FqcSpec(2, 0.1))
    rho = one_point(unit(h, "e"), h).reduced().rho[0]
    assert rho.shape == (1, 1)
    assert rho[0, 0].real == pytest.approx(1.0)


def test_source_term_vanishes_without_fqc_amplitude():
    spec = FqcSpec(3, 0.2)
    h = build_two_level(spec, DriveSpec(1.0, 0.0))
    s = source_term_series(one_point(unit(h, "e"), h))[0]
    np.testing.assert_allclose(s, 0.0)


def test_source_term_single_level_hand_oracle():
    spec = FqcSpec(0, 0.2)
    h = build_two_level(spec, DriveSpec(0.5, 0.0))
    cg, ce, cf = 0.5 + 0.1j, 0.3 - 0.2j, complex(math.sqrt(1 - 0.35 - 0.13))
    amps = np.array([cg, ce, cf])
    amps /= np.linalg.norm(amps)
    cg, ce, cf = amps
    s = source_term_series(one_point(amps, h))[0]
    lam = 0.2 * cg * np.conj(cf)
    eta = 0.2 * (cf * np.conj(ce) - ce * np.conj(cf))
    np.testing.assert_allclose(s, [[0, -lam], [np.conj(lam), eta]], atol=1e-14)
    # anti-Hermitian by construction
    np.testing.assert_allclose(s, -s.conj().T, atol=1e-14)


def test_source_term_approaches_continuum_limit():
    # pointwise for t > 0; the source needs one kernel correlation time
    # (~1/bandwidth) to turn on, so the first instants are excluded
    spec = FqcSpec(40, 0.3)
    h = build_two_level(spec, DriveSpec(1.0, 0.0))
    series = propagate(h, "e", default_grid(8.0, 1601))
    s_fqc = source_term_series(series)
    s_inf = source_infinity(series.reduced().rho, 1.0)
    settled = series.times >= 0.5
    assert np.abs(s_fqc - s_inf)[settled].max() < 0.05
    # and the gap closes as the quasi-continuum grows
    small = FqcSpec(12, 0.3)
    h_small = build_two_level(small, DriveSpec(1.0, 0.0))
    series_small = propagate(h_small, "e", default_grid(8.0, 1601))
    gap_small = np.abs(
        source_term_series(series_small)
        - source_infinity(series_small.reduced().rho, 1.0)
    )[settled].max()
    assert gap_small > np.abs(s_fqc - s_inf)[settled].max()


def test_reduced_equation_of_motion_consistency():
    # d rho_r / dt = -i([H0, rho_r] + S) with the projected source term
    spec = FqcSpec(12, 0.3)
    drive = DriveSpec(1.0, 0.0)
    h = build_two_level(spec, drive)
    dt = 1e-5
    t0 = 1.7
    series = propagate(h, "e", np.array([t0 - dt, t0, t0 + dt]))
    rho = series.reduced().rho
    lhs = (rho[2] - rho[0]) / (2 * dt)
    h0 = np.array([[0.0, drive.rabi_omega0], [drive.rabi_omega0, 0.0]], dtype=complex)
    s = source_term_series(series)[1]
    rhs = -1j * ((h0 @ rho[1] - rho[1] @ h0) + s)
    assert np.abs(lhs - rhs).max() < 1e-8


def memory_kernel(spec, tau):
    """The environment memory kernel K(tau) = v^2 sum_k exp(-i E_k tau) of
    a ladder, by the phase kernel of `propagate`."""
    energies = spec.level_indices * spec.gap
    return spec.coupling_v**2 * _phase_sum(energies, np.ones((energies.size, 1)), tau)[:, 0]


def test_memory_kernel_dirichlet():
    spec = FqcSpec(15, 0.3)
    d = spec.gap
    tau = np.linspace(0.0, 2 * math.pi / d, 3001)
    k = memory_kernel(spec, tau)
    assert k[0] == pytest.approx(31 * 0.09, rel=1e-12)
    assert k[-1].real == pytest.approx(31 * 0.09, rel=1e-6)  # periodic revival
    # closed-form Dirichlet oracle away from the singular points
    mid = tau[1:-1]
    dirichlet = 0.09 * np.sin(31 * d * mid / 2) / np.sin(d * mid / 2)
    np.testing.assert_allclose(k[1:-1].real, dirichlet, atol=1e-9)
    np.testing.assert_allclose(k.imag, 0.0, atol=1e-9)
    # first zero of the kernel at 2 pi / (n_levels * gap)
    t_zero = 2 * math.pi / (31 * d)
    i = np.searchsorted(tau, t_zero)
    assert k.real[i - 1] > 0 or k.real[i + 1] < 0  # sign change bracket
    assert abs(k.real[i]) < 0.02 * k[0].real


@pytest.mark.parametrize("tau", [
    np.geomspace(1e-3, 30.0, 97),     # non-uniform: the direct phases
    np.linspace(-4.0, 25.0, 1001),    # uniform from a negative offset
    np.array([2.5]),
])
def test_memory_kernel_matches_direct_sum(tau):
    spec = FqcSpec(7, 0.4)
    energies = spec.level_indices * spec.gap
    direct = spec.coupling_v**2 * np.exp(-1j * np.outer(tau, energies)).sum(axis=1)
    np.testing.assert_allclose(memory_kernel(spec, tau), direct, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t_f,points", [
    (0.0, 11), (-1.0, 11), (math.nan, 11), (math.inf, 11), (1.0, 1),
    # counts no numpy array holds, refused before np.linspace allocates
    (1.0, math.inf), (1.0, math.nan), (1.0, 1e300), (1.0, 2.0**62),
])
def test_default_grid_rejects_bad_window(t_f, points):
    with pytest.raises(ConfigError):
        default_grid(t_f, points)


@pytest.mark.parametrize("points", [2.0, 2001.0, 2001.7, np.float64(4001.0)])
def test_default_grid_truncates_a_float_count(points):
    # a resolution rule's count (a ceil or floor plus one) keeps linspace's bits
    grid = default_grid(3.0, points)
    np.testing.assert_array_equal(grid, np.linspace(0.0, 3.0, int(points)))


def test_propagate_rejects_bad_grid():
    h = build_single_level(FqcSpec(3, 0.2))
    with pytest.raises(ConfigError):
        propagate(h, "e", np.array([0.0, 1.0, 0.5]))


@pytest.mark.parametrize("make, start", [
    (lambda: build_single_level(FqcSpec(3, 0.2)), "g"),
    (lambda: build_single_level(FqcSpec(3, 0.2)), "f4"),
    (lambda: build_two_level(FqcSpec(3, 0.2), DriveSpec(1.0, 0.0)), "x"),
    (lambda: build_adaptive(FqcSpec(10, 0.3, hole=HoleSpec(1.0)), DriveSpec(2.0, 0.0)), "f0"),
], ids=["single-g", "single-f4", "two-level-x", "adaptive-f0-in-the-hole"])
def test_propagate_rejects_an_unknown_label(make, start):
    with pytest.raises(ConfigError, match=f"unknown basis label '{start}'"):
        propagate(make(), start, default_grid(1.0, 11))


def test_timeseries_csv_and_json(tmp_path):
    spec = FqcSpec(2, 0.2)
    h = build_two_level(spec, DriveSpec(1.0, 0.0))
    series = propagate(h, "e", default_grid(2.0, 21))
    path = tmp_path / "ts.csv"
    series.to_csv(path, extra_header=("note: test",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# note: test"
    header = lines[1].split(",")
    assert header[:2] == ["t", "pi_e"]
    assert len(lines) == 2 + 21
    # 17 significant digits survive a round trip
    value = float(lines[3].split(",")[1])
    assert value == series.pi_e[1]

    blob = json.dumps(series.to_json())
    back = json.loads(blob)
    assert back["basis_labels"][:2] == ["g", "e"]
    np.testing.assert_allclose(back["pi_e"], series.pi_e)


def test_write_csv_byte_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, {
        "n": [1, -2, 30],
        "variant": ["flat", "adaptive", "x"],
        "x": np.array([np.nan, -0.0, 1e-300]),
        "y": [1e300, 0.1, 2],
    }, header=("fqcsim-version: 1", "note"))
    assert path.read_text() == (
        "# fqcsim-version: 1\n"
        "# note\n"
        "n,variant,x,y\n"
        "1,flat,nan,1.0000000000000001e+300\n"
        "-2,adaptive,-0.0000000000000000e+00,1.0000000000000001e-01\n"
        "30,x,1.0000000000000000e-300,2.0000000000000000e+00\n"
    )


# ---------------------------------------------------------------- oracles for propagate


def propagate_dense(h, psi0, times):
    """Independent oracle: every amplitude from the full nt x dim phase
    matrix, exp(-i E t) evaluated at each grid time (no block factoring)."""
    values, vectors = np.linalg.eigh(h.entries)
    a = vectors.T @ psi0
    phases = np.exp(-1j * np.outer(times, values))
    return (phases * a) @ vectors.T


BUILDERS = {
    "single": lambda: build_single_level(FqcSpec(9, 0.35)),
    "two-level": lambda: build_two_level(FqcSpec(8, 0.3), DriveSpec(2.0, 0.4)),
    "adaptive": lambda: build_adaptive(FqcSpec(10, 0.3, hole=HoleSpec(1.0)), DriveSpec(2.0, 0.0)),
}
B = 12
_nudged = np.linspace(0.0, 6.0, 200)
_nudged[77] += 1e-9  # one point off a uniform grid: must not take the block path
GRIDS = {
    **{f"uniform-{nt}": np.linspace(0.0, 6.0, nt) for nt in (1, 2, 3, 97, B * B - 1, B * B, B * B + 1)},
    "offset": np.linspace(1.7, 9.3, 211),
    "geometric": np.geomspace(0.01, 8.0, 150),
    "nudged": _nudged,
}


def random_state(h, seed):
    """Normalized complex amplitudes over the basis of h."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((h.dim, 2))
    amps = z[:, 0] + 1j * z[:, 1]
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("builder", list(BUILDERS))
def test_propagate_matches_expm(builder, grid):
    # from every basis state: column j of exp(-i H t) is the state started in j
    expm = pytest.importorskip("scipy.linalg").expm
    h = BUILDERS[builder]()
    times = GRIDS[grid]
    picks = np.unique(np.linspace(0, times.size - 1, 5).astype(int))
    exact = np.array([expm(-1j * h.entries * times[k]) for k in picks])
    for j, label in enumerate(h.basis_labels):
        series = propagate(h, label, times)
        assert np.abs(series.pi_e[picks] - np.abs(exact[:, h.n_system - 1, j]) ** 2).max() <= 1e-10
        assert np.abs(series.amplitudes[picks] - exact[:, :, j]).max() <= 1e-10


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("builder", list(BUILDERS))
def test_propagate_matches_dense_oracle(builder, grid):
    h = BUILDERS[builder]()
    times = GRIDS[grid]
    for label in h.basis_labels:
        series = propagate(h, label, times)
        amps = propagate_dense(h, unit(h, label), times)
        dense = TimeSeries(h, times, projections(amps, h.n_system), label)
        assert np.abs(series.pi_e - dense.pi_e).max() <= 1e-12
        assert np.abs(series.reduced().rho - dense.reduced().rho).max() <= 1e-12
        if series.system_dim == 2:
            assert np.abs(series.pi_g - dense.pi_g).max() <= 1e-12
            diff = source_term_series(series) - source_term_series(dense)
            assert np.abs(diff).max() <= 1e-12
        assert np.abs(series.amplitudes - amps).max() <= 1e-12


def test_propagate_builds_full_amplitudes_lazily():
    h = build_two_level(FqcSpec(6, 0.3), DriveSpec(1.0, 0.0))
    series = propagate(h, "e", default_grid(3.0, 301))
    series.pi_e, series.reduced(), source_term_series(series)
    assert series._amplitudes is None
    assert series.amplitudes.shape == (301, h.dim)
    assert series._amplitudes is not None


def _skew_eigh(monkeypatch):
    """Make np.linalg.eigh return bases whose first vector is 1e-8 too long."""
    eigh = np.linalg.eigh

    def skewed(entries):
        values, vectors = eigh(entries)
        vectors[..., 0] *= 1.0 + 1e-8
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", skewed)


def test_propagate_rejects_non_orthonormal_eigenbasis(monkeypatch):
    _skew_eigh(monkeypatch)
    # every propagation through the eigenbasis of H: another start, or two levels
    for h, start in ((build_single_level(FqcSpec(5, 0.3)), "f0"),
                     (build_two_level(FqcSpec(5, 0.3), DriveSpec(1.0, 0.0)), "e")):
        with pytest.raises(NumericalError, match="orthonormality"):
            propagate(h, start, default_grid(2.0, 21))


# ------------------------------ the single-level path: the spectrum of the coupling block


def _eigh_c_e(values, vectors, times):
    """c_e(t) from |e> (basis index 0) by the eigenpairs of H, with every
    phase exp(-i E_n t) evaluated directly: one matmul per cell."""
    return np.exp(-1j * np.outer(times, values)) @ vectors[0] ** 2


def _eigh_path(h, times):
    """c_e(t) of a single-level h from |e> through np.linalg.eigh of its dense H."""
    return _eigh_c_e(*np.linalg.eigh(h.entries), times)


def test_single_level_path_matches_eigh_over_the_default_map():
    times = default_grid(10.0, 2001)
    every = slice(None, None, 10)  # 201 of the grid times, both ends included
    worst = 0.0
    for n in range(2, 41):
        hs = [build_single_level(FqcSpec(n, round(0.05 + 0.01 * i, 4))) for i in range(56)]
        # one batched eigh per row
        for h, values, vectors in zip(hs, *np.linalg.eigh(np.stack([h.entries for h in hs]))):
            want = np.abs(_eigh_c_e(values, vectors, times[every])) ** 2
            worst = max(worst, np.abs(propagate(h, "e", times).pi_e[every] - want).max())
    assert worst <= 1e-12  # measured 2.8e-14


@pytest.mark.parametrize("spec, t_f", [
    # holed ladders have no f0: a zero column, so a zero singular value
    (FqcSpec(15, 0.3, hole=HoleSpec(1.0)), 50.0),
    (FqcSpec(40, 0.45, hole=HoleSpec(3.0)), 50.0),
    (FqcSpec(10, 0.3, hole=HoleSpec(0.0)), 20.0),  # a zero-width hole keeps f0
    (FqcSpec(0, 0.3), 20.0),                         # |e> and f0 alone
    (FqcSpec(300, 0.1), 50.0),
    (FqcSpec(5, 0.0), 10.0),                         # decoupled: every sigma is 0
])
def test_single_level_path_matches_eigh(spec, t_f):
    h = build_single_level(spec)
    times = default_grid(t_f, 2001)
    series, c_e = propagate(h, "e", times), _eigh_path(h, times)
    # the projection is the secular path's own; the full amplitudes come from eigh
    assert np.abs(series.projections[:, 0] - c_e).max() <= 1e-12
    assert np.abs(series.pi_e - np.abs(c_e) ** 2).max() <= 1e-12
    assert np.abs(series.amplitudes[:, 0] - c_e).max() <= 1e-12
    assert np.abs(np.linalg.norm(series.amplitudes, axis=1) - 1.0).max() <= 1e-12
    assert series.energy_variance0 == _dense_variance(h, unit(h, "e"))


@pytest.mark.parametrize("n_half", [50, 100, 200, 400, 10_000])
def test_single_level_path_follows_the_bixon_jortner_law(n_half):
    # an infinite flat ladder gives c_e(t) = exp(-gamma t / 2) exactly up to
    # the first revival at 2 pi / delta (Bixon and Jortner, J. Chem. Phys.
    # 48, 715 (1968)); a ladder of 2N + 1 levels misses it by about 0.31 / N
    spec = FqcSpec(n_half, 0.3)
    t_rev = 2 * math.pi / spec.gap
    times = np.linspace(0.05 * t_rev, 0.95 * t_rev, 1001)
    h = build_single_level(spec)
    c_e = propagate(h, "e", times).projections[:, h.basis_labels.index("e")]
    assert n_half * np.abs(c_e.real - np.exp(-times / 2)).max() <= 0.35
    if n_half <= 400:  # the path takes c_e real; the eigenbasis agrees
        assert np.abs(_eigh_path(h, times).imag).max() <= 1e-13


def test_sum_rule_holds_at_n_1e5():
    sigma, weights = _weights(build_single_level(FqcSpec(100_000, 0.3)))
    assert sigma.size == 100_001 and (np.diff(sigma) > 0).all()
    assert abs(weights.sum() - 1.0) <= 1e-14


def test_single_level_path_serves_e_without_a_given_eig(monkeypatch):
    h = build_single_level(FqcSpec(6, 0.3))
    times = default_grid(2.0, 21)

    # a closed form that returns NaN fails the secular residual check
    monkeypatch.setattr(evolve, "_digamma", lambda z: (np.full_like(z, np.nan),) * 2)
    with pytest.raises(NumericalError, match="secular residual inf exceeds 1e-10"):
        propagate(h, "e", times)
    # any other start stays on the eigenbasis
    for start in ("f0", "f-6", "f6"):
        assert np.isfinite(propagate(h, start, times).pi_e).all()


def test_digamma_matches_scipy():
    special = pytest.importorskip("scipy.special")
    z = np.concatenate([np.geomspace(1e-3, 1e5, 400), np.linspace(0.5, 30.5, 301)])
    psi, psi1 = _digamma(z)
    # absolute near the root of psi at 1.4616, relative elsewhere
    assert np.abs(psi - special.digamma(z)).max() <= 4e-16 * np.abs(psi).max()
    assert np.abs(psi - special.digamma(z)).max(initial=0, where=z > 2) <= 4e-16 * 12
    assert np.abs(psi1 / special.polygamma(1, z) - 1.0).max() <= 1e-15


def test_digamma_identities():
    # numpy only: the values at 1 and 1/2 and the recurrences
    psi, psi1 = _digamma(np.array([1.0, 0.5]))
    euler = 0.57721566490153286
    assert psi[0] == pytest.approx(-euler, rel=1e-15)
    assert psi[1] == pytest.approx(-euler - 2 * math.log(2.0), rel=1e-15)
    assert psi1.tolist() == pytest.approx([math.pi**2 / 6, math.pi**2 / 2], rel=1e-15)
    z = np.linspace(0.05, 40.0, 800)
    (p0, d0), (p1, d1) = _digamma(z), _digamma(z + 1.0)
    assert np.abs(p1 - p0 - 1.0 / z).max() <= 1e-15 * np.abs(1.0 / z).max()
    assert np.abs((d0 - d1) * z * z - 1.0).max() <= 1e-13


def _secular_cases():
    """Every (N, v, hole half-width) of the secular oracles whose ladder
    exists: a hole wider than the band, or one that leaves no level, is a
    ConfigError."""
    cases = []
    for n in (0, 1, 2, 10, 40, 100, 300):
        for v in (0.05, 0.3, 0.6):
            for width in (None, 0.05, 1.0):
                try:
                    build_single_level(FqcSpec(n, v, hole=width and HoleSpec(width)))
                except ConfigError:
                    continue
                cases.append(pytest.param(n, v, width, id=f"{n}-{v}-{width or 'flat'}"))
    return cases


SECULAR_CASES = _secular_cases()


def _weights(h):
    """sigma and the weights of c_e of one cell by `_spectra`, which must
    pass its checks."""
    sigma, weights, (error,), real = _spectra([h])
    assert error is None and real
    return sigma[0], weights[0, :, 0]


def test_one_solve_of_mixed_ladders_gives_every_cell_its_own_bits():
    # the map solves the roots of all its cells at once: each cell must get
    # the bits it gets alone, from N = 0 (one root) to N = 300
    hs = [build_single_level(FqcSpec(*case.values[:2], hole=case.values[2] and
                                     HoleSpec(case.values[2]))) for case in SECULAR_CASES]
    sigma, weights, start, errors = evolve._ladder_spectra(hs[::-1] + hs)
    assert errors == [None] * (2 * len(hs))
    for h, lo in zip(hs[::-1] + hs, start):
        alone, alone_weights = _weights(h)
        assert sigma[lo:lo + alone.size].tobytes() == alone.tobytes()
        assert weights[lo:lo + alone.size].tobytes() == alone_weights.tobytes()


def test_secular_cases_cover_flat_and_both_holes():
    widths = {case.values[2] for case in SECULAR_CASES}
    assert widths == {None, 0.05, 1.0}
    assert {case.values[0] for case in SECULAR_CASES} == {0, 1, 2, 10, 40, 100, 300}


@pytest.mark.parametrize("n_half, v, width", SECULAR_CASES)
def test_secular_spectrum_matches_the_full_svd(n_half, v, width):
    h = build_single_level(FqcSpec(n_half, v, hole=width and HoleSpec(width)))
    sigma, weights = _weights(h)
    u, s, _ = np.linalg.svd(coupling_block(h))
    # ascending; a holed ladder's zero column gives the dark state, first
    assert np.abs(sigma - s[::-1]).max() <= 1e-13 * s.max()
    assert np.abs(weights - u[0, ::-1] ** 2).max() <= 1e-13
    assert abs(weights.sum() - 1.0) <= 1e-13


@pytest.mark.parametrize("n_half, v, width", SECULAR_CASES)
def test_secular_spectrum_matches_dlasd4(n_half, v, width):
    lapack = pytest.importorskip("scipy.linalg.lapack")
    if not hasattr(lapack, "dlasd4"):
        pytest.skip("this scipy has no dlasd4")
    # LAPACK's own root finder for D^2 + z z^T, one root at a time (i 0-based)
    h = build_single_level(FqcSpec(n_half, v, hole=width and HoleSpec(width)))
    ks = h.level_indices
    poles = ks[ks >= 0] * h.spec.gap
    z = np.where(ks[ks >= 0] == 0, v, math.sqrt(2.0) * v)
    want_sigma, want_weights = [], []
    for i in range(poles.size):
        delta, root, work, info = lapack.dlasd4(i, poles, z)
        assert info == 0
        if poles.size == 1:  # dlasd4 then returns delta = work = 1
            delta, work = poles - root, poles + root
        want_sigma.append(root)
        want_weights.append(1.0 / (root**2 * np.sum(z**2 / (delta * work) ** 2)))
    sigma, weights = _weights(h)
    if 0 not in ks:
        sigma, weights = sigma[1:], weights[1:]
    assert np.abs(sigma / want_sigma - 1.0).max() <= 1e-13
    assert np.abs(weights - want_weights).max() <= 1e-13


@pytest.mark.parametrize("n_half, v, width", SECULAR_CASES)
def test_secular_path_pi_e_matches_eigh(n_half, v, width):
    # N = 300 needs the Newton step: the SVD's roots alone fail the secular
    # residual check at v = 0.6 (2.7e-10); with it pi_e is within 2e-13
    h = build_single_level(FqcSpec(n_half, v, hole=width and HoleSpec(width)))
    times = default_grid(20.0, 401)
    values, vectors = np.linalg.eigh(h.entries)
    want = np.abs((vectors[0] ** 2 * np.exp(-1j * np.outer(times, values))).sum(axis=1)) ** 2
    assert np.abs(propagate(h, "e", times).pi_e - want).max() <= 1e-12


def _oracle_cell(n_half, exponent, holed):
    """The ladder of N levels on each side with a = (v / delta)^2 = 10^exponent
    (v = 1, delta = 10^(-exponent / 2)), flat or without its level at 0."""
    gamma = 2 * math.pi * 10.0 ** (exponent / 2)
    hole = HoleSpec(0.5 * 10.0 ** (-exponent / 2)) if holed else None
    return build_single_level(FqcSpec(n_half, 1.0, gamma, hole))


@pytest.mark.parametrize("n_half, holed", [(n, holed) for n in (0, 1, 2, 15, 40)
                                            for holed in (False, True) if n or not holed])
def test_ladder_spectra_match_dense_eigh_from_sparse_to_dense(n_half, holed):
    # a from 1e-12 (the doublet |e>-f0 of a flat ladder, x about sqrt(a)) to
    # 1e14 (the top root, x about sqrt((2N + 1) a), holds nearly all the
    # weight): c_e up to a phase of 4 on the fastest root
    for exponent in range(-12, 15):
        h = _oracle_cell(n_half, exponent, holed)
        sigma, weights, _, (error,) = evolve._ladder_spectra([h])
        assert error is None, exponent
        values, vectors = np.linalg.eigh(h.entries)
        times = np.linspace(0.0, 4.0 / np.abs(values).max(), 65)
        want = (vectors[0] ** 2 * np.exp(-1j * np.outer(times, values))).sum(axis=1)
        got = np.cos(np.outer(times, sigma)) @ weights
        assert np.abs(got - want).max() <= 1e-12, exponent


def test_decoupled_cell_deflates_without_dividing_by_its_gap():
    h = build_single_level(FqcSpec(4, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0 / 0 on the way
        sigma, weights = _weights(h)
        series = propagate(h, "e", default_grid(5.0, 51))
    assert (sigma == 0.0).all() and weights.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert (series.pi_e == 1.0).all()


def test_one_level_ladder_has_one_root_at_v():
    # |e> and f0 alone: sigma = v with all the weight, c_e = cos(v t)
    sigma, weights = _weights(build_single_level(FqcSpec(0, 0.3)))
    assert sigma.tolist() == pytest.approx([0.3], rel=1e-15)
    assert weights.tolist() == pytest.approx([1.0], rel=1e-15)


def test_holed_ladder_has_a_dark_state_at_zero():
    spec = FqcSpec(12, 0.3, hole=HoleSpec(1.0))
    h = build_single_level(spec)
    sigma, weights = _weights(h)
    pos = h.level_indices[h.level_indices > 0] * spec.gap
    assert sigma[0] == 0.0 and (sigma[1:] > 0).all() and sigma.size == pos.size + 1
    # the null vector of B^T: u_e z_j + u_{a_j} d_j = 0
    assert weights[0] == pytest.approx(1.0 / (1.0 + np.sum(2 * 0.3**2 / pos**2)), rel=1e-14)
    u, s, _ = np.linalg.svd(coupling_block(h))
    assert s[-1] == 0.0 and abs(weights[0] - u[0, -1] ** 2) <= 1e-13


def test_sum_rule_failure_stays_in_its_cell(monkeypatch):
    roots = evolve._secular_roots

    def lost_weights(n, k_min, a, k):  # the cell v = 0.3 loses every weight
        x, w, residual = roots(n, k_min, a, k)
        w[np.isclose(a, (0.3 / FqcSpec(1, 0.3).gap) ** 2)] = 0.0
        return x, w, residual

    monkeypatch.setattr(evolve, "_secular_roots", lost_weights)
    hs = [build_single_level(FqcSpec(6, v)) for v in (0.2, 0.3, 0.4)]
    errors = _spectra(hs)[2]
    assert str(errors[1]) == "sum rule defect 1.0 exceeds 1e-10"
    assert errors[0] is None and errors[2] is None


def test_decay_map_takes_no_singular_vectors(monkeypatch, tmp_path):
    # the closed-form spectrum calls no SVD at all: not on a map, not on one
    # cell, not in the decay command
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    for width in (None, 0.3):
        grid = SweepGrid((3, 8), (0.25, 0.4), SweepFixed(t_f=4.0, grid_points=401,
                                                       hole_half_width=width))
        assert not run_sweep(grid).cell_errors
    # the lazy full amplitudes of one cell come from eigh
    series = propagate(build_single_level(FqcSpec(6, 0.3)), "e", default_grid(2.0, 21))
    assert np.isfinite(series.amplitudes).all()
    assert main(["decay", "--out", str(tmp_path / "decay")]) == 0


def test_lazy_amplitudes_keep_the_gram_check(monkeypatch):
    _skew_eigh(monkeypatch)
    series = propagate(build_single_level(FqcSpec(6, 0.3)), "e", default_grid(2.0, 21))
    assert np.isfinite(series.pi_e).all()  # c_e takes no eigenvectors
    with pytest.raises(NumericalError, match="orthonormality defect"):
        series.amplitudes


@pytest.mark.parametrize("make, starts", [
    (lambda: build_single_level(FqcSpec(6, 0.3)), ("e",)),
    (lambda: build_two_level(FqcSpec(8, 0.3), DriveSpec(2.0, 0.4)), None),
], ids=["single-e", "two-level-every-label"])
def test_lazy_reads_call_no_diagonalize(make, starts, monkeypatch):
    # a reader may take the amplitudes and the variance after `propagate` has
    # returned (the benchmark tracer does): they must not reenter `diagonalize`
    h = make()
    times = default_grid(3.0, 301)
    starts = starts or h.basis_labels
    every = [propagate(h, start, times) for start in starts]

    def forbidden(h):
        raise AssertionError("diagonalize called after propagate returned")

    monkeypatch.setattr(evolve, "diagonalize", forbidden)
    for start, series in zip(starts, every):
        want = propagate_dense(h, unit(h, start), times)
        assert np.abs(series.amplitudes - want).max() <= 1e-12
        want_variance = _dense_variance(h, unit(h, start))
        assert abs(series.energy_variance0 - want_variance) <= 1e-12 * want_variance


def test_decay_stack_task_peak_memory(monkeypatch):
    # rows of the default map: every root solved before the pool, then tasks
    # of `_stack_cells` cells, each one phase sum and one d1.  At N = 2 the
    # trapezoid sets the stack size, at N = 40 the phase sum
    v_values = tuple(round(0.05 + 0.01 * i, 4) for i in range(56))
    monkeypatch.setenv("FQCSIM_THREADS", "1")
    for n_half in (2, 40):
        assert 1 < sweep._stack_cells(n_half, 2001, True) < len(v_values)
        grid = SweepGrid((n_half,), v_values, SweepFixed())
        run_sweep(grid)  # caches warm
        tracemalloc.start()
        try:
            result = run_sweep(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not result.cell_errors
        assert peak <= 2 * sweep._STACK_BYTES  # measured 1.89 MiB (N = 2), 1.60 MiB (N = 40)


def test_reduced_diagonal_is_exactly_real():
    h = build_two_level(FqcSpec(8, 0.3), DriveSpec(2.0, 0.4))
    series = propagate(h, "e", default_grid(3.0, 301))
    c = series.projections[:, :2]
    rho = series.reduced().rho
    assert (rho[:, [0, 1], [0, 1]].imag == 0.0).all()
    # every real part, and the coherence, keeps its bits
    np.testing.assert_array_equal(rho.real, (c[:, :, None] * c.conj()[:, None, :]).real)
    np.testing.assert_array_equal(rho[:, 0, 1], c[:, 0] * c[:, 1].conj())
    # the reference forms rho = c c^dagger the same way: a broadcast product
    # left 6.9e-18 in Im rho_gg here
    ref = evolve_nonhermitian(NonHermitianSpec(1.0, DriveSpec(10.0, 0.3)), "g",
                              default_grid(8.0, 2001))
    assert (ref.rho[:, [0, 1], [0, 1]].imag == 0.0).all()


@pytest.fixture
def dense_builds(monkeypatch):
    """The number of dense Hamiltonian matrices built from here on."""
    count = [0]
    dense = HamiltonianMatrix.entries.fget

    def counted(h):
        count[0] += 1
        return dense(h)

    monkeypatch.setattr(HamiltonianMatrix, "entries", property(counted))
    return count


def test_decay_map_and_propagate_build_no_dense_matrix(dense_builds):
    for n_values, width in (((0, 3, 8), None), ((3, 8), 0.3)):  # flat, and with a hole
        grid = SweepGrid(n_values, (0.25, 0.4), SweepFixed(t_f=4.0, grid_points=401,
                                                          hole_half_width=width))
        result = run_sweep(grid)
        assert not result.cell_errors and np.isfinite(result.values).all()
    series = propagate(build_single_level(FqcSpec(6, 0.3)), "e", default_grid(4.0, 401))
    assert np.isfinite(series.pi_e).all() and np.isfinite(series.reduced().rho).all()
    # nor does reading the energy variance (H psi from the structure)
    assert series.energy_variance0 > 0
    assert dense_builds[0] == 0
    # any eigh path builds it
    run_sweep(SweepGrid((3,), (0.3,), SweepFixed(t_f=4.0, omega0=1.0, model="rabi",
                                                 grid_points=401), "d2"))
    assert dense_builds[0] == 1


def _dense_variance(h, psi):
    """<H^2> - <H>^2 of psi by the dense formula."""
    hpsi = h.entries @ psi
    mean = np.real(np.vdot(psi, hpsi))
    return float(np.real(np.vdot(hpsi, hpsi)) - mean**2)


@pytest.mark.parametrize("make", [
    lambda: build_single_level(FqcSpec(15, 0.3)),
    lambda: build_single_level(FqcSpec(0, 0.3)),
    lambda: build_single_level(FqcSpec(10, 0.3, hole=HoleSpec(0.4))),
    lambda: build_two_level(FqcSpec(8, 0.3), DriveSpec(2.0, 0.4)),
    lambda: build_two_level(FqcSpec(0, 0.3), DriveSpec(1.0, 0.0)),
    lambda: build_adaptive(FqcSpec(10, 0.3, hole=HoleSpec(1.0)), DriveSpec(2.0, 0.0)),
], ids=["single", "single-n0", "single-holed", "two-level", "two-level-n0", "adaptive"])
def test_lazy_energy_variance_equals_the_dense_formula(make, dense_builds):
    h = make()
    times = default_grid(2.0, 21)
    series = propagate(h, "e", times)
    if h.n_system == 1:  # the secular path: no dense matrix until the variance is read
        assert dense_builds[0] == 0
    assert series.energy_variance0 == _dense_variance(h, unit(h, "e"))


MATVEC_CELLS = {
    "single": lambda: build_single_level(FqcSpec(15, 0.3)),
    "single-holed": lambda: build_single_level(FqcSpec(10, 0.3, hole=HoleSpec(0.4))),
    "two-level": lambda: build_two_level(FqcSpec(8, 0.3), DriveSpec(2.0, 0.4)),
    "adaptive": lambda: build_adaptive(FqcSpec(10, 0.3, hole=HoleSpec(1.0)), DriveSpec(2.0, -0.7)),
}


@pytest.mark.parametrize("cell, start", [
    (cell, start) for cell, make in MATVEC_CELLS.items() for start in ("e", "g", "f0", "random")
    if start == "random" or start in make().basis_labels
])
def test_structural_matvec_and_variance_match_the_dense_formula(cell, start):
    h = MATVEC_CELLS[cell]()
    state = random_state(h, 5) if start == "random" else unit(h, start)
    got = h.matvec(state)
    want = h.entries @ state
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    want_variance = _dense_variance(h, state)
    variance = np.real(np.vdot(got, got)) - np.real(np.vdot(state, got)) ** 2
    assert abs(variance - want_variance) <= 1e-14 * want_variance
    if start != "random":
        # "e" on a single level is the secular path, every other start the eigh one
        series = propagate(h, start, default_grid(2.0, 21))
        assert abs(series.energy_variance0 - want_variance) <= 1e-14 * want_variance


def test_ladder_stacks_give_each_stack_the_bits_it_gets_alone():
    # a decay map solves every stack in one call: flat and holed stacks of
    # mixed N, in any order, each get the bits `_spectra` gives that stack
    stacks = []
    for n in (0, 2, 10, 40, 300):
        stacks.append([build_single_level(FqcSpec(n, v)) for v in (0.05, 0.3, 0.6)])
        if n >= 2:  # a hole of k_min = 2 at both couplings
            stacks.append([build_single_level(FqcSpec(n, v, hole=HoleSpec(1.0)))
                           for v in (0.3, 0.31)])
    assert all(len({h.basis_labels for h in hs}) == 1 for hs in stacks)
    assert {hs[0].dim % 2 for hs in stacks} == {0, 1}  # holed and flat
    for order in (stacks, stacks[::-1]):
        for hs, got in zip(order, evolve._ladder_stacks(order)):
            want = _spectra(hs)
            assert got[2] == want[2] == [None] * len(hs) and got[3] is want[3] is True
            for a, b in zip(got[:2], want[:2]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model, metric", [("rabi", "d2"), ("rabi", "fit"), ("adaptive", "d2")])
def test_two_level_map_builds_each_dense_matrix_once(dense_builds, model, metric):
    # every cell is built once; its dense H is formed for its eigh alone and
    # not cached on the cell (adaptive cells whose hole swallows the band
    # fail to build and form none)
    fixed = SweepFixed(t_f=4.0, omega0=2.0, model=model, grid_points=401)
    grid = SweepGrid((2, 5, 9), (0.2, 0.3, 0.45, 0.6), fixed, metric)
    result = run_sweep(grid)
    built = sum(not isinstance(sweep._attempt(sweep.build_model, model, n, v, 1.0, DriveSpec(2.0)),
                               Exception) for n in grid.n_values for v in grid.v_values)
    assert 0 < built == result.values.size - len(result.cell_errors)
    assert dense_builds[0] == built
