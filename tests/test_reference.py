import math

import numpy as np
import pytest

from fqcsim import (
    ConfigError,
    DriveSpec,
    NonHermitianSpec,
    damped_oscillator_ce,
    decay_single,
    default_grid,
    effective_hamiltonian,
    evolve_nonhermitian,
    underdamped_discriminant,
)
from oracles import damped_rabi_population

E_STATE = np.array([0.0, 1.0], dtype=complex)
G_STATE = np.array([1.0, 0.0], dtype=complex)
MIXED_STATE = np.array([0.6, 0.8j])
EP = 0.25  # the exceptional point omega0 = gamma/4 at gamma = 1


def evolve_ode(spec, psi0, times):
    """Independent oracle: integrate the commutator-plus-anticommutator
    equation of motion of rho directly."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    heff = effective_hamiltonian(spec)
    h0 = heff.real.astype(complex)
    hd = np.diag([0.0, -0.5 * spec.gamma]).astype(complex)

    def rhs(_t, y):
        rho = y.reshape(2, 2)
        drho = -1j * (h0 @ rho - rho @ h0) + (hd @ rho + rho @ hd)
        return drho.reshape(-1)

    rho0 = np.outer(psi0, psi0.conj()).reshape(-1)
    sol = solve_ivp(
        rhs, (times[0], times[-1]), rho0, t_eval=times,
        rtol=1e-11, atol=1e-13, method="DOP853",
    )
    assert sol.success, sol.message
    return sol.y.T.reshape(-1, 2, 2)


def test_decay_single_values():
    times = np.array([0.0, math.log(2.0), 10.0])
    series = decay_single(1.0, 1.0, times)
    np.testing.assert_allclose(series.pi_e, [1.0, 0.5, math.exp(-10)], rtol=1e-12)
    assert series.rho.shape == (3, 1, 1)


def test_decay_single_rejects_bad_pi0():
    with pytest.raises(ConfigError):
        decay_single(1.0, 1.5, np.array([0.0, 1.0]))


def test_undriven_excited_state_reduces_to_decay():
    times = default_grid(8.0, 401)
    series = evolve_nonhermitian(NonHermitianSpec(1.0), E_STATE, times)
    np.testing.assert_allclose(series.pi_e, np.exp(-times), atol=1e-12)
    np.testing.assert_allclose(series.rho[:, 0, 1], 0.0, atol=1e-14)


def test_ground_state_is_stable():
    times = default_grid(8.0, 101)
    series = evolve_nonhermitian(NonHermitianSpec(1.0), G_STATE, times)
    np.testing.assert_allclose(series.rho, np.tile(np.diag([1.0, 0.0]), (101, 1, 1)), atol=1e-12)


@pytest.mark.parametrize("omega0", [10.0, 15.0])
def test_strong_coupling_closed_form(omega0):
    # residual deviation is the gamma/(4 omega0) cross term of the exact
    # amplitude, so the bound tightens as the drive grows
    times = default_grid(8.0, 4001)
    spec = NonHermitianSpec(1.0, DriveSpec(omega0, 0.0))
    series = evolve_nonhermitian(spec, E_STATE, times)
    approx = damped_rabi_population(1.0, omega0, times)
    bound = 0.026 if omega0 == 10.0 else 0.02
    assert np.abs(series.pi_e - approx).max() <= bound


@pytest.mark.parametrize("omega0", [0.1, 0.25, 1.0, 10.0])
def test_eig_and_ode_representations_agree(omega0):
    times = default_grid(6.0, 301)
    spec = NonHermitianSpec(1.0, DriveSpec(omega0, 0.0))
    a = evolve_nonhermitian(spec, E_STATE, times)
    b = evolve_ode(spec, E_STATE, times)
    assert np.abs(a.rho - b).max() < 1e-8


def test_detuned_evolution_matches_ode():
    expm = pytest.importorskip("scipy.linalg").expm
    times = default_grid(6.0, 301)
    spec = NonHermitianSpec(1.0, DriveSpec(1.0, 0.7))
    heff = effective_hamiltonian(spec)
    assert heff[1, 1] == pytest.approx(0.7 - 0.5j)
    a = evolve_nonhermitian(spec, E_STATE, times)
    # independent per-point matrix exponential oracle
    for i in (50, 150, 300):
        u = expm(-1j * heff * times[i])
        rho = np.outer(u @ E_STATE, (u @ E_STATE).conj())
        assert np.abs(a.rho[i] - rho).max() < 1e-10


def test_trace_decays_monotonically_on_resonance():
    times = default_grid(8.0, 2001)
    spec = NonHermitianSpec(1.0, DriveSpec(1.0, 0.0))
    series = evolve_nonhermitian(spec, E_STATE, times)
    trace = series.trace
    assert np.all(np.diff(trace) <= 1e-12)
    # d(trace)/dt = -gamma * pi_e
    deriv = np.gradient(trace, times)
    np.testing.assert_allclose(deriv[2:-2], -series.pi_e[2:-2], atol=2e-4)


def test_damped_oscillator_regimes():
    times = default_grid(8.0, 801)
    over = damped_oscillator_ce(NonHermitianSpec(1.0, DriveSpec(0.1, 0.0)), times)
    assert over.regime == "overdamped"
    # monotone decay until the amplitude zero crossing near t = 7.6,
    # after which pi_e stays below 1e-3
    early = times <= 6.0
    assert np.all(np.diff(over.pi_e[early]) <= 1e-12)
    assert over.pi_e[~early].max() < 1e-3

    crit = damped_oscillator_ce(NonHermitianSpec(1.0, DriveSpec(0.25, 0.0)), times)
    assert crit.regime == "critical"
    assert crit.discriminant == 0.0

    under = damped_oscillator_ce(NonHermitianSpec(1.0, DriveSpec(1.0, 0.0)), times)
    assert under.regime == "underdamped"
    assert underdamped_discriminant(1.0, 1.0) == pytest.approx(3.75)


@pytest.mark.parametrize("omega0", [0.1, 0.25, 1.0, 10.0])
def test_damped_oscillator_matches_nonhermitian_propagation(omega0):
    times = default_grid(8.0, 1601)
    spec = NonHermitianSpec(1.0, DriveSpec(omega0, 0.0))
    closed = damped_oscillator_ce(spec, times)
    series = evolve_nonhermitian(spec, E_STATE, times)
    assert np.abs(closed.pi_e - series.pi_e).max() < 1e-8


def test_critical_point_exact_double_root():
    # at omega0 = gamma/4 the characteristic polynomial has a double root and
    # H_eff is defective; the closed form needs no eigenvectors, so it holds
    times = default_grid(8.0, 801)
    spec = NonHermitianSpec(1.0, DriveSpec(0.25, 0.0))
    series = evolve_nonhermitian(spec, E_STATE, times)
    closed = damped_oscillator_ce(spec, times)
    assert np.abs(series.pi_e - closed.pi_e).max() < 1e-8


def test_damped_rabi_population_requires_underdamping():
    with pytest.raises(ConfigError):
        damped_rabi_population(1.0, 0.1, np.array([0.0, 1.0]))


def test_damped_oscillator_requires_resonance():
    with pytest.raises(ConfigError):
        damped_oscillator_ce(NonHermitianSpec(1.0, DriveSpec(1.0, 0.5)), np.array([0.0]))


def expm_rho(spec, psi0, times):
    """Oracle: rho(t) from one scipy matrix exponential per time."""
    expm = pytest.importorskip("scipy.linalg").expm
    heff = effective_hamiltonian(spec)
    psits = np.array([expm(-1j * heff * t) @ psi0 for t in times])
    return psits[:, :, None] * psits.conj()[:, None, :]


@pytest.mark.parametrize("omega0, detuning", [
    (0.0, 0.0), (0.1, 0.0), (EP, 0.0), (EP * (1 - 1e-9), 0.0), (EP * (1 + 1e-9), 0.0),
    (1.0, 0.0), (10.0, 0.0), (1.0, 0.7),
])
@pytest.mark.parametrize("psi0", [E_STATE, G_STATE, MIXED_STATE], ids=["e", "g", "mixed"])
def test_closed_form_matches_expm(omega0, detuning, psi0):
    times = default_grid(8.0, 161)
    spec = NonHermitianSpec(1.0, DriveSpec(omega0, detuning))
    series = evolve_nonhermitian(spec, psi0, times)
    assert np.abs(series.rho - expm_rho(spec, psi0, times)).max() <= 1e-12


def test_closed_form_stays_finite_at_long_times():
    # gamma t = 3000: cos(s t) and sinc(s t) alone would overflow here, while
    # the slow, mostly-|g> mode at omega0 = 0.01 still holds a third
    times = np.array([0.0, 1500.0, 3000.0])
    spec = NonHermitianSpec(1.0, DriveSpec(0.01, 0.0))
    series = evolve_nonhermitian(spec, G_STATE, times)
    assert np.abs(series.rho - expm_rho(spec, G_STATE, times)).max() <= 1e-12
    assert series.trace[-1] > 0.25


@pytest.mark.parametrize("omega0", [EP, EP * (1 - 1e-9), EP * (1 + 1e-9)])
def test_closed_form_matches_damped_oscillator_at_exceptional_point(omega0):
    times = default_grid(8.0, 801)
    spec = NonHermitianSpec(1.0, DriveSpec(omega0, 0.0))
    closed = damped_oscillator_ce(spec, times)
    assert closed.regime == ("critical" if omega0 == EP else
                             "overdamped" if omega0 < EP else "underdamped")
    series = evolve_nonhermitian(spec, E_STATE, times)
    assert np.abs(series.pi_e - closed.pi_e).max() <= 1e-12


@pytest.mark.parametrize("label, state", [("e", E_STATE), ("g", G_STATE)])
def test_label_starts_the_reference_in_that_basis_state(label, state):
    times = default_grid(4.0, 41)
    spec = NonHermitianSpec(1.0, DriveSpec(1.0, 0.3))
    assert np.array_equal(evolve_nonhermitian(spec, label, times).rho,
                          evolve_nonhermitian(spec, state, times).rho)


@pytest.mark.parametrize("label", ["f0", "E", ""])
def test_other_labels_rejected(label):
    with pytest.raises(ConfigError):
        evolve_nonhermitian(NonHermitianSpec(1.0), label, np.array([0.0, 1.0]))
