"""Closed forms the tests compare against; the package itself does not use them."""

import numpy as np

from fqcsim import ConfigError, underdamped_discriminant


def damped_rabi_population(gamma: float, omega0: float, times: np.ndarray) -> np.ndarray:
    """Strong-coupling excited population exp(-gamma t/2) cos^2(Omega t).

    Omega = sqrt(4 omega0^2 - gamma^2/4)/2 is the shifted oscillation
    frequency; this is the fit model for effective Rabi/damping extraction.
    """
    disc = underdamped_discriminant(gamma, omega0)
    if disc <= 0:
        raise ConfigError("damped_rabi_population needs the under-damped regime")
    om = np.sqrt(disc) / 2.0
    times = np.asarray(times, dtype=float)
    return np.exp(-gamma * times / 2.0) * np.cos(om * times) ** 2


def source_infinity(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Continuum-limit source i[H_d, rho]_+ for 2x2 rho (single or stacked)."""
    rho = np.asarray(rho, dtype=complex)
    hd = np.diag([0.0, -0.5 * gamma]).astype(complex)
    return 1j * (hd @ rho + rho @ hd)
