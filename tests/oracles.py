"""Closed forms the tests compare against; the package itself does not use them."""

import numpy as np

from fqcsim import ConfigError, DriveSpec


def underdamped_discriminant(gamma: float, omega0: float) -> float:
    """Discriminant 4 omega0^2 - gamma^2/4 of the damped amplitude equation.

    Positive in the under-damped (oscillatory) regime; the oscillation
    frequency is sqrt(discriminant)/2.
    """
    return 4.0 * omega0**2 - gamma**2 / 4.0


def damped_oscillator_ce(spec, times: np.ndarray, psi0=(0.0, 1.0)) -> np.ndarray:
    """c_e(t) of c_e'' + (gamma/2) c_e' + omega0^2 c_e = 0, a numpy-only oracle
    of `evolve_nonhermitian` at zero detuning (ConfigError otherwise).

    One branch per sign of the discriminant 4 omega0^2 - gamma^2/4:
      > 0  under-damped, c_e oscillates at sqrt(disc)/2 inside exp(-gamma t/4)
      = 0  critical (double root at omega0 = gamma/4)
      < 0  over-damped, monotone combination of two real decay rates
    Initial conditions follow from the Schroedinger equation under H_eff:
    c_e'(0) = -i omega0 c_g(0) - (gamma/2) c_e(0).
    """
    drive = spec.drive or DriveSpec(0.0, 0.0)
    if drive.detuning_delta != 0.0:
        raise ConfigError("damped_oscillator_ce requires zero detuning")
    times = np.asarray(times, dtype=float)
    gamma, om0 = spec.gamma, drive.rabi_omega0
    cg0, ce0 = complex(psi0[0]), complex(psi0[1])
    dce0 = -1j * om0 * cg0 - 0.5 * gamma * ce0
    disc = underdamped_discriminant(gamma, om0)
    decay = np.exp(-gamma * times / 4.0)
    if disc > 0:
        om = np.sqrt(disc) / 2.0
        b = (dce0 + 0.25 * gamma * ce0) / om
        return decay * (ce0 * np.cos(om * times) + b * np.sin(om * times))
    if disc == 0:
        return decay * (ce0 + (dce0 + 0.25 * gamma * ce0) * times)
    kappa = np.sqrt(-disc) / 2.0
    b = (dce0 + 0.25 * gamma * ce0) / kappa
    return decay * (ce0 * np.cosh(kappa * times) + b * np.sinh(kappa * times))


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


def write_csv_rows(path, columns: dict, header: tuple[str, ...] = ()) -> None:
    """The row writer `fqcsim.write_csv` replaced, kept as its byte oracle:
    one `%` format per row, `%.16e` for float columns and `%s` otherwise."""
    lists, formats = [], []
    for values in columns.values():
        arr = np.asarray(values)
        lists.append(arr.tolist())
        formats.append("%.16e" if arr.dtype.kind == "f" else "%s")
    row = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {line}\n" for line in header)
        fh.write(",".join(columns) + "\n")
        fh.writelines(map(row.__mod__, zip(*lists)))
