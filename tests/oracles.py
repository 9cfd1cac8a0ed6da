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
