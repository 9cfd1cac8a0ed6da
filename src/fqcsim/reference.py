"""Exact non-Hermitian reference dynamics the FQC emulation is judged against.

The open two-level system evolves under H_eff = H0 + i H_d with a lossy
excited state, H_d = -(gamma/2) |e><e|.  The decaying norm is physical
(population leaks to the continuum); nothing is renormalized.  One
propagator, `_amplitudes`, gives the (g, e) amplitudes in every regime; the
reference series and the sideband quadrature both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evolve import DensitySeries, _outer
from .hamiltonian import DriveSpec

__all__ = [
    "NonHermitianSpec",
    "effective_hamiltonian",
    "decay_single",
    "evolve_nonhermitian",
]


@dataclass(frozen=True)
class NonHermitianSpec:
    """Decay rate plus (optionally) the rotating-frame drive."""

    gamma: float
    drive: DriveSpec | None = None

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ConfigError(f"gamma must be finite and > 0, got {self.gamma}")


def effective_hamiltonian(spec: NonHermitianSpec) -> np.ndarray:
    """H_eff = H0 + i H_d in the (g, e) basis; complex, non-Hermitian."""
    drive = spec.drive or DriveSpec(0.0, 0.0)
    h0 = np.array(
        [[0.0, drive.rabi_omega0], [drive.rabi_omega0, drive.detuning_delta]],
        dtype=complex,
    )
    h0[1, 1] += -0.5j * spec.gamma
    return h0


def decay_single(gamma: float, pi0: float, times: np.ndarray) -> DensitySeries:
    """Pure exponential decay pi(t) = pi0 exp(-gamma t) as a 1x1 series."""
    if not -1e-12 <= pi0 <= 1.0 + 1e-12:  # rounding slack for |c_e|^2
        raise ConfigError(f"pi0 must lie in [0, 1], got {pi0}")
    pi0 = min(max(pi0, 0.0), 1.0)
    times = np.asarray(times, dtype=float)
    rho = (pi0 * np.exp(-gamma * times)).reshape(-1, 1, 1).astype(complex)
    return DensitySeries(times, rho)


def evolve_nonhermitian(
    spec: NonHermitianSpec,
    psi0: np.ndarray | str,
    times: np.ndarray,
) -> DensitySeries:
    """Propagate rho(t) = e^{-i H_eff t} |psi0><psi0| e^{+i H_eff^dag t}.

    psi0 is a (g, e) amplitude pair or a basis label, "g" or "e"; any other
    label is a ConfigError.
    """
    times = np.asarray(times, dtype=float)
    return DensitySeries(times, _outer(_amplitudes(spec, psi0, times)))


def _amplitudes(spec: NonHermitianSpec, psi0: np.ndarray | str, times) -> np.ndarray:
    """The (nt, 2) amplitudes e^{-i H_eff t} psi0 in the (g, e) basis.

    One closed form covers every regime, the exceptional point
    omega0 = gamma/4 included: with tau = tr(H)/2 and K = H - tau I,
    K^2 = q I, so

        e^{-iHt} = e^{-i tau t} [cos(s t) I - i t sinc(s t) K],   s^2 = q,

    which is even in s.  It is evaluated on the branch Im(s) >= 0 as

        e^{-i(tau+s)t} [(1 + e^z)/2 I - i t (e^z - 1)/z K],   z = 2 i s t,

    where e^{-i(tau+s)t}, e^z and (e^z - 1)/z all stay bounded by 1 (cos and
    sinc alone overflow once Im(s) t exceeds ~709), and (e^z - 1)/z is 1 at
    z = 0.
    """
    if isinstance(psi0, str):
        if psi0 not in ("g", "e"):
            raise ConfigError(f"the reference starts in 'g' or 'e', got {psi0!r}")
        psi0 = np.eye(2)[("g", "e").index(psi0)]
    psi0 = np.asarray(psi0, dtype=complex).reshape(2)
    times = np.asarray(times, dtype=float)
    heff = effective_hamiltonian(spec)
    tau = 0.5 * np.trace(heff)
    k = heff - tau * np.eye(2)
    s = 1j * np.sqrt(-(k[0, 0] ** 2 + k[0, 1] * k[1, 0]))
    z = 2j * s * times
    phi = np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0)
    return np.exp(-1j * (tau + s) * times)[:, None] * (
        0.5 * (1.0 + np.exp(z))[:, None] * psi0 - 1j * (times * phi)[:, None] * (k @ psi0)
    )
