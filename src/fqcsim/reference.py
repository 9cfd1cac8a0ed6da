"""Exact non-Hermitian reference dynamics the FQC emulation is judged against.

The open two-level system evolves under H_eff = H0 + i H_d with a lossy
excited state, H_d = -(gamma/2) |e><e|.  The decaying norm is physical
(population leaks to the continuum); nothing is renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evolve import DensitySeries
from .hamiltonian import DriveSpec

__all__ = [
    "NonHermitianSpec",
    "DampedAmplitude",
    "effective_hamiltonian",
    "decay_single",
    "evolve_nonhermitian",
    "damped_oscillator_ce",
    "underdamped_discriminant",
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
    label is a ConfigError.  One closed form covers every regime, the
    exceptional point omega0 = gamma/4 included: with tau = tr(H)/2 and
    K = H - tau I, K^2 = q I, so

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
    psits = np.exp(-1j * (tau + s) * times)[:, None] * (
        0.5 * (1.0 + np.exp(z))[:, None] * psi0 - 1j * (times * phi)[:, None] * (k @ psi0)
    )
    rho = psits[:, :, None] * psits.conj()[:, None, :]
    return DensitySeries(times, rho)


def underdamped_discriminant(gamma: float, omega0: float) -> float:
    """Discriminant 4 omega0^2 - gamma^2/4 of the damped amplitude equation.

    Positive in the under-damped (oscillatory) regime; the oscillation
    frequency is sqrt(discriminant)/2.
    """
    return 4.0 * omega0**2 - gamma**2 / 4.0


@dataclass
class DampedAmplitude:
    """Closed-form excited amplitude of the resonant damped oscillator."""

    times: np.ndarray
    c_e: np.ndarray
    regime: str
    discriminant: float

    @property
    def pi_e(self) -> np.ndarray:
        return np.abs(self.c_e) ** 2


def damped_oscillator_ce(
    spec: NonHermitianSpec,
    times: np.ndarray,
    psi0: np.ndarray = (0.0, 1.0),
) -> DampedAmplitude:
    """Solve c_e'' + (gamma/2) c_e' + omega0^2 c_e = 0 in closed form.

    Valid at zero detuning only.  Regimes, by the sign of the discriminant
    4 omega0^2 - gamma^2/4:
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
        ce = decay * (ce0 * np.cos(om * times) + b * np.sin(om * times))
        regime = "underdamped"
    elif disc == 0:
        b = dce0 + 0.25 * gamma * ce0
        ce = decay * (ce0 + b * times)
        regime = "critical"
    else:
        kappa = np.sqrt(-disc) / 2.0
        b = (dce0 + 0.25 * gamma * ce0) / kappa
        ce = decay * (ce0 * np.cosh(kappa * times) + b * np.sinh(kappa * times))
        regime = "overdamped"
    return DampedAmplitude(times, ce.astype(complex), regime, disc)
