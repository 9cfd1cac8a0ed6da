"""Distance and non-Markovianity measures between reduced dynamics.

All integrals are trapezoidal on the sampling grid and the integrands are
smooth.  `d1` and `d2` are stable to 1e-4 under grid doubling at the default
resolution (tests pin this over the default map and size-scan domains).

The non-Markovianity Sigma is less stable, because it adds up the rises of a
sampled trace distance.  From 2001 to 4001 points (64 pairs, seed 0) it moved
by less than 1e-4 relative in 9 of 10 system-subspace cases (N = 15,
v = 0.3, t_f = 10 and N = 25, v = 0.25, t_f = 24, each at omega0 in
{0, 0.5, 1, 2, 10}), but by 5.8e-4 at N = 25, omega0 = 2; on the full
subspace 7 of the 10 cases moved by more than 1e-4, up to 1.1e-3
(N = 25, omega0 = 10).  A further doubling to 8001 points moved those two
by 2.3e-6 and 2.0e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evolve import TimeSeries, _phase_sum, default_grid, diagonalize, write_csv
from .hamiltonian import HamiltonianMatrix

__all__ = [
    "MetricResult",
    "NonMarkovianityResult",
    "trace_distance",
    "d1",
    "d2",
    "nonmarkovianity",
]

HERMITICITY_TOL = 1e-8
# Amplitude bytes per block of pairs in `nonmarkovianity`: about one L2 cache.
_BLOCK_BYTES = 1 << 20


@dataclass
class MetricResult:
    """Scalar metric value plus the grid it was computed on."""

    value: float
    t_final: float
    grid_points: int
    method_notes: str = ""

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "t_final": self.t_final,
            "grid_points": self.grid_points,
            "method_notes": self.method_notes,
        }


def trace_distance(rho, sigma) -> float:
    """Trace distance T(rho, sigma) = (1/2) Tr |rho - sigma|.

    Computes half the sum of the absolute eigenvalues of the Hermitian
    difference.  For 1x1 and 2x2 inputs the eigenvalues are evaluated in
    closed form, which makes T(rho, sigma) == T(sigma, rho) bit-exact.
    Inputs must be Hermitian to within 1e-8.
    """
    a, b = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    if a.shape != b.shape:
        raise ConfigError(f"shape mismatch {a.shape} vs {b.shape}")
    for m in (a, b):
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise ConfigError("trace_distance input is not Hermitian")
    diff = a - b
    d = diff.shape[0]
    if d == 1:
        return 0.5 * abs(diff[0, 0].real)
    if d == 2:
        return float(_td_two_by_two(diff[0, 0].real, diff[1, 1].real, diff[0, 1]))
    ev = np.linalg.eigvalsh(diff)
    return 0.5 * float(np.abs(ev).sum())


def _td_two_by_two(a, d, b):
    """Half trace norm of Hermitian 2x2 matrices [[a, b], [b*, d]], closed
    form; a and d real, b complex, each a scalar or an array."""
    half_sum = 0.5 * (a + d)
    rad = np.sqrt((0.5 * (a - d)) ** 2 + np.abs(b) ** 2)
    return 0.5 * (np.abs(half_sum + rad) + np.abs(half_sum - rad))


def _embed_classical(rho: np.ndarray) -> np.ndarray:
    """Complete 1x1 system blocks with the decayed-population sector.

    A one-level system plus its loss channel is the classical bit
    diag(pi, 1 - pi); distinguishability then includes the leaked population
    and the time-averaged trace distance reduces exactly to the population
    measure d1.
    """
    pi = rho[:, 0, 0].real
    out = np.zeros((rho.shape[0], 2, 2), dtype=complex)
    out[:, 0, 0] = pi
    out[:, 1, 1] = 1.0 - pi
    return out


def _window(times: np.ndarray, t_f: float) -> np.ndarray:
    if t_f <= 0:
        raise ConfigError(f"t_f must be > 0, got {t_f}")
    if times[-1] < t_f - 1e-9:
        raise ConfigError(f"series ends at {times[-1]}, shorter than t_f={t_f}")
    return times <= t_f + 1e-9


def d1(series, gamma: float, t_f: float) -> MetricResult:
    """Time-averaged absolute population gap to the exponential reference.

    (1/t_f) integral of |pi_e(t) - pi_e(0) exp(-gamma t)| over [0, t_f].
    """
    times = np.asarray(series.times, dtype=float)
    value, points = _d1_values(times, np.asarray(series.pi_e, dtype=float), gamma, t_f)
    return MetricResult(float(value), t_f, points, "trapezoid of |pi_e - pi_ref|")


def _d1_values(times: np.ndarray, pie: np.ndarray, gamma: float, t_f: float):
    """d1 of every pi_e series of pie (..., nt) on the grid times, shape
    (...), and the number of grid points it integrates.

    A row of a stack gets the bits it gets alone, because the trapezoid
    sums a C-ordered stack one row after another.  `np.compress` keeps C
    order; `pie[..., mask]` would not, and numpy sums along the slow axis
    of an F-ordered stack in another order.
    """
    mask = _window(times, t_f)
    t = times[mask]
    gap = np.compress(mask, pie, axis=-1)
    gap -= pie[..., :1] * np.exp(-gamma * t)
    return np.trapezoid(np.abs(gap, out=gap), t, axis=-1) / t_f, int(t.size)


def d2(fqc_series, ref_series, t_f: float) -> MetricResult:
    """Time-averaged trace distance between two reduced-density series.

    One-level (1x1) inputs are completed with their decayed-population sector
    before taking the distance, so the one-dimensional case coincides with d1.
    """
    a = fqc_series.reduced() if isinstance(fqc_series, TimeSeries) else fqc_series
    b = ref_series.reduced() if isinstance(ref_series, TimeSeries) else ref_series
    ta = np.asarray(a.times, dtype=float)
    tb = np.asarray(b.times, dtype=float)
    if ta.size != tb.size or np.abs(ta - tb).max() > 1e-9:
        raise ConfigError("d2 requires both series on the same time grid")
    if a.dim != b.dim:
        raise ConfigError(f"system dims differ: {a.dim} vs {b.dim}")
    ra, rb = a.rho, b.rho
    if a.dim == 1:
        ra, rb = _embed_classical(ra), _embed_classical(rb)
    value, points = _d2_values(ta, ra, rb, t_f)
    return MetricResult(float(value), t_f, points, "trapezoid of trace distance")


def _d2_values(times: np.ndarray, ra: np.ndarray, rb: np.ndarray, t_f: float):
    """d2 between 2x2 density series ra (..., nt, 2, 2) and rb (nt, 2, 2) on
    the grid times, shape (...), and the number of grid points it
    integrates; windowed in C order, as in `_d1_values`."""
    mask = _window(times, t_f)
    t = times[mask]
    diff = np.compress(mask, ra, axis=-3)
    diff -= rb[mask]
    td = _td_two_by_two(diff[..., 0, 0].real, diff[..., 1, 1].real, diff[..., 0, 1])
    return np.trapezoid(td, t, axis=-1) / t_f, int(t.size)


@dataclass
class NonMarkovianityResult:
    """Sampled estimate of the information-backflow measure Sigma(t).

    Sigma accumulates only the positive increments of the trace distance
    between two evolved-and-projected states, maximized over sampled initial
    pairs; std_error is a bootstrap (over pairs) of the final maximum.
    """

    times: np.ndarray
    sigma: np.ndarray
    value: float
    std_error: float
    per_pair_final: np.ndarray
    count: int
    seed: int
    subspace: str
    grid_points: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "count": self.count,
            "seed": self.seed,
            "subspace": self.subspace,
            "grid_points": self.grid_points,
            "t_final": float(self.times[-1]),
        }

    def to_csv(self, path, extra_header: tuple[str, ...] = ()) -> None:
        write_csv(path, {"t": self.times, "sigma": self.sigma}, extra_header)


def _sample_pairs(rng, count: int, dim: int, subspace: str) -> np.ndarray:
    """Haar-like pure-state pairs: normalized complex-normal vectors,
    shape (count, 2, sdim) over the first sdim basis states (2 for "system",
    dim for "full").

    Drawn pair-major from one stream, so a larger count extends (never
    reshuffles) a smaller one and the max estimate grows monotonically.
    """
    sdim = 2 if subspace == "system" else dim
    z = rng.standard_normal((count, 2, sdim, 2))
    psis = z[..., 0] + 1j * z[..., 1]
    psis /= np.linalg.norm(psis, axis=-1, keepdims=True)
    return psis


def nonmarkovianity(
    h: HamiltonianMatrix,
    t_final: float,
    count: int = 64,
    seed: int = 0,
    grid_points: int | None = None,
    subspace: str = "system",
    bootstrap: int = 256,
) -> NonMarkovianityResult:
    """Estimate Sigma(t) for the projected dynamics of a two-level FQC model.

    Pairs of initial pure states are drawn from the system subspace (the
    quasi-continuum starts empty, which defines the reduced dynamical map) or,
    with subspace="full", from the whole Hilbert space.  Each pair is evolved
    exactly, projected, and its trace distance accumulated over intervals of
    positive increase; the reported Sigma(t) is the running maximum over
    pairs.  The time grid is `default_grid(t_final, grid_points)` (2001
    points if None, ConfigError unless t_final is finite and > 0 and
    grid_points >= 2), refined to resolve the Rabi oscillation with at least
    40 points per period.

    Every pair is evolved through the projected propagator block
    G[s, m](t) = <s| exp(-i H t) |m> = sum_n V[s,n] V[m,n] exp(-i E_n t),
    with s in {g, e} and m over the sdim sampled components (2 for
    "system", dim for "full"), in the eigenbasis from `diagonalize` (an
    orthonormality-checked Eigensystem).  G is built once by the shared
    phase kernel of `propagate`.  The projected amplitudes of all pairs
    then cost 4 * count * sdim * nt complex multiply-adds in BLAS matrix
    products, a few pairs per product so that each block of amplitudes
    stays cache-sized (about 1 MiB).
    """
    if count < 2:
        raise ConfigError("need at least 2 sampled pairs")
    if subspace not in ("system", "full"):
        raise ConfigError(f"unknown subspace {subspace!r}")
    if h.n_system != 2:
        raise ConfigError("nonmarkovianity needs a two-level Hamiltonian")
    times = default_grid(t_final, 2001 if grid_points is None else grid_points)
    rabi_points = int(np.ceil(40.0 * t_final * h.drive.rabi_omega0 / (2.0 * np.pi))) + 1
    if rabi_points > times.size:
        times = default_grid(t_final, rabi_points)
    nt = times.size

    eig = diagonalize(h)
    rng = np.random.default_rng(seed)
    psis = _sample_pairs(rng, count, h.dim, subspace)
    sdim = psis.shape[-1]

    v = eig.vectors
    weights = (v[:2, None, :] * v[None, :sdim, :]).reshape(2 * sdim, h.dim).T
    prop = _phase_sum(eig.values, weights, times).reshape(nt, 2, sdim)
    prop = prop.transpose(2, 1, 0).reshape(sdim, 2 * nt)    # rows m, columns (s, t)

    sigma = np.zeros(nt)
    finals = np.empty(count)
    block = max(1, _BLOCK_BYTES // (2 * 2 * 16 * nt))      # (q, s, t) complex per pair
    for lo in range(0, count, block):
        pairs = psis[lo:lo + block]
        amps = (pairs.reshape(-1, sdim) @ prop).reshape(-1, 2, 2, nt)  # (pair, q, s, t)
        cg, ce = amps[:, :, 0], amps[:, :, 1]
        dgg = np.abs(cg[:, 0]) ** 2 - np.abs(cg[:, 1]) ** 2
        dee = np.abs(ce[:, 0]) ** 2 - np.abs(ce[:, 1]) ** 2
        dge = cg[:, 0] * ce[:, 0].conj() - cg[:, 1] * ce[:, 1].conj()
        td = _td_two_by_two(dgg, dee, dge)                  # (pair, nt)

        sig_pairs = np.cumsum(np.clip(np.diff(td, axis=1), 0.0, None), axis=1)
        np.maximum(sigma[1:], sig_pairs.max(axis=0), out=sigma[1:])
        finals[lo:lo + block] = sig_pairs[:, -1]

    boot_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB001]))
    maxima = np.array(
        [finals[boot_rng.integers(0, count, count)].max() for _ in range(bootstrap)]
    )
    return NonMarkovianityResult(
        times=times,
        sigma=sigma,
        value=float(sigma[-1]),
        std_error=float(maxima.std()),
        per_pair_final=finals,
        count=count,
        seed=seed,
        subspace=subspace,
        grid_points=nt,
    )
