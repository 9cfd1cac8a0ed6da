"""Distance and non-Markovianity measures between reduced dynamics.

All integrals are trapezoidal on the sampling grid, as weights summed along
the time axis (`_trapezoid_weights`), and the integrands are smooth.  `d1`
and `d2` are stable to 1e-4 under grid doubling at the default resolution
(tests pin this over the default map and size-scan domains).

The non-Markovianity Sigma is less stable, because it adds up the rises of a
sampled trace distance.  From 2001 to 4001 points (64 pairs, seed 0) it moved
by less than 1e-4 relative in 9 of 10 cases (N = 15, v = 0.3, t_f = 10 and
N = 25, v = 0.25, t_f = 24, each at omega0 in {0, 0.5, 1, 2, 10}), but by
5.8e-4 at N = 25, omega0 = 2; a further doubling to 8001 points moved that
case by 2.3e-6.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .evolve import TimeSeries, _phase_sum, default_grid, diagonalize
from .hamiltonian import _MAX_ARRAY_POINTS, HamiltonianMatrix
from .output import write_csv

__all__ = [
    "MetricResult",
    "NonMarkovianityResult",
    "trace_distance",
    "d1",
    "d2",
    "nonmarkovianity",
]

HERMITICITY_TOL = 1e-8
# Bootstrap resamples behind `NonMarkovianityResult.std_error`.
_BOOTSTRAP = 256
# Bytes per block of pairs in `nonmarkovianity`: about one L2 cache.
_BLOCK_BYTES = 1 << 20


@dataclass
class MetricResult:
    """Scalar metric value plus the grid it was computed on."""

    value: float
    t_final: float
    grid_points: int
    method_notes: str = ""

    def to_json(self) -> dict:
        return asdict(self)


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


def _window(times: np.ndarray, t_f: float) -> int:
    """The length of the prefix t <= t_f of the increasing grid times."""
    if not t_f > 0:  # NaN too
        raise ConfigError(f"t_f must be > 0, got {t_f}")
    if times[-1] < t_f - 1e-9:
        raise ConfigError(f"series ends at {times[-1]}, shorter than t_f={t_f}")
    return int(np.searchsorted(times, t_f + 1e-9, side="right"))


def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    """The trapezoid rule on the grid t as weights, sum_i w_i f(t_i): with d =
    diff(t), w_0 = d_0 / 2, w_i = (d_(i-1) + d_i) / 2 and w_last = d_last / 2."""
    half = 0.5 * np.diff(t)
    w = np.append(half, 0.0)
    w[1:] += half
    return w


def d1(series, gamma: float, t_f: float) -> MetricResult:
    """Time-averaged absolute population gap to the exponential reference.

    (1/t_f) integral of |pi_e(t) - pi_e(0) exp(-gamma t)| over [0, t_f].
    """
    times = np.asarray(series.times, dtype=float)
    value, points = _d1_values(times, np.asarray(series.pi_e, dtype=float), gamma, t_f)
    return MetricResult(float(value), t_f, points, "trapezoid of |pi_e - pi_ref|")


def _d1_values(times: np.ndarray, pie: np.ndarray, gamma: float, t_f: float):
    """d1 of every pi_e series of pie (..., nt) on the grid times, shape
    (...), and the number of grid points it integrates."""
    n = _window(times, t_f)
    t = times[:n]
    gap = pie[..., :n] - pie[..., :1] * np.exp(-gamma * t)
    np.abs(gap, out=gap)
    return np.multiply(gap, _trapezoid_weights(t), out=gap).sum(axis=-1) / t_f, n


def d2(fqc_series, ref_series, t_f: float) -> MetricResult:
    """Time-averaged trace distance between two reduced-density series.

    One-level (1x1) inputs are completed with their decayed-population sector
    before taking the distance, so the one-dimensional case coincides with d1.
    """
    (ta, dim_a, a), (tb, dim_b, b) = _system_entries(fqc_series), _system_entries(ref_series)
    if ta.size != tb.size or np.abs(ta - tb).max() > 1e-9:
        raise ConfigError("d2 requires both series on the same time grid")
    if dim_a != dim_b:
        raise ConfigError(f"system dims differ: {dim_a} vs {dim_b}")
    value, points = _d2_values(ta, a, b, t_f)
    return MetricResult(float(value), t_f, points, "trapezoid of trace distance")


def _system_entries(series):
    """The times, system dimension and entries (rho_gg, rho_ee, rho_ge) of a
    series: of a two-level TimeSeries from its c_g and c_e projections, of
    any other from rho.  A one-level system plus its loss channel is the
    classical bit diag(pi, 1 - pi), so a 1x1 d2 includes the leaked
    population and equals d1."""
    times = np.asarray(series.times, dtype=float)
    if isinstance(series, TimeSeries):
        if series.system_dim == 2:
            return times, 2, _amplitude_entries(series.projections[:, :2])
        series = series.reduced()
    rho = series.rho
    if series.dim == 2:
        return times, 2, (rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1])
    pi = rho[:, 0, 0].real
    return times, 1, (pi, 1.0 - pi, np.zeros(pi.shape, dtype=complex))


def _amplitude_entries(c: np.ndarray):
    """rho_gg, rho_ee and rho_ge of amplitudes c (..., 2) = (c_g, c_e), column
    by column (no inner loop over the pair), |c|^2 as re^2 + im^2."""
    g, e = c[..., 0], c[..., 1]
    pop_g, pop_e = (np.square(x.real) + np.square(x.imag) for x in (g, e))
    return pop_g, pop_e, g * e.conj()


def _d2_values(times: np.ndarray, a: tuple, b: tuple, t_f: float):
    """d2 between 2x2 density series given by their entries a = (rho_gg,
    rho_ee, rho_ge), each (..., nt), and b, each (nt,), on the grid times,
    shape (...), and the number of grid points it integrates."""
    n = _window(times, t_f)
    td = _td_two_by_two(*(x[..., :n] - y[:n] for x, y in zip(a, b)))
    return np.multiply(td, _trapezoid_weights(times[:n]), out=td).sum(axis=-1) / t_f, n


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
    grid_points: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "count": self.count,
            "seed": self.seed,
            "subspace": "system",
            "grid_points": self.grid_points,
            "t_final": float(self.times[-1]),
        }

    def to_csv(self, path, extra_header: tuple[str, ...] = ()) -> None:
        write_csv(path, {"t": self.times, "sigma": self.sigma}, extra_header)


def _sample_pairs(rng, count: int) -> np.ndarray:
    """Haar-like pure system-state pairs: normalized complex-normal vectors,
    shape (count, 2, 2).

    Drawn pair-major from one stream, so a larger count extends (never
    reshuffles) a smaller one and the max estimate grows monotonically.
    """
    z = rng.standard_normal((count, 2, 2, 2))
    psis = z[..., 0] + 1j * z[..., 1]
    psis /= np.linalg.norm(psis, axis=-1, keepdims=True)
    return psis


# sigma_x, sigma_y, sigma_z
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch_distances(prop: np.ndarray, psis: np.ndarray):
    """(first pair, trace distances (pairs, nt)) per block of the system
    pairs psis (count, 2, 2), from the projected propagator prop (nt, 2, 2).

    rho_1 - rho_2 = d . sigma with d = (Re D_ge, -Im D_ge, (D_gg - D_ee)/2)
    evolves to sum_k d_k G sigma_k G^dagger.  Row k of the real (3, 4 nt)
    table holds that map's gg and ee entries and its ge entry as (Re, Im)
    pairs, every time each, so a block of pairs is one (pairs, 3) product.
    """
    nt = prop.shape[0]
    g = prop.transpose(2, 1, 0)                                 # (m, s, t)
    outer = (g[:, None, :, None] * g.conj()[None, :, None, :]).reshape(4, 4, nt)
    # (G sigma_k G^dagger)[s, u] = sum_mn sigma_k[m, n] G[s, m] G[u, n]*, columns (su, t)
    entries = _PAULI.reshape(3, 4) @ outer[:, [0, 3, 1]].reshape(4, 3 * nt)
    table = np.concatenate([entries[:, :2 * nt].real, entries[:, 2 * nt:].view(float)], axis=1)
    dmat = psis[:, :, :, None] * psis[:, :, None, :].conj()    # (pair, q, m, n)
    dmat = dmat[:, 0] - dmat[:, 1]
    coords = np.stack([dmat[:, 0, 1].real, -dmat[:, 0, 1].imag,
                       0.5 * (dmat[:, 0, 0].real - dmat[:, 1, 1].real)], axis=1)
    # per pair: the real (4, nt) product and as many bytes of temporaries
    block = max(1, _BLOCK_BYTES // (8 * 8 * nt))
    for lo in range(0, len(coords), block):
        diff = coords[lo:lo + block] @ table
        yield lo, _td_two_by_two(diff[:, :nt], diff[:, nt:2 * nt],
                                 diff[:, 2 * nt:].view(complex))


def nonmarkovianity(
    h: HamiltonianMatrix,
    t_final: float,
    count: int = 64,
    seed: int = 0,
    grid_points: int = 2001,
) -> NonMarkovianityResult:
    """Estimate Sigma(t) for the reduced dynamical map of a two-level FQC model.

    Pairs of initial pure states are drawn from the system subspace: the
    quasi-continuum starts empty, which defines the reduced map.  Each pair
    is evolved exactly, projected, and its trace distance accumulated over
    intervals of positive increase; the reported Sigma(t) is the running
    maximum over pairs.  The time grid is `default_grid(t_final,
    grid_points)`, refined to resolve the Rabi oscillation with at least 40
    points per period.  ConfigError unless count >= 2, its draws and the
    refined grid fit in numpy arrays, seed >= 0, t_final is finite and > 0
    and grid_points >= 2.

    Every pair is evolved through the projected propagator block
    G[s, m](t) = <s| exp(-i H t) |m> = sum_n V[s,n] V[m,n] exp(-i E_n t),
    with s and m in {g, e}, in the eigenbasis from `diagonalize` (an
    orthonormality-checked Eigensystem).  G is built once by the shared
    phase kernel of `propagate`.  A pair's difference
    rho_1 - rho_2 = d . (sigma_x, sigma_y, sigma_z) is traceless and
    Hermitian, so its projected difference at t is the real-linear
    sum_k d_k G sigma_k G^dagger: one (3, 4 nt) table of the reduced map,
    and 12 real multiply-adds per pair and time in one BLAS product per
    block of pairs.  Each block of pairs stays cache-sized (about 1 MiB).
    """
    if count < 2:
        raise ConfigError("need at least 2 sampled pairs")
    if not 8 * count <= _MAX_ARRAY_POINTS:  # the (count, 2, 2, 2) draws
        raise ConfigError(f"count {count} gives {8 * count} normal draws, "
                          "more than a numpy array holds")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if h.n_system != 2:
        raise ConfigError("nonmarkovianity needs a two-level Hamiltonian")
    times = default_grid(t_final, grid_points)
    rabi_points = np.ceil(40.0 * t_final * h.drive.rabi_omega0 / (2.0 * np.pi)) + 1
    if rabi_points > times.size:
        times = default_grid(t_final, rabi_points)
    nt = times.size

    eig = diagonalize(h)
    psis = _sample_pairs(np.random.default_rng(seed), count)
    v = eig.vectors
    weights = (v[:2, None, :] * v[None, :2, :]).reshape(4, h.dim).T
    prop = _phase_sum(eig.values, weights, times).reshape(nt, 2, 2)    # G[t, s, m]

    sigma = np.zeros(nt)
    finals = np.empty(count)
    for lo, td in _bloch_distances(prop, psis):            # td (pair, nt)
        sig_pairs = np.cumsum(np.clip(np.diff(td, axis=1), 0.0, None), axis=1)
        np.maximum(sigma[1:], sig_pairs.max(axis=0), out=sigma[1:])
        finals[lo:lo + td.shape[0]] = sig_pairs[:, -1]

    boot_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB001]))
    maxima = np.array(
        [finals[boot_rng.integers(0, count, count)].max() for _ in range(_BOOTSTRAP)]
    )
    return NonMarkovianityResult(
        times=times,
        sigma=sigma,
        value=float(sigma[-1]),
        std_error=float(maxima.std()),
        per_pair_final=finals,
        count=count,
        seed=seed,
        grid_points=nt,
    )
