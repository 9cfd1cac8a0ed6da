"""Exact propagation under time-independent Hamiltonians and reduced dynamics.

Propagation is spectral phase rotation, |psi(t)> = sum_n <psi_n|psi_0>
exp(-i E_n t) |psi_n>, so there is no stepper and no truncation error to
tune: the value at any grid time is independent of the rest of the grid up
to rounding (1e-12), not bit for bit, because a uniform grid takes its
phases as powers of exp(-i E_n dt) and exp(-i E_n B dt) (B about
sqrt(nt)), by cumulative products: three complex exponentials per value.

Every projection from |e> is one phase sum, sum_n weights[n, r]
exp(-i E_n t) (`_phase_sum`), and `_spectra` is the one place that picks
the spectrum and weights of a stack of cells of equal basis; `propagate` is
the same core on a stack of one, and stacked and single calls give the same
bits.  Every start is a basis state of H, named by its label, so a
projection's weights are the rows of the eigenvectors V times the real row
V[start, :].  A single-level Hamiltonian from |e> needs no matrix: c_e(t) =
sum_n w_n cos(sigma_n t) over the roots sigma >= 0 of its secular equation,
whose ladder sum has a closed form in digamma functions (`_ladder_spectra`),
and one real matmul gives c_e as a real array.  Two-level models take one
batched `eigh` of H; every other start goes through `diagonalize`.  The
full amplitudes of a series are built on first read, in the eigenbasis of H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .hamiltonian import _MAX_ARRAY_POINTS, HamiltonianMatrix
from .output import _rho_columns, write_csv, write_json

__all__ = [
    "Eigensystem",
    "TimeSeries",
    "DensitySeries",
    "diagonalize",
    "default_grid",
    "propagate",
    "source_term_series",
]

NORM_TOL = 1e-10


@dataclass
class Eigensystem:
    """Eigenvalues (ascending) and orthonormal eigenvectors, columnwise.

    Every basis is checked where it is made (`_eigh_stack`), so every reader
    gets a checked one: ||V^T V - I||_F <= 1e-10 bounds the 2-norm of the
    Gram defect, and with it the norm drift | ||psi(t)|| / ||psi(0)|| - 1 |
    of a propagated state at every time (up to rounding); NumericalError
    otherwise.
    """

    values: np.ndarray
    vectors: np.ndarray


def _gram_defect(vectors: np.ndarray) -> np.ndarray:
    """||V^T V - I||_F of every basis of a (..., d, d) stack."""
    gram = np.swapaxes(vectors, -1, -2) @ vectors
    gram -= np.eye(gram.shape[-1])
    return np.sqrt(np.einsum("...ij,...ij->...", gram, gram))


def _eigh_stack(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Eigenvalues (s, d), eigenvectors (s, d, d) and the error of each
    matrix of a (s, d, d) stack of real symmetric Hamiltonians, by one
    batched `eigh`.

    A matrix's error is None, a NumericalError if LAPACK fails on it, a
    ConfigError if it is not symmetric, or a NumericalError if its basis
    fails the Eigensystem bound (one batched `_gram_defect` per stack).  A
    LAPACK failure in a stack is retried one matrix at a time, so it stays
    with its own matrix, whose outputs are NaN.
    """
    try:
        values, vectors = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        if len(entries) == 1:
            nan = np.full(entries.shape, np.nan)
            return nan[..., 0], nan, [NumericalError(f"eigensolver failed: {exc}")]
        parts = [_eigh_stack(m[None]) for m in entries]
        return *(np.concatenate(out) for out in list(zip(*parts))[:2]), [p[2][0] for p in parts]
    symmetric = (entries == np.swapaxes(entries, -1, -2)).all(axis=(-2, -1))
    return values, vectors, [
        (None if sym else ConfigError("Hamiltonian matrix is not symmetric"))
        or (None if defect <= NORM_TOL else NumericalError(
            f"eigenbasis orthonormality defect {defect} exceeds {NORM_TOL}"))
        for sym, defect in zip(symmetric, _gram_defect(vectors))]


def diagonalize(h: HamiltonianMatrix) -> Eigensystem:
    """Dense symmetric eigendecomposition of the Hamiltonian (a stack of one)."""
    values, vectors, (error,) = _eigh_stack(h.entries[None])
    if error is not None:
        raise error
    return Eigensystem(values[0], vectors[0])


def default_grid(t_f: float, points: float = 2001) -> np.ndarray:
    """Uniform time grid on [0, t_f]: the one grid constructor.

    The metrics `d1` and `d2` converge to 1e-4 under doubling of `points`;
    2001 is ample for every regime studied here (tests check the `(N, v)` map
    and size-scan domains).  The fitted omega_eff and gamma_eff are not
    covered: gamma_eff moves by up to 5.5e-4 relative from 4001 to 8001
    points, which follows the fit's stopping tolerance, not the grid.

    `points` may be a float, as a resolution rule computes it; it is
    truncated to an integer.  A count that is not finite, or too large for
    a numpy array, is a ConfigError naming it, raised before any allocation.
    """
    if not 0 < t_f < math.inf or points < 2:
        raise ConfigError("grid needs a finite t_f > 0 and at least 2 points")
    if not points <= _MAX_ARRAY_POINTS:  # inf and NaN too
        raise ConfigError(f"a grid of {points:.6g} points exceeds numpy's array limit")
    return np.linspace(0.0, t_f, int(points))


@dataclass(eq=False)
class DensitySeries:
    """Sub-normalized system density matrices rho(t), shape (nt, d, d)."""

    times: np.ndarray
    rho: np.ndarray

    @property
    def pi_e(self) -> np.ndarray:
        # |e> is the last system basis state for both 1x1 and 2x2 blocks
        return self.rho[:, -1, -1].real

    @property
    def trace(self) -> np.ndarray:
        return np.einsum("tii->t", self.rho).real

    @property
    def dim(self) -> int:
        return self.rho.shape[-1]

    def to_csv(self, path, extra_header: tuple[str, ...] = ()) -> None:
        cols = {"t": self.times, "pi_e": self.pi_e}
        cols.update(_rho_columns(self.rho, ("g", "e")[-self.dim:]))
        write_csv(path, cols, extra_header)


class TimeSeries:
    """The state of h started in the basis state `start` (a label of h, |e>
    by default) on a time grid, held as its projections, plus run
    provenance.

    `projections` holds c_e on a single-level basis, or c_g, c_e and
    sum_k c_k on a two-level one: shape (nt, 1) or (nt, 3).  `pi_e`,
    `pi_g`, `reduced()`, `to_csv` and `source_term_series` read only them;
    `spec`, `drive`, `basis_labels` and `system_dim` come from h.

    Two members are built on first read.  `energy_variance0` is
    <H^2> - <H>^2 in the start state, which sets the curvature of the
    short-time survival probability (Zeno time); it takes H psi in O(dim)
    from the structure (`HamiltonianMatrix.matvec`).  The full (nt, dim)
    `amplitudes` are one phase sum in the eigenbasis V of one `_eigh_stack`
    of h, weighted by the row V[start, :], whose basis is checked for
    orthonormality (see Eigensystem).  Neither calls `diagonalize`, so a
    read after `propagate` has returned calls nothing the benchmark tracer
    wraps.
    """

    def __init__(self, h: HamiltonianMatrix, times: np.ndarray, projections: np.ndarray,
                 start: str = "e", spectrum: tuple | None = None):
        self.times = times
        self.projections = projections
        self.spec, self.drive = h.spec, h.drive
        self.basis_labels, self.system_dim = h.basis_labels, h.n_system
        self._h = h
        self._start = h.basis_labels.index(start)
        self._spectrum = spectrum  # (sigma, weights) of c_e, as `propagate` solved it
        self._variance = None
        self._amplitudes = None

    @property
    def energy_variance0(self) -> float:
        if self._variance is None:
            psi = np.zeros(self._h.dim, dtype=complex)
            psi[self._start] = 1.0
            hpsi = self._h.matvec(psi)
            mean = np.real(np.vdot(psi, hpsi))
            self._variance = float(np.real(np.vdot(hpsi, hpsi)) - mean**2)
        return self._variance

    @property
    def amplitudes(self) -> np.ndarray:
        if self._amplitudes is None:
            values, vectors, (error,) = _eigh_stack(self._h.entries[None])
            if error is not None:
                raise error
            v = vectors[0]
            self._amplitudes = _phase_sum(values[0], (v * v[self._start]).T, self.times)
        return self._amplitudes

    @property
    def pi_e(self) -> np.ndarray:
        return np.abs(self.projections[:, self.system_dim - 1]) ** 2

    def _depletion(self, mask: np.ndarray) -> np.ndarray:
        """1 - pi_e at times[mask].  A single-level series from |e> has
        c_e = sum_n w_n cos(sigma_n t) with sum_n w_n = 1 (as `propagate`
        solves it), so 1 - c_e = 2 sum_n w_n sin^2(sigma_n t / 2), by direct
        sines, and 1 - pi_e = (1 - c_e)(1 + c_e) keeps its relative accuracy
        where pi_e is close to 1; any other series subtracts."""
        if self._spectrum is None:
            if self.system_dim != 1 or self._start != 0:
                return 1.0 - self.pi_e[mask]
            self._spectrum = propagate(self._h, "e", self.times[:1])._spectrum
        sigma, weights = self._spectrum
        loss = 2.0 * np.sin(np.outer(self.times[mask], 0.5 * sigma)) ** 2 @ weights
        return loss * (2.0 - loss)

    @property
    def pi_g(self) -> np.ndarray | None:
        return np.abs(self.projections[:, 0]) ** 2 if self.system_dim == 2 else None

    def reduced(self) -> DensitySeries:
        """Project every state onto the system block: rho_ab = c_a c_b*."""
        return DensitySeries(self.times, _outer(self.projections[:, :self.system_dim]))

    def to_csv(self, path, extra_header: tuple[str, ...] = ()) -> None:
        cols = {"t": self.times, "pi_e": self.pi_e}
        cols.update(_rho_columns(self.reduced().rho, self.basis_labels[:self.system_dim]))
        write_csv(path, cols, extra_header)

    def to_json(self) -> dict:
        out = {
            "times": self.times.tolist(),
            "pi_e": self.pi_e.tolist(),
            "basis_labels": list(self.basis_labels),
            "amplitudes_re": self.amplitudes.real.tolist(),
            "amplitudes_im": self.amplitudes.imag.tolist(),
        }
        return out

    def dump_json(self, path) -> None:
        write_json(path, self.to_json())


def _time_grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ConfigError("time grid must be 1d and strictly increasing")
    return times


def propagate(h: HamiltonianMatrix, start: str, times: np.ndarray) -> TimeSeries:
    """Evolve the basis state `start` (a label of h; ConfigError otherwise)
    under h on the given grid by spectral phase rotation.

    Only the projections are computed here: c_e on a single-level basis;
    c_g, c_e and sum_k c_k on a two-level one.  They feed `pi_e`, `pi_g`,
    `reduced()`, `to_csv` and `source_term_series`.  The full (nt, dim)
    `amplitudes` are built in the eigenbasis of h on first read (see
    TimeSeries).

    A single-level Hamiltonian started in |e> takes the secular spectrum of
    `_spectra` on a stack of one, which the series keeps.  Every other start
    is phase-rotated in the eigenbasis from `diagonalize`, whose basis is
    checked for orthonormality (see Eigensystem), which bounds the norm
    drift at every grid time.
    """
    times = _time_grid(times)
    if start not in h.basis_labels:
        raise ConfigError(f"unknown basis label {start!r}")
    if start == "e" and h.n_system == 1:
        values, weights, (error,), _ = _spectra([h])
        if error is not None:
            raise error
        return TimeSeries(h, times, _phase_sum(values, weights, times, real=True)[0],
                          spectrum=(values[0], weights[0, :, 0]))
    eig = diagonalize(h)
    weights = _projection_weights(eig.vectors[None], h.basis_labels.index(start), h.n_system)
    return TimeSeries(h, times, _phase_sum(eig.values[None], weights, times)[0], start)


def _spectra(hs: list[HamiltonianMatrix]) -> tuple[np.ndarray, np.ndarray, list, bool]:
    """The projections from |e> of cells of equal basis labels as one phase
    sum: values (s, n), weights (s, n, r), the error of each cell (None, or
    the FqcsimError of its decomposition or health check) and whether the
    projection is the real part of the sum.

    Single-level cells take the closed-form secular spectrum
    (`_ladder_stacks` of this one stack): c_e is the cosine sum, the real
    part of a phase sum over the roots x >= 0, half the phases of H.
    Two-level cells take one batched `eigh` of their dense `entries`, built
    for it and not kept, with the Eigensystem bound on every basis
    (`_eigh_stack`), and the weights of c_g, c_e and sum_k c_k.  A stacked
    cell gets the bits it gets alone.
    """
    if hs[0].n_system == 1:
        return _ladder_stacks([hs])[0]
    values, vectors, errors = _eigh_stack(np.stack([h.entries for h in hs]))
    return values, _projection_weights(vectors, hs[0].basis_labels.index("e"), 2), errors, False


def _ladder_stacks(stacks: list[list[HamiltonianMatrix]]) -> list[tuple]:
    """`_spectra` of every stack of single-level cells of equal basis labels,
    from one `_ladder_spectra` call: each stack's (values, weights, errors,
    real), its cells' roots side by side."""
    sigma, weights, start, errors = _ladder_spectra([h for hs in stacks for h in hs])
    ends = np.cumsum([len(hs) for hs in stacks], dtype=int)
    cuts = start[ends[:-1]]
    return [(s.reshape(len(hs), -1), w.reshape(len(hs), -1, 1), errors[end - len(hs):end], True)
            for hs, end, s, w in zip(stacks, ends, np.split(sigma, cuts), np.split(weights, cuts))]


def _projection_weights(vectors: np.ndarray, start: int, n_system: int) -> np.ndarray:
    """The phase-sum weights (s, d, r) of the projections from the basis
    state of index `start` in the eigenbases vectors (s, d, d): the rows of
    V for c_e, or for c_g, c_e and sum_k c_k on a two-level basis, times the
    real row V[start, :]."""
    rows = vectors[:, :1]
    if n_system == 2:
        rows = np.concatenate([vectors[:, :2], vectors[:, 2:].sum(axis=1, keepdims=True)], axis=1)
    return np.swapaxes(rows * vectors[:, start:start + 1], -1, -2)


def _outer(c: np.ndarray) -> np.ndarray:
    """rho_ab = c_a c_b* of system amplitudes c (..., s): shape (..., s, s).

    The diagonal is exactly real: the imaginary part of c_a c_a*, which a
    fused complex multiply may leave at about 1e-30 depending on the CPU, is
    set to 0; every real part keeps its bits.
    """
    conj = c.conj()
    rho = np.empty(c.shape + c.shape[-1:], dtype=conj.dtype)
    for a, b in np.ndindex(rho.shape[-2:]):  # not a broadcast, whose inner loop has length s
        np.multiply(c[..., a], conj[..., b], out=rho[..., a, b])
    if np.iscomplexobj(rho):
        diag = np.arange(rho.shape[-1])
        rho.imag[..., diag, diag] = 0.0
    return rho


# psi(w) ~ ln w - 1/(2w) - sum_k B_2k / (2k w^2k) and psi'(w) ~ 1/w + 1/(2w^2)
# + sum_k B_2k / w^(2k+1), k = 8..1: at w >= 10 the next terms are below 1e-17
_BERNOULLI = np.array([-3617 / 510, 7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6])
_ASYMPTOTIC = np.stack([_BERNOULLI / np.arange(16, 0, -2), _BERNOULLI], axis=1)[..., None]
_ROOTS_PER_PASS = 4096  # the (4 r, 10) shift table of a pass stays near 1.3 MB


def _digamma(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi(z) and psi'(z) of a 1-d array z > 0, in numpy alone: the shift
    psi(z) = psi(z + 10) - sum_(j<10) 1/(z + j) (psi' adds the squares),
    then the asymptotic series at z + 10."""
    r = np.add.outer(np.arange(10.0), z)  # summed in order down each column when z.size > 1
    shift = np.reciprocal(r, out=r).sum(axis=0)
    shift1 = np.square(r, out=r).sum(axis=0)
    w = z + 10.0
    q = 1.0 / w
    q2 = q * q
    series = _ASYMPTOTIC[0] * q2
    for c in _ASYMPTOTIC[1:]:
        series += c
        series *= q2
    return np.log(w) - 0.5 * q - series[0] - shift, q + 0.5 * q2 + q * series[1] + shift1


def _ladder_spectra(hs: list[HamiltonianMatrix]) -> tuple:
    """sigma and weights of c_e(t) = sum_n weights[n] cos(sigma_n t) of
    single-level cells of any ladders, one cell after another (each
    ascending), each cell's offset in them, and each cell's error.

    In x = E / delta the eigenvalues of H on |e> solve x = a S(x),
    a = (v / delta)^2, S = sum_k 1/(x - k) over the ladder: pi cot(pi x) +
    psi(N + 1 + x) - psi(N + 1 - x) over |k| <= N (the infinite ladder of
    Bixon and Jortner, J. Chem. Phys. 48, 715 (1968), and its finite-band
    correction), less psi(x + k_min) - psi(x - k_min + 1) for a hole.  The
    roots +-x pair up, one in each interval (k, k + 1) above the first level
    k >= 0 and one above N, of weight 2 / (1 + a T(x)), T = -S'; a hole adds
    x = 0, first, of weight 1 / (1 + 2 a (psi'(k_min) - psi'(N + 1))).  A
    cell with v = 0, or with a below the smallest normal double, takes the
    limit a = 0, to which every sigma and weight is then rounded: |e> alone
    (sigma = 0, c_e = 1), or on a flat ladder the doublet of |e> and f0
    (sigma = v, c_e = cos(v t)).  A cell fails alone
    its sum rule |sum_n weights[n] - 1| or its largest relative secular
    residual (infinite for a NaN root or one outside its interval) beyond
    NORM_TOL.
    """
    n, v, gap, levels = np.array([(h.spec.n_half, h.spec.coupling_v, h.spec.gap, h.dim - 1)
                                  for h in hs], dtype=float).reshape(-1, 4).T
    levels = levels.astype(int)  # 2N + 1, or 2 (N + 1 - k_min) with a hole
    holed = levels % 2 == 0
    k_min = np.where(holed, n + 1 - levels // 2, 0.0)
    count = levels // 2 + 1  # N + 1 roots, or N + 2 - k_min with x = 0
    start = np.cumsum(count) - count
    sigma, weights, worst = np.zeros(count.sum()), np.zeros(count.sum()), np.zeros(len(n))
    weights[start] = 1.0  # a = 0: |e> alone, or with f0 on a flat ladder
    sigma[start] = np.where(holed, 0.0, v)
    with np.errstate(all="ignore"):  # a bad root fails its check
        a = np.divide(v, gap, out=np.zeros_like(v), where=v > 0) ** 2
        a[a < np.finfo(float).tiny] = 0.0
        for lo in range(0, sigma.size, _ROOTS_PER_PASS):  # in passes, to bound the memory
            roots = np.arange(lo, min(lo + _ROOTS_PER_PASS, sigma.size))
            c = np.searchsorted(start, roots, side="right") - 1
            keep = (a[c] > 0) & ~(holed[c] & (roots == start[c]))  # not x = 0
            roots, c = roots[keep], c[keep]
            k = roots - start[c] + k_min[c] - holed[c]  # the level below
            x, weights[roots], residual = _secular_roots(n[c], k_min[c], a[c], k)
            sigma[roots] = x * gap[c]
            np.maximum.at(worst, c, residual)
        if (holed & (a > 0)).any():
            c = np.flatnonzero(holed & (a > 0))
            psi1 = _digamma(np.concatenate([k_min[c], n[c] + 1.0]))[1].reshape(2, -1)
            weights[start[c]] = 1.0 / (1.0 + 2.0 * a[c] * (psi1[0] - psi1[1]))
    defect = np.abs(np.add.reduceat(weights, start) - 1.0)
    return sigma, weights, start, [
        NumericalError(f"secular residual {r} exceeds {NORM_TOL}") if not r <= NORM_TOL
        else NumericalError(f"sum rule defect {d} exceeds {NORM_TOL}") if not d <= NORM_TOL
        else None for r, d in zip(worst, defect)]


def _secular_roots(n, k_min, a, k):
    """x, weight and relative secular residual of the roots x = k + u of
    `_ladder_spectra` (1-d arrays, one entry per root), each solved
    elementwise, so with the same bits in any batch.  Inside (k, k + 1):
    Newton on u = atan2(pi a, x - a R(x)) / pi, R = S - pi cot(pi x), from
    the Bixon-Jortner angle atan2(pi a, k + 1/2) / pi, or for k = 0 (the
    |e>-f0 doublet of a flat ladder, x about sqrt(a) when a is small) from
    at least sqrt(a) / (1 + 2 sqrt(a)), which the angle, about 2a, is far
    below.  Above N (u = x - N):
    Newton on the pole, -a/u + h(u) = 0 with the concave h = x - a (S - 1/u)
    replaced by its tangent, from the lower bounds u (N + u) = a and
    x^2 = a (levels), so it rises monotonically.  A root stops once its step
    is below 1e-12 x.
    """
    top = k == n
    levels = np.where(k_min > 0, 2.0 * (n - k_min + 1), 2.0 * n + 1)
    bound = np.maximum(2.0 * a / (n + np.sqrt(n * n + 4.0 * a)), np.sqrt(a * levels) - n)
    angle = np.arctan2(np.pi * a, k + 0.5) / np.pi
    doublet = np.maximum(angle, np.sqrt(a) / (1.0 + 2.0 * np.sqrt(a)))
    u = np.where(top, bound, np.where(k == 0, doublet, angle))
    params = np.stack([n, k_min, a, k])
    live = np.arange(k.size)
    for _ in range(8):
        new = _secular_step(u[live], *params[:, live])[0]
        step = np.abs(new - u[live])
        u[live] = new
        live = live[~(step <= 1e-12 * (k[live] + new))]
        if not live.size:
            break
    _, residual, dq = _secular_step(u, *params)
    t = np.where(top, 1.0 / (u * u), (np.pi / np.sin(np.pi * np.minimum(u, 1.0 - u))) ** 2) - dq
    inside = (u > 0) & ((u < 1) | top)
    return k + u, 2.0 / (1.0 + a * t), np.where(inside, np.abs(residual), np.inf)


def _secular_step(u, n, k_min, a, k):
    """The next u of roots at x = k + u (`_secular_roots`), the secular
    residual at u and dQ/dx, Q = R inside and S - 1/u above N, so that
    T = pi^2 / sin^2(pi u) - dQ/dx or 1/u^2 - dQ/dx.  Every psi argument > 0;
    above N, Q and dQ/dx are the sums of `_levels_below` instead."""
    top, holed = k == n, k_min > 0
    z = [k + n + 1 + u, np.where(top, 1.0, n + 1 - k - u)]  # a top root's psi goes unread
    if holed.any():
        z += [k + k_min + u, k - k_min + 1 + u]
    psi, psi1 = (f.reshape(len(z), -1) for f in _digamma(np.concatenate(z)))
    q = psi[0] - psi[1]
    dq = psi1[0] + psi1[1]
    if len(z) > 2:
        q -= np.where(holed, psi[2] - psi[3], 0.0)
        dq -= np.where(holed, psi1[2] - psi1[3], 0.0)
    if top.any():
        q[top], dq[top] = _levels_below(u[top], n[top], k_min[top])
    x = k + u
    y = x - a * q
    slope = 1.0 - a * dq
    pa = np.pi * a
    g = u - np.arctan2(pa, y) / np.pi
    h = np.hypot(y, pa)  # not y^2 + (pi a)^2, which overflows once a > 1e154
    inside = np.clip(u - g / (1.0 + (a / h) * (slope / h)), 0.0, 1.0)
    b = y - slope * u
    root = np.sqrt(b * b + 4.0 * a * slope)
    above = np.where(b > 0, 2.0 * a / (b + root), (root - b) / (2.0 * slope))
    return np.where(top, above, inside), np.where(top, y - a / u, g) / x, dq


def _levels_below(u, n, k_min):
    """Q = sum_m 1/(u + m) and dQ/dx = -sum_m 1/(u + m)^2 of roots x = N + u
    above the top level, over the levels k < N at m = N - k: the ranges
    N + max(k_min, 1)..2N and 1..N - k_min.  Summed term by term (all
    positive, smallest first), since the digamma difference
    psi(2N + 1 + u) - psi(1 + u) cancels once u >> N."""
    lengths = np.stack([n + 1.0 - np.maximum(k_min, 1.0), n - k_min], axis=1).ravel()
    lengths = lengths.astype(np.intp)
    ends = np.cumsum(lengths)
    tops = np.stack([2.0 * n, n - k_min], axis=1).ravel()
    m = np.repeat(tops + (ends - lengths), lengths) - np.arange(ends[-1])  # each range descending
    count = lengths[0::2] + lengths[1::2]
    r = 1.0 / (np.repeat(u, count) + m)
    q, dq = np.zeros_like(u), np.zeros_like(u)
    terms = count > 0  # a one-level ladder has no level below
    if terms.any():
        starts = (np.cumsum(count) - count)[terms]
        q[terms] = np.add.reduceat(r, starts)
        dq[terms] = -np.add.reduceat(r * r, starts)
    return q, dq


def _phase_sum(values: np.ndarray, weights: np.ndarray, times: np.ndarray,
               real: bool = False) -> np.ndarray:
    """sum_n weights[..., n, r] exp(-i values[..., n] t) at every grid time,
    shape (..., nt, r); with `real`, its real part as a real array.

    Leading axes stack independent cells (values (..., dim), weights
    (..., dim, r)) that share the grid; each cell gets the bits it gets
    alone, since numpy's batched elementwise ops, cumulative products and
    matmuls repeat the per-matrix ones.  The phases are the tables of
    `_phase_tables`, contracted by one matmul.  With `real` the folded
    contraction is one real matmul on the interleaved (re, im) views, half
    the flops of the complex one.
    """
    nt, (*stack, dim, r) = times.size, weights.shape
    outer, inner = _phase_tables(times, -1j * values, _grid_block(times))
    nb, block = outer.shape[-2], inner.shape[-2]
    if r < block:
        # fold the weights into the outer phases: nb * r * dim products
        folded = outer[..., :, None, :] * np.swapaxes(weights, -1, -2)[..., None, :, :]
        folded = folded.reshape(*stack, nb * r, dim)
        if real:
            # Re(a b) = [Re a, Im a] . [Re b, -Im b]: one real matmul on the
            # interleaved views, with the inner table conjugated in place
            np.conjugate(inner, out=inner)
            out = folded.view(float) @ np.swapaxes(inner.view(float), -1, -2)
        else:
            out = folded @ np.swapaxes(inner, -1, -2)
        out = np.swapaxes(out.reshape(*stack, nb, r, block), -1, -2)
    else:
        # form the phases themselves: nt * dim products
        phases = outer[..., :, None, :] * inner[..., None, :, :]
        out = phases.reshape(*stack, nb * block, dim) @ weights
        if real:
            out = out.real.copy()
    return out.reshape(*stack, nb * block, r)[..., :nt, :]


def _grid_block(times: np.ndarray) -> int:
    """The block length B of a grid's phase tables: ceil(sqrt(nt)) on a grid within
    a few ulp of t_0 + k dt (as np.linspace makes it), 1 on any other grid."""
    nt = times.size
    dt = (times[-1] - times[0]) / max(nt - 1, 1)
    drift = np.abs(times - (times[0] + dt * np.arange(nt))).max()
    return math.isqrt(nt - 1) + 1 if drift <= 4 * np.finfo(float).eps * np.abs(times).max() else 1


def _phase_tables(times: np.ndarray, rates: np.ndarray, block: int):
    """exp(a t) of complex rates a (..., dim) at the time of index b B + j as
    outer[..., b, :] * inner[..., j, :], B = block (`_grid_block`).  With B > 1
    both are powers by cumulative products, outer[b] = exp(a t_0) exp(a B dt)^b
    and inner[j] = exp(a dt)^j: three exponentials per rate, and a rounding
    that grows with the exponent to about 2 sqrt(nt) roundings, within 3x of
    the direct exp(a t) with its rounding of a t (tests check both against
    long-double phases).  With B = 1, outer is exp(a t) at every time."""
    nt = times.size
    dt = (times[-1] - times[0]) / max(nt - 1, 1)

    def powers(first, ratio, count):  # first * ratio**k for k < count
        out = np.empty(ratio.shape[:-1] + (count, ratio.shape[-1]), dtype=complex)
        out[..., 0, :] = first
        out[..., 1:, :] = ratio[..., None, :]
        return np.multiply.accumulate(out, axis=-2, out=out)

    if block > 1:
        outer = powers(np.exp(times[0] * rates), np.exp((block * dt) * rates), -(-nt // block))
    else:
        outer = np.exp(times[:, None] * rates[..., None, :])
    return outer, powers(1.0, np.exp(dt * rates), block)


def source_term_series(series: TimeSeries) -> np.ndarray:
    """Coupling-induced source matrix of the reduced equation of motion at
    every time of a two-level series, shape (nt, 2, 2).

    With lambda = v * sum_i rho_gi and eta = v * sum_i (rho_ie - rho_ei), the
    projected commutator P[V, rho]P reads [[0, -lambda], [lambda*, eta]].
    The minus sign on the upper entry is required for the matrix to be
    anti-Hermitian, which is what keeps i d(rho_r)/dt = [H0, rho_r] + S
    Hermiticity-consistent; it is also the convention under which S converges
    to the non-Hermitian limit i[H_d, rho_r]_+ for large quasi-continua.
    """
    if series.system_dim != 2:
        raise ConfigError("source_term_series needs a two-level series")
    v = series.spec.coupling_v
    cg, ce, sf = series.projections.T       # sf = sum_k c_k
    lam = v * cg * sf.conj()
    eta = v * (sf * ce.conj() - ce * sf.conj())
    out = np.zeros(cg.shape + (2, 2), dtype=complex)
    out[..., 0, 1] = -lam
    out[..., 1, 0] = lam.conj()
    out[..., 1, 1] = eta
    return out
