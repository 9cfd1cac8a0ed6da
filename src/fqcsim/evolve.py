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
bits.  A single-level Hamiltonian is bipartite in the symmetric/antisymmetric
combinations of the levels +-k, so from |e> it needs only the spectrum of
its half-size e/FQC coupling block B: c_e(t) = sum_n U[e, n]^2
cos(sigma_n t), the real part of a phase sum, which one real matmul gives
as a real array.  B^T B is a rank-one change of
a diagonal, so the sigma_n (a values-only SVD, refined on the secular
equation) and the weights U[e, n]^2 (a closed form) come without singular
vectors (`_single_level_weights`).  Two-level models take one batched
`eigh` of H; other initial states go through `diagonalize`.  The full
amplitudes of a series are built on first read, in the eigenbasis of H.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .hamiltonian import HamiltonianMatrix

__all__ = [
    "StateVector",
    "Eigensystem",
    "TimeSeries",
    "DensitySeries",
    "basis_state",
    "diagonalize",
    "default_grid",
    "propagate",
    "source_term_series",
    "write_csv",
]

NORM_TOL = 1e-10


def write_csv(path, columns: dict, header: tuple[str, ...] = ()) -> None:
    """Write equal-length columns as CSV, the one writer of every CSV output.

    Float columns use full-precision scientific notation (17 significant
    digits); integer and string columns are written with `str`.  Each header
    line becomes a leading `# ` comment.
    """
    cells = []
    for values in columns.values():
        arr = np.asarray(values)
        fmt = "{:.16e}".format if arr.dtype.kind == "f" else str
        cells.append([fmt(x) for x in arr.tolist()])
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in header)
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _rho_columns(rho: np.ndarray, labels) -> dict:
    """Real and imaginary part of every entry of a (nt, d, d) density series."""
    cols = {}
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            cols[f"rho_{la}{lb}_re"] = rho[:, a, b].real
            cols[f"rho_{la}{lb}_im"] = rho[:, a, b].imag
    return cols


@dataclass
class StateVector:
    """Normalized complex amplitudes over the full Hilbert space."""

    amplitudes: np.ndarray
    basis_labels: tuple[str, ...]

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 1 or self.amplitudes.size != len(self.basis_labels):
            raise ConfigError("amplitudes and basis_labels sizes differ")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ConfigError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def basis_state(h: HamiltonianMatrix, label: str = "e") -> StateVector:
    """Computational basis state of the given Hamiltonian (default |e>)."""
    if label not in h.basis_labels:
        raise ConfigError(f"unknown basis label {label!r}")
    amps = np.zeros(h.dim, dtype=complex)
    amps[h.basis_labels.index(label)] = 1.0
    return StateVector(amps, h.basis_labels)


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


def _lapack_stack(solve, entries: np.ndarray, ranks: tuple[int, ...]) -> tuple[tuple, list]:
    """The outputs of `solve` (a batched LAPACK routine of numpy.linalg) on a
    (s, d, d) stack of matrices, and the error of each matrix: None, or a
    NumericalError if LAPACK fails on it.  Output k has ranks[k] axes of
    size d per matrix (`eigh`: (1, 2)).

    A LAPACK failure in a stack is retried one matrix at a time, so it stays
    with its own matrix, whose outputs are NaN.
    """
    try:
        return solve(entries), [None] * len(entries)
    except np.linalg.LinAlgError as exc:
        if len(entries) > 1:
            parts = [_lapack_stack(solve, m[None], ranks) for m in entries]
            return (tuple(np.concatenate(out) for out in zip(*(p[0] for p in parts))),
                    [p[1][0] for p in parts])
        d = entries.shape[-1]
        nan = tuple(np.full((1,) + (d,) * rank, np.nan) for rank in ranks)
        return nan, [NumericalError(f"eigensolver failed: {exc}")]


def _eigh_stack(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Eigenvalues (s, d), eigenvectors (s, d, d) and the error of each
    matrix of a (s, d, d) stack of real symmetric Hamiltonians, by one
    batched `eigh` (`_lapack_stack`).

    A matrix's error is None, a NumericalError if LAPACK fails on it, a
    ConfigError if it is not symmetric, or a NumericalError if its basis
    fails the Eigensystem bound (one batched `_gram_defect` per stack).
    """
    (values, vectors), errors = _lapack_stack(np.linalg.eigh, entries, (1, 2))
    symmetric = (entries == np.swapaxes(entries, -1, -2)).all(axis=(-2, -1))
    return values, vectors, [
        err or (None if sym else ConfigError("Hamiltonian matrix is not symmetric"))
        or (None if defect <= NORM_TOL else NumericalError(
            f"eigenbasis orthonormality defect {defect} exceeds {NORM_TOL}"))
        for err, sym, defect in zip(errors, symmetric, _gram_defect(vectors))]


def diagonalize(h: HamiltonianMatrix) -> Eigensystem:
    """Dense symmetric eigendecomposition of the Hamiltonian (a stack of one)."""
    values, vectors, (error,) = _eigh_stack(h.entries[None])
    if error is not None:
        raise error
    return Eigensystem(values[0], vectors[0])


def default_grid(t_f: float, points: int = 2001) -> np.ndarray:
    """Uniform time grid on [0, t_f].

    The metrics `d1` and `d2` converge to 1e-4 under doubling of `points`;
    2001 is ample for every regime studied here (tests check the `(N, v)` map
    and size-scan domains).  The fitted omega_eff and gamma_eff are not
    covered: gamma_eff moves by up to 5.5e-4 relative from 4001 to 8001
    points, which follows the fit's stopping tolerance, not the grid.
    """
    if not 0 < t_f < math.inf or points < 2:
        raise ConfigError("grid needs a finite t_f > 0 and at least 2 points")
    return np.linspace(0.0, t_f, points)


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
    """The state of h started in psi (amplitudes over its basis, |e> if
    None) on a time grid, held as its projections, plus run provenance.

    `projections` holds c_e on a single-level basis, or c_g, c_e and
    sum_k c_k on a two-level one: shape (nt, 1) or (nt, 3).  `pi_e`,
    `pi_g`, `reduced()`, `to_csv` and `source_term_series` read only them;
    `spec`, `drive`, `basis_labels` and `system_dim` come from h.

    Two members are built on first read.  `energy_variance0` is
    <H^2> - <H>^2 in psi, which sets the curvature of the short-time
    survival probability (Zeno time); it takes H psi in O(dim) from the
    structure (`HamiltonianMatrix.matvec`).  The full (nt, dim) `amplitudes`
    are one phase sum in the eigenbasis of one `_eigh_stack` of h, whose
    basis is checked for orthonormality (see Eigensystem).  Neither calls
    `diagonalize`, so a read after `propagate` has returned calls nothing
    the benchmark tracer wraps.
    """

    def __init__(self, h: HamiltonianMatrix, times: np.ndarray, projections: np.ndarray,
                 psi: np.ndarray | None = None):
        self.times = times
        self.projections = projections
        self.spec, self.drive = h.spec, h.drive
        self.basis_labels, self.system_dim = h.basis_labels, h.n_system
        self._h = h
        self._psi = basis_state(h).amplitudes if psi is None else psi
        self._variance = None
        self._amplitudes = None

    @property
    def energy_variance0(self) -> float:
        if self._variance is None:
            hpsi = self._h.matvec(self._psi)
            mean = np.real(np.vdot(self._psi, hpsi))
            self._variance = float(np.real(np.vdot(hpsi, hpsi)) - mean**2)
        return self._variance

    @property
    def amplitudes(self) -> np.ndarray:
        if self._amplitudes is None:
            values, vectors, (error,) = _eigh_stack(self._h.entries[None])
            if error is not None:
                raise error
            a = _overlaps(vectors, self._psi[None])[0]
            self._amplitudes = _phase_sum(values[0], (vectors[0] * a).T, self.times)
        return self._amplitudes

    @property
    def pi_e(self) -> np.ndarray:
        return np.abs(self.projections[:, self.system_dim - 1]) ** 2

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
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)


def _time_grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ConfigError("time grid must be 1d and strictly increasing")
    return times


def propagate(h: HamiltonianMatrix, psi0: StateVector | str,
              times: np.ndarray) -> TimeSeries:
    """Evolve psi0 (a state, or the label of a basis state) under h on the
    given grid by spectral phase rotation.

    Only the projections are computed here: c_e on a single-level basis;
    c_g, c_e and sum_k c_k on a two-level one.  They feed `pi_e`, `pi_g`,
    `reduced()`, `to_csv` and `source_term_series`.  The full (nt, dim)
    `amplitudes` are built in the eigenbasis of h on first read (see
    TimeSeries).

    A single-level Hamiltonian started in |e> (psi0 "e") takes the secular
    spectrum of `_spectra` on a stack of one.  Everything else is
    phase-rotated in the eigenbasis from `diagonalize`, whose basis is
    checked for orthonormality (see Eigensystem), which bounds the norm
    drift at every grid time.
    """
    times = _time_grid(times)
    if psi0 == "e" and h.n_system == 1:
        values, weights, (error,), _ = _spectra([h])
        if error is not None:
            raise error
        return TimeSeries(h, times, _phase_sum(values, weights, times, real=True)[0])
    if isinstance(psi0, str):
        psi0 = basis_state(h, psi0)
    if psi0.dim != h.dim:
        raise ConfigError(f"state dim {psi0.dim} does not match Hamiltonian dim {h.dim}")
    eig = diagonalize(h)
    psi = psi0.amplitudes
    weights = _projection_weights(eig.vectors[None], psi[None], h.n_system)
    return TimeSeries(h, times, _phase_sum(eig.values[None], weights, times)[0], psi)


def _spectra(hs: list[HamiltonianMatrix]) -> tuple[np.ndarray, np.ndarray, list, bool]:
    """The projections from |e> of cells of equal basis labels as one phase
    sum: values (s, n), weights (s, n, r), the error of each cell (None, or
    the FqcsimError of its decomposition or health check) and whether the
    projection is the real part of the sum.

    Single-level cells take the secular spectrum of their half-size
    coupling blocks (`_single_level_weights`): c_e is the cosine sum, the
    real part of a phase sum over m = N + 1 values, half the phases of H.
    Two-level cells take one batched `eigh` of H with the Eigensystem bound
    on every basis (`_eigh_stack`), and the weights of c_g, c_e and
    sum_k c_k.  A stacked cell gets the bits it gets alone.
    """
    if hs[0].n_system == 1:
        sigma, weights, errors = _single_level_weights(hs)
        return sigma, weights[..., None], errors, True
    values, vectors, errors = _eigh_stack(np.stack([h.entries for h in hs]))
    psi = np.zeros(values.shape, dtype=complex)
    psi[:, hs[0].basis_labels.index("e")] = 1.0
    return values, _projection_weights(vectors, psi, 2), errors, False


def _overlaps(vectors: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """a_n = <psi_n|psi> of states psi (s, d) in the eigenbases vectors
    (s, d, d), real and imaginary parts apart: no complex copy of V."""
    return (psi.real[:, None] @ vectors)[:, 0] + 1j * (psi.imag[:, None] @ vectors)[:, 0]


def _projection_weights(vectors: np.ndarray, psi: np.ndarray, n_system: int) -> np.ndarray:
    """The phase-sum weights (s, d, r) of the projections of states psi
    (s, d) in the eigenbases vectors: the rows of V for c_e, or for c_g, c_e
    and sum_k c_k on a two-level basis, times a_n (`_overlaps`)."""
    rows = vectors[:, :1]
    if n_system == 2:
        rows = np.concatenate([vectors[:, :2], vectors[:, 2:].sum(axis=1, keepdims=True)], axis=1)
    return np.swapaxes(rows * _overlaps(vectors, psi)[:, None, :], -1, -2)


def _outer(c: np.ndarray) -> np.ndarray:
    """rho_ab = c_a c_b* of system amplitudes c (..., s): shape (..., s, s).

    The diagonal is exactly real: the imaginary part of c_a c_a*, which a
    fused complex multiply may leave at about 1e-30 depending on the CPU, is
    set to 0; every real part keeps its bits.
    """
    rho = c[..., :, None] * c.conj()[..., None, :]
    if np.iscomplexobj(rho):
        diag = np.arange(rho.shape[-1])
        rho.imag[..., diag, diag] = 0.0
    return rho


def _coupling_blocks(hs: list[HamiltonianMatrix]) -> np.ndarray:
    """The e/FQC coupling blocks B of single-level Hamiltonians of equal
    basis labels, shape (s, m, m) with m = n_pos + 1 for n_pos levels k > 0.

    Every single-level ladder is symmetric about |e> at E = 0 (a hole is
    symmetric too).  In the basis s_k = (f_k + f_-k)/sqrt(2),
    a_k = (f_k - f_-k)/sqrt(2) (k > 0), H is bipartite between
    A = (e, a_1, ...) and (f0, s_1, ...): H = [[0, B], [B^T, 0]] with
    B[e, f0] = v, B[e, s_k] = sqrt(2) v and B[a_k, s_k] = k delta.  A
    ladder without f0 gets a zero column in its place.
    """
    ks = hs[0].level_indices
    pos = ks[ks > 0]
    v = np.array([h.spec.coupling_v for h in hs])
    gap = np.array([h.spec.gap for h in hs])
    blocks = np.zeros((len(hs), pos.size + 1, pos.size + 1))
    if 0 in ks:
        blocks[:, 0, 0] = v
    blocks[:, 0, 1:] = math.sqrt(2.0) * v[:, None]
    diag = np.arange(1, pos.size + 1)
    blocks[:, diag, diag] = pos * gap[:, None]
    return blocks


def _single_level_weights(hs: list[HamiltonianMatrix]) -> tuple[np.ndarray, np.ndarray, list]:
    """The spectrum of c_e(t) = sum_n weights[n] cos(sigma_n t) for
    single-level cells of equal basis labels: sigma and weights (s, m), and
    the error of each cell, without singular vectors.

    The coupling block B (`_coupling_blocks`) has first row z = (v, sqrt(2)
    v, ...) and poles d_j = p_j delta (p_j = 0, 1, ... on a flat ladder), so
    B^T B = D^2 + z z^T.  Its sigma_n are the roots of the secular equation
    1 + sum_j z_j^2 / (d_j^2 - sigma^2) = 0, one in each pole interval
    (p_n, p_n + 1) delta and the last above the top pole, and
    U[e, n]^2 = 1 / (sigma_n^2 sum_j z_j^2 / (d_j^2 - sigma_n^2)^2).  A
    values-only SVD of the stacked blocks starts the roots, and one Newton
    step refines them (`_secular_roots`).  A holed ladder has no f0: its
    zero column is dropped, and the dark state at E = 0 comes first, with
    weight 1 / (1 + sum_j z_j^2 / d_j^2).  A cell with v = 0 is decoupled:
    sigma = 0 and c_e = 1, with no division by its zero gap.

    Two checks take the place of the Gram check of U and W, each within
    NORM_TOL: the sum rule |sum_n U[e, n]^2 - 1| and the relative secular
    residual (`_secular_roots`).  A cell that fails either, or whose LAPACK
    call fails (`_lapack_stack`), keeps its own error.
    """
    ks = hs[0].level_indices
    flat = 0 in ks
    poles = ks[ks >= 0].astype(float)
    v = np.array([h.spec.coupling_v for h in hs])
    gap = np.array([h.spec.gap for h in hs])
    (roots,), errors = _lapack_stack(lambda b: (np.linalg.svd(b, compute_uv=False),),
                                     _coupling_blocks(hs)[:, :, 0 if flat else 1:], (1,))
    n = poles.size
    sigma = np.zeros((len(hs), n + (not flat)))
    weights = np.zeros_like(sigma)
    weights[:, 0] = 1.0  # v = 0
    residual = np.zeros(len(hs))
    live = v > 0
    if live.any():
        delta = gap[live, None]
        w = (v[live, None] / delta) ** 2 * np.where(poles > 0, 2.0, 1.0)  # z_j^2 / delta^2
        with np.errstate(divide="ignore", invalid="ignore"):  # a bad root fails its check
            x, s2, residual[live] = _secular_roots(roots[live, ::-1] / delta, poles, w)
        sigma[live, -n:] = x * delta
        weights[live, -n:] = 1.0 / (x * x * s2)
        if not flat:
            weights[live, 0] = 1.0 / (1.0 + (w / poles**2).sum(axis=-1))
    defect = np.abs(weights.sum(axis=-1) - 1.0)
    errors = [err or _secular_error(r, d) for err, r, d in zip(errors, residual, defect)]
    return sigma, weights, errors


def _secular_roots(x0: np.ndarray, poles: np.ndarray, w: np.ndarray):
    """One Newton step on f(x) = 1 + sum_j w_j / (p_j^2 - x^2) = 0 from the
    roots x0 (s, n), ascending, in units of the gap (x = sigma / delta, poles
    p_j, w_j = z_j^2 / delta^2 of shape (s, n)).

    Root n is written x = k + t, with k the pole of its interval nearest to
    it, so p_j^2 - x^2 = (p_j - k - t)(p_j + k + t) with exact integers
    p_j - k: the step restores the digits that the SVD's absolute accuracy
    loses next to a pole.  Returns x, sum_j w_j / (p_j^2 - x^2)^2 (so that
    U[e, n]^2 = 1 / (x^2 times it)) and each cell's largest relative
    residual |f(x)| / (1 + sum_j |w_j / (p_j^2 - x^2)|), infinite for a
    root that is NaN or outside its interval.
    """
    n = poles.size
    top = np.arange(n) == n - 1
    k = poles + ((x0 - poles > 0.5) & ~top)
    t = x0 - k
    w = w[..., None]

    def inverse_gaps(t, out=None):
        # 1 / ((p_j - k - t)(p_j + k + t)), in two (s, n, n) arrays
        r = np.subtract(poles, k[..., None], out=out)
        r -= t[..., None]
        q = poles + k[..., None]
        q += t[..., None]
        r *= q
        return np.reciprocal(r, out=r)

    r = inverse_gaps(t)
    f = 1.0 + (r @ w)[..., 0]
    t = t - f / (2.0 * (k + t) * (np.square(r, out=r) @ w)[..., 0])
    r = inverse_gaps(t, out=r)
    f = 1.0 + (r @ w)[..., 0]
    scale = 1.0 + (np.abs(r, out=r) @ w)[..., 0]
    r *= r
    lower = (k - poles) + t  # the offset from the interval's lower pole
    inside = (lower > 0) & ((lower < 1) | top)
    residual = np.where(inside, np.abs(f) / scale, np.inf).max(axis=-1)
    return k + t, (r @ w)[..., 0], residual


def _secular_error(residual: float, defect: float) -> NumericalError | None:
    if not residual <= NORM_TOL:
        return NumericalError(f"secular residual {residual} exceeds {NORM_TOL}")
    if not defect <= NORM_TOL:
        return NumericalError(f"sum rule defect {defect} exceeds {NORM_TOL}")
    return None


def _phase_sum(values: np.ndarray, weights: np.ndarray, times: np.ndarray,
               real: bool = False) -> np.ndarray:
    """sum_n weights[..., n, r] exp(-i values[..., n] t) at every grid time,
    shape (..., nt, r); with `real`, its real part as a real array.

    Leading axes stack independent cells (values (..., dim), weights
    (..., dim, r)) that share the grid; each cell gets the bits it gets
    alone, since numpy's batched elementwise ops, cumulative products and
    matmuls repeat the per-matrix ones.  On a uniform grid the phase of time
    index b*B + j, with B = ceil(sqrt(nt)), factors as exp(-iE t_0) U^b u^j
    with u = exp(-iE dt) and U = exp(-iE B dt).  Both tables of powers are
    cumulative products (`_powers`), so a cell takes three exponentials per
    value, and one matmul.  A power's rounding grows with its exponent, to
    about 2 sqrt(nt) roundings at most: within 3x of the error of the direct
    exp(-iE t), which carries the rounding of E t (tests check both against
    long-double phases).  Any other grid takes exp(-iE t) at every time,
    with B = 1.  With `real` the folded contraction is one real matmul on
    the interleaved (re, im) views, half the flops of the complex one.
    """
    nt, (*stack, dim, r) = times.size, weights.shape
    dt = (times[-1] - times[0]) / max(nt - 1, 1)
    # within a few ulp of t_0 + k dt (as np.linspace makes it) counts as uniform
    drift = np.abs(times - (times[0] + dt * np.arange(nt))).max()
    uniform = drift <= 4 * np.finfo(float).eps * np.abs(times).max()
    block = math.isqrt(nt - 1) + 1 if uniform else 1
    nb = -(-nt // block)
    if uniform:
        outer = _powers(np.exp(-1j * (times[0] * values)),
                        np.exp(-1j * ((block * dt) * values)), nb)
    else:
        outer = np.exp(-1j * (times[:, None] * values[..., None, :]))
    inner = _powers(1.0, np.exp(-1j * (dt * values)), block)
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


def _powers(first, ratio: np.ndarray, count: int) -> np.ndarray:
    """first * ratio**k for k < count, of every value of ratio (..., dim),
    by a cumulative product along a new axis: shape (..., count, dim)."""
    out = np.empty(ratio.shape[:-1] + (count, ratio.shape[-1]), dtype=complex)
    out[..., 0, :] = first
    out[..., 1:, :] = ratio[..., None, :]
    return np.multiply.accumulate(out, axis=-2, out=out)


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
