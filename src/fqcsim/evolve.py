"""Exact propagation under time-independent Hamiltonians and reduced dynamics.

Propagation uses a one-time eigendecomposition followed by phase rotation,
|psi(t)> = sum_n <psi_n|psi_0> exp(-i E_n t) |psi_n>, so there is no stepper
and no truncation error to tune: the value at any grid time is independent of
the rest of the grid up to rounding (1e-12), not bit for bit, because uniform
grids evaluate the phases in blocks.

The eigen step and the phase kernel work on stacks of Hamiltonians of equal
basis: one batched decomposition and one batched phase rotation serve many
sweep cells (`_propagate_stack`), and `propagate` is the same core on a
stack of one.  Stacked and single calls give the same bits.  A single-level
Hamiltonian is bipartite in the symmetric/antisymmetric combinations of the
levels +-k, so from |e> it needs only the SVD of its half-size e/FQC
coupling block, c_e(t) = sum_n U[e, n]^2 cos(sigma_n t); two-level models,
other initial states and a caller's Eigensystem use `eigh` of H.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .hamiltonian import FqcSpec, DriveSpec, HamiltonianMatrix

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
    "memory_kernel",
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

    The basis V is checked on construction, so every reader (`propagate`,
    `nonmarkovianity`) gets a checked one: ||V^T V - I||_F <= 1e-10 bounds
    the 2-norm of the Gram defect, and with it the norm drift
    | ||psi(t)|| / ||psi(0)|| - 1 | of a propagated state at every time (up
    to rounding); NumericalError otherwise.  Stacked cells pass the same
    check, one batched matmul per stack (`_propagate_stack`).
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        error = _basis_error(_gram_defect(self.vectors))
        if error is not None:
            raise error


def _gram_defect(vectors: np.ndarray) -> np.ndarray:
    """||V^T V - I||_F of every basis of a (..., d, d) stack."""
    gram = np.swapaxes(vectors, -1, -2) @ vectors
    gram -= np.eye(gram.shape[-1])
    return np.sqrt(np.einsum("...ij,...ij->...", gram, gram))


def _basis_error(defect: float) -> NumericalError | None:
    if defect <= NORM_TOL:
        return None
    return NumericalError(f"eigenbasis orthonormality defect {defect} exceeds {NORM_TOL}")


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

    A matrix's error is None, a NumericalError if LAPACK fails on it, or a
    ConfigError if it is not symmetric.  The Gram check of the bases is the
    caller's (Eigensystem, or one batched `_gram_defect` in
    `_propagate_stack`).
    """
    (values, vectors), errors = _lapack_stack(np.linalg.eigh, entries, (1, 2))
    symmetric = (entries == np.swapaxes(entries, -1, -2)).all(axis=(-2, -1))
    return values, vectors, [
        err or (None if sym else ConfigError("Hamiltonian matrix is not symmetric"))
        for err, sym in zip(errors, symmetric)]


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
    """Propagated amplitudes on a time grid plus run provenance.

    `energy_variance0` is <H^2> - <H>^2 in the initial state; it sets the
    curvature of the short-time survival probability (Zeno time).  A series
    from `propagate` (energy_variance0 None) computes it on first read, from
    the dense H.

    Everything but `amplitudes`, `fqc_populations` and the FQC columns of the
    outputs reads only the projections: the system amplitudes and, on a
    two-level basis, sum_k c_k.  A series from `propagate` holds just those
    and builds the full (nt, dim) `amplitudes` on first read.
    """

    def __init__(
        self,
        times: np.ndarray,
        amplitudes: np.ndarray | None,
        basis_labels: tuple[str, ...],
        spec: FqcSpec | None = None,
        drive: DriveSpec | None = None,
        energy_variance0: float | None = 0.0,
    ):
        self.times = times
        self.basis_labels = basis_labels
        self.spec = spec
        self.drive = drive
        self._variance = energy_variance0
        self._amplitudes = amplitudes
        self._build = None
        self._proj = None
        self._state = None

    @property
    def energy_variance0(self) -> float:
        if self._variance is None:
            h, psi = self._state
            hpsi = h.entries @ psi
            mean = np.real(np.vdot(psi, hpsi))
            self._variance = float(np.real(np.vdot(hpsi, hpsi)) - mean**2)
        return self._variance

    @property
    def amplitudes(self) -> np.ndarray:
        if self._amplitudes is None:
            self._amplitudes = self._build()
        return self._amplitudes

    def _projected(self) -> np.ndarray:
        """System amplitudes, then sum_k c_k on a two-level basis: (nt, 1|3)."""
        if self._proj is None:
            amps = self.amplitudes
            if self.system_dim == 1:
                self._proj = amps[:, :1]
            else:
                self._proj = np.column_stack([amps[:, :2], amps[:, 2:].sum(axis=1)])
        return self._proj

    @property
    def e_index(self) -> int:
        return self.basis_labels.index("e")

    @property
    def system_dim(self) -> int:
        return 2 if self.basis_labels[0] == "g" else 1

    @property
    def pi_e(self) -> np.ndarray:
        return np.abs(self._projected()[:, self.e_index]) ** 2

    @property
    def pi_g(self) -> np.ndarray | None:
        return np.abs(self._projected()[:, 0]) ** 2 if self.system_dim == 2 else None

    def reduced(self) -> DensitySeries:
        """Project every state onto the system block: rho_ab = c_a c_b*."""
        return DensitySeries(self.times, _outer(self._projected()[:, :self.system_dim]))

    def fqc_populations(self) -> np.ndarray:
        return np.abs(self.amplitudes[:, self.system_dim:]) ** 2

    def fqc_labels(self) -> tuple[str, ...]:
        return self.basis_labels[self.system_dim:]

    def to_csv(self, path, include_fqc: bool = False,
               extra_header: tuple[str, ...] = ()) -> None:
        cols = {"t": self.times, "pi_e": self.pi_e}
        cols.update(_rho_columns(self.reduced().rho, self.basis_labels[:self.system_dim]))
        if include_fqc:
            pops = self.fqc_populations()
            for i, lab in enumerate(self.fqc_labels()):
                cols[f"p_{lab}"] = pops[:, i]
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


def propagate(
    h: HamiltonianMatrix,
    psi0: StateVector | str | None,
    times: np.ndarray,
    eig: Eigensystem | None = None,
) -> TimeSeries:
    """Evolve psi0 under h on the given grid by spectral phase rotation.

    Only the projections are computed here: c_e on a single-level basis;
    c_g, c_e and sum_k c_k on a two-level one.  They feed `pi_e`, `pi_g`,
    `reduced()` and `source_term_series`.  The full (nt, dim) `amplitudes`
    are built through the same phase kernel on first read (by
    `fqc_populations`, `to_csv(include_fqc=True)` or `to_json`).

    A single-level Hamiltonian started in |e> (psi0 "e" or None) without a
    given `eig` takes the singular-value path of `_propagate_stack` on a
    stack of one.  Everything else is phase-rotated in the eigenbasis of h:
    a precomputed Eigensystem may be shared read-only across many calls;
    its basis was checked for orthonormality when it was made (see
    Eigensystem), which bounds the norm drift at every grid time.
    """
    if psi0 is None:
        psi0 = "e"
    if eig is None and psi0 == "e" and h.n_system == 1:
        (series,) = _propagate_stack([h], times)
        if isinstance(series, Exception):
            raise series
        return series
    if isinstance(psi0, str):
        psi0 = basis_state(h, psi0)
    if psi0.dim != h.dim:
        raise ConfigError(f"state dim {psi0.dim} does not match Hamiltonian dim {h.dim}")
    times = _time_grid(times)
    if eig is None:
        eig = diagonalize(h)
    return _evolve([h], psi0.amplitudes[None], times, eig.values[None], eig.vectors[None])[0]


def _propagate_stack(hs: list[HamiltonianMatrix], times: np.ndarray) -> list:
    """`propagate` from |e> for Hamiltonians of equal basis labels: one
    TimeSeries per cell, or the FqcsimError of its own decomposition.
    Every series has the bits `propagate` gives for its cell alone.

    Single-level cells go through one batched SVD of their half-size
    coupling blocks (`_single_level_stack`); two-level cells through one
    batched `eigh` (`_eigh_stack`).  Either way each basis gets the
    Eigensystem bound (`_gram_defect`, `_basis_error`), one batched matmul
    per stack.
    """
    times = _time_grid(times)
    if hs[0].n_system == 1:
        return _single_level_stack(hs, times)
    values, vectors, errors = _eigh_stack(np.stack([h.entries for h in hs]))
    errors = [err or _basis_error(defect) for err, defect in zip(errors, _gram_defect(vectors))]
    psi = np.zeros(values.shape, dtype=complex)
    psi[:, hs[0].basis_labels.index("e")] = 1.0
    series = _evolve(hs, psi, times, values, vectors)
    return [s if err is None else err for s, err in zip(series, errors)]


def _series(h: HamiltonianMatrix, psi: np.ndarray, times: np.ndarray, proj: np.ndarray,
            build) -> TimeSeries:
    """The TimeSeries of state psi under h: its projections and the
    builders of its full amplitudes and of its energy variance."""
    series = TimeSeries(times, None, h.basis_labels, h.spec, h.drive, None)
    series._proj, series._build, series._state = proj, build, (h, psi)
    return series


def _outer(c: np.ndarray) -> np.ndarray:
    """rho_ab = c_a c_b* of system amplitudes c (..., s): shape (..., s, s)."""
    return c[..., :, None] * c.conj()[..., None, :]


def _evolve(hs, psi: np.ndarray, times: np.ndarray, values: np.ndarray,
            vectors: np.ndarray) -> list[TimeSeries]:
    """The eigenbasis propagation core: states psi (s, d) under a stack of
    s decomposed Hamiltonians of equal basis labels, one batched phase sum
    of the projections for the whole stack."""
    # a_n = <psi_n|psi_0>, real and imaginary parts apart: no complex copy of V
    a = (psi.real[:, None] @ vectors)[:, 0] + 1j * (psi.imag[:, None] @ vectors)[:, 0]
    rows = vectors[:, :1]
    if hs[0].basis_labels[0] == "g":
        rows = np.concatenate([vectors[:, :2], vectors[:, 2:].sum(axis=1, keepdims=True)], axis=1)
    proj = _phase_sum(values, np.swapaxes(rows * a[:, None, :], -1, -2), times)
    return [_series(h, psi[k], times, proj[k],
                    lambda e=values[k], v=vectors[k], c=a[k]: _phase_sum(e, (v * c).T, times))
            for k, h in enumerate(hs)]


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


def _single_level_stack(hs: list[HamiltonianMatrix], times: np.ndarray) -> list:
    """`_propagate_stack` for single-level cells, through the SVD
    B = U diag(sigma) W^T of their coupling blocks (`_coupling_blocks`).

    The eigenvectors of H are (u_n, +-w_n)/sqrt(2) at +-sigma_n, so from |e>
    c_e(t) = sum_n U[e, n]^2 cos(sigma_n t): the real part of one phase sum
    over the m singular values, half the phases of H.  U and W get the
    Eigensystem bound, and a LAPACK failure stays with its own cell
    (`_lapack_stack`).
    """
    (u, sigma, vh), errors = _lapack_stack(np.linalg.svd, _coupling_blocks(hs), (2, 1, 2))
    w = np.swapaxes(vh, -1, -2)
    defects = np.maximum(_gram_defect(u), _gram_defect(w))
    errors = [err or _basis_error(defect) for err, defect in zip(errors, defects)]
    ue = u[:, 0]
    # a copy: no series keeps the complex stack alive through a view
    c_e = _phase_sum(sigma, (ue * ue)[..., None], times).real.copy()
    psi = np.zeros(hs[0].dim, dtype=complex)
    psi[0] = 1.0
    series = [_series(h, psi, times, c_e[k],
                      lambda k=k, h=h: _single_level_amplitudes(h, sigma[k], u[k], w[k], times))
              for k, h in enumerate(hs)]
    return [s if err is None else err for s, err in zip(series, errors)]


def _single_level_amplitudes(h: HamiltonianMatrix, sigma: np.ndarray, u: np.ndarray,
                             w: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The full (nt, dim) amplitudes from |e> of a single-level cell, from
    the SVD factors of its coupling block: sum_n U[:, n] U[e, n] cos(sigma_n t)
    on the A side, -i sum_n W[:, n] U[e, n] sin(sigma_n t) on the other, then
    rotated back to the f_k levels."""
    m = sigma.size
    p = _phase_sum(sigma, np.concatenate([u * u[0], w * u[0]]).T, times)
    side_a, side_b = p[:, :m].real, 1j * p[:, m:].imag
    n_pos = m - 1
    amps = np.empty((times.size, h.dim), dtype=complex)
    amps[:, 0] = side_a[:, 0]
    if h.dim - 1 > 2 * n_pos:  # f0, on the B side
        amps[:, 1 + n_pos] = side_b[:, 0]
    amps[:, h.dim - n_pos:] = (side_b[:, 1:] + side_a[:, 1:]) / math.sqrt(2.0)
    amps[:, 1:1 + n_pos] = ((side_b[:, 1:] - side_a[:, 1:]) / math.sqrt(2.0))[:, ::-1]
    return amps


def _phase_sum(values: np.ndarray, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_n weights[..., n, r] exp(-i values[..., n] t) at every grid time,
    shape (..., nt, r).

    Leading axes stack independent cells (values (..., dim), weights
    (..., dim, r)) that share the grid; each cell gets the bits it gets
    alone, since numpy's batched elementwise ops and matmuls repeat the
    per-matrix ones.  On a uniform grid the phase of time index b*B + j
    factors as exp(-iE t_{bB}) exp(-iE j dt) with B = ceil(sqrt(nt)), so
    about (nt/B + B) * dim exponentials and one matmul per cell do the work.
    Any other grid runs the same code with B = 1, which is the direct formula.
    """
    nt, (*stack, dim, r) = times.size, weights.shape
    dt = (times[-1] - times[0]) / max(nt - 1, 1)
    # within a few ulp of t_0 + k dt (as np.linspace makes it) counts as uniform
    drift = np.abs(times - (times[0] + dt * np.arange(nt))).max()
    uniform = drift <= 4 * np.finfo(float).eps * np.abs(times).max()
    block = math.isqrt(nt - 1) + 1 if uniform else 1
    outer = _phases(times[::block], values)
    inner = _phases(dt * np.arange(block), values)
    nb = outer.shape[-2]
    if r < block:
        # fold the weights into the outer phases: nb * r * dim products
        folded = outer[..., :, None, :] * np.swapaxes(weights, -1, -2)[..., None, :, :]
        out = folded.reshape(*stack, nb * r, dim) @ np.swapaxes(inner, -1, -2)
        out = np.swapaxes(out.reshape(*stack, nb, r, block), -1, -2)
    else:
        # form the phases themselves: nt * dim products
        phases = outer[..., :, None, :] * inner[..., None, :, :]
        out = phases.reshape(*stack, nb * block, dim) @ weights
    return out.reshape(*stack, nb * block, r)[..., :nt, :]


def _phases(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """exp(-i E t) for every t and every E of values (..., dim): (..., t.size, dim)."""
    phases = -1j * (t[:, None] * values[..., None, :])
    return np.exp(phases, out=phases)


def source_term_series(series: TimeSeries, spec: FqcSpec | None = None) -> np.ndarray:
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
    v = (spec or series.spec).coupling_v
    cg, ce, sf = series._projected().T       # sf = sum_k c_k
    lam = v * cg * sf.conj()
    eta = v * (sf * ce.conj() - ce * sf.conj())
    out = np.zeros(cg.shape + (2, 2), dtype=complex)
    out[..., 0, 1] = -lam
    out[..., 1, 0] = lam.conj()
    out[..., 1, 1] = eta
    return out


def memory_kernel(spec: FqcSpec, tau_grid: np.ndarray) -> np.ndarray:
    """Environment memory kernel K(tau) = v^2 sum_k exp(-i E_k tau).

    For the flat symmetric FQC this is v^2 times a Dirichlet kernel: sharply
    peaked at tau = 0 with first zero at 2 pi / (n_levels * delta), and
    periodic with period 2 pi / delta, which is the revival mechanism.
    Evaluated by the phase kernel of `propagate`.
    """
    tau = np.asarray(tau_grid, dtype=float)
    if tau.size == 0:
        return np.zeros(0, dtype=complex)
    energies = spec.level_indices * spec.gap
    ones = np.ones((energies.size, 1))
    return spec.coupling_v**2 * _phase_sum(energies, ones, tau)[:, 0]
