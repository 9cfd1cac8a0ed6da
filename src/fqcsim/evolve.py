"""Exact propagation under time-independent Hamiltonians and reduced dynamics.

Propagation uses a one-time eigendecomposition followed by phase rotation,
|psi(t)> = sum_n <psi_n|psi_0> exp(-i E_n t) |psi_n>, so there is no stepper
and no truncation error to tune: the value at any grid time is independent of
the rest of the grid up to rounding (1e-12), not bit for bit, because uniform
grids evaluate the phases in blocks.
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
    to rounding); NumericalError otherwise.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        gram = self.vectors.T @ self.vectors
        defect = np.linalg.norm(gram - np.eye(gram.shape[0]))
        if not defect <= NORM_TOL:
            raise NumericalError(f"eigenbasis orthonormality defect {defect} exceeds {NORM_TOL}")


def diagonalize(h: HamiltonianMatrix) -> Eigensystem:
    """Dense symmetric eigendecomposition of the Hamiltonian."""
    m = h.entries
    if not np.array_equal(m, m.T):
        raise ConfigError("Hamiltonian matrix is not symmetric")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return Eigensystem(values, vectors)


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
    curvature of the short-time survival probability (Zeno time).

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
        energy_variance0: float = 0.0,
    ):
        self.times = times
        self.basis_labels = basis_labels
        self.spec = spec
        self.drive = drive
        self.energy_variance0 = energy_variance0
        self._amplitudes = amplitudes
        self._build = None
        self._proj = None

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
        c = self._projected()[:, :self.system_dim]
        rho = c[:, :, None] * c.conj()[:, None, :]
        return DensitySeries(self.times, rho)

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

    A precomputed Eigensystem may be shared read-only across many calls; its
    basis was checked for orthonormality when it was made (see Eigensystem),
    which bounds the norm drift at every grid time.
    """
    if psi0 is None or isinstance(psi0, str):
        psi0 = basis_state(h, psi0 or "e")
    if psi0.dim != h.dim:
        raise ConfigError(f"state dim {psi0.dim} does not match Hamiltonian dim {h.dim}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ConfigError("time grid must be 1d and strictly increasing")
    if eig is None:
        eig = diagonalize(h)
    values, vectors = eig.values, eig.vectors
    a = vectors.T @ psi0.amplitudes
    rows = vectors[:1]
    if h.basis_labels[0] == "g":
        rows = np.vstack([vectors[:2], vectors[2:].sum(axis=0)])

    hpsi = h.entries @ psi0.amplitudes
    mean = np.real(np.vdot(psi0.amplitudes, hpsi))
    variance = float(np.real(np.vdot(hpsi, hpsi)) - mean**2)
    series = TimeSeries(times, None, h.basis_labels, h.spec, h.drive, variance)
    series._proj = _phase_sum(values, (rows * a).T, times)
    series._build = lambda: _phase_sum(values, (vectors * a).T, times)
    return series


def _phase_sum(values: np.ndarray, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_n weights[n, r] exp(-i values[n] t) at every grid time, shape (nt, r).

    On a uniform grid the phase of time index b*B + j factors as
    exp(-iE t_{bB}) exp(-iE j dt) with B = ceil(sqrt(nt)), so about
    (nt/B + B) * dim exponentials and one matmul do the work.  Any other grid
    runs the same code with B = 1, which is the direct formula.
    """
    nt, (dim, r) = times.size, weights.shape
    dt = (times[-1] - times[0]) / max(nt - 1, 1)
    # within a few ulp of t_0 + k dt (as np.linspace makes it) counts as uniform
    drift = np.abs(times - (times[0] + dt * np.arange(nt))).max()
    uniform = drift <= 4 * np.finfo(float).eps * np.abs(times).max()
    block = math.isqrt(nt - 1) + 1 if uniform else 1
    outer = np.exp(-1j * np.outer(times[::block], values))
    inner = np.exp(-1j * np.outer(dt * np.arange(block), values))
    nb = outer.shape[0]
    if r < block:
        # fold the weights into the outer phases: nb * r * dim products
        out = (outer[:, None, :] * weights.T).reshape(nb * r, dim) @ inner.T
        out = out.reshape(nb, r, block).transpose(0, 2, 1)
    else:
        # form the phases themselves: nt * dim products
        out = (outer[:, None, :] * inner).reshape(nb * block, dim) @ weights
    return out.reshape(nb * block, r)[:nt]


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
