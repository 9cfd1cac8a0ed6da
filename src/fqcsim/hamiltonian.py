"""Arrowhead Hamiltonians for a system coupled to a finite quasi-continuum (FQC).

The FQC is a ladder of equidistant levels, all coupled with the same strength
v to the unstable state |e>.  Fermi's golden rule fixes the level spacing
delta = 2 pi v^2 / gamma once a target decay rate gamma is chosen, so an FQC
is fully specified by its half-size N, the coupling v and gamma.  Energies are
measured in units of hbar*gamma and times in 1/gamma (hbar = 1 throughout).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "HoleSpec",
    "FqcSpec",
    "DriveSpec",
    "HamiltonianMatrix",
    "build_single_level",
    "build_two_level",
    "build_adaptive",
    "adaptive_spec_for_size",
]

# Most values of one numpy array, checked before any allocation: float64
# arrays hold intp.max // 8 values, and np.linspace's temporaries refuse
# counts a little below that.
_MAX_ARRAY_POINTS = np.iinfo(np.intp).max // 16
# Most cells of one (N, v) map, checked before any axis is built: a map
# builds every cell before it runs one, about 460 default maps.
_MAX_MAP_CELLS = 10**6


@dataclass(frozen=True)
class HoleSpec:
    """Symmetric spectral hole: FQC levels with |E| < half_width are removed."""

    half_width: float

    def __post_init__(self):
        if not 0 <= self.half_width < math.inf:
            raise ConfigError(f"hole half_width must be finite and >= 0, got {self.half_width}")


@dataclass(frozen=True)
class FqcSpec:
    """Geometry of the quasi-continuum.

    n_half levels on each side of E = 0 plus the central one (2*n_half + 1
    levels for a flat spectrum).  coupling_v = 0 is the decoupled limit; the
    spacing then degenerates to 0, which is harmless because the levels no
    longer influence the dynamics.  Every value must be finite
    (ConfigError otherwise, naming the field); so must the spacing, > 0 too
    once coupling_v > 0, and the secular coupling (v / spacing)^2 (a
    ConfigError naming coupling_v).  The 2 n_half + 3 basis states of a
    driven cell must fit in a numpy array.  The collective coupling
    (2 n_half + 1) (v / spacing)^2, the square of the top secular root in
    units of the spacing, is at most 1e300, far enough from overflow for
    the root's Newton steps.
    """

    n_half: int
    coupling_v: float
    gamma_target: float = 1.0
    hole: HoleSpec | None = None

    def __post_init__(self):
        if self.n_half < 0:
            raise ConfigError(f"n_half must be >= 0, got {self.n_half}")
        if not 2 * self.n_half + 3 <= _MAX_ARRAY_POINTS:
            raise ConfigError(f"n_half {self.n_half} gives {2 * self.n_half + 3} basis states, "
                              "more than a numpy array holds")
        if not 0 <= self.coupling_v < math.inf:
            raise ConfigError(f"coupling_v must be finite and >= 0, got {self.coupling_v}")
        if not 0 < self.gamma_target < math.inf:
            raise ConfigError(f"gamma_target must be finite and > 0, got {self.gamma_target}")
        if self.hole is not None and self.coupling_v == 0:
            raise ConfigError("a spectral hole requires coupling_v > 0")
        try:  # the one spacing rule
            gap = self.gap
        except OverflowError:  # v**2
            gap = math.inf
        if not gap < math.inf or (self.coupling_v > 0 and not gap > 0):
            raise ConfigError(f"coupling_v {self.coupling_v} gives the spacing {gap}: "
                              "it must be finite and > 0")
        ratio = self.coupling_v / gap if self.coupling_v > 0 else 0.0
        if not ratio * ratio < math.inf:  # a subnormal spacing
            raise ConfigError(f"coupling_v {self.coupling_v} gives (v / spacing)^2 = inf: "
                              "it must be finite")
        collective = ratio * ratio * (2 * self.n_half + 1)
        if collective > 1e300:
            raise ConfigError(f"coupling_v {self.coupling_v} gives (2N + 1)(v / spacing)^2 = "
                              f"{collective:.3g}: it must be at most 1e300")

    @property
    def gap(self) -> float:
        """Level spacing delta = 2 pi v^2 / gamma (golden-rule inversion)."""
        return 2.0 * math.pi * self.coupling_v**2 / self.gamma_target

    @property
    def level_indices(self) -> np.ndarray:
        """Integer grid indices k of the surviving levels, ascending."""
        ks = np.arange(-self.n_half, self.n_half + 1)
        if self.hole is not None and self.hole.half_width > 0:
            ks = ks[np.abs(ks * self.gap) >= self.hole.half_width]
        return ks

    @property
    def n_levels(self) -> int:
        return int(self.level_indices.size)


@dataclass(frozen=True)
class DriveSpec:
    """Rotating-frame drive: Rabi frequency (finite, >= 0) and detuning
    (finite), in units of gamma."""

    rabi_omega0: float
    detuning_delta: float = 0.0

    def __post_init__(self):
        if not 0 <= self.rabi_omega0 < math.inf:
            raise ConfigError(f"rabi_omega0 must be finite and >= 0, got {self.rabi_omega0}")
        if not math.isfinite(self.detuning_delta):
            raise ConfigError(f"detuning_delta must be finite, got {self.detuning_delta}")


@dataclass(eq=False)
class HamiltonianMatrix:
    """Real symmetric arrowhead Hamiltonian, kept as its structure.

    Basis order is fixed: [g], e, then FQC levels ascending in energy.  The
    FQC levels are the ladder indices k (energies k*delta of `spec`), each
    coupled to |e> by v; a drive adds the g-e Rabi element and the e-e
    detuning.  The dense matrix is `entries`, built anew on every read and
    kept by nobody, for the `eigh` paths; the single-level secular path
    never reads it.
    """

    spec: FqcSpec
    drive: DriveSpec | None
    level_indices: np.ndarray
    basis_labels: tuple[str, ...]

    @property
    def entries(self) -> np.ndarray:
        """The dense (dim, dim) matrix, built on every read."""
        s, dim = self.n_system, self.dim
        h = np.zeros((dim, dim))
        if self.drive is not None:
            h[0, 1] = h[1, 0] = self.drive.rabi_omega0
            h[1, 1] = self.drive.detuning_delta
        h[s - 1, s:] = self.spec.coupling_v
        h[s:, s - 1] = self.spec.coupling_v
        h[np.arange(s, dim), np.arange(s, dim)] = self.level_indices * self.spec.gap
        return h

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        """H psi in O(dim) from the structure, without the dense matrix: g-e
        through omega0, e-e through the detuning, e-f_k through v and the
        ladder energies k*delta on the FQC diagonal."""
        s, v = self.n_system, self.spec.coupling_v
        out = np.empty_like(psi, dtype=np.result_type(psi, float))
        out[s:] = self.level_indices * self.spec.gap * psi[s:] + v * psi[s - 1]
        out[s - 1] = v * psi[s:].sum()
        if self.drive is not None:
            out[0] = self.drive.rabi_omega0 * psi[1]
            out[1] += self.drive.rabi_omega0 * psi[0] + self.drive.detuning_delta * psi[1]
        return out

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    @property
    def n_system(self) -> int:
        """Dimension of the system block (1 without a ground state, else 2)."""
        return 2 if self.basis_labels[0] == "g" else 1


def _check_band(spec: FqcSpec) -> np.ndarray:
    ks = spec.level_indices
    if spec.hole is not None:
        band_edge = spec.n_half * spec.gap
        if spec.hole.half_width > band_edge:
            raise ConfigError(
                f"hole half_width {spec.hole.half_width} exceeds the FQC band edge {band_edge}"
            )
        if ks.size == 0:
            raise ConfigError("spectral hole removed every FQC level")
    return ks


@functools.lru_cache(maxsize=64)
def _ladder(system: tuple[str, ...], ks: tuple[int, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    """The basis labels and the read-only level indices of a ladder: one of
    each for every cell that has it (a decay map holds all its cells)."""
    indices = np.array(ks, dtype=np.int64)
    indices.flags.writeable = False
    return system + tuple(f"f{k}" for k in ks), indices


def _arrowhead(spec: FqcSpec, drive: DriveSpec | None) -> HamiltonianMatrix:
    """The one constructor: system [g], e coupled to the checked ladder of spec."""
    ks = _check_band(spec)
    system = ("e",) if drive is None else ("g", "e")
    labels, ks = _ladder(system, tuple(ks.tolist()))
    return HamiltonianMatrix(spec, drive, ks, labels)


def build_single_level(spec: FqcSpec) -> HamiltonianMatrix:
    """Unstable state |e> at E = 0 equally coupled to every FQC level.

    Row/column 0 is |e>; the off-diagonal couplings are all v and the FQC
    block is diagonal with energies k*delta.
    """
    return _arrowhead(spec, None)


def build_two_level(spec: FqcSpec, drive: DriveSpec) -> HamiltonianMatrix:
    """Driven two-level system {|g>, |e>} with |e> coupled to the FQC.

    In the rotating frame the g-e coupling is the bare Rabi element omega0 and
    the e-e diagonal carries the detuning.  Only |e> talks to the FQC.
    """
    return _arrowhead(spec, drive)


def build_adaptive(spec: FqcSpec, drive: DriveSpec) -> HamiltonianMatrix:
    """Two-level system coupled to an FQC with a central spectral hole."""
    if spec.hole is None:
        raise ConfigError("build_adaptive requires a spec with a hole")
    if spec.level_indices.size < 2:
        raise ConfigError("adaptive FQC needs at least 2 surviving levels")
    return _arrowhead(spec, drive)


def adaptive_spec_for_size(
    n_fqc: int,
    coupling_v: float,
    half_width: float,
    gamma_target: float = 1.0,
) -> FqcSpec:
    """Adaptive spec with exactly n_fqc surviving levels (n_fqc even).

    The underlying flat grid is extended outward so that removing all levels
    with |k*delta| < half_width leaves n_fqc of them.  This keeps the state
    budget fixed while pushing spectral weight toward the populated sidebands.
    half_width must be finite and > 0: a zero-width hole removes nothing.
    """
    if n_fqc < 2 or n_fqc % 2:
        raise ConfigError(f"adaptive size must be a positive even integer, got {n_fqc}")
    if not 0 < half_width < math.inf:  # HoleSpec(0) removes no level: an odd count
        raise ConfigError(f"adaptive hole half_width must be finite and > 0, got {half_width}")
    gap = FqcSpec(0, coupling_v, gamma_target, HoleSpec(half_width)).gap  # v > 0 and its rule
    # first surviving level k, by the comparison level_indices makes; the
    # ceil of the rounded quotient is off by one next to a multiple of the gap
    k_min = max(1, math.ceil(half_width / gap))
    if k_min * gap < half_width:
        k_min += 1
    elif k_min > 1 and (k_min - 1) * gap >= half_width:
        k_min -= 1
    n_half = n_fqc // 2 + k_min - 1
    return FqcSpec(n_half, coupling_v, gamma_target, HoleSpec(half_width))

