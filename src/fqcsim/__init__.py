"""fqcsim: emulate non-Hermitian quantum dynamics with finite quasi-continua.

A small research code for studying how well a finite set of equidistant
discrete levels (an FQC) reproduces irreversible decay and damped Rabi
dynamics, including Zeno-time and revival diagnostics, trace-distance
fidelity maps, a sampled non-Markovianity measure, and adaptive FQCs with a
central spectral hole.  Natural units: hbar = 1 and decay rate gamma = 1
unless configured otherwise.
"""

__version__ = "0.1.0"

from .errors import ConfigError, FqcsimError, NumericalError
from .hamiltonian import (
    DriveSpec,
    FqcSpec,
    HamiltonianMatrix,
    HoleSpec,
    adaptive_spec_for_size,
    build_adaptive,
    build_single_level,
    build_two_level,
)
from .evolve import (
    DensitySeries,
    TimeSeries,
    default_grid,
    diagonalize,
    propagate,
    source_term_series,
)
from .output import write_csv
from .reference import (
    NonHermitianSpec,
    decay_single,
    effective_hamiltonian,
    evolve_nonhermitian,
)
from .metrics import MetricResult, NonMarkovianityResult, d1, d2, nonmarkovianity
from .analysis import (
    FitReport,
    SidebandSpectrum,
    critical_coupling,
    fit_effective_params,
    n_max,
    revival_time,
    revival_time_from_spectrum,
    sideband_spectrum,
    zeno_time,
)
from .sweep import SweepFixed, SweepGrid, SweepMap, run_size_scan, run_sweep

__all__ = [
    "ConfigError", "FqcsimError", "NumericalError",
    "DriveSpec", "FqcSpec", "HamiltonianMatrix", "HoleSpec", "adaptive_spec_for_size",
    "build_adaptive", "build_single_level", "build_two_level",
    "DensitySeries", "TimeSeries", "default_grid", "diagonalize", "propagate",
    "source_term_series", "write_csv",
    "NonHermitianSpec", "decay_single", "effective_hamiltonian", "evolve_nonhermitian",
    "MetricResult", "NonMarkovianityResult", "d1", "d2", "nonmarkovianity",
    "FitReport", "SidebandSpectrum", "critical_coupling", "fit_effective_params", "n_max",
    "revival_time", "revival_time_from_spectrum", "sideband_spectrum", "zeno_time",
    "SweepFixed", "SweepGrid", "SweepMap", "run_size_scan", "run_sweep",
]
