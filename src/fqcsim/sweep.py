"""Parameter-grid orchestration: suitability maps and FQC size scans.

Cells run as an independent task pool; results are aggregated by index, so
the output is bit-identical regardless of schedule or worker count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, FqcsimError
from .evolve import default_grid, propagate, write_csv
from .hamiltonian import (
    DriveSpec,
    FqcSpec,
    HoleSpec,
    adaptive_spec_for_size,
    build_adaptive,
    build_single_level,
    build_two_level,
)
from .metrics import d1, d2
from .analysis import fit_effective_params
from .reference import NonHermitianSpec, evolve_nonhermitian

__all__ = [
    "SweepFixed",
    "SweepGrid",
    "SweepMap",
    "SizeScanRow",
    "SizeScanResult",
    "parallel_workers",
    "run_sweep",
    "run_size_scan",
]

MODELS = ("single", "two-level", "adaptive")
METRICS = ("d1", "d2", "fit")


def parallel_workers(requested: int | None = None) -> int:
    """Worker count, capped by the FQCSIM_THREADS environment variable."""
    cap = os.environ.get("FQCSIM_THREADS")
    limit = int(cap) if cap else (os.cpu_count() or 1)
    return max(1, limit if requested is None else min(requested, limit))


def _run_pool(job, tasks: list, max_workers: int | None) -> list:
    """Run job on every task in a thread pool; each result, or the exception
    it raised, comes back in task order."""

    def safe(task):
        try:
            return job(task)
        except Exception as exc:  # handed back to the caller
            return exc

    with ThreadPoolExecutor(max_workers=parallel_workers(max_workers)) as pool:
        return list(pool.map(safe, tasks))


@dataclass(frozen=True)
class SweepFixed:
    """Parameters held constant across the grid."""

    t_f: float = 10.0
    omega0: float = 0.0
    detuning: float = 0.0
    model: str = "single"
    gamma: float = 1.0
    grid_points: int = 2001
    hole_half_width: float | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.t_f <= 0:
            raise ConfigError("t_f must be > 0")


@dataclass(frozen=True)
class SweepGrid:
    n_values: tuple[int, ...]
    v_values: tuple[float, ...]
    fixed: SweepFixed = SweepFixed()
    metric: str = "d1"

    def __post_init__(self):
        if not self.n_values or not self.v_values:
            raise ConfigError("sweep axes must be non-empty")
        if any(v <= 0 for v in self.v_values):
            raise ConfigError("v_values must be positive")
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")


@dataclass(eq=False)
class SweepMap:
    grid: SweepGrid
    values: np.ndarray
    cell_errors: list[dict] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def to_csv(self, path, extra_header: tuple[str, ...] = ()) -> None:
        nn, nv = len(self.grid.n_values), len(self.grid.v_values)
        cols = {
            "n": np.repeat(np.asarray(self.grid.n_values), nv),
            "v": np.tile(np.asarray(self.grid.v_values, dtype=float), nn),
            "value": np.ravel(self.values),
        }
        write_csv(path, cols, extra_header)

    def to_json(self) -> dict:
        return {
            "n_values": list(self.grid.n_values),
            "v_values": list(self.grid.v_values),
            "metric": self.grid.metric,
            "fixed": {
                "t_f": self.grid.fixed.t_f,
                "omega0": self.grid.fixed.omega0,
                "detuning": self.grid.fixed.detuning,
                "model": self.grid.fixed.model,
                "gamma": self.grid.fixed.gamma,
                "grid_points": self.grid.fixed.grid_points,
                "hole_half_width": self.grid.fixed.hole_half_width,
            },
            "values": self.values.tolist(),
            "cell_errors": self.cell_errors,
            "provenance": self.provenance,
        }

    def dump_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)


def _run_cell(n: int, v: float, fx: SweepFixed, metric: str) -> float:
    times = default_grid(fx.t_f, fx.grid_points)
    drive = DriveSpec(fx.omega0, fx.detuning)
    if fx.model == "single":
        h = build_single_level(FqcSpec(n, v, fx.gamma))
    elif fx.model == "two-level":
        h = build_two_level(FqcSpec(n, v, fx.gamma), drive)
    else:
        hole = HoleSpec(
            fx.hole_half_width if fx.hole_half_width is not None else fx.omega0 / 2.0
        )
        h = build_adaptive(FqcSpec(n, v, fx.gamma, hole), drive)
    series = propagate(h, "e", times)
    if metric == "d1":
        return d1(series, fx.gamma, fx.t_f).value
    if metric == "d2":
        ref = evolve_nonhermitian(
            NonHermitianSpec(fx.gamma, drive), np.array([0.0, 1.0]), times
        )
        if series.system_dim == 1:
            return d1(series, fx.gamma, fx.t_f).value
        return d2(series, ref, fx.t_f).value
    report = fit_effective_params(series, fx.t_f)
    if not report.converged:
        raise FqcsimError("effective-parameter fit did not converge")
    return report.residual_norm / math.sqrt(report.grid_points)


def run_sweep(
    grid: SweepGrid,
    max_workers: int | None = None,
    seed: int = 0,
) -> SweepMap:
    """Evaluate the configured metric on every (N, v) cell of the grid.

    Individual cell failures are recorded per cell (value NaN) and do not
    abort the map.  Nothing here samples randomness; the seed is recorded in
    the provenance for uniformity with sampled metrics.
    """
    nv, nn = len(grid.v_values), len(grid.n_values)
    values = np.full((nn, nv), np.nan)
    errors: list[dict] = []

    def job(idx):
        i, j = idx
        return _run_cell(grid.n_values[i], grid.v_values[j], grid.fixed, grid.metric)

    indices = [(i, j) for i in range(nn) for j in range(nv)]
    results = _run_pool(job, indices, max_workers)
    for (i, j), res in zip(indices, results):
        if isinstance(res, Exception):
            errors.append({"i": i, "j": j, "error": str(res)})
        else:
            values[i, j] = res

    return SweepMap(
        grid,
        values,
        errors,
        provenance={"seed": seed, "package_version": __version__},
    )


@dataclass
class SizeScanRow:
    variant: str
    n_fqc: int
    omega_eff: float
    gamma_eff: float
    d2: float
    converged: bool


@dataclass
class SizeScanResult:
    rows: list[SizeScanRow]
    provenance: dict = field(default_factory=dict)

    def to_csv(self, path, extra_header: tuple[str, ...] = ()) -> None:
        cols = {
            "variant": [r.variant for r in self.rows],
            "n_fqc": [r.n_fqc for r in self.rows],
            "omega_eff": [r.omega_eff for r in self.rows],
            "gamma_eff": [r.gamma_eff for r in self.rows],
            "d2": [r.d2 for r in self.rows],
            "converged": [int(r.converged) for r in self.rows],
        }
        write_csv(path, cols, extra_header)

    def to_json(self) -> dict:
        return {
            "rows": [r.__dict__ for r in self.rows],
            "provenance": self.provenance,
        }


def run_size_scan(
    sizes: list[int],
    drive: DriveSpec,
    coupling_v: float = 0.3,
    gamma: float = 1.0,
    t_f: float = 16.0,
    grid_points: int = 4001,
    hole_half_width: float | None = None,
    max_workers: int | None = None,
) -> SizeScanResult:
    """Effective (omega, gamma) fits and mean trace distance versus FQC size.

    Flat quasi-continua have odd sizes 2N+1 and adaptive ones even sizes 2N
    (symmetric with the central levels removed); each requested size is
    evaluated for every variant of matching parity.  The default hole half
    width is omega0/2, which keeps the populated sidebands inside the
    surviving levels while excising the weakly populated center.
    """
    times = default_grid(t_f, grid_points)
    ref = evolve_nonhermitian(
        NonHermitianSpec(gamma, drive), np.array([0.0, 1.0]), times
    )
    half_width = hole_half_width if hole_half_width is not None else drive.rabi_omega0 / 2.0

    tasks = [("flat" if s % 2 else "adaptive", s) for s in sizes]

    def job(task):
        variant, s = task
        if variant == "flat":
            spec = FqcSpec((s - 1) // 2, coupling_v, gamma)
        else:
            spec = adaptive_spec_for_size(s, coupling_v, half_width, gamma)
        h = build_two_level(spec, drive)
        series = propagate(h, "e", times)
        fit = fit_effective_params(series, t_f)
        dist = d2(series, ref, t_f).value
        return SizeScanRow(
            variant, s,
            fit.params.get("omega_eff", math.nan),
            fit.params.get("gamma_eff", math.nan),
            dist, fit.converged,
        )

    rows = _run_pool(job, tasks, max_workers)
    failed = next((r for r in rows if isinstance(r, Exception)), None)
    if failed is not None:
        raise failed
    return SizeScanResult(
        rows,
        provenance={
            "package_version": __version__,
            "coupling_v": coupling_v,
            "gamma": gamma,
            "t_f": t_f,
            "omega0": drive.rabi_omega0,
            "hole_half_width": half_width,
        },
    )
