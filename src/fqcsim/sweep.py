"""Model dispatch (`build_model`) and parameter grids: suitability maps, size scans.

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
    HamiltonianMatrix,
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
    "build_model",
    "size_cell",
    "SweepFixed",
    "SweepGrid",
    "SweepMap",
    "SizeScanRow",
    "SizeScanResult",
    "parallel_workers",
    "run_sweep",
    "run_size_scan",
]

MODELS = ("decay", "rabi", "adaptive")
METRICS = ("d1", "d2", "fit")


def parallel_workers(requested: int | None = None) -> int:
    """Worker count, capped by the FQCSIM_THREADS environment variable."""
    cap = os.environ.get("FQCSIM_THREADS")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        raise ConfigError(f"FQCSIM_THREADS must be an integer, got {cap!r}") from None
    return max(1, limit if requested is None else min(requested, limit))


def _hole_half_width(adaptive: bool, width: float | None, omega0: float) -> float | None:
    """The hole rule: a given width always cuts a hole, and an adaptive model
    without one cuts omega0/2, which keeps the populated sidebands inside the
    surviving levels while excising the weakly populated center."""
    return omega0 / 2.0 if adaptive and width is None else width


def build_model(
    n_half: int,
    coupling_v: float,
    gamma: float,
    drive: DriveSpec,
    adaptive: bool = False,
    hole_half_width: float | None = None,
    single_level: bool = False,
) -> HamiltonianMatrix:
    """The Hamiltonian of a model: the one place that picks its FqcSpec and
    its builder.

    The hole follows `_hole_half_width`: a given width always cuts one, and
    an adaptive model without one gets the default width.  A single-level
    model goes to `build_single_level` (the drive then only sets that
    default), a holed two-level one to `build_adaptive` and any other to
    `build_two_level`.
    """
    width = _hole_half_width(adaptive, hole_half_width, drive.rabi_omega0)
    spec = FqcSpec(n_half, coupling_v, gamma, None if width is None else HoleSpec(width))
    if single_level:
        return build_single_level(spec)
    if spec.hole is not None:
        return build_adaptive(spec, drive)
    return build_two_level(spec, drive)


def size_cell(
    size: int,
    drive: DriveSpec,
    coupling_v: float,
    gamma: float,
    hole_half_width: float | None,
    times: np.ndarray,
    ref,
    t_f: float,
    initial_state: str = "e",
):
    """One cell of a size scan: (variant, series, fit report, d2 result).

    An odd size is a flat ladder of 2N+1 levels.  An even size is adaptive:
    the hole of an adaptive model, in a flat grid extended outward so that
    `size` levels survive (`adaptive_spec_for_size`, which rejects a hole
    of zero width).
    """
    variant, n_half, width = "flat", (size - 1) // 2, None
    if size % 2 == 0:
        variant = "adaptive"
        width = _hole_half_width(True, hole_half_width, drive.rabi_omega0)
        n_half = adaptive_spec_for_size(size, coupling_v, width, gamma).n_half
    h = build_model(n_half, coupling_v, gamma, drive, hole_half_width=width)
    series = propagate(h, initial_state, times)
    return variant, series, fit_effective_params(series, t_f), d2(series, ref, t_f)


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
    """Parameters held constant across the grid.

    Every cell of a `model` ("decay", "rabi" or "adaptive") is built by
    `build_model`, so a given `hole_half_width` holes every model.  `run_sweep`
    checks `t_f` and `grid_points` (`default_grid`) before any cell runs.
    """

    t_f: float = 10.0
    omega0: float = 0.0
    detuning: float = 0.0
    model: str = "decay"
    gamma: float = 1.0
    grid_points: int = 2001
    hole_half_width: float | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")


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
    fx = grid.fixed
    times = default_grid(fx.t_f, fx.grid_points)
    drive = DriveSpec(fx.omega0, fx.detuning)
    ref = None
    if grid.metric == "d2":
        ref = evolve_nonhermitian(NonHermitianSpec(fx.gamma, drive), "e", times)
    nv, nn = len(grid.v_values), len(grid.n_values)
    values = np.full((nn, nv), np.nan)
    errors: list[dict] = []

    def job(idx):
        i, j = idx
        h = build_model(grid.n_values[i], grid.v_values[j], fx.gamma, drive,
                        adaptive=fx.model == "adaptive", hole_half_width=fx.hole_half_width,
                        single_level=fx.model == "decay")
        series = propagate(h, "e", times)
        if grid.metric == "d2" and series.system_dim == 2:
            return d2(series, ref, fx.t_f).value
        if grid.metric != "fit":  # d1, which is also d2 of a one-level model
            return d1(series, fx.gamma, fx.t_f).value
        report = fit_effective_params(series, fx.t_f)
        if not report.converged:
            raise FqcsimError("effective-parameter fit did not converge")
        return report.residual_norm / math.sqrt(report.grid_points)

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

    Each size is one `size_cell`: odd sizes are flat quasi-continua of 2N+1
    levels, even sizes adaptive ones (symmetric, with the central levels
    removed) whose hole follows the adaptive model's rule of `build_model`.
    """
    times = default_grid(t_f, grid_points)
    ref = evolve_nonhermitian(NonHermitianSpec(gamma, drive), "e", times)

    def job(s):
        variant, _, fit, dist = size_cell(
            s, drive, coupling_v, gamma, hole_half_width, times, ref, t_f
        )
        return SizeScanRow(
            variant, s,
            fit.params.get("omega_eff", math.nan),
            fit.params.get("gamma_eff", math.nan),
            dist.value, fit.converged,
        )

    rows = _run_pool(job, sizes, max_workers)
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
            "hole_half_width": _hole_half_width(True, hole_half_width, drive.rabi_omega0),
        },
    )
