"""Model dispatch (`build_model`) and parameter grids: suitability maps, size scans.

Map tasks run in a thread pool; results are aggregated by index, so the
output is bit-identical regardless of schedule or worker count.  Every task
runs one body for every model: the spectra of its cells (`evolve._spectra`:
one values-only SVD and secular pass for single-level cells, one batched
`eigh` of H for two-level ones), then one phase sum and one scoring per
stack (one `d1` or `d2` trapezoid over all its cells; only fits run cell by
cell).  A task of the two-level models is one stack of cells of an N row; a
task of the single-level `decay` model is a whole N row, with one secular
pass and phase sums in stacks.  That work runs in LAPACK/BLAS and numpy
with the GIL released, which is what lets the threads scale, as long as
each numpy call is large: on 2 cores, the secular maths in stacks of 13 or
14 cells took 0.55-0.81 s of the default map on two threads against
0.36-0.43 s in rows.  Python run per cell holds the GIL and so caps the
second thread (a dense build, label formatting, energy variance and `d1`
per cell did, at about a third of the map), so a cell does little of it: a
structural Hamiltonian with cached labels and no TimeSeries unless fitted.
A size scan runs its sizes one after another in the calling thread
(`size_cell`, through `propagate`): most of its time is the Python-level
iteration of the fits, which holds the GIL, so a second thread only adds
hand-overs: on 2 cores, two threads ran the default scan slower than one
and spent about 1.5 times its CPU time.
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
from .evolve import TimeSeries, _outer, _phase_sum, _spectra, default_grid, propagate, write_csv
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
# perfbench/tracing.py wraps d1 at this module too, so it stays imported
from .metrics import _d1_values, _d2_values, d1, d2  # noqa: F401
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
# Peak bytes of one stack of map cells (see `_stack_cells`, and `_row_cells`
# for the secular pass of a decay row): enough cells to pay the per-stack
# Python glue once, few enough that a stack per thread keeps the map's peak
# memory near that of single cells (2 MiB already cost the default map 3%
# more peak RSS on two threads).
_STACK_BYTES = 3 << 19


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


def _attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # handed back to the caller
        return exc


def _run_pool(job, tasks: list, max_workers: int | None) -> list:
    """Run job on every task in a thread pool; each result, or the exception
    it raised, comes back in task order."""
    with ThreadPoolExecutor(max_workers=parallel_workers(max_workers)) as pool:
        return list(pool.map(lambda task: _attempt(job, task), tasks))


def _stack_cells(n_half: int, grid_points: int, one_level: bool) -> int:
    """Cells per stack of an N row: `_STACK_BYTES` over the peak bytes of one
    cell, with phase block B = ceil(sqrt(nt)).

    A two-level cell peaks at about 16 (d (d + 5 B) + 5 nt) bytes
    (measured) for dimension d (at most 2N + 3): its `eigh` in
    `evolve._spectra` and the phase sum of its 3 projections.  A one-level
    cell's stack is only its phase sum over the m = N + 1 values of
    `_single_level_weights` and its `d1`: the tracemalloc peaks measured
    for m up to 151 and nt from 401 to 8001 are within 12% of
    max(8 (6 m B + nt), 46 nt) for nt >= 2001 (20% at 401): the phase sum
    (three complex tables of m B and its real result) or the trapezoid.
    """
    block = math.isqrt(grid_points - 1) + 1
    if one_level:
        cell_bytes = max(8 * (6 * (n_half + 1) * block + grid_points), 46 * grid_points)
    else:
        dim = 2 * n_half + 3
        cell_bytes = 16 * (dim * (dim + 5 * block) + 5 * grid_points)
    return max(1, _STACK_BYTES // cell_bytes)


def _row_cells(n_half: int, count: int) -> int:
    """Cells per task of a `decay` row of `count` cells: the whole row, or
    equal parts of it if the two (cells, m, m) arrays of its secular pass
    (m = N + 1, `evolve._secular_roots`) would outgrow `_STACK_BYTES`."""
    parts = -(-count * 16 * (n_half + 1) ** 2 // _STACK_BYTES)
    return -(-count // parts)


@dataclass(frozen=True)
class SweepFixed:
    """Parameters held constant across the grid.

    Every cell of a `model` ("decay", "rabi" or "adaptive") is built by
    `build_model`, so a given `hole_half_width` holes every model.  `gamma`
    must be finite and > 0 and a given `hole_half_width` finite and >= 0
    (ConfigError here), and `run_sweep` checks `t_f` and `grid_points`
    (`default_grid`) and the drive (`DriveSpec`), all before any cell runs.
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
        if not 0 < self.gamma < math.inf:
            raise ConfigError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.hole_half_width is not None:
            HoleSpec(self.hole_half_width)


@dataclass(frozen=True)
class SweepGrid:
    n_values: tuple[int, ...]
    v_values: tuple[float, ...]
    fixed: SweepFixed = SweepFixed()
    metric: str = "d1"

    def __post_init__(self):
        if not self.n_values or not self.v_values:
            raise ConfigError("sweep axes must be non-empty")
        if any(n < 0 for n in self.n_values):
            raise ConfigError("n_values must be >= 0")
        if not all(0 < v < math.inf for v in self.v_values):
            raise ConfigError("v_values must be finite and positive")
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.metric == "fit" and self.fixed.model == "decay":
            raise ConfigError("metric 'fit' needs a driven model ('rabi' or 'adaptive'), "
                              "got model 'decay'")


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

    Each pool task is consecutive cells of one N row, and its cells are
    built by `build_model`.  A `decay` task is the whole row (`_row_cells`
    splits it only where its secular pass would outgrow `_STACK_BYTES`);
    any other task is a stack of as many cells as `_STACK_BYTES` admits at
    that N (`_stack_cells`).  Each group of equal basis labels gets its
    spectra and health checks at once (`evolve._spectra`), then a phase
    sum and a scoring per stack of `_stack_cells`: `d1` or `d2` as one
    trapezoid (a single-level `d2` is its `d1`), a fit cell by cell.  Every
    value has the bits a single `propagate` and metric give.  Individual
    cell failures are recorded per cell (value NaN) and do not abort the
    map: a cell whose build, decomposition, health check or fit fails keeps
    its own error and leaves its stack-mates' values alone.  Nothing here
    samples randomness; the seed is recorded in the provenance for
    uniformity with sampled metrics.
    """
    fx = grid.fixed
    times = default_grid(fx.t_f, fx.grid_points)
    drive = DriveSpec(fx.omega0, fx.detuning)
    ref_rho = None
    if grid.metric == "d2":
        ref_rho = evolve_nonhermitian(NonHermitianSpec(fx.gamma, drive), "e", times).rho
    nv, nn = len(grid.v_values), len(grid.n_values)
    values = np.full((nn, nv), np.nan)
    errors: list[dict] = []

    def build(i, j):
        return build_model(grid.n_values[i], grid.v_values[j], fx.gamma, drive,
                           adaptive=fx.model == "adaptive", hole_half_width=fx.hole_half_width,
                           single_level=fx.model == "decay")

    def fit(series):
        report = fit_effective_params(series, fx.t_f)
        if not report.converged:
            raise FqcsimError("effective-parameter fit did not converge")
        return report.residual_norm / math.sqrt(report.grid_points)

    def score(hs: list, proj: np.ndarray, errs: list) -> list:
        """The values of a stack of cells from their projections proj
        (s, nt, r): a failed cell keeps its error and is not scored."""
        ok = [k for k, err in enumerate(errs) if err is None]
        # the projections are sliced after stacking, so each elementwise op
        # sees the strides it sees on one series (`reduced`, `pi_e`): same bits
        if grid.metric == "fit":
            scored = [_attempt(fit, TimeSeries(hs[k], times, proj[k])) for k in ok]
        elif not ok:
            scored = []
        elif grid.metric == "d2" and hs[0].n_system == 2:
            scored = _d2_values(times, _outer(proj[ok][..., :2]), ref_rho, fx.t_f)[0].tolist()
        else:  # a single-level d2 is its d1
            c = proj[ok][..., hs[0].basis_labels.index("e")]
            pie = np.square(c) if np.isrealobj(c) else np.abs(c) ** 2
            scored = _d1_values(times, pie, fx.gamma, fx.t_f)[0].tolist()
        scored = iter(scored)
        return [err or next(scored) for err in errs]

    def job(cells):
        results, groups = {}, {}
        for idx in cells:
            h = results[idx] = _attempt(build, *idx)
            if not isinstance(h, Exception):
                groups.setdefault(h.basis_labels, []).append(idx)
        for group in groups.values():
            hs = [results[idx] for idx in group]
            values, weights, errs, real = _spectra(hs)
            size = _stack_cells(hs[0].spec.n_half, fx.grid_points, hs[0].n_system == 1)
            for lo in range(0, len(hs), size):
                proj = _phase_sum(values[lo:lo + size], weights[lo:lo + size], times, real)
                results.update(zip(group[lo:lo + size], score(
                    hs[lo:lo + size], proj, errs[lo:lo + size])))
        return [results[idx] for idx in cells]

    chunks = []
    for i, n in enumerate(grid.n_values):
        if fx.model == "decay":
            size = _row_cells(n, nv)
        else:
            size = _stack_cells(n, fx.grid_points, False)
        chunks += [[(i, j) for j in range(lo, min(lo + size, nv))] for lo in range(0, nv, size)]
    for cells, res in zip(chunks, _run_pool(job, chunks, max_workers)):
        for (i, j), cell in zip(cells, res if isinstance(res, list) else [res] * len(cells)):
            if isinstance(cell, Exception):
                errors.append({"i": i, "j": j, "error": str(cell)})
            else:
                values[i, j] = cell

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
) -> SizeScanResult:
    """Effective (omega, gamma) fits and mean trace distance versus FQC size.

    Each size is one `size_cell`: odd sizes are flat quasi-continua of 2N+1
    levels, even sizes adaptive ones (symmetric, with the central levels
    removed) whose hole follows the adaptive model's rule of `build_model`.
    The sizes run in order in the calling thread, whatever FQCSIM_THREADS
    says: a scan's time is mostly GIL-bound fitting, which threads slow
    down (see the module docstring).  The first size that fails raises its
    exception; no partial result is returned.
    """
    if not sizes:
        raise ConfigError("a size scan needs at least one size")
    times = default_grid(t_f, grid_points)
    ref = evolve_nonhermitian(NonHermitianSpec(gamma, drive), "e", times)

    rows = []
    for s in sizes:
        variant, _, fit, dist = size_cell(
            s, drive, coupling_v, gamma, hole_half_width, times, ref, t_f
        )
        rows.append(SizeScanRow(
            variant, s,
            fit.params.get("omega_eff", math.nan),
            fit.params.get("gamma_eff", math.nan),
            dist.value, fit.converged,
        ))
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
