"""Model dispatch (`build_model`) and parameter grids: suitability maps, size scans.

Map cells are built once, in the calling thread, and stacked: consecutive
cells of an N row with equal basis labels (`_stack_cells`).  Every stack
is one task of a thread pool, of one shape for every model: its spectra
(one batched `eigh` for two-level cells; a single-level map solves all its
closed-form spectra in one call before the pool, `evolve._ladder_stacks`),
one phase sum and one `d1` or `d2` trapezoid (fits run in the calling
thread, after the pool).  Results are aggregated by index, so the output is
bit-identical regardless of schedule or worker count.  LAPACK/BLAS and
large numpy calls release the GIL, so the threads scale; Python run per
cell holds it, so a cell does little: a structural Hamiltonian, no series.
A size scan runs its sizes one after another in the calling thread
(`size_cell`, through `propagate`): its 71 fits, 0.084 of the 0.167 s CPU
of the default scan in process (medians of 7 on 2 cores, one BLAS thread),
are about 800 model evaluations on 4001-point arrays and the Python-level
`trf` steps between them, calls too short to spend long outside the GIL,
so a second thread only adds hand-overs: two threads ran the default scan
slower than one and spent about 1.5 times its CPU time.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .errors import ConfigError, FqcsimError
from .evolve import TimeSeries, _ladder_stacks, _phase_sum, _spectra, default_grid, propagate
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
from .metrics import (_amplitude_entries, _d1_values, _d2_values, _system_entries,  # noqa: F401
                      d1, d2)
from .analysis import fit_effective_params
from .output import write_csv, write_json
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
# Peak bytes of one stack of map cells (see `_stack_cells`): enough cells to
# pay the per-stack Python glue once, few enough that a stack per thread keeps
# the map's peak memory near that of single cells (2 MiB already cost the
# default map 3% more peak RSS on two threads).
_STACK_BYTES = 3 << 19


def parallel_workers() -> int:
    """Worker count: the FQCSIM_THREADS environment variable, else the CPU count."""
    cap = os.environ.get("FQCSIM_THREADS")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        raise ConfigError(f"FQCSIM_THREADS must be an integer, got {cap!r}") from None
    return max(1, limit)


def _hole_half_width(model: str, width: float | None, omega0: float) -> float | None:
    """The hole rule: a given width always cuts a hole, and the adaptive
    model without one cuts omega0/2, which keeps the populated sidebands
    inside the surviving levels while excising the weakly populated center."""
    return omega0 / 2.0 if model == "adaptive" and width is None else width


def build_model(
    model: str,
    n_half: int,
    coupling_v: float,
    gamma: float,
    drive: DriveSpec,
    hole_half_width: float | None = None,
) -> HamiltonianMatrix:
    """The Hamiltonian of a model named in MODELS: the one place that picks
    its FqcSpec and its builder.

    The hole follows `_hole_half_width`.  `decay` goes to
    `build_single_level` (the drive is then unused), a holed two-level
    model to `build_adaptive` and any other to `build_two_level`.
    """
    if model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
    width = _hole_half_width(model, hole_half_width, drive.rabi_omega0)
    spec = FqcSpec(n_half, coupling_v, gamma, None if width is None else HoleSpec(width))
    if model == "decay":
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

    An odd size is the `rabi` model, a flat ladder of 2N+1 levels.  An even
    size is the `adaptive` model, its hole in a flat grid extended outward
    so that `size` levels survive (`adaptive_spec_for_size`, which rejects
    a hole of zero width).
    """
    variant, model, n_half, width = "flat", "rabi", (size - 1) // 2, None
    if size % 2 == 0:
        variant = model = "adaptive"
        width = _hole_half_width(model, hole_half_width, drive.rabi_omega0)
        n_half = adaptive_spec_for_size(size, coupling_v, width, gamma).n_half
    h = build_model(model, n_half, coupling_v, gamma, drive, width)
    series = propagate(h, initial_state, times)
    return variant, series, fit_effective_params(series, t_f), d2(series, ref, t_f)


def _attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # handed back to the caller
        return exc


def _run_pool(job, tasks: list) -> list:
    """Run job on every task in a pool of `parallel_workers()` threads, each
    taking the next task left (one future per thread: 1200 futures held 0.8
    MiB of a d2 map's peak); results or exceptions come back in task order."""
    results, left = [None] * len(tasks), collections.deque(enumerate(tasks))

    def worker():
        with contextlib.suppress(IndexError):  # until no task is left
            while True:
                k, task = left.popleft()
                results[k] = _attempt(job, task)

    workers = parallel_workers()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda _: worker(), range(min(workers, len(tasks)))))
    return results


def _stack_cells(n_half: int, grid_points: int, one_level: bool) -> int:
    """Cells per stack of an N row: `_STACK_BYTES` over the peak bytes of one
    cell, with phase block B = ceil(sqrt(nt)).

    A two-level cell peaks at about 16 (d (d + 5 B) + 5 nt) bytes
    (measured) for dimension d (at most 2N + 3): its `eigh` in
    `evolve._spectra` and the phase sum of its 3 projections.  A one-level
    cell's stack is only its phase sum over at most m = N + 1 roots and its
    `d1`: the tracemalloc peaks measured for m up to 151 and nt from 401 to
    8001 are within 1% of max(8 (6 m B + nt), 32 nt) for nt >= 2001 (28%
    above it at 401): the phase sum (three complex tables of m B and its
    real result) or the trapezoid (c_e, pi_e and two temporaries of nt).
    """
    block = math.isqrt(grid_points - 1) + 1
    if one_level:
        cell_bytes = max(8 * (6 * (n_half + 1) * block + grid_points), 32 * grid_points)
    else:
        dim = 2 * n_half + 3
        cell_bytes = 16 * (dim * (dim + 5 * block) + 5 * grid_points)
    return max(1, _STACK_BYTES // cell_bytes)


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
        if self.metric == "fit" and self.fixed.grid_points < 3:
            raise ConfigError("metric 'fit' needs 2 grid times other than 0: grid_points >= 3")


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
            "fixed": asdict(self.grid.fixed),
            "values": self.values.tolist(),
            "cell_errors": self.cell_errors,
            "provenance": self.provenance,
        }

    def dump_json(self, path) -> None:
        write_json(path, self.to_json())


@dataclass
class _FitCell:
    """What `fit_effective_params` reads of a fit cell's series: real pi_e only."""

    times: np.ndarray
    pi_e: np.ndarray
    drive: DriveSpec
    spec: FqcSpec


def run_sweep(grid: SweepGrid, seed: int = 0) -> SweepMap:
    """Evaluate the configured metric on every (N, v) cell of the grid.

    Every cell is built once (`build_model`).  Each pool task is a stack of
    up to `_stack_cells` consecutive built cells of one N row with equal
    basis labels: spectra and health checks (`evolve._spectra`; a `decay`
    map takes `evolve._ladder_stacks` of all its stacks before the pool), a
    phase sum and a scoring, `d1` or `d2` as one trapezoid (a single-level
    `d2` is its `d1`).  A fit holds the GIL, so the pool returns a fit
    cell's pi_e and the calling thread fits after the pool.  Every value has
    the bits a single `propagate` and metric give.  A cell whose build,
    decomposition, health check or fit fails is NaN with its own entry in
    `cell_errors` (row-major); its stack-mates keep their values.  The seed
    is only recorded in the provenance: nothing here samples randomness.
    """
    fx = grid.fixed
    times = default_grid(fx.t_f, fx.grid_points)
    drive = DriveSpec(fx.omega0, fx.detuning)
    ref = None
    if grid.metric == "d2":  # rho_gg, rho_ee and rho_ge of the reference
        ref = _system_entries(evolve_nonhermitian(NonHermitianSpec(fx.gamma, drive), "e",
                                                  times))[2]
    # each cell's Hamiltonian, then its value, _FitCell or error
    cells = [[_attempt(build_model, fx.model, n, v, fx.gamma, drive, fx.hole_half_width)
              for v in grid.v_values] for n in grid.n_values]
    stacks = []  # (i, lo, hi): built cells lo..hi-1 of row i, of one basis
    for i, row in enumerate(cells):
        size = _stack_cells(grid.n_values[i], fx.grid_points, fx.model == "decay")
        runs = itertools.groupby(range(len(row)), lambda j: getattr(row[j], "basis_labels", None))
        for labels, run in runs:
            run = list(run)
            if labels is not None:
                stacks += [(i, lo, min(lo + size, run[-1] + 1)) for lo in run[::size]]
    solved = [None] * len(stacks)
    if fx.model == "decay":  # one solve of every root before the pool (module docstring)
        solved = _ladder_stacks([cells[i][lo:hi] for i, lo, hi in stacks])

    def fit(cell):
        report = fit_effective_params(cell, fx.t_f)
        if not report.converged:
            raise FqcsimError("effective-parameter fit did not converge")
        return report.residual_norm / math.sqrt(report.grid_points)

    def job(task):
        (i, lo, hi), spectra = task
        hs = cells[i][lo:hi]  # the pool ends before any cell takes its result
        values, weights, errs, real = spectra or _spectra(hs)
        proj = _phase_sum(values, weights, times, real)
        ok = [k for k, err in enumerate(errs) if err is None]
        # the projections are sliced after stacking, so each elementwise op
        # sees the strides it sees on one series (`reduced`, `pi_e`): same bits
        if grid.metric == "fit":  # fitted in the calling thread
            scored = [_FitCell(times, TimeSeries(hs[k], times, proj[k]).pi_e, drive, hs[k].spec)
                      for k in ok]
        elif grid.metric == "d2" and hs[0].n_system == 2:
            scored = _d2_values(times, _amplitude_entries(proj[ok][..., :2]), ref, fx.t_f)[0]
        else:  # a single-level d2 is its d1
            c = proj[ok][..., hs[0].basis_labels.index("e")]
            pie = np.square(c) if np.isrealobj(c) else np.abs(c) ** 2
            scored = _d1_values(times, pie, fx.gamma, fx.t_f)[0]
        scored = iter(scored)
        return [err or next(scored) for err in errs]

    for (i, lo, hi), res in zip(stacks, _run_pool(job, list(zip(stacks, solved)))):
        cells[i][lo:hi] = res if isinstance(res, list) else [res] * (hi - lo)
    values = np.full((len(grid.n_values), len(grid.v_values)), np.nan)
    errors: list[dict] = []
    for i, j in np.ndindex(values.shape):
        cell = cells[i][j]
        if isinstance(cell, _FitCell):
            cell = _attempt(fit, cell)
        if isinstance(cell, Exception):
            errors.append({"i": i, "j": j, "error": str(cell)})
        else:
            values[i, j] = cell
    return SweepMap(grid, values, errors, provenance={"seed": seed, "package_version": __version__})


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
        # one column per row field, in field order; converged as 0 or 1
        cols = {f.name: [getattr(r, f.name) for r in self.rows] for f in fields(SizeScanRow)}
        cols["converged"] = [int(r.converged) for r in self.rows]
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
            "hole_half_width": _hole_half_width("adaptive", hole_half_width, drive.rabi_omega0),
        },
    )
