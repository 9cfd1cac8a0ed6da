"""Batch command-line interface.

Every output file embeds the fully resolved configuration (JSON blob in a
leading comment line for CSV, a "config" key for JSON), so any result can be
reproduced bit-exactly by re-running from the file itself.  Exit codes:
0 success, 2 configuration error, 3 numerical failure (a model too large
for memory included) or any other package error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    fit_effective_params,
    n_max,
    revival_time,
    sideband_spectrum,
    zeno_time,
)
from .errors import ConfigError, FqcsimError, NumericalError
from .evolve import default_grid, propagate, source_term_series
from .hamiltonian import _MAX_ARRAY_POINTS, _MAX_MAP_CELLS, DriveSpec, HamiltonianMatrix
# perfbench/tracing.py wraps the builders at this module too, so they stay imported
from .hamiltonian import build_adaptive, build_single_level, build_two_level  # noqa: F401
from .metrics import d1, d2, nonmarkovianity
from .output import config_header, write_csv
# the JSON writer under the name perfbench/tracing.py wraps, called through this global
from .output import write_json as _dump_json
from .reference import NonHermitianSpec, decay_single, evolve_nonhermitian
from .sweep import (MODELS, SweepFixed, SweepGrid, build_model, run_size_scan, run_sweep,
                    size_cell)

# the axes of a map that does not give them: N 2..40 and v 0.05..0.60 by 0.01
_DEFAULT_AXES = {"n_values": range(2, 41),
                 "v_values": tuple(round(0.05 + 0.01 * i, 4) for i in range(56))}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@dataclass
class RunConfig:
    """Resolved run configuration; unknown keys are rejected."""

    model: str = "decay"
    n_half: int = 15
    coupling_v: float = 0.3
    gamma: float = 1.0
    omega0: float = 0.0
    detuning: float = 0.0
    hole_half_width: float | None = None
    t_f: float = 10.0
    grid_points: int = 2001
    initial_state: str = "e"
    seed: int = 0
    count: int = 64
    metric: str = "d1"
    n_values: list[int] | None = None
    v_values: list[float] | None = None
    sizes: list[int] | None = None
    flat_size: int = 35
    adaptive_size: int = 34

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        fields = dataclasses.fields(cls)
        unknown = set(data) - {f.name for f in fields}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        for f in fields:
            if f.name in data and not _has_type(data[f.name], hints[f.name]):
                raise ConfigError(f"config key {f.name!r} must be {f.type}, "
                                  f"got {data[f.name]!r}")
        cfg = cls(**data)
        if cfg.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {cfg.model!r}")
        if cfg.grid_points < 2:
            raise ConfigError("grid_points must be >= 2")
        if not 0 < cfg.t_f < float("inf"):
            raise ConfigError("t_f must be finite and > 0")
        return cfg


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a RunConfig annotation: a bool is not an
    int, an int is a float, list elements are checked and None only fits an
    Optional field."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(x, args[0]) for x in value)
    if args:  # a union: X | None
        return any(_has_type(value, a) for a in args)
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and not isinstance(value, bool)


def _drive(cfg: RunConfig) -> DriveSpec:
    return DriveSpec(cfg.omega0, cfg.detuning)


def _model(cfg: RunConfig) -> HamiltonianMatrix:
    return build_model(cfg.model, cfg.n_half, cfg.coupling_v, cfg.gamma, _drive(cfg),
                       cfg.hole_half_width)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_decay(cfg: RunConfig, out: Path) -> None:
    h = _model(cfg)
    times = default_grid(cfg.t_f, cfg.grid_points)
    series = propagate(h, cfg.initial_state, times)
    # the start state's exact population of |e>, not the computed pi_e[0]
    ref = decay_single(cfg.gamma, 1.0 if cfg.initial_state == "e" else 0.0, times)
    write_csv(out / "timeseries.csv",
              {"t": times, "pi_e": series.pi_e, "pi_ref": ref.pi_e}, config_header(cfg))

    metric = d1(series, cfg.gamma, cfg.t_f)
    try:
        zeno = zeno_time(series).to_json()
    except ConfigError as exc:
        zeno = {"converged": False, "notes": str(exc), "params": {}}
    payload = {
        "d1": metric.to_json(),
        "zeno": zeno,
        "revival": revival_time(series).to_json(),
    }
    _dump_json(out / "metrics.json", payload, cfg)


def _two_level_run(cfg: RunConfig):
    h = _model(cfg)
    times = default_grid(cfg.t_f, cfg.grid_points)
    ref = evolve_nonhermitian(NonHermitianSpec(cfg.gamma, h.drive), cfg.initial_state, times)
    series = propagate(h, cfg.initial_state, times)
    return h, times, series, ref


def cmd_rabi(cfg: RunConfig, out: Path, with_sidebands: bool, with_markov: bool) -> None:
    h, times, series, ref = _two_level_run(cfg)
    # every result first: a rejected sideband or markov run writes no file
    payload = {"d2": d2(series, ref, cfg.t_f).to_json()}
    if with_sidebands:
        sb = sideband_spectrum(h.spec, h.drive, t_f=cfg.t_f)
        payload["n_max"] = n_max(h.spec, h.drive)
    if with_markov:
        mk = nonmarkovianity(h, cfg.t_f, count=cfg.count, seed=cfg.seed,
                             grid_points=cfg.grid_points)
        payload["nonmarkovianity"] = mk.to_json()

    header = config_header(cfg)
    series.to_csv(out / "timeseries.csv", extra_header=header)
    ref.to_csv(out / "reference.csv", extra_header=header)
    sources = source_term_series(series)
    write_csv(out / "source_terms.csv", {
        "t": times,
        "s_ge_re": sources[:, 0, 1].real,
        "s_ge_im": sources[:, 0, 1].imag,
        "s_ee_re": sources[:, 1, 1].real,
        "s_ee_im": sources[:, 1, 1].imag,
    }, header)
    if with_sidebands:
        sb.to_csv(out / "sidebands.csv", extra_header=header)
    if with_markov:
        mk.to_csv(out / "sigma.csv", extra_header=header)
    _dump_json(out / "metrics.json", payload, cfg)


def cmd_sidebands(cfg: RunConfig, out: Path) -> None:
    if cfg.initial_state != "e":  # the atom always starts in |g>
        raise ConfigError(f"sidebands starts from g, got initial_state {cfg.initial_state!r}")
    h = _model(cfg)
    # both results first: a rejected spectrum writes no file
    sb = sideband_spectrum(h.spec, h.drive, t_f=cfg.t_f)
    peak = n_max(h.spec, h.drive)
    sb.to_csv(out / "sidebands.csv", extra_header=config_header(cfg))
    _dump_json(out / "sidebands.json", {"n_max": peak}, cfg)


def cmd_markov(cfg: RunConfig, out: Path) -> None:
    if cfg.initial_state != "e":
        raise ConfigError(f"markov samples its own pairs, got initial_state {cfg.initial_state!r}")
    mk = nonmarkovianity(_model(cfg), cfg.t_f, count=cfg.count, seed=cfg.seed,
                         grid_points=cfg.grid_points)
    mk.to_csv(out / "sigma.csv", extra_header=config_header(cfg))
    _dump_json(out / "markov.json", {"nonmarkovianity": mk.to_json()}, cfg)


def cmd_fit(cfg: RunConfig, out: Path) -> None:
    _, _, series, ref = _two_level_run(cfg)
    report = fit_effective_params(series, cfg.t_f)
    payload = {
        "fit": report.to_json(),
        "d2": d2(series, ref, cfg.t_f).to_json(),
    }
    _dump_json(out / "fit.json", payload, cfg)


def cmd_sweep(cfg: RunConfig, out: Path, size_scan: bool, normalize: bool = False) -> None:
    # every cell, and the d2 reference, starts in |e>
    if cfg.initial_state != "e":
        raise ConfigError(f"sweep always starts from e, got initial_state {cfg.initial_state!r}")
    if size_scan:
        sizes = list(range(10, 81)) if cfg.sizes is None else cfg.sizes
        scan = run_size_scan(
            sizes,
            _drive(cfg),
            coupling_v=cfg.coupling_v,
            gamma=cfg.gamma,
            t_f=cfg.t_f,
            grid_points=cfg.grid_points,
            hole_half_width=cfg.hole_half_width,
        )
        scan.to_csv(out / "size_scan.csv", extra_header=config_header(cfg))
        _dump_json(out / "size_scan.json", scan.to_json(), cfg)
        return
    grid = SweepGrid(
        tuple(_DEFAULT_AXES["n_values"] if cfg.n_values is None else cfg.n_values),
        tuple(_DEFAULT_AXES["v_values"] if cfg.v_values is None else cfg.v_values),
        SweepFixed(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(SweepFixed)}),
        cfg.metric,
    )
    result = run_sweep(grid, seed=cfg.seed)
    if normalize:
        peak = np.nanmax(result.values)
        if peak > 0:
            result.values = result.values / peak
        result.provenance["normalized_to_max"] = float(peak)
    result.to_csv(out / "map.csv", extra_header=config_header(cfg))
    _dump_json(out / "map.json", result.to_json(), cfg)
    if len(result.cell_errors) == result.values.size:  # the files keep every cell's error
        raise FqcsimError("no cell of the map was scored")


def cmd_adaptive_compare(cfg: RunConfig, out: Path) -> None:
    if cfg.flat_size < 1 or cfg.flat_size % 2 == 0:
        raise ConfigError(f"flat_size must be a positive odd integer, got {cfg.flat_size}")
    if cfg.adaptive_size < 2 or cfg.adaptive_size % 2:
        raise ConfigError(f"adaptive size must be a positive even integer, got {cfg.adaptive_size}")
    drive = _drive(cfg)
    times = default_grid(cfg.t_f, cfg.grid_points)
    header = config_header(cfg)
    ref = evolve_nonhermitian(NonHermitianSpec(cfg.gamma, drive), cfg.initial_state, times)
    # both sizes first: a rejected size writes no file
    cells = [size_cell(size, drive, cfg.coupling_v, cfg.gamma, cfg.hole_half_width, times,
                       ref, cfg.t_f, cfg.initial_state)
             for size in (cfg.flat_size, cfg.adaptive_size)]
    ref.to_csv(out / "reference.csv", extra_header=header)

    payload = {}
    for name, series, fit, dist in cells:
        series.to_csv(out / f"{name}.csv", extra_header=header)
        payload[name] = {
            "n_fqc": series.spec.n_levels,
            "fit": fit.to_json(),
            "d2": dist.to_json(),
        }
    _dump_json(out / "compare.json", payload, cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqcsim",
        description="Finite quasi-continuum emulation of non-Hermitian dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, help="JSON config file")
    common.add_argument("--out", type=str, default="fqcsim-out", help="output directory")
    common.add_argument("--seed", type=int)
    common.add_argument("--grid-points", type=int, dest="grid_points")
    common.add_argument("--tf", type=float, dest="t_f")
    common.add_argument("--n", type=int, dest="n_half")
    common.add_argument("--v", type=float, dest="coupling_v")
    common.add_argument("--gamma", type=float)
    common.add_argument("--omega0", type=float)
    common.add_argument("--detuning", type=float)
    common.add_argument("--hole-half-width", type=float, dest="hole_half_width")
    common.add_argument("--initial-state", type=str, dest="initial_state")

    def add(name, text):
        return sub.add_parser(name, help=text, parents=[common])

    add("decay", "single unstable level versus exponential decay")
    p = add("rabi", "driven two-level system versus non-Hermitian dynamics")
    p.add_argument("--sidebands", action="store_true")
    p.add_argument("--markov", action="store_true")
    p.add_argument("--count", type=int)
    p = add("sweep", "suitability map over (N, v), or a size scan")
    p.add_argument("--metric", type=str, choices=("d1", "d2", "fit"))
    p.add_argument("--model", type=str, choices=MODELS)
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--v-min", type=float)
    p.add_argument("--v-max", type=float)
    p.add_argument("--v-step", type=float, default=0.01)
    p.add_argument("--size-scan", action="store_true")
    p.add_argument("--sizes", type=str, help="comma-separated FQC sizes")
    p.add_argument("--normalize", action="store_true",
                   help="rescale the map to its maximum value")
    add("sidebands", "FQC occupation spectrum under driving")
    p = add("markov", "sampled non-Markovianity measure")
    p.add_argument("--count", type=int)
    add("fit", "effective Rabi frequency and damping rate")
    p = add("adaptive-compare", "flat versus adaptive FQC at fixed budget")
    p.add_argument("--flat-size", type=int, dest="flat_size")
    p.add_argument("--adaptive-size", type=int, dest="adaptive_size")
    return parser


# decay is the one single-level command and model, so no other command
# runs it and it runs no other model.  A map (sweep) takes any model.  The
# size scan and adaptive-compare take their variants from their sizes, odd
# ones the flat rabi model and even ones the adaptive model, so they record
# rabi and take no other.
_COMMAND_MODELS = {"decay": ("decay",),
                   **dict.fromkeys(("rabi", "fit", "sidebands", "markov"), ("rabi", "adaptive")),
                   **dict.fromkeys(("sweep --size-scan", "adaptive-compare"), ("rabi",))}
_COMMAND_DEFAULTS = {
    "decay": {"model": "decay", "t_f": 10.0},
    "rabi": {"model": "rabi", "t_f": 8.0, "omega0": 1.0},
    "sweep": {"model": "decay", "t_f": 10.0},
    "sweep --size-scan": {"model": "rabi", "t_f": 16.0, "omega0": 10.0, "grid_points": 4001},
    "sidebands": {"model": "rabi", "t_f": 8.0, "omega0": 10.0, "n_half": 22},
    "markov": {"model": "rabi", "t_f": 24.0, "omega0": 1.0, "n_half": 25,
               "coupling_v": 0.25, "count": 256},
    "fit": {"model": "rabi", "t_f": 16.0, "omega0": 10.0},
    "adaptive-compare": {"model": "rabi", "t_f": 16.0, "omega0": 10.0},
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    command = "sweep --size-scan" if getattr(args, "size_scan", False) else args.command
    data = dict(_COMMAND_DEFAULTS.get(command, {}))
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_data, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update(file_data)
    overridable = {f.name for f in dataclasses.fields(RunConfig)}
    for key, value in vars(args).items():
        if key in overridable and value is not None:
            data[key] = value
    if getattr(args, "sizes", None):
        try:
            data["sizes"] = [int(s) for s in str(args.sizes).split(",") if s]
        except ValueError:
            raise ConfigError(f"--sizes must be integers, got {args.sizes!r}") from None
    axes = {}  # axis -> (first, step, length) of each axis given by flags
    for axis, (lo, hi, step) in {
        "n_values": ("n_min", "n_max", "n_step"),
        "v_values": ("v_min", "v_max", "v_step"),
    }.items():
        lo_v, hi_v, st = (getattr(args, name, None) for name in (lo, hi, step))
        lo_f, hi_f, st_f = (f"--{name.replace('_', '-')}" for name in (lo, hi, step))
        if st is not None and not 0 < st < math.inf:
            raise ConfigError(f"{st_f} must be finite and > 0, got {st}")
        if (lo_v is None) != (hi_v is None):
            raise ConfigError(f"{lo_f} and {hi_f} must be given together")
        if lo_v is not None:
            if not (abs(lo_v) < math.inf and abs(hi_v) < math.inf):  # ints of any size too
                raise ConfigError(f"{lo_f} and {hi_f} must be finite, got {lo_v} and {hi_v}")
            if lo_v > hi_v:
                raise ConfigError(f"{lo_f} {lo_v} exceeds {hi_f} {hi_v}")
            # the axis length by arithmetic, before any list (inf when it overflows)
            count = (hi_v - lo_v) // st + 1 if axis == "n_values" else (hi_v - lo_v) / st + 1
            if not count <= _MAX_ARRAY_POINTS:
                raise ConfigError(f"{lo_f} {lo_v} to {hi_f} {hi_v} by {st_f} {st} gives {count} "
                                  "values, more than a numpy array holds")
            axes[axis] = lo_v, st, (count if axis == "n_values"
                                    else int(round((hi_v - lo_v) / st)) + 1)
    if command == "sweep":  # the map's cell count, before any axis list is built
        lengths = [axes[axis][2] if axis in axes
                   else len(data[axis]) if isinstance(data.get(axis), list)
                   else len(_DEFAULT_AXES[axis]) for axis in _DEFAULT_AXES]
        if lengths[0] * lengths[1] > _MAX_MAP_CELLS:
            raise ConfigError(f"the map has {lengths[0]} x {lengths[1]} = "
                              f"{lengths[0] * lengths[1]} cells, more than {_MAX_MAP_CELLS}")
    for axis, (lo_v, st, length) in axes.items():
        data[axis] = (list(range(lo_v, lo_v + length * st, st)) if axis == "n_values"
                      else [round(lo_v + i * st, 10) for i in range(length)])
    cfg = RunConfig.from_dict(data)
    models = _COMMAND_MODELS.get(command, MODELS)
    if cfg.model not in models:
        raise ConfigError(f"{command} runs model {' or '.join(map(repr, models))}, "
                          f"got {cfg.model!r}")
    # a size scan always fits and scores d2 and writes no map to rescale
    if command == "sweep --size-scan":
        if cfg.metric != "d1":
            raise ConfigError(f"sweep --size-scan takes no metric, got {cfg.metric!r}")
        if args.normalize:
            raise ConfigError("sweep --size-scan takes no --normalize")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        out = _outdir(args)
        if args.command == "decay":
            cmd_decay(cfg, out)
        elif args.command == "rabi":
            cmd_rabi(cfg, out, args.sidebands, args.markov)
        elif args.command == "sweep":
            cmd_sweep(cfg, out, args.size_scan, args.normalize)
        elif args.command == "sidebands":
            cmd_sidebands(cfg, out)
        elif args.command == "markov":
            cmd_markov(cfg, out)
        elif args.command == "fit":
            cmd_fit(cfg, out)
        elif args.command == "adaptive-compare":
            cmd_adaptive_compare(cfg, out)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print("numerical failure: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FqcsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
