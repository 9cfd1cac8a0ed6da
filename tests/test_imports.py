"""No command loads scipy: the package runs on numpy alone.  Nor does the
import or a CSV write load `fractions` or `decimal`.

Each check runs in a fresh interpreter, because several test modules import
scipy themselves, so this process's `sys.modules` says nothing.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
_CELL = ["--n", "8", "--v", "0.3", "--tf", "4", "--grid-points", "401"]
# every command, the fitting ones included, at small sizes; a later flag
# overrides an earlier one
_GRID = ["--n-min", "5", "--n-max", "6", "--v-min", "0.2", "--v-max", "0.3", "--v-step", "0.1",
         "--tf", "4", "--grid-points", "401"]
COMMANDS = [
    ["decay"] + _CELL,
    ["rabi", "--sidebands", "--omega0", "1"] + _CELL,
    ["sidebands", "--n", "8", "--v", "0.3", "--omega0", "10"],
    # sidebands at the exceptional point and over-damped
    ["sidebands", "--omega0", "0.25"],
    ["rabi", "--sidebands", "--omega0", "0.2"] + _CELL,
    ["markov", "--count", "8", "--omega0", "1"] + _CELL,
    ["sweep"] + _GRID,
    ["fit", "--omega0", "10"] + _CELL,
    ["adaptive-compare", "--flat-size", "17", "--adaptive-size", "16", "--tf", "4",
     "--grid-points", "401"],
    ["sweep", "--size-scan", "--sizes", "10,11,12", "--omega0", "10", "--tf", "4",
     "--grid-points", "401"],
    ["sweep", "--model", "rabi", "--metric", "fit", "--omega0", "4"] + _GRID,
    # the secular path's deflations: the dark state of a holed ladder, one
    # level, and v = 0 (c_e = 1, no division by the zero gap)
    ["decay", "--hole-half-width", "1"] + _CELL,
    ["decay"] + _CELL + ["--n", "0"],
    ["decay"] + _CELL + ["--v", "0"],
    # propagate through diagonalize, and a reference from the start state's
    # exact population; a two-level start in |g>
    ["decay", "--initial-state", "f0"] + _CELL,
    ["rabi", "--initial-state", "g"] + _CELL,
    # the phase tables' edge grids: one block of B = 2 (nb = 1), and blocks
    # of B = 32 that overrun 1000 points (32 x 32 > 1000), on the real
    # (decay) and complex (rabi) paths
    ["decay"] + _CELL + ["--grid-points", "2"],
    ["rabi"] + _CELL + ["--grid-points", "1000"],
    ["sweep"] + _GRID + ["--grid-points", "1000"],
    # a holed decay map: row tasks whose cells all have a dark state
    ["sweep", "--hole-half-width", "0.5"] + _GRID,
    # two-level cells: a stack scored at once by the stacked d2
    ["sweep", "--model", "rabi", "--metric", "d2", "--omega0", "2"] + _GRID,
    # the reduced map of non-Markovianity: on a grid the Rabi guard refines,
    # with a hole, detuned, and behind rabi
    ["markov"] + _CELL + ["--count", "2", "--omega0", "10", "--grid-points", "2"],
    ["markov"] + _CELL + ["--hole-half-width", "2", "--omega0", "10"],
    ["markov"] + _CELL + ["--detuning", "0.5"],
    ["rabi", "--markov"] + _CELL + ["--count", "3"],
]


def _fresh_python(code: str, tmp_path: Path) -> None:
    env = {k: v for k, v in os.environ.items() if k != "FQCSIM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_no_command_loads_scipy(tmp_path):
    _fresh_python(f"""
        import sys
        import fqcsim, fqcsim.cli
        assert "scipy" not in sys.modules, "import fqcsim loaded scipy"
        for i, argv in enumerate({COMMANDS!r}):
            assert fqcsim.cli.main(argv + ["--out", f"run{{i}}"]) == 0, argv
            assert "scipy" not in sys.modules, argv
    """, tmp_path)


def test_concurrent_first_fit_gives_the_serial_rows(tmp_path):
    # the first fits of a two-worker fit map run in both threads at once:
    # each N row is its own task (the size scan runs in the calling thread)
    _fresh_python("""
        import numpy as np
        from fqcsim import SweepFixed, SweepGrid, run_sweep
        grid = SweepGrid((8, 9, 10, 11), (0.25, 0.3), SweepFixed(
            t_f=4.0, omega0=4.0, model="rabi", grid_points=401), metric="fit")
        pair, serial = run_sweep(grid, max_workers=2), run_sweep(grid, max_workers=1)
        assert not pair.cell_errors and not serial.cell_errors
        assert np.array_equal(pair.values, serial.values)
    """, tmp_path)


def test_lazy_series_reads_load_no_scipy(tmp_path):
    # no command reads the full amplitudes, nor a two-level source term
    # through the library: these reads must stay numpy-only too
    _fresh_python("""
        import sys
        import numpy as np
        from fqcsim import (DriveSpec, FqcSpec, build_single_level, build_two_level,
                            default_grid, propagate, source_term_series)
        times = default_grid(4.0, 401)
        rabi = propagate(build_two_level(FqcSpec(8, 0.3), DriveSpec(2.0, 0.4)), "e", times)
        decay = propagate(build_single_level(FqcSpec(8, 0.3)), "e", times)
        assert rabi.amplitudes.shape == (401, 19) and rabi.energy_variance0 > 0
        assert rabi.reduced().rho.shape == (401, 2, 2)
        assert source_term_series(rabi).shape == (401, 2, 2)
        assert decay.amplitudes.shape == (401, 18) and decay.energy_variance0 > 0
        for series in (rabi, decay):
            assert np.isfinite(series.amplitudes).all()
        assert "scipy" not in sys.modules
    """, tmp_path)


def test_no_fractions_or_decimal(tmp_path):
    # the CSV writer's table of powers of ten is built in integers; neither
    # module loads at import nor at the first write
    _fresh_python("""
        import sys
        import fqcsim
        assert not {"fractions", "decimal"} & set(sys.modules), "import fqcsim"
        fqcsim.write_csv("x.csv", {"x": [0.1, -2.5e-300, 1e300]})
        assert not {"fractions", "decimal"} & set(sys.modules), "write_csv"
    """, tmp_path)
