#!/usr/bin/env python3
"""Excited-state population in the three damping regimes of the driven system.

For each Rabi frequency, writes one CSV with the FQC-emulated population next
to the exact non-Hermitian one, plus the time-averaged trace distance between
the two reduced density matrices.
"""

import argparse
from pathlib import Path

from fqcsim import (
    DriveSpec,
    FqcSpec,
    NonHermitianSpec,
    build_two_level,
    d2,
    default_grid,
    evolve_nonhermitian,
    propagate,
    write_csv,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--v", type=float, default=0.3)
    ap.add_argument("--tf", type=float, default=8.0)
    ap.add_argument("--omega0", type=float, nargs="+", default=[0.1, 1.0, 10.0])
    ap.add_argument("--grid-points", type=int, default=2001)
    ap.add_argument("--out-dir", default="results/damping_regimes")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    times = default_grid(args.tf, args.grid_points)
    for omega0 in args.omega0:
        drive = DriveSpec(omega0, 0.0)
        series = propagate(build_two_level(FqcSpec(args.n, args.v), drive), "e", times)
        ref = evolve_nonhermitian(NonHermitianSpec(1.0, drive), "e", times)
        value = d2(series, ref, args.tf).value
        path = out_dir / f"omega0_{omega0:g}.csv"
        write_csv(path, {"t": times, "pi_e_fqc": series.pi_e, "pi_e_reference": ref.pi_e})
        print(f"omega0={omega0:g}: D2={value:.5f} -> {path}")


if __name__ == "__main__":
    main()
