#!/usr/bin/env python3
"""Map the emulation quality over the FQC parameter plane (N, v).

Writes a long-format CSV (n, v, value) for the single-level decay metric by
default; pass --omega0 to map the driven two-level mean trace distance
instead.  The sharp vertical boundary of the single-level map sits at
v_c = sqrt(gamma / t_f).
"""

import argparse
from pathlib import Path

from fqcsim import SweepFixed, SweepGrid, critical_coupling, run_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-min", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=40)
    ap.add_argument("--v-min", type=float, default=0.05)
    ap.add_argument("--v-max", type=float, default=0.60)
    ap.add_argument("--v-step", type=float, default=0.01)
    ap.add_argument("--tf", type=float, default=10.0)
    ap.add_argument("--omega0", type=float, default=None,
                    help="drive Rabi frequency; switches to the two-level map")
    ap.add_argument("--out", default="results/suitability_map.csv")
    args = ap.parse_args()

    n_values = tuple(range(args.n_min, args.n_max + 1))
    steps = int(round((args.v_max - args.v_min) / args.v_step))
    v_values = tuple(round(args.v_min + i * args.v_step, 10) for i in range(steps + 1))

    if args.omega0 is None:
        fixed = SweepFixed(t_f=args.tf, model="decay")
        metric = "d1"
    else:
        fixed = SweepFixed(t_f=args.tf, omega0=args.omega0, model="rabi")
        metric = "d2"

    result = run_sweep(SweepGrid(n_values, v_values, fixed, metric))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    result.to_csv(out)
    thresholds = critical_coupling(args.tf)
    print(f"wrote {out} ({len(n_values)}x{len(v_values)} cells, "
          f"{len(result.cell_errors)} failures)")
    print(f"no-revival thresholds for t_f={args.tf}: v_c={thresholds['v_c']:.4f}, "
          f"delta_c={thresholds['delta_c']:.4f}")


if __name__ == "__main__":
    main()
