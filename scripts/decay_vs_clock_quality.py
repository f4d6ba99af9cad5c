#!/usr/bin/env python3
"""Compare qubit coherence decay under clocks of decreasing quality.

Evolves the same superposition state against an ideal clock, two
constant-width-growth clocks, and the fundamental-limit clock, then
tabulates |rho01|(T) and writes the curves to a CSV for plotting.
"""

import csv
import math
import sys

import numpy as np

from realclock_qm import (
    DensityMatrix,
    EvolutionConfig,
    FundamentalLimitClock,
    HermitianOperator,
    constant_width_growth,
    evolve_master,
    IdealClock,
)

OMEGA = 1.0
T_FINAL = 10.0
STEP = 1e-3
OUT = sys.argv[1] if len(sys.argv) > 1 else "decay_vs_clock_quality.csv"

CLOCKS = [
    ("ideal", IdealClock()),
    ("sigma_0.05", constant_width_growth(0.05)),
    ("sigma_0.25", constant_width_growth(0.25)),
    ("fundamental_TP_0.2", FundamentalLimitClock(t_planck=0.2, t_max=2 * T_FINAL)),
]


def main():
    h = HermitianOperator(np.diag([0.0, OMEGA]))
    rho0 = DensityMatrix(np.full((2, 2), 0.5))
    cfg = EvolutionConfig(step=STEP, t_min=0.0, t_max=T_FINAL, n_points=3)

    curves = {}
    for name, clock in CLOCKS:
        traj = evolve_master(rho0, h, clock, T_FINAL, cfg)
        times = traj.times.tolist()
        rho01 = traj.states[:, 0, 1]
        curves[name] = np.hypot(rho01.real, rho01.imag).tolist()  # the bits of abs(rho01)

    print(f"qubit omega={OMEGA}, |rho01(0)|=0.5")
    print(f"{'T':>6} " + " ".join(f"{name:>20}" for name, _ in CLOCKS))
    for i in range(0, len(times), len(times) // 10):
        row = " ".join(f"{curves[name][i]:20.12f}" for name, _ in CLOCKS)
        print(f"{times[i]:6.2f} {row}")

    with open(OUT, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [name for name, _ in CLOCKS])
        for i, t in enumerate(times):
            writer.writerow([f"{t:.16e}"] + [f"{curves[name][i]:.16e}" for name, _ in CLOCKS])
    print(f"\nwrote {OUT}")
    print("half-coherence check: sigma=0.25 curve should cross 0.25 near "
          f"T={math.log(2)/0.25:.2f}")


if __name__ == "__main__":
    main()
