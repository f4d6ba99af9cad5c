"""Show that every output check catches a deliberately wrong value.

Usage (from the root of a checkout):
    python3 clibench/mutation_check.py [--seed N]

Runs each operation of every workload once, requires its check to pass on
the real output, then applies each mutation below to a copy of the parsed
output and requires the check to fail with the message of the check the
mutation targets. Exits 1 if a real output fails or a mutation slips
through.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import sys

import checks
import run
import workloads


def shift(column: str, row: int, delta: float):
    def mutate(out: checks.Output) -> None:
        out.data[row, out.columns.index(column)] += delta
    return mutate


def assign(column: str, row: int, value_of):
    """Set one cell to ``value_of(out)``."""
    def mutate(out: checks.Output) -> None:
        out.data[row, out.columns.index(column)] = value_of(out)
    return mutate


def drop_last_row(out: checks.Output) -> None:
    out.data = out.data[:-1]


def purity_rise(out: checks.Output) -> None:
    purity = out.data[:, out.columns.index("purity")]
    purity[5] = purity[4] + 1e-9


def recurrence_rows(edit):
    def mutate(out: checks.Output) -> None:
        columns, rows = out.tables["exceedances"]
        out.tables["exceedances"] = (columns, edit([list(row) for row in rows]))
    return mutate


def _ideal_rows(rows):
    return sorted((r for r in rows if r[0] == "ideal"), key=lambda r: float(r[1]))


def drop_second_recurrence(rows):
    second = _ideal_rows(rows)[1]  # the one at pi / g0
    return [r for r in rows if r is not second]


def dent_second_recurrence(rows):
    _ideal_rows(rows)[1][2] = "0.99"
    return rows


def realclock_above_envelope(rows):
    t = float(_ideal_rows(rows)[1][1])
    return rows + [["realclock", repr(t), "0.95"]]


EVOLVE = [
    ("rho_0_1 off by 1e-7 in the last row", shift("re_rho_0_1", -1, 1e-7), "rho: off"),
    ("energy drifts by 1e-8", shift("energy", -1, 1e-8), "energy: off"),
    ("purity above 1", assign("purity", 0, lambda out: 1.0 + 1e-9), "exceeds 1"),
    ("purity rises between rows", purity_rise, "purity increases"),
    ("last row missing", drop_last_row, "trajectory rows"),
]
MUTATIONS = {
    "evolve_qubit": EVOLVE,
    "evolve_d16": EVOLVE,
    "sweep_omega": [
        ("offdiag ratio off by 1e-9", shift("final_offdiag_ratio", 3, 1e-9),
         "final_offdiag_ratio: off"),
        ("|rho01| off by 1e-9", shift("final_abs_rho01", 0, 1e-9), "final_abs_rho01: off"),
        ("purity off by 1e-9", shift("final_purity", -1, 1e-9), "final_purity: off"),
        ("axis value moved", shift("axis_value", 2, 1e-6), "axis_value: off"),
    ],
    "condprob_wavepacket": [
        ("probability above 1", assign("probability", 0, lambda out: 1.0 + 1e-9),
         "probability outside"),
        ("probability 2e-3 away from smeared", assign(
            "probability", 1,
            lambda out: out.data[1, out.columns.index("smeared_probability")] + 2e-3),
         "probability - smeared_probability: off"),
        ("smeared probability off by 1e-4, within 1e-3 of probability", shift(
            "smeared_probability", 2, 1e-4), "smeared_probability: off"),
        ("clock reading moved", shift("t_center", 0, 1e-3), "t_center: off"),
    ],
    "condprob_analytic": [
        ("probability off by 1e-8", shift("probability", 3, 1e-8), "probability: off"),
        ("smeared probability off by 1e-8", shift("smeared_probability", 0, 1e-8),
         "smeared_probability: off"),
        ("smeared probability below 0", assign("smeared_probability", 1, lambda out: -1e-9),
         "smeared_probability outside"),
        ("last query missing", drop_last_row, "query rows"),
    ],
    "zurek_commensurate": [
        ("z_ideal off by 1e-9", shift("re_z_ideal", 100, 1e-9), "re_z_ideal: off"),
        ("z_realclock off by 1e-9", shift("im_z_realclock", 200, 1e-9), "im_z_realclock: off"),
        ("|z_realclock| not the envelope times |z_ideal|", shift("abs_z_realclock", 300, 1e-9),
         "abs_z_realclock: off"),
        ("|z_ideal| above 1", assign("abs_z_ideal", 0, lambda out: 1.0 + 1e-9),
         "|z_ideal| exceeds 1"),
        ("recurrence at pi/g0 missing", recurrence_rows(drop_second_recurrence),
         "ideal recurrences"),
        ("recurrence at pi/g0 below 1", recurrence_rows(dent_second_recurrence),
         "is not 1"),
        ("real-clock exceedance above the envelope", recurrence_rows(realclock_above_envelope),
         "above envelope"),
    ],
    "zurek_random": [
        ("z_ideal off by 1e-9", shift("im_z_ideal", -1, 1e-9), "im_z_ideal: off"),
        ("|z_realclock| above 1", assign("abs_z_realclock", 0, lambda out: 1.0 + 1e-9),
         "|z_realclock| exceeds 1"),
        ("z_realclock without damping", assign(
            "re_z_realclock", -1, lambda out: out.data[-1, out.columns.index("re_z_ideal")]),
         "re_z_realclock: off"),
        ("time grid shifted", shift("t", 10, 1e-6), "t: off"),
    ],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workdir = run.BENCH / "_runs" / "mutation-check"
    workdir.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    problems = 0
    try:
        for name, build in workloads.WORKLOADS.items():
            for op in build(args.seed):
                (workdir / f"{op.name}.json").write_text(json.dumps(op.config), encoding="utf-8")
                result = run.invoke(op, workdir, env, trace=False)
                if result.failed:
                    print(f"{name}/{op.name}: real output fails: "
                          f"{result.check_error or result.log}")
                    problems += 1
                    continue
                print(f"{name}/{op.name}: real output passes")
                real = checks.parse_csv((workdir / f"{op.name}.csv").read_text(encoding="utf-8"))
                for label, mutate, expected in MUTATIONS[op.name]:
                    wrong = copy.deepcopy(real)
                    mutate(wrong)
                    try:
                        op.check(wrong)
                        message = None
                    except checks.CheckFailed as exc:
                        message = str(exc)
                    caught = message is not None and expected in message
                    problems += not caught
                    print(f"    {'caught' if caught else 'MISSED'}: {label} -> {message}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("all mutations caught" if problems == 0 else f"{problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
