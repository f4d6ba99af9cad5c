"""Command-line front end: evolve | zurek | condprob | clock-limits | sweep.

Usage:
    realclock-qm <command> --config cfg.json [--set key=value ...]
                 [--out out.csv] [--format csv|json] [--seed N]

Outputs are deterministic: identical config and seed give byte-identical
files, and sweeps give byte-identical files for any worker-pool size
(REALCLOCK_QM_WORKERS, default 1). Every file embeds the fully resolved
configuration. CSV uses 17 significant digits, scientific notation, LF
line endings, and comma-free column names (gnuplot friendly).

Exit codes: 0 success, 2 configuration, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import config as cfgmod
from .clock_accuracy import experiment_report, salecker_wigner_error
from .clocks import GaussianClock
from .core import HermitianOperator, build_projector
from .errors import ConfigError, RealClockQMError, ResourceLimitError
from .evolution import (
    ConditionalQuery,
    EvolutionConfig,
    conditional_probabilities,
    conditional_probabilities_analytic,
    evolve_master,
    make_wavepacket_clock,
    ordinary_probability,
    smear_density,
)
from .zurek import SpinBath, brute_force_z, random_bath, recurrence_scan, z_ideal, z_realclock

WORKERS_ENV = "REALCLOCK_QM_WORKERS"
BRUTE_FORCE_CHECK_TOL = 1e-9


@dataclass
class RunResult:
    columns: list[str]
    rows: list[list]
    tables: list[tuple[str, list[str], list[list]]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _evolution_config(document: dict, t_final: float) -> EvolutionConfig:
    section = document.get("evolution", {})
    grid = section.get("grid")
    if grid is None:
        # master evolution needs no quadrature grid; supply a valid default
        grid = {"t_min": 0.0, "t_max": max(t_final, 1.0), "n_points": 101}
    return EvolutionConfig(
        step=float(section.get("step", 1e-3)),
        t_min=float(grid["t_min"]),
        t_max=float(grid["t_max"]),
        n_points=int(grid["n_points"]),
        quad_tol=float(section.get("quad_tol", 1e-8)),
    )


def run_evolve(document: dict) -> RunResult:
    hamiltonian = cfgmod.build_hamiltonian(document.get("system"))
    rho0 = cfgmod.build_initial_state(document.get("initial_state"), hamiltonian.dim)
    clock = cfgmod.build_clock(document.get("clock"))
    section = document.get("evolution") or {}
    if "t_final" not in section:
        raise ConfigError("config key 'evolution.t_final': required for evolve")
    t_final = float(section["t_final"])
    cfg = _evolution_config(document, t_final)

    trajectory = evolve_master(rho0, hamiltonian, clock, t_final, cfg)
    dim = hamiltonian.dim
    columns = ["t"]
    for i in range(dim):
        for j in range(dim):
            columns += [f"re_rho_{i}_{j}", f"im_rho_{i}_{j}"]
    columns += ["purity", "energy"]
    times = [t for t, _ in trajectory]
    stack = np.array([state.matrix for _, state in trajectory])
    purity = np.einsum("kij,kji->k", stack, stack).real
    energy = np.einsum("ij,kji->k", hamiltonian.matrix, stack).real
    rows = np.column_stack([times, stack.view(float).reshape(len(stack), -1),
                            purity, energy]).tolist()
    return RunResult(columns=columns, rows=rows)


def _build_bath(document: dict) -> SpinBath:
    section = document.get("zurek") or {}
    if "random_bath" in section:
        params = section["random_bath"]
        rng = cfgmod.derive_rng(int(document.get("seed", 0)), "zurek_bath")
        return random_bath(
            int(params["n_atoms"]),
            (float(params["coupling_low"]), float(params["coupling_high"])),
            rng,
        )
    try:
        couplings = section["couplings"]
        alphas = [cfgmod._to_complex(p) for p in section["alphas"]]
        betas = [cfgmod._to_complex(p) for p in section["betas"]]
        a, b = [cfgmod._to_complex(p) for p in section["system_amplitudes"]]
    except KeyError as exc:
        raise ConfigError(
            f"config key 'zurek.{exc.args[0]}': required unless random_bath is given"
        ) from exc
    return SpinBath(
        couplings=np.asarray(couplings, dtype=float),
        alphas=np.asarray(alphas),
        betas=np.asarray(betas),
        a=a,
        b=b,
    )


def run_zurek(document: dict) -> RunResult:
    section = document.get("zurek") or {}
    for required in ("horizon", "n_samples", "t_planck"):
        if required not in section:
            raise ConfigError(f"config key 'zurek.{required}': required for zurek")
    bath = _build_bath(document)
    horizon = float(section["horizon"])
    n_samples = int(section["n_samples"])
    t_planck = float(section["t_planck"])

    times = np.linspace(0.0, horizon, n_samples)
    ideal = z_ideal(bath, times)
    real = z_realclock(bath, times, t_planck)

    if section.get("verify_brute_force", False):
        if bath.n_atoms > 14:
            raise ResourceLimitError(
                f"brute-force verification supports at most 14 atoms, got {bath.n_atoms}"
            )
        stride = max(1, n_samples // 32)
        worst = max(
            abs(z_ideal(bath, float(t)) - brute_force_z(bath, float(t)))
            for t in times[::stride]
        )
        if worst > BRUTE_FORCE_CHECK_TOL:
            raise RealClockQMError(
                f"product formula disagrees with the state-vector check by {worst:.3e}"
            )

    columns = ["t", "re_z_ideal", "im_z_ideal", "abs_z_ideal",
               "re_z_realclock", "im_z_realclock", "abs_z_realclock"]
    rows = [
        [float(t), zi.real, zi.imag, abs(zi), zr.real, zr.imag, abs(zr)]
        for t, zi, zr in zip(times, ideal, real)
    ]

    tables = []
    rec = section.get("recurrence")
    if rec:
        modes = rec.get("modes", ["ideal", "realclock"])
        rec_samples = int(rec.get("n_samples", max(n_samples, 1000)))
        threshold = float(rec["threshold"])
        exc_rows = []
        for mode in modes:
            scan = recurrence_scan(
                bath, mode, horizon, rec_samples, threshold,
                t_planck=t_planck if mode == "realclock" else None,
            )
            for t_peak, value in scan.exceedances:
                exc_rows.append([mode, float(t_peak), float(value)])
        tables.append(("exceedances", ["mode", "t", "abs_z"], exc_rows))
    return RunResult(columns=columns, rows=rows, tables=tables)


def run_condprob(document: dict) -> RunResult:
    section = document.get("condprob")
    if not section:
        raise ConfigError("config key 'condprob': section is required for condprob")
    hamiltonian = cfgmod.build_hamiltonian(document.get("system"))
    rho_sys = cfgmod.build_initial_state(document.get("initial_state"), hamiltonian.dim)
    if "observable" not in section:
        raise ConfigError("config key 'condprob.observable': required")
    observable = HermitianOperator(cfgmod.complex_matrix(section["observable"]))
    cfg = _evolution_config(document, 1.0)
    if (document.get("evolution") or {}).get("grid") is None:
        raise ConfigError("config key 'evolution.grid': required for condprob")

    mode = section["mode"]
    reading_operator = None
    if mode == "wavepacket":
        packet = make_wavepacket_clock(**{
            k: v for k, v in (section.get("wavepacket") or {}).items()
        })
        reading_operator = packet.reading_operator
    else:
        clock = cfgmod.build_clock(document.get("clock"))
        if not isinstance(clock, GaussianClock):
            raise ConfigError("config key 'clock.kind': analytic condprob needs a gaussian clock")

    queries = [
        ConditionalQuery(
            observable=observable,
            o_center=float(query_spec["o_center"]),
            o_halfwidth=float(query_spec["o_halfwidth"]),
            t_center=float(query_spec["t_center"]),
            t_halfwidth=float(query_spec["t_halfwidth"]),
            clock_operator=reading_operator,
        )
        for query_spec in section["queries"]
    ]
    if mode == "wavepacket":
        probs = conditional_probabilities(
            packet.rho, rho_sys, packet.hamiltonian, hamiltonian, queries, cfg
        )
        model = packet.gaussian_model
    else:
        probs = conditional_probabilities_analytic(clock, rho_sys, hamiltonian, queries, cfg)
        model = clock

    columns = ["t_center", "o_center", "probability", "smeared_probability"]
    rows = []
    for query, prob in zip(queries, probs):
        smeared = smear_density(rho_sys, hamiltonian, model, query.t_center, cfg)
        window = build_projector(observable, query.o_center, query.o_halfwidth)
        rows.append([query.t_center, query.o_center, prob,
                     ordinary_probability(smeared, window)])
    return RunResult(columns=columns, rows=rows)


def run_clock_limits(document: dict) -> RunResult:
    section = document.get("limits")
    if not section:
        raise ConfigError("config key 'limits': section is required for clock-limits")
    report = experiment_report(
        float(section["omega"]), float(section["duration"]), float(section["t_planck"])
    )
    columns = ["omega", "duration", "t_planck", "exponent", "decay_factor",
               "half_coherence_time", "ng_vandam_delta", "no_decoherence"]
    row = [report.omega, report.duration, report.t_planck, report.exponent,
           report.decay_factor, report.half_coherence_time, report.ng_vandam_delta,
           1.0 if report.no_decoherence else 0.0]
    if "mass" in section:
        columns.append("salecker_wigner_error")
        row.append(salecker_wigner_error(float(section["mass"]), float(section["duration"])))
    return RunResult(columns=columns, rows=[row])


SUMMARY_COLUMNS = {
    "evolve": ["final_abs_rho01", "final_offdiag_ratio", "final_purity"],
    "zurek": ["final_abs_z_ideal", "final_abs_z_realclock"],
    "condprob": ["probability", "smeared_probability"],
    "clock-limits": ["half_coherence_time", "exponent", "decay_factor"],
}


def summarize(command: str, result: RunResult) -> list[float]:
    """Reduce a run's table to the sweep summary row (same code path for
    degenerate sweeps, so an n=1 sweep reproduces the single run exactly)."""
    cols = {name: i for i, name in enumerate(result.columns)}
    first, last = result.rows[0], result.rows[-1]
    if command == "evolve":
        def offdiag(row):
            return math.hypot(row[cols["re_rho_0_1"]], row[cols["im_rho_0_1"]])

        start = offdiag(first)
        final = offdiag(last)
        ratio = final / start if start > 0 else math.nan
        return [final, ratio, last[cols["purity"]]]
    if command == "zurek":
        return [last[cols["abs_z_ideal"]], last[cols["abs_z_realclock"]]]
    if command == "condprob":
        return [first[cols["probability"]], first[cols["smeared_probability"]]]
    if command == "clock-limits":
        return [first[cols["half_coherence_time"]], first[cols["exponent"]],
                first[cols["decay_factor"]]]
    raise ConfigError(f"cannot summarize command {command!r}")


def _sweep_child(args: tuple[dict, str, float]) -> list[float]:
    child_doc, key, value = args
    doc = copy.deepcopy(child_doc)
    try:
        cfgmod.apply_override(doc, f"{key}={json.dumps(value)}")
        cfgmod.validate_config(doc)
        command = doc["command"]
        result = RUNNERS[command](doc)
        return summarize(command, result)
    except ConfigError as exc:
        raise ConfigError(f"sweep aborted at {key}={value}: {exc}") from exc
    except RealClockQMError as exc:
        raise RealClockQMError(f"sweep aborted at {key}={value}: {exc}") from exc


def run_sweep(document: dict) -> RunResult:
    sweep = document.get("sweep")
    run = document.get("run")
    if not sweep or not run:
        raise ConfigError("config keys 'sweep' and 'run': both required for sweep")
    child_base = copy.deepcopy(run)
    child_base.setdefault("seed", int(document.get("seed", 0)))
    command = child_base.get("command")
    if command not in SUMMARY_COLUMNS:
        raise ConfigError(f"config key 'run.command': cannot sweep over {command!r}")
    values = np.linspace(float(sweep["min"]), float(sweep["max"]), int(sweep["n"]))
    jobs = [(child_base, sweep["key"], float(v)) for v in values]

    raw_workers = os.environ.get(WORKERS_ENV, "1").strip()
    if not raw_workers.isdecimal() or int(raw_workers) < 1:
        raise ConfigError(f"{WORKERS_ENV}={raw_workers!r}: must be a positive integer")
    workers = int(raw_workers)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_sweep_child, jobs))
    else:
        summaries = [_sweep_child(job) for job in jobs]

    columns = ["axis_value"] + SUMMARY_COLUMNS[command]
    rows = [[float(v)] + summary for v, summary in zip(values, summaries)]
    return RunResult(columns=columns, rows=rows)


RUNNERS = {
    "evolve": run_evolve,
    "zurek": run_zurek,
    "condprob": run_condprob,
    "clock-limits": run_clock_limits,
    "sweep": run_sweep,
}


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    return f"{float(value):.16e}"


def write_csv(path: str, document: dict, result: RunResult) -> None:
    lines = ["# realclock-qm output",
             "# config: " + json.dumps(document, sort_keys=True)]
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    for name, columns, rows in result.tables:
        lines.append("")
        lines.append(f"# table: {name}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_format_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, document: dict, result: RunResult) -> None:
    payload = {
        "config": document,
        "columns": result.columns,
        "rows": [dict(zip(result.columns, row)) for row in result.rows],
    }
    if result.tables:
        payload["tables"] = {
            name: {"columns": columns, "rows": [dict(zip(columns, row)) for row in rows]}
            for name, columns, rows in result.tables
        }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="realclock-qm",
        description="simulate quantum systems evolved against real (imperfect) clocks",
    )
    parser.add_argument("command", choices=sorted(RUNNERS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a dotted config path")
    parser.add_argument("--out", help="output file path (overrides config)")
    parser.add_argument("--format", choices=["csv", "json"], help="output format")
    parser.add_argument("--seed", type=int, help="root seed (overrides config)")
    return parser.parse_args(argv)


def _resolve_document(args) -> dict:
    document = cfgmod.load_config(args.config)
    for assignment in args.overrides:
        cfgmod.apply_override(document, assignment)
    if "command" in document and document["command"] != args.command:
        raise ConfigError(
            f"config command {document['command']!r} does not match CLI command {args.command!r}"
        )
    document["command"] = args.command
    if args.seed is not None:
        document["seed"] = args.seed
    document.setdefault("seed", 0)
    output = document.setdefault("output", {})
    if args.out:
        output["path"] = args.out
    if args.format:
        output["format"] = args.format
    output.setdefault("format", "csv")
    if "path" not in output:
        raise ConfigError("no output path: give --out or config key 'output.path'")
    cfgmod.validate_config(document)
    return document


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    try:
        document = _resolve_document(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        result = RUNNERS[document["command"]](document)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RealClockQMError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3

    try:
        if document["output"]["format"] == "json":
            write_json(document["output"]["path"], document, result)
        else:
            write_csv(document["output"]["path"], document, result)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
