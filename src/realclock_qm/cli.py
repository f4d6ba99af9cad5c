"""Command-line front end: evolve | zurek | condprob | clock-limits | sweep.

Usage:
    realclock-qm <command> --config cfg.json [--set key=value ...]
                 [--out out.csv] [--format csv|json] [--seed N]

Outputs are deterministic: identical config and seed give byte-identical
files, and sweeps give byte-identical files for any worker-pool size
(REALCLOCK_QM_WORKERS, default 1). Every file embeds the fully resolved
configuration. CSV uses 17 significant digits, scientific notation, LF
line endings, and comma-free column names (gnuplot friendly).

Every CSV number is the text of ``"%.16e" % value``. A table of numbers is
formatted in numpy blocks of BLOCK_CELLS cells and each block is written to
the file as soon as it is ready: the correctly rounded 17-digit mantissa
comes from a double-double product with an exact power of ten, and the
text from digit lookup tables. A row is formatted by the printf template
instead when one of its cells is not finite, lies outside [1e-99, 1e99)
without being zero, or lies within 1e-6 of a rounding tie, so the bytes
are always those of the template. Tables with a string column use the
template throughout.

Exit codes: 0 success, 2 configuration, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import config as cfgmod
from .clock_accuracy import experiment_report, salecker_wigner_error
from .clocks import GaussianClock
from .core import HermitianOperator, eigendecompose
from .errors import ConfigError, RealClockQMError, ValidationError
from .evolution import (
    ConditionalQuery,
    EvolutionConfig,
    conditional_probabilities,
    conditional_probabilities_analytic,
    evolve_master,
    make_wavepacket_clock,
    ordinary_probability,
    smear_densities,
)
from .zurek import (
    SpinBath,
    brute_force_z,
    random_bath,
    realclock_damping,
    recurrence_scan,
    z_ideal,
)

WORKERS_ENV = "REALCLOCK_QM_WORKERS"
BRUTE_FORCE_CHECK_TOL = 1e-9


@dataclass
class RunResult:
    """A run's main table and any named extra tables; the rows of a table
    are a list of lists or a 2-D float array."""

    columns: list[str]
    rows: list[list] | np.ndarray
    tables: list[tuple[str, list[str], list[list]]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_evolve(document: dict) -> RunResult:
    hamiltonian = cfgmod.build_hamiltonian(document.get("system"))
    rho0 = cfgmod.build_initial_state(document.get("initial_state"), hamiltonian.dim)
    clock = cfgmod.build_clock(document.get("clock"))
    section = document.get("evolution") or {}
    if "t_final" not in section:
        raise ConfigError("config key 'evolution.t_final': required for evolve")
    trajectory = evolve_master(rho0, hamiltonian, clock, float(section["t_final"]),
                               float(section.get("step", 1e-3)))
    stack = trajectory.states
    dim = hamiltonian.dim
    columns = ["t"]
    for i in range(dim):
        for j in range(dim):
            columns += [f"re_rho_{i}_{j}", f"im_rho_{i}_{j}"]
    columns += ["purity", "energy"]
    purity = np.einsum("kij,kji->k", stack, stack).real
    energy = np.einsum("ij,kji->k", hamiltonian.matrix, stack).real
    rows = np.column_stack([trajectory.times, stack.view(float).reshape(len(stack), -1),
                            purity, energy])
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
    real = ideal * realclock_damping(bath, times, t_planck)

    if section.get("verify_brute_force", False):
        stride = max(1, n_samples // 32)
        worst = max(
            abs(zi - brute_force_z(bath, float(t)))
            for t, zi in zip(times[::stride], ideal[::stride])
        )
        if worst > BRUTE_FORCE_CHECK_TOL:
            raise RealClockQMError(
                f"product formula disagrees with the state-vector check by {worst:.3e}"
            )

    columns = ["t", "re_z_ideal", "im_z_ideal", "abs_z_ideal",
               "re_z_realclock", "im_z_realclock", "abs_z_realclock"]
    rows = np.column_stack([times, ideal.real, ideal.imag, np.abs(ideal),
                            real.real, real.imag, np.abs(real)])

    tables = []
    rec = section.get("recurrence")
    if rec:
        modes = rec.get("modes", ["ideal", "realclock"])
        rec_samples = int(rec.get("n_samples", max(n_samples, 1000)))
        threshold = float(rec["threshold"])
        # every mode scans the same grid: evaluate the bath product on it once
        scan_z = z_ideal(bath, np.linspace(0.0, horizon, rec_samples))
        exc_rows = []
        for mode in modes:
            scan = recurrence_scan(
                bath, mode, horizon, rec_samples, threshold,
                t_planck=t_planck if mode == "realclock" else None, z_grid=scan_z,
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
    if observable.dim != hamiltonian.dim:
        raise ConfigError(
            f"config key 'condprob.observable': dimension {observable.dim} "
            f"does not match system {hamiltonian.dim}"
        )
    evolution = document.get("evolution") or {}
    grid = evolution.get("grid")
    if grid is None:
        raise ConfigError("config key 'evolution.grid': required for condprob")
    try:
        cfg = EvolutionConfig(t_min=float(grid["t_min"]), t_max=float(grid["t_max"]),
                              n_points=int(grid["n_points"]),
                              quad_tol=float(evolution.get("quad_tol", 1e-8)))
    except ValidationError as exc:
        raise ConfigError(f"config key 'evolution.grid': {exc}") from exc

    mode = section["mode"]
    reading_operator = None
    if mode == "wavepacket":
        try:
            packet = make_wavepacket_clock(**(section.get("wavepacket") or {}))
        except ValidationError as exc:
            raise ConfigError(f"config key 'condprob.wavepacket': {exc}") from exc
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

    smeared = smear_densities(rho_sys, hamiltonian, model, [q.t_center for q in queries], cfg)
    observable_dec = eigendecompose(observable)
    columns = ["t_center", "o_center", "probability", "smeared_probability"]
    rows = [
        [query.t_center, query.o_center, prob,
         ordinary_probability(state, observable_dec.projector(query.o_center, query.o_halfwidth))]
        for query, prob, state in zip(queries, probs, smeared)
    ]
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
    first, last = _as_lists(result.rows[0]), _as_lists(result.rows[-1])
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
        from concurrent.futures import ProcessPoolExecutor  # only multi-worker sweeps pay for it

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


BLOCK_CELLS = 1 << 14  # cells formatted and written at a time
# powers of ten 10^k the fast path scales by: k = 16 - e for every exponent
# estimate e in [-100, 99] that log10 can give on [1e-99, 1e99)
_K_MIN, _K_MAX = -83, 116


def _words(*byte_columns) -> np.ndarray:
    """Native uint32 words whose four bytes are the given columns."""
    columns = np.broadcast_arrays(*byte_columns)
    return np.stack(columns, axis=-1).astype(np.uint8).view(np.uint32)[..., 0]


@functools.cache
def _decimal_tables() -> tuple[np.ndarray, ...]:
    """Exact powers of ten as ``hi + lo`` float pairs for k in [_K_MIN, _K_MAX],
    and the text words of a cell (see _format_cells); built on first use."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            exact = 10**k
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:
            den = 10**-k
            hi.append(1 / den)
            num, pow2 = hi[-1].as_integer_ratio()
            lo.append((pow2 - num * den) / (pow2 * den))  # 1/den - num/pow2
    digit = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1) + ord("0")
    exponent = np.arange(-99, 100)
    return (
        np.array(hi), np.array(lo),
        _words(ord("-"), digit[2, :100], ord("."), digit[3, :100]),  # "-d.d"
        _words(*digit),  # "dddd"
        _words(*digit[1:, :1000], ord("e")),  # "ddde"
        _words(np.where(exponent < 0, ord("-"), ord("+")),
               *digit[2:, abs(exponent)], 0),  # "+dd" and room for the separator
    )


def _veltkamp_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _format_cells(x: np.ndarray, out: np.ndarray, separators: np.ndarray) -> np.ndarray:
    """Write ``"%.16e" % v`` for every cell v of the 2-D float array ``x``
    into its six uint32 words ``out[i, j]``: the 24 bytes "-d.d", four
    "dddd" and "ddde", and "+dd" plus the cell's separator (from
    ``separators``, one word per column). The leading '-' is meant to be
    dropped for non-negative cells. Returns which rows are exact: a row
    holding a cell that is not finite, lies outside [1e-99, 1e99) (a
    three-digit exponent, or subnormal) without being zero, or lies within
    1e-6 of a rounding tie is left for the printf template.

    The 17-digit mantissa is round(|v| 10^(16-e)): the product with
    10^(16-e) = hi + lo is taken as a double-double (Dekker's product on
    Veltkamp halves, plus |v| lo), so its error is far below 1e-6, and
    the estimated exponent e is kept only if the unrounded product lies
    in [10^16, 10^17).
    """
    pow_hi, pow_lo, lead_words, digit_words, tail_words, exponent_words = _decimal_tables()
    ax = np.abs(x)
    zero = ax == 0.0
    normal = (ax >= 1e-99) & (ax < 1e99)
    a = np.where(normal, ax, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - e - _K_MIN
    hi, lo = pow_hi.take(k, mode="clip"), pow_lo.take(k, mode="clip")
    p = a * hi  # >= 2**53 when in range, so an integer
    a_hi, a_lo = _veltkamp_split(a)
    b_hi, b_lo = _veltkamp_split(hi)
    t = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + a * lo
    r = np.rint(t)
    m = p.astype(np.int64) + r.astype(np.int64)
    exact = (normal & (np.abs(t - r) < 0.5 - 1e-6)
             & ((p > 1e16) | ((p == 1e16) & (t >= 0.0))) & (m < 10**17)) | zero
    written = exact & ~zero
    m *= written
    e *= written

    rest = m
    for word, (scale, table) in enumerate([(10**15, lead_words), (10**11, digit_words),
                                           (10**7, digit_words), (10**3, digit_words)]):
        group = rest // scale
        rest = rest - group * scale
        out[..., word] = table.take(group)
    out[..., 4] = tail_words.take(rest)
    out[..., 5] = exponent_words.take(e + 99) | separators
    return exact.all(axis=1)


def _write_float_rows(fh, values: np.ndarray) -> None:
    """Write the rows of a 2-D float array as CSV lines, every cell as
    ``"%.16e" % v``, formatted and written BLOCK_CELLS cells at a time. Rows
    that _format_cells cannot vouch for go through the printf template."""
    n_rows, n_cols = values.shape
    block_rows = min(n_rows, max(1, BLOCK_CELLS // n_cols))
    text = np.empty((block_rows, n_cols, 24), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    separators = _words(0, 0, 0, np.where(np.arange(n_cols) < n_cols - 1, ord(","), ord("\n")))
    template = ",".join(["%.16e"] * n_cols) + "\n"
    for start in range(0, n_rows, block_rows):
        block = values[start:start + block_rows]
        n = len(block)
        exact = _format_cells(block, text[:n].view(np.uint32), separators)
        keep[:n, :, 0] = np.signbit(block)
        done = 0
        for row in [*np.flatnonzero(~exact).tolist(), n]:
            if row > done:
                fh.write(text[done:row][keep[done:row]].tobytes())
            if row < n:
                fh.write((template % tuple(block[row].tolist())).encode())
            done = row + 1


def _write_table(fh, columns: list[str], rows) -> None:
    """Header plus one line per row. A table of numbers goes through
    _write_float_rows; any other is formatted with the row template of its
    first row: a string cell as is, any other as ``%.16e``."""
    fh.write((",".join(columns) + "\n").encode())
    if len(rows) == 0:
        return
    if isinstance(rows, np.ndarray) or not any(isinstance(v, str) for v in rows[0]):
        _write_float_rows(fh, np.asarray(rows, dtype=float))
    else:
        template = ",".join("%s" if isinstance(v, str) else "%.16e" for v in rows[0]) + "\n"
        fh.write("".join(template % tuple(row) for row in rows).encode())


def write_csv(path: str, document: dict, result: RunResult) -> None:
    with open(path, "wb") as fh:
        fh.write(("# realclock-qm output\n# config: "
                  + json.dumps(document, sort_keys=True) + "\n").encode())
        _write_table(fh, result.columns, result.rows)
        for name, columns, rows in result.tables:
            fh.write(f"\n# table: {name}\n".encode())
            _write_table(fh, columns, rows)


def _as_lists(rows) -> list:
    """Rows (or one row) as Python lists of Python numbers."""
    return rows.tolist() if isinstance(rows, np.ndarray) else rows


def write_json(path: str, document: dict, result: RunResult) -> None:
    payload = {
        "config": document,
        "columns": result.columns,
        "rows": [dict(zip(result.columns, row)) for row in _as_lists(result.rows)],
    }
    if result.tables:
        payload["tables"] = {
            name: {"columns": columns,
                   "rows": [dict(zip(columns, row)) for row in _as_lists(rows)]}
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
    except Exception as exc:  # last resort: one line, never a traceback
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
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
