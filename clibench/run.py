"""End-to-end and per-layer benchmark of the realclock-qm CLI.

Usage (from the root of a checkout):
    python3 clibench/run.py --workload trajectory|relational|spin_bath
                            --seed N --seconds S --trace 0|1

A workload is a fixed list of CLI invocations whose configs are generated
from the seed (workloads.py). The benchmark runs the list as whole rounds,
one invocation at a time (a closed loop with one client), until S seconds
have passed, and checks every output against values computed apart from
the program (checks.py). An operation is one invocation; it fails if it
exits non-zero or if a check of its output fails.

With --trace 0 the last stdout line reports, per operation the fastest of
its rounds (see combine), summed over the operations:
    setup_s      spawn until realclock_qm.cli is imported
    run_s        time inside the CLI entry point
    wall_s       spawn until exit
    peak_rss_mb  peak RSS, the largest over the operations
With --trace 1 each round runs every invocation twice, plain and traced,
and the last line reports the per-layer figures of the traced pass
(layers.py) plus the tracing overhead, traced minus plain run_s.

Each invocation is a fresh ``python child.py`` process with this checkout's
``src`` on PYTHONPATH, BLAS threads pinned to 1 and REALCLOCK_QM_WORKERS=1.
Peak RSS comes from os.wait4. Exits 2 without a result when the checkout
holds no program to run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROGRAM = SRC / "realclock_qm" / "cli.py"
IMPORT_PACKAGES = ("numpy", "scipy", "jsonschema", "realclock_qm")


@dataclass
class Invocation:
    """What one CLI run measured and whether its output held up."""

    op: str
    code: int
    wall_s: float
    rss_mb: float
    setup_s: float | None = None
    run_s: float | None = None
    out_bytes: int = 0
    layers: dict = field(default_factory=dict)
    log: str = ""
    check_error: str | None = None

    @property
    def failed(self) -> bool:
        return self.code != 0 or self.setup_s is None or self.check_error is not None


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REALCLOCK_QM_WORKERS="1",
    )
    return env


def invoke(op: workloads.Op, workdir: Path, env: dict, trace: bool) -> Invocation:
    config = workdir / f"{op.name}.json"
    out = workdir / f"{op.name}.csv"
    timing = workdir / f"{op.name}.timing.json"
    log = workdir / f"{op.name}.log"
    for stale in (out, timing):
        stale.unlink(missing_ok=True)
    argv = [sys.executable, *(["-X", "importtime"] if trace else []),
            str(BENCH / "child.py"), str(timing), "1" if trace else "0",
            op.command, "--config", str(config), "--out", str(out)]
    actions = [
        (os.POSIX_SPAWN_OPEN, 2, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 2, 1),
    ]
    spawned = _monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    exited = _monotonic()
    result = Invocation(op=op.name, code=os.waitstatus_to_exitcode(status),
                        wall_s=exited - spawned, rss_mb=usage.ru_maxrss / 1024.0,
                        log=log.read_text(encoding="utf-8", errors="replace"))
    if timing.exists():
        record = json.loads(timing.read_text(encoding="utf-8"))
        result.setup_s = record["imported"] - spawned
        result.run_s = record["run_s"]
        result.layers = record.get("layers", {})
    if result.code == 0 and out.exists():
        result.out_bytes = out.stat().st_size
        try:
            op.check(checks.parse_csv(out.read_text(encoding="utf-8")))
        except checks.CheckFailed as exc:
            result.check_error = str(exc)
        except (ValueError, IndexError, KeyError) as exc:
            result.check_error = f"unreadable output: {exc}"
    elif result.code == 0:
        result.check_error = "no output file"
    return result


def run_pass(ops, workdir: Path, env: dict, trace: bool) -> list[Invocation]:
    results = []
    for op in ops:
        result = invoke(op, workdir, env, trace)
        if result.failed:
            reason = result.check_error or f"exit {result.code}: {result.log.strip()[-400:]}"
            print(f"FAILED {op.name}: {reason}", file=sys.stderr)
        results.append(result)
    return results


def plain_figures(result: Invocation) -> dict[str, float]:
    return {"setup_s": result.setup_s, "run_s": result.run_s, "wall_s": result.wall_s,
            "peak_rss_mb": result.rss_mb}


def traced_figures(result: Invocation) -> dict[str, float]:
    figures = {"run_s": result.run_s, "cli.output_bytes": result.out_bytes}
    for layer, (self_s, calls) in result.layers.items():
        figures[f"{layer}_s"] = self_s
        figures[f"{layer}_calls"] = calls
    imports = layers.importtime_by_package(result.log, IMPORT_PACKAGES)
    for package, seconds in imports.items():
        figures[f"setup.import_{package}_s"] = seconds
    return figures


def fastest(samples: dict[str, list[dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Each operation's fastest round.

    Other tenants of the machine slow it down in spells of seconds to
    minutes, by up to about 50 %; they never speed it up. The fastest round
    of each operation is therefore the figure least moved by them.
    """
    return {op: {key: min(s[key] for s in runs) for key in runs[0]}
            for op, runs in samples.items() if runs}


def combine(per_op: dict[str, dict[str, float]]) -> dict[str, float]:
    """Sum over the operations; for peak RSS, the largest."""
    keys = {key for figures in per_op.values() for key in figures}
    return {key: (max if key == "peak_rss_mb" else sum)(f.get(key, 0.0) for f in per_op.values())
            for key in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not PROGRAM.is_file():
        print(f"no program to benchmark: {PROGRAM.relative_to(ROOT)} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if args.trace else "end_to_end"]

    # bytecode as an installed package has it, so the first round pays no compile
    compileall.compile_dir(str(SRC / "realclock_qm"), quiet=1)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    workdir = BENCH / "_runs" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    plain = {op.name: [] for op in ops}
    traced = {op.name: [] for op in ops}
    rounds = attempted = failed = check_failures = 0
    try:
        for op in ops:
            (workdir / f"{op.name}.json").write_text(json.dumps(op.config), encoding="utf-8")
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            rounds += 1
            passes = [(False, plain, plain_figures)]
            if args.trace:
                passes.append((True, traced, traced_figures))
            for trace, samples, figures in passes:
                for result in run_pass(ops, workdir, env, trace):
                    attempted += 1
                    failed += result.failed
                    check_failures += result.check_error is not None
                    if not result.failed:
                        samples[result.op].append(figures(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for op, figures in fastest(plain).items():
        print(op, " ".join(f"{key}={value:.4f}" for key, value in sorted(figures.items())),
              file=sys.stderr)
    measured = combine(fastest(plain))
    if args.trace:
        plain_run_s = measured["run_s"]
        measured = combine(fastest(traced))
        measured["trace.overhead_s"] = measured["run_s"] - plain_run_s
        conditional = [f"evolution.{name}_calls" for name in
                       ("conditional_probability", "conditional_probability_analytic")]
        if any(name in measured for name in conditional):
            measured["evolution.conditional_calls"] = sum(measured.get(n, 0) for n in conditional)
    metrics = {}
    for metric in section:
        if metric["name"] in measured:
            metrics[metric["name"]] = {"value": measured[metric["name"]], "unit": metric["unit"]}
        else:
            print(f"absent: {metric['name']}", file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds, {attempted} invocations, {failed} failed",
          file=sys.stderr)
    print(json.dumps({"correct": check_failures == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
