"""Per-layer tracing for the benchmark's traced runs.

``install()`` wraps the public functions below by name: in the module that
defines them and wherever the package holds another reference to them
(``cli`` does ``from .evolution import ...`` and keeps its runners in the
``RUNNERS`` dict). Each call becomes a span; a layer's self time is the sum
of its spans' durations minus the time spent in traced spans nested inside
them. A function that no longer exists under its name is reported as
absent (no figures) instead of failing the run.

``importtime_by_package`` splits the output of ``python -X importtime``
into the import cost of each third-party package and of the program.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "realclock_qm"

# layer -> functions whose calls it counts, as (module, attribute path)
TARGETS = {
    "config.load": [("config", "load_config")],
    "config.validate": [("config", "validate_config")],
    "cli.runner": [("cli", name) for name in
                   ("run_evolve", "run_zurek", "run_condprob", "run_clock_limits", "run_sweep")],
    "cli.write": [("cli", "write_csv"), ("cli", "write_json")],
    "core.density_matrix": [("core", "DensityMatrix.__post_init__")],
    "core.eigendecompose": [("core", "eigendecompose")],
    "core.build_projector": [("core", "build_projector")],
    "clocks.pdf": [("clocks", "pdf")],
    "clocks.sigma": [("clocks", "sigma")],
    "evolution.evolve_master": [("evolution", "evolve_master")],
    "evolution.master_step": [("evolution", "master_step")],
    "evolution.smear_density": [("evolution", "smear_density")],
    "evolution.conditional_probability": [("evolution", "conditional_probability")],
    "evolution.conditional_probability_analytic":
        [("evolution", "conditional_probability_analytic")],
    "zurek.z_ideal": [("zurek", "z_ideal")],
    "zurek.z_realclock": [("zurek", "z_realclock")],
    "zurek.brute_force_z": [("zurek", "brute_force_z")],
    "zurek.recurrence_scan": [("zurek", "recurrence_scan")],
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # layer -> [self seconds, calls]
        self._open: list[float] = []  # time of traced children, per open span

    def wrap(self, layer: str, fn):
        stat = self.stats.setdefault(layer, [0.0, 0])
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stat[0] += duration - open_spans.pop()
                stat[1] += 1
                if open_spans:
                    open_spans[-1] += duration

        return traced


def _rebind(original, replacement) -> None:
    """Point every reference the package holds to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for dict_key, entry in list(value.items()):
                    if entry is original:
                        value[dict_key] = replacement


def install() -> Tracer:
    tracer = Tracer()
    for layer, targets in TARGETS.items():
        for module_name, path in targets:
            holder = sys.modules.get(f"{PACKAGE}.{module_name}")
            *parents, attr = path.split(".")
            for parent in parents:
                holder = getattr(holder, parent, None)
            original = getattr(holder, attr, None)
            if not callable(original):
                continue
            replacement = tracer.wrap(layer, original)
            setattr(holder, attr, replacement)
            _rebind(original, replacement)
    return tracer


def importtime_by_package(log: str, packages: tuple[str, ...]) -> dict[str, float]:
    """Seconds of import time per package from ``-X importtime`` lines.

    Every module's self time goes to the nearest module on its import chain
    (itself included) that belongs to one of ``packages``, so the standard
    library modules numpy pulls in count as numpy's, and numpy's import
    inside the program's import counts as numpy's, not the program's.
    Entries are printed children first, indented by nesting depth.
    """
    children: dict[int, list] = {}
    for line in log.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name_field = line.removeprefix("import time:").split("|")
        depth = (len(name_field) - len(name_field.lstrip(" "))) // 2
        node = (name_field.strip(), int(self_us), children.pop(depth + 1, []))
        children.setdefault(depth, []).append(node)

    totals = dict.fromkeys(packages, 0.0)

    def visit(node, owner):
        name, self_us, kids = node
        top = name.split(".")[0]
        owner = top if top in totals else owner
        if owner is not None:
            totals[owner] += self_us * 1e-6
        for kid in kids:
            visit(kid, owner)

    for roots in children.values():
        for root in roots:
            visit(root, None)
    return totals
