"""One CLI invocation with timestamps: the ``realclock-qm`` console script
(``from realclock_qm.cli import main``) plus the marks the benchmark needs.

Usage: python child.py TIMING_JSON TRACE CLI_ARGS...

The package comes from ``PYTHONPATH``. After the import the CLOCK_MONOTONIC
time is recorded, so the parent, which stamped the same clock just before
spawning this process, gets the set-up time (interpreter start plus
imports). ``run_s`` is the time inside ``cli.main``: config load and
validation, compute and write. With TRACE = 1 the layer functions are
wrapped first (see layers.py) and their self times are recorded too.
"""

import json
import sys
import time


def main() -> int:
    timing_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from realclock_qm import cli

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if trace:
        import layers

        tracer = layers.install()
    start = time.perf_counter()
    code = cli.main(cli_args)
    run_s = time.perf_counter() - start
    record = {"imported": imported, "run_s": run_s, "code": code}
    if tracer is not None:
        record["layers"] = tracer.stats
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
