"""Traced entry point for one cold CLI run.

    python3 perfbench/cli_traced.py <summary.json> <varifold-lab arguments...>

Times the import of varifold_lab.cli, attaches the tracer, runs the command
as `python -m varifold_lab` would, restores every rebinding and writes the
span and counter summary.  Exits with the command's status.
"""

import json
import sys
import time

t0 = time.perf_counter()
import varifold_lab.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.attach()
try:
    status, _ = cli.run(sys.argv[2:])
finally:
    tracer.detach()
summary = tracer.summary()
summary["counters"]["cli.import_s"] = import_s
with open(sys.argv[1], "w") as fh:
    json.dump(summary, fh)
sys.exit(status)
