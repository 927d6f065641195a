"""Traced stand-in for `python -m dpirred.cli`: times the import of
dpirred.cli, records spans around the library calls the CLI makes, and
writes the totals to the file named by the first argument.

    python perfbench/cli_child.py OUT.json analyze INPUT --format json
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import dpirred.cli  # noqa: E402

import_s = perf_counter() - t0

from tracing import Tracer, install  # noqa: E402

tracer = Tracer()
install(tracer)
tracer.begin_op(0)
try:
    code = dpirred.cli.main(sys.argv[2:])
finally:
    tracer.end_op()
    with open(sys.argv[1], "w") as fh:
        json.dump({"import_s": import_s, **tracer.totals()}, fh)
sys.exit(code)
