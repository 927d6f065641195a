"""The traced benchmark run wraps the functions named in
perfbench/tracing.py's TARGETS, and its `install` raises on a name that is
gone; check here that every target still resolves in dpirred.  The file is
only read and executed, without running `install`, so nothing gets patched
and no bytecode is written next to it."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    assert tracing["TARGETS"]
    for name, modname, attr in tracing["TARGETS"]:
        obj = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(obj, cls_name)), name
        else:
            assert callable(getattr(obj, attr)), name
