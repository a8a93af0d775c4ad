"""The benchmark under perfbench/ reaches into plie by name: its tracer wraps
module and class attributes, and its checks import plie functions.  A
rename in plie that breaks either fails here, not first in a benchmark run.
This test only reads perfbench/."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_layer_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    importlib.import_module("perfbench.checks")
    tracing = importlib.import_module("perfbench.tracing")
    table = tracing.layer_table()
    missing = [
        f"{layer}: {getattr(owner, '__name__', owner)}.{attr}"
        for layer, targets in table.items()
        for owner, attr in targets
        if attr not in owner.__dict__
    ]
    assert not missing, missing
    assert all(table.values()), [layer for layer, targets in table.items() if not targets]
