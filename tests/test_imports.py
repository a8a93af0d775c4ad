"""plie runs on NumPy alone: every module imports, and the factorization and
decoupling suites run, in a process where SciPy cannot be imported; and no
plie command imports ``numpy.random``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any "import scipy..." now raises ImportError
import plie
for mod in pkgutil.iter_modules(plie.__path__):
    importlib.import_module("plie." + mod.name)
from plie.suites import RunConfig, run_suite
for suite in ("factorization", "decouple-F"):
    report = run_suite(RunConfig(suite=suite, samples=2))
    assert report.ok and report.samples == 2, report
print("ok")
"""


def test_runs_without_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# every plie command; the last line says whether numpy.random was ever imported
NO_RANDOM_SCRIPT = """
import os, sys, tempfile
import plie
from plie import cli
loaded = ["numpy.random" in sys.modules]
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "out.json")
    assert cli.main(["verify", "--suite", "all", "--samples", "2", "--out", out]) == 0
    for space in ("spoint", "spin", "tuple", "gl", "double", "dual"):
        assert cli.main(["gen-point", "--space", space, "--index", "3", "--out", out]) == 0
        loaded.append("numpy.random" in sys.modules)
print(loaded)
"""


def test_commands_do_not_import_numpy_random():
    proc = subprocess.run(
        [sys.executable, "-c", NO_RANDOM_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([False] * 7)
