"""The suites run on one core: at the sizes of acceptance criterion 1, of the
decouple-cli benchmark workload and beyond it at n = d = 5, their CPU time
stays close to their wall time, so no BLAS helper thread spins beside them."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the 27 shapes of the jacobi-grid benchmark workload: n, d in 1..3 with
# ell = 1 + (3(n-1) + d-1) mod 4, each at three kappas, 2 samples each
JACOBI_SCRIPT = """
import time
from plie.suites import RunConfig, run_suite
configs = [
    RunConfig(suite="jacobi", n=n, d=d, ell=1 + (3 * (n - 1) + d - 1) % 4, kappa=kappa, seed=seed, samples=2)
    for seed in (1, 2, 3)
    for n in (1, 2, 3)
    for d in (1, 2, 3)
    for kappa in (1.0 + 0j, 1j, 2.0 - 1j)
]
for cfg in configs[:27]:  # warm-up
    assert run_suite(cfg).ok, cfg
time.sleep(0.5)  # OpenBLAS's helper threads spin for a while after start-up before they sleep
wall, cpu = time.perf_counter(), time.process_time()
for cfg in configs[27:]:
    assert run_suite(cfg).ok, cfg
print(time.process_time() - cpu, time.perf_counter() - wall)
"""

# lemma4 at n = d = 4, the largest shape of the decouple-cli benchmark workload:
# one warm-up verdict, then 40 verdicts on new seeds
LEMMA4_SCRIPT = """
import time
from plie.suites import RunConfig, run_suite
assert run_suite(RunConfig(suite="lemma4", n=4, d=4, ell=3, samples=1)).ok  # warm-up
time.sleep(0.5)  # OpenBLAS's helper threads spin for a while after start-up before they sleep
wall, cpu = time.perf_counter(), time.process_time()
for seed in range(100, 140):
    assert run_suite(RunConfig(suite="lemma4", n=4, d=4, ell=3, seed=seed, samples=1)).ok, seed
print(time.process_time() - cpu, time.perf_counter() - wall)
"""

# the suites past the decouple-cli workload at n = d = 5 (dim 50): a warm-up
# verdict of each, then 5 two-sample verdicts of each on new seeds, timed per suite
DIM50_SUITES = ("decouple-F", "ao-maps", "actions", "moment", "lemma4")
DIM50_SCRIPT = f"""
import time
from plie.suites import RunConfig, run_suite
for suite in {DIM50_SUITES!r}:  # warm-up
    assert run_suite(RunConfig(suite=suite, n=5, d=5, samples=2)).ok, suite
time.sleep(0.5)  # OpenBLAS's helper threads spin for a while after start-up before they sleep
for suite in {DIM50_SUITES!r}:
    wall, cpu = time.perf_counter(), time.process_time()
    for seed in range(100, 105):
        assert run_suite(RunConfig(suite=suite, n=5, d=5, seed=seed, samples=2)).ok, (suite, seed)
    print(time.process_time() - cpu, time.perf_counter() - wall)
"""


def _cpu_and_wall(script: str):
    """(CPU, wall) seconds that ``script`` prints, run in a fresh interpreter;
    (CPU, wall, CPU, wall, ...) if it prints several pairs.

    The subprocess gets the default thread count, whatever the caller set."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(env, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(map(float, proc.stdout.split()))


def test_jacobi_suite_runs_on_one_core():
    # with NumPy 2.4.6 on OpenBLAS 0.3.31 and 2 CPUs, CPU time was 1.8-1.9x
    # wall time while the Jacobi contraction was one (dim x dim) @ (dim x dim^2)
    # product per sample, which OpenBLAS threads from dim 16 on, and 1.00x
    # with the product in row blocks below the threading size (``_matmul``);
    # on a 1-CPU host the test passes trivially.
    cpu, wall = _cpu_and_wall(JACOBI_SCRIPT)
    assert cpu <= 1.3 * wall, f"CPU {cpu:.3f} s for {wall:.3f} s wall"


def test_lemma4_suite_runs_on_one_core():
    # with NumPy 2.4.6 on OpenBLAS 0.3.31 and 2 CPUs, CPU time was 1.9-2.0x
    # wall time while the lemma4 brackets were two flat products
    # (32 x 32 x 128 and 64 x 32 x 128 multiply-adds at n = d = 4, which
    # OpenBLAS threads), and 1.00x with both in row blocks (``_matmul``). A regression
    # fails this test in most runs but not in every run: in some processes the
    # helper thread sleeps through the timed verdicts (such runs read 1.1-1.2).
    cpu, wall = _cpu_and_wall(LEMMA4_SCRIPT)
    assert cpu <= 1.3 * wall, f"CPU {cpu:.3f} s for {wall:.3f} s wall"


def test_suites_at_dim_50_run_on_one_core():
    # with NumPy 2.4.6 on OpenBLAS 0.3.31 and 2 CPUs, CPU time was 1.7-2.05x
    # wall time per suite while their pushforwards and bracket products at
    # dim 50 were single products, which OpenBLAS threads, and 0.95-1.00x
    # with every product in row blocks below the threading size (``_matmul``)
    times = _cpu_and_wall(DIM50_SCRIPT)
    for suite, cpu, wall in zip(DIM50_SUITES, times[::2], times[1::2]):
        assert cpu <= 1.3 * wall, f"{suite}: CPU {cpu:.3f} s for {wall:.3f} s wall"
