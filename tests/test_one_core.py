"""The Jacobi suite runs on one core: at the sizes of acceptance criterion 1
its CPU time stays close to its wall time, so no BLAS helper thread spins
beside it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the 27 shapes of the jacobi-grid benchmark workload: n, d in 1..3 with
# ell = 1 + (3(n-1) + d-1) mod 4, each at three kappas, 2 samples each
SCRIPT = """
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


def test_jacobi_suite_runs_on_one_core():
    # with NumPy 2.4.6 on OpenBLAS 0.3.31 and 2 CPUs, CPU time was 1.8-1.9x
    # wall time while the Jacobi contraction was one (dim x dim) @ (dim x dim^2)
    # product per sample, which OpenBLAS threads from dim 16 on, and 1.00x
    # with dim^3-sized products; on a 1-CPU host the test passes trivially.
    # The subprocess gets the default thread count, whatever the caller set.
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(env, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    cpu, wall = map(float, proc.stdout.split())
    assert cpu <= 1.3 * wall, f"CPU {cpu:.3f} s for {wall:.3f} s wall"
