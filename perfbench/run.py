"""Benchmark of plie's verifier: time to verdict, CPU, memory and per-layer spans.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload jacobi-grid --seed 1 --seconds 30 --trace 0

One process, one call at a time (closed loop, no threads of its own).  The
run repeats whole rounds of the workload's verdicts (see ``workloads.py``)
for about ``--seconds``, each round on fresh seeds drawn from ``--seed``,
checks every output between rounds and after the last one (outside the
timed region), and prints one JSON object as its last line of output:

* ``--trace 0``: the end-to-end metrics ``setup_s``, ``wall_s``, ``cpu_s``,
  ``verdict_p50_ms`` and ``peak_rss_mb``;
* ``--trace 1``: the per-layer metrics, from rounds run under the span
  tracer of ``tracing.py`` for the second half of ``--seconds``, after
  untraced rounds for the first half to compare with.

The full figures, and in traced runs the spans of the first traced round,
are written under ``.perfbench_out/`` in the checkout.  Imports plie from the
checkout's ``src/``; exits 2 without a result when those sources are absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# fresh processes timed per run; setup_s is their median, because in some
# fresh processes the first LAPACK calls stall (see README.md)
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def _use_checkout_sources() -> None:
    if not (SRC / "plie" / "__init__.py").is_file():
        print(f"perfbench: plie sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


@dataclass
class Round:
    seed: int
    wall_s: float
    cpu_s: float
    verdict_s: list
    samples: int
    failed: int = 0
    problems: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


class Runner:
    """Builds the calls of a round and runs them through plie's entry points."""

    def __init__(self, workload, workdir: Path):
        from plie import cli, suites

        from checks import check_cli_output, check_report

        self.workload = workload
        self.workdir = workdir
        self._cli = cli
        self._suites = suites
        self._check = check_cli_output if workload.entry == "cli" else check_report

    def prepare(self, verdicts) -> list:
        """Configurations and argument lists, built before the round's clock starts."""
        calls = []
        for i, v in enumerate(verdicts):
            if self.workload.entry == "cli":
                path = self.workdir / f"{i}.json"
                argv = [
                    "verify", "--suite", v.suite, "--n", str(v.n), "--d", str(v.d),
                    "--ell", str(v.ell), "--kappa", f"{v.kappa.real!r},{v.kappa.imag!r}",
                    "--seed", str(v.seed), "--samples", str(v.samples), "--out", str(path),
                ]
                calls.append((v, self._cli_call(argv, path)))
            else:
                cfg = self._suites.RunConfig(
                    suite=v.suite, n=v.n, d=v.d, ell=v.ell, kappa=v.kappa, seed=v.seed, samples=v.samples
                )
                calls.append((v, self._suite_call(cfg)))
        return calls

    # Each call returns the arguments of the workload's check.  The entry
    # point is looked up when called, so a traced run goes through its wrapper.
    def _cli_call(self, argv, path):
        return lambda: (self._cli.main(argv), path)

    def _suite_call(self, cfg):
        return lambda: (self._suites.run_suite(cfg),)

    def run_round(self, seed: int, tracer=None) -> Round:
        verdicts = self.workload.verdicts(seed)
        calls = self.prepare(verdicts)
        outputs, times = [], []
        if tracer:
            tracer.take()  # the counters cover this round's verdicts only
        c0 = time.process_time()
        t0 = time.perf_counter()
        for v, call in calls:
            s = time.perf_counter()
            try:
                out = tracer.run(v.label, call) if tracer else call()
            except Exception as exc:  # a crashing verdict is a failed one; keep measuring
                traceback.print_exc(file=sys.stderr)
                out = exc
            times.append(time.perf_counter() - s)
            outputs.append(out)
        t1 = time.perf_counter()
        c1 = time.process_time()
        rnd = Round(seed, t1 - t0, c1 - c0, times, sum(v.expected_samples for v in verdicts))
        if tracer:
            rnd.layers = tracer.take()
        for v, out in zip(verdicts, outputs):
            if isinstance(out, Exception):
                rnd.failed += 1
                rnd.problems.append(f"{v.label}: raised {type(out).__name__}: {out}")
                continue
            failed, problems, res = self._check(v, *out)
            rnd.failed += failed
            rnd.problems += problems
            rnd.residuals.append(res)
        for p in self.workdir.glob("*.json"):
            p.unlink()
        return rnd

    def warm_up(self) -> None:
        for _, call in self.prepare(self.workload.warmup()):
            call()


def setup(workload_name: str, workdir: Path) -> Runner:
    """Import plie, build the configurations and warm up each entry point."""
    from workloads import WORKLOADS

    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(WORKLOADS[workload_name], workdir)
    runner.warm_up()
    return runner


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until it has finished setup()."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc}, said {line.strip()!r})")
    return elapsed


def measure(runner: Runner, seeds, seconds: float, tracer=None) -> list:
    """Whole rounds until the next one would end after ``seconds`` (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.keep_spans = not rounds  # spans of the first traced round only
        t = time.perf_counter()
        rounds.append(runner.run_round(next(seeds), tracer))
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > seconds:
            return rounds


def end_to_end(setups, rounds, peak_rss_mb) -> dict:
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([r.wall_s for r in rounds]), "s"),
        "cpu_s": (median([r.cpu_s for r in rounds]), "s"),
        "verdict_p50_ms": (1e3 * median([t for r in rounds for t in r.verdict_s]), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(plain, traced) -> dict:
    from tracing import layer_table

    out = {}
    for layer in layer_table():
        out[f"{layer}.calls"] = (median([r.layers["calls"].get(layer, 0) for r in traced]), "count")
        out[f"{layer}.self_s"] = (median([r.layers["self_s"].get(layer, 0.0) for r in traced]), "s")
    out["cli.json.bytes"] = (median([r.layers["json_bytes"] for r in traced]), "bytes")
    samples = sum(r.samples for r in traced)
    out["brackets.bivector_calls_per_sample"] = (sum(r.layers["bivector_evals"] for r in traced) / samples, "ratio")
    residuals = sum(r.layers["residuals"] for r in traced)
    probes = sum(r.layers["probes"] for r in traced)
    out["verify.probes_per_residual"] = (probes / residuals if residuals else 0.0, "count")
    nonzero = [x for r in plain + traced for x in r.residuals if x > 0]
    out["verify.margin_digits"] = (min(-math.log10(x) for x in nonzero) if nonzero else 0.0, "digits")
    out["trace.overhead_s"] = (
        median([r.wall_s for r in traced]) - median([r.wall_s for r in plain]), "s"
    )
    return out


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # NumPy before 1.26 has no mode argument
        blas = {}
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_checkout_sources()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, round_seeds

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            setup(args.workload, workdir)
            print("ready", flush=True)
            return 0
        return _run(args, workdir, round_seeds(args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path, seeds) -> int:
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    runner = setup(args.workload, workdir)

    tracer = None
    if args.trace:
        from tracing import Tracer

        plain = measure(runner, seeds, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(runner, seeds, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        rounds = plain + traced
    else:
        rounds = measure(runner, seeds, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import check_bivectors, negative_controls

    problems = [p for r in rounds for p in r.problems]
    problems += check_bivectors(runner.workload.verdicts(rounds[0].seed))
    problems += negative_controls(rounds[0].seed)
    attempted = sum(len(r.verdict_s) for r in rounds)
    failed = sum(r.failed for r in rounds)

    metrics = per_layer(plain, traced) if args.trace else end_to_end(setups, rounds, peak_rss_mb)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": _environment(),
        "setup_s": setups,
        "rounds": [vars(r) for r in rounds],
        "traced_rounds": len(traced) if args.trace else 0,
        "spans_dropped": tracer.spans_dropped if tracer else 0,
        "problems": problems,
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1, default=str))
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} verdicts, {failed} failed, "
          f"{len(problems)} check problems; details in {stem.with_suffix('.json').relative_to(ROOT)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
