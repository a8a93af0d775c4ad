"""The benchmark's workloads: which verdicts one round asks plie for.

A round is a fixed list of verdicts; only its seed changes from round to
round, so every round does the same work on fresh points and nothing the
program might remember from an earlier round can be reused.  The seed of
round r is drawn from the run's ``--seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

KAPPAS = (1.0 + 0j, 1j, 2.0 - 1j)


@dataclass(frozen=True)
class Verdict:
    """One call of a public entry point: ``run_suite`` or ``cli.main verify``."""

    suite: str
    n: int
    d: int
    ell: int
    kappa: complex
    seed: int
    samples: int

    @property
    def label(self) -> str:
        return (
            f"{self.suite} n={self.n} d={self.d} ell={self.ell} "
            f"kappa={self.kappa.real:g},{self.kappa.imag:g} seed={self.seed} samples={self.samples}"
        )

    @property
    def expected_samples(self) -> int:
        # the rank suite sweeps its fixed size grid once, whatever --samples says
        return 1 if self.suite == "rank" else self.samples


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "run_suite" or "cli"
    shapes: tuple  # (n, d, ell, kappa) of each group of verdicts
    suites: dict  # suite -> samples per verdict, asked at every shape
    warmup_shape: tuple

    def verdicts(self, seed: int) -> list:
        return [
            Verdict(suite, n, d, ell, kappa, seed, samples)
            for (n, d, ell, kappa) in self.shapes
            for suite, samples in self.suites.items()
        ]

    def warmup(self) -> list:
        """One one-sample call per suite, so lazy one-off costs land in set-up."""
        n, d, ell, kappa = self.warmup_shape
        return [Verdict(suite, n, d, ell, kappa, 0, 1) for suite in self.suites]


def _grid_shapes() -> tuple:
    # acceptance criterion 1's sizes: n, d in 1..3 and ell in 1..4, each with
    # every kappa; ell cycles with (n, d) so all four values occur
    return tuple(
        (n, d, 1 + (3 * (n - 1) + (d - 1)) % 4, kappa)
        for n in (1, 2, 3)
        for d in (1, 2, 3)
        for kappa in KAPPAS
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="jacobi-grid",
            entry="run_suite",
            shapes=_grid_shapes(),
            suites={"jacobi": 2},
            warmup_shape=(2, 2, 2, 1.0 + 0j),
        ),
        # Samples per suite bring most verdicts to tens or hundreds of
        # milliseconds, so the median call sits among many calls of similar
        # length instead of in the gap between a 3 ms and a 35 ms suite.
        Workload(
            name="decouple-cli",
            entry="cli",
            shapes=((2, 2, 3, 1.0 + 0j), (3, 3, 3, 1.0 + 0j), (4, 4, 3, 1.0 + 0j)),
            # every suite except "jacobi" (the other two workloads) and "all"
            suites={
                "decouple-m": 2,
                "decouple-F": 1,
                "factorization": 10,
                "ao-maps": 6,
                "moment": 2,
                "lemma4": 1,
                "symplectic": 25,
                "rank": 1,
                "zakrzewski": 8,
                "actions": 4,
            },
            warmup_shape=(2, 2, 3, 1.0 + 0j),
        ),
        Workload(
            name="jacobi-bigdim",
            entry="run_suite",
            shapes=((5, 5, 5, 1.0 + 0j), (4, 8, 6, 1j), (7, 7, 7, 2.0 - 1j)),
            suites={"jacobi": 1},
            warmup_shape=(2, 2, 2, 1.0 + 0j),
        ),
    )
}


def round_seeds(seed: int):
    """Endless, reproducible stream of per-round suite seeds."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)
