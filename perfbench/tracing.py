"""Per-layer spans for plie, recorded from outside the package.

The tracer replaces each public function of a layer at every module
attribute that refers to it (``plie.decoupling.g_pm`` as well as
``plie.factorization.g_pm``, ``plie.cli.run_suite`` as well as
``plie.suites.run_suite``) and at the class attribute for methods, so callers
inside the package go through the wrapper whichever name they use.  Each
wrapped call records a span (id, parent id, layer, function, start, end);
a layer's self time is its span time minus the time of its direct children.
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Layers whose spans are one residual; ``verify.probes_per_residual`` counts
# the map and bivector evaluations made inside the outermost one.
RESIDUAL_LAYERS = frozenset({"verify.jacobi", "verify.map_residual", "verify.identities"})
BIVECTOR = "brackets.bivector"
FD = "verify.jacobian_fd"
JSON = "cli.json"
ROOT = "verdict"
SPAN_CAP = 200_000  # spans kept for the trace file; the counters see every call


def layer_table() -> dict:
    """Layer name -> list of (owner, attribute) pairs naming what to wrap."""
    from plie import (
        brackets,
        charts,
        cli,
        decoupling,
        factorization,
        kernels,
        sampling,
        suites,
        tensors,
        verify,
    )

    t4 = tensors.Tensor4
    t4_products = ("lmul1", "rmul1", "lmul2", "rmul2", "__add__", "__sub__", "__mul__", "__rmul__",
                   "__neg__", "swap_legs", "flatten")
    return {
        "sampling": [(sampling, n) for n in sampling.__all__ if n.startswith("sample_")],
        "charts": [(charts, n) for n in charts.__all__ if n.startswith(("pack_", "unpack_"))],
        BIVECTOR: [(brackets.BracketSpec, "bivector")]
        + [(brackets, n) for n in brackets.__all__ if n.endswith("_bivector")],
        "kernels.fill": [(kernels, "fill_s"), (kernels, "fill_hat")],
        "verify.jacobi": [(verify, "jacobi_residual")],
        FD: [(verify, "jacobian_fd")],
        "verify.map_residual": [
            (verify, n) for n in ("poisson_map_residual", "anti_poisson_residual", "action_residual")
        ],
        "verify.identities": [
            (verify, n)
            for n in (
                "bracket_functions",
                "bracket_coord_fn",
                "moment_residuals",
                "lemma_h_residuals",
                "symplectic_inversion_residual",
                "rank_at",
                "zak_condition_residual",
            )
        ],
        "factorization": [(factorization, n) for n in factorization.__all__],
        "decoupling": [(decoupling, n) for n in decoupling.__all__],
        "tensors": [(t4, n) for n in t4_products]
        + [(tensors, n) for n in ("dj_r", "r_pm", "casimir", "c12", "eta", "elementary")],
        "suites": [(suites, "run_suite")],
        JSON: [(cli, "report_to_json")],
        "cli.main": [(cli, "main")],
    }


class Tracer:
    """Span recorder with per-layer call counts and self times.

    Counters accumulate until ``take`` returns and clears them, so the caller
    decides what one measurement covers (here: one round of verdicts).
    """

    def __init__(self):
        self.keep_spans = False
        self.spans: list = []
        self.spans_dropped = 0
        self._stack: list = []  # open frames: [layer, child_seconds, span_id]
        self._next_id = 0
        self._bivector_depth = 0
        self._residual_depth = 0
        self._patches: list = []
        self._reset()

    def _reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.json_bytes = 0
        self.bivector_evals = 0  # outermost bivector evaluations
        self.residuals = 0  # outermost residual spans
        self.probes = 0  # map/bivector evaluations inside a residual

    def take(self) -> dict:
        out = {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "json_bytes": self.json_bytes,
            "bivector_evals": self.bivector_evals,
            "residuals": self.residuals,
            "probes": self.probes,
        }
        self._reset()
        return out

    # --- recording ------------------------------------------------------------

    def call(self, layer: str, name: str, fn, args, kwargs):
        is_bivector = layer == BIVECTOR
        outer_bivector = is_bivector and self._bivector_depth == 0
        is_residual = layer in RESIDUAL_LAYERS
        if outer_bivector:
            self.bivector_evals += 1
            if self._residual_depth:
                self.probes += 1
        if is_residual and self._residual_depth == 0:
            self.residuals += 1
        if layer == FD and args:
            args = (self._probe(args[0]),) + tuple(args[1:])
        self._bivector_depth += is_bivector
        self._residual_depth += is_residual
        parent = self._stack[-1] if self._stack else None
        frame = [layer, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._bivector_depth -= is_bivector
            self._residual_depth -= is_residual
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
            self.calls[layer] += 1
            self.self_s[layer] += dur - frame[1]
            if self.keep_spans:
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[2], parent[2] if parent else None, layer, name, t0, t1))
                else:
                    self.spans_dropped += 1
        if layer == JSON:
            self.json_bytes += len(result.encode())
        return result

    def _probe(self, f):
        """Count each evaluation of a map differentiated by ``jacobian_fd``."""

        def probe(x):
            if self._residual_depth:
                self.probes += 1
            return f(x)

        return probe

    def run(self, label: str, fn):
        """Run one verdict as the root span of its calls."""
        return self.call(ROOT, label, fn, (), {})

    # --- installing -------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        name = getattr(fn, "__qualname__", repr(fn))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == "plie" or k.startswith("plie.")]
        for layer, targets in layer_table().items():
            for owner, attr in targets:
                orig = owner.__dict__[attr]
                wrapped = self._wrap(layer, orig)
                if isinstance(owner, type):
                    self._patch(owner, attr, orig, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
