"""Command-line interface: seeded point generation and verification suites.

Exit codes: 0 suite passed, 1 suite failed, 2 invalid configuration,
3 internal evaluation error, 4 unexpected error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from functools import lru_cache
from typing import Any, Optional

import numpy as np

from . import sampling
from .errors import ConfigError, PlieError
from .suites import SUITES, RunConfig, run_suite
from .verify import VerificationReport

__all__ = ["main", "build_parser", "report_to_json"]

_SPACES = ("spoint", "spin", "tuple", "gl", "double", "dual")


def _jsonable(value: Any):
    """Recursively convert values to JSON-friendly form; complex -> [re, im].

    A non-finite float (a NaN or infinite residual) becomes null, so the
    report stays strict JSON.
    """
    if isinstance(value, (complex, np.complexfloating)):
        return [_jsonable(float(value.real)), _jsonable(float(value.imag))]
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def report_to_json(report: VerificationReport) -> str:
    payload = {
        "suite": report.suite,
        "params": _jsonable(report.params),
        "seed": report.seed,
        "samples": report.samples,
        "max_residual": _jsonable(report.max_residual),
        "pass": report.ok,
        "failures": [
            {"index": i, "residual": _jsonable(r), "digest": d} for i, r, d in report.failures
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def _complex_value(name: str, value):
    """A complex setting given as 're,im' or 're' (flag or file) or as [re, im]
    (file); any other value is left for RunConfig to judge."""
    if isinstance(value, str):
        try:
            parts = [float(p) for p in value.split(",")]
        except ValueError:
            parts = []
        if 1 <= len(parts) <= 2:
            return complex(*parts)
    elif isinstance(value, list):
        if len(value) == 2 and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in value):
            return complex(*value)
    else:
        return value
    raise ConfigError(f"{name} must be 're,im' or [re, im], got {value!r}")


# every RunConfig field but the suite is a setting: a flag and a config-file key
_SETTINGS = [f for f in fields(RunConfig) if f.name != "suite"]
# the settings of a sample point
_POINT_SETTINGS = [f for f in _SETTINGS if f.name in ("n", "d", "ell", "seed", "radius")]


def _add_setting_flags(parser: argparse.ArgumentParser, settings: list) -> None:
    """One flag per setting, None when not given, so RunConfig's default applies."""
    for f in settings:
        # a complex value stays a string 're,im' here and is parsed like the config file's
        kind = {"int": int, "float": float}.get(f.type, str)
        spelling = " as 're,im'" if f.type == "complex" else ""
        parser.add_argument(f"--{f.name}", type=kind, help=f"{f.type}{spelling}, default {f.default}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plie", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite and emit a JSON report")
    v.add_argument("--suite", required=True, choices=SUITES)
    _add_setting_flags(v, _SETTINGS)
    v.add_argument("--config", type=str, default=None, help="JSON file with settings (flags win)")
    v.add_argument("--out", type=str, default=None, help="report path (default: stdout)")

    g = sub.add_parser("gen-point", help="emit a deterministic sample point as JSON")
    g.add_argument("--space", required=True, choices=_SPACES)
    _add_setting_flags(g, _POINT_SETTINGS)
    g.add_argument("--index", type=int, default=0)
    g.add_argument("--out", type=str, default=None)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: argparse sets up a
    help formatter for every argument it adds, about 0.5 ms a parser."""
    return build_parser()


def _run_config(suite: str, values: dict) -> RunConfig:
    """The RunConfig of ``values``, with PLIE_SEED, when set, as the seed
    that ``values`` does not give."""
    raw = os.environ.get("PLIE_SEED")
    if "seed" not in values and raw:
        try:
            values["seed"] = int(raw)
        except ValueError as exc:
            raise ConfigError(f"PLIE_SEED must be an integer, got {raw!r}") from exc
    return RunConfig(suite=suite, **values)


def _given(args: argparse.Namespace, settings: list) -> dict:
    """The settings given as flags."""
    return {f.name: getattr(args, f.name) for f in settings if getattr(args, f.name) is not None}


def _build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(values) - {f.name for f in _SETTINGS})
        if unknown:
            raise ConfigError(
                f"unknown config key(s) {', '.join(unknown)}; use {', '.join(f.name for f in _SETTINGS)}"
            )
    values.update(_given(args, _SETTINGS))
    for f in _SETTINGS:
        if f.type == "complex" and f.name in values:
            values[f.name] = _complex_value(f.name, values[f.name])
    return _run_config(args.suite, values)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    try:
        report = run_suite(cfg)
    except PlieError as exc:
        print(f"internal evaluation error: {exc}", file=sys.stderr)
        return 3
    _emit(report_to_json(report), args.out)
    return 0 if report.ok else 1


def _cmd_gen_point(args: argparse.Namespace) -> int:
    # a point takes the bounds of a run, so every generated point is one a suite can take
    cfg = _run_config("all", _given(args, _POINT_SETTINGS))
    seed, n, d, ell, r, i = cfg.seed, cfg.n, cfg.d, cfg.ell, cfg.radius, args.index
    if i < 0:
        raise ConfigError(f"need index >= 0, got {i}")
    if args.space == "spoint":
        p = sampling.sample_spoint(seed, i, n, d, r)
        payload = {"space": "spoint", "n": n, "d": d, "A": p.A, "B": p.B}
    elif args.space == "spin":
        s = sampling.sample_spin(seed, i, n, r)
        payload = {"space": "spin", "n": n, "a": s.a, "b": s.b}
    elif args.space == "tuple":
        t = sampling.sample_tuple(seed, i, n, d, r)
        payload = {
            "space": "tuple",
            "n": n,
            "d": d,
            "copies": [{"a": s.a, "b": s.b} for s in t],
        }
    elif args.space == "gl":
        payload = {"space": "gl", "ell": ell, "g": sampling.sample_gl(seed, i, ell, r)}
    elif args.space == "double":
        u, vv = sampling.sample_double(seed, i, ell, r)
        payload = {"space": "double", "ell": ell, "u": u, "v": vv}
    else:
        pr = sampling.sample_dual(seed, i, ell, r)
        payload = {"space": "dual", "ell": ell, "hplus": pr.hplus, "hminus": pr.hminus}
    payload["seed"] = seed
    payload["index"] = i
    payload["radius"] = r
    _emit(json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False), args.out)
    return 0


def main(argv: Optional[list] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage already; re-raise others
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_gen_point(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PlieError as exc:
        print(f"internal evaluation error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect, not a verdict: keep it apart from exit 1
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
