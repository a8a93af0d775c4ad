"""Tests for the command-line interface: exit codes, determinism, precedence."""

import dataclasses
import json

import pytest

from plie import cli, suites
from plie.cli import build_parser, main, report_to_json
from plie.verify import VerificationReport

FAST = ["--samples", "3"]


def _verify(tmp_path, name, *args):
    out = tmp_path / name
    code = main(["verify", *args, "--out", str(out)])
    return code, out.read_text()


class TestVerify:
    def test_jacobi_passes(self, tmp_path):
        code, text = _verify(
            tmp_path, "r.json", "--suite", "jacobi", "--n", "2", "--d", "2",
            "--kappa", "1,0", "--seed", "42", *FAST,
        )
        assert code == 0
        report = json.loads(text)
        assert report["pass"] is True
        assert report["suite"] == "jacobi"
        assert report["failures"] == []

    def test_rank_reports_degenerate_rank(self, tmp_path):
        code, text = _verify(tmp_path, "r.json", "--suite", "rank", "--n", "3", "--d", "2")
        assert code == 0
        report = json.loads(text)
        assert report["params"]["degenerate_rank"] == 4  # 2(n-1)(d-1) at n=3, d=2

    def test_invalid_dimension_exits_2(self, capsys):
        code = main(["verify", "--suite", "jacobi", "--n", "2", "--d", "0"])
        assert code == 2
        assert "d must be >= 1" in capsys.readouterr().err

    def test_failing_suite_exits_1(self, tmp_path, monkeypatch):
        # an absurdly small exact tolerance turns rounding noise into a failure
        monkeypatch.setattr(suites, "TOL_EXACT", 1e-300)
        code, text = _verify(tmp_path, "r.json", "--suite", "jacobi", *FAST)
        assert code == 1
        report = json.loads(text)
        assert report["pass"] is False
        assert report["failures"]

    ZAK_SMALL_T = ["--suite", "zakrzewski", "--n", "2", "--d", "2", "--ell", "3", "--seed", "714583910", "--samples", "8"]

    def test_dichotomy_holds_where_t_is_small(self, tmp_path):
        # at index 5, |t| = |a.b| = 5.9e-4 and the inadmissible bracket's
        # Jacobi residual is 9.5e-5: visible on the scale |kappa|^2 |t|
        code, text = _verify(tmp_path, "r.json", *self.ZAK_SMALL_T)
        assert code == 0
        assert json.loads(text)["failures"] == []

    def test_dichotomy_fails_when_its_bad_pair_is_admissible(self, tmp_path, monkeypatch):
        monkeypatch.setattr(suites, "_F_ONE", suites._F_LIN)
        code, text = _verify(tmp_path, "r.json", *self.ZAK_SMALL_T)
        assert code == 1
        failures = json.loads(text)["failures"]
        assert failures and {f["digest"].split("check=")[1] for f in failures} == {"dichotomy"}

    def test_deterministic_reports(self, tmp_path):
        _, first = _verify(tmp_path, "a.json", "--suite", "symplectic", "--seed", "7", *FAST)
        _, second = _verify(tmp_path, "b.json", "--suite", "symplectic", "--seed", "7", *FAST)
        assert first == second

    def test_unexpected_exception_exits_4(self, tmp_path, capsys, monkeypatch):
        def broken(cfg):
            raise RuntimeError("defect in a suite builder")

        monkeypatch.setitem(suites._BUILDERS, "symplectic", broken)
        code = main(["verify", "--suite", "symplectic", "--out", str(tmp_path / "r.json")])
        assert code == 4
        assert capsys.readouterr().err == "unexpected error: RuntimeError: defect in a suite builder\n"
        assert not (tmp_path / "r.json").exists()

    def test_seed_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLIE_SEED", "99")
        _, text = _verify(tmp_path, "r.json", "--suite", "symplectic", *FAST)
        assert json.loads(text)["seed"] == 99

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLIE_SEED", "99")
        _, text = _verify(tmp_path, "r.json", "--suite", "symplectic", "--seed", "5", *FAST)
        assert json.loads(text)["seed"] == 5

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "samples": 3, "kappa": [0.0, 1.0]}))
        _, text = _verify(
            tmp_path, "r.json", "--suite", "symplectic", "--config", str(cfg), "--n", "2"
        )
        report = json.loads(text)
        assert report["params"]["n"] == 2  # flag wins over file
        assert report["samples"] == 3  # file value used
        assert report["params"]["kappa"] == [0.0, 1.0]

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert main(["verify", "--suite", "jacobi", "--config", str(cfg)]) == 2

    def test_bad_kappa_exits_2(self, capsys):
        assert main(["verify", "--suite", "jacobi", "--kappa", "nope"]) == 2

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--kappa", "nan"),
            ("--kappa", "inf,0"),
            ("--kappa", "1,-inf"),
            ("--kappa", "1e-320"),  # 1/kappa overflows
            ("--epsilon", "nan"),
            ("--radius", "inf"),
        ],
    )
    def test_non_finite_value_exits_2(self, capsys, flag, value):
        assert main(["verify", "--suite", "jacobi", flag, value]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value", [("--tol-exact", "nan"), ("--tol-fd", "inf"), ("--fd-step", "nan")]
    )
    def test_removed_setting_flag_exits_2(self, capsys, flag, value):
        # the bounds and the FD step are fixed in code; no flag can loosen them
        assert main(["verify", "--suite", "jacobi", flag, value]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_non_finite_in_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kappa": [Infinity, 0]}')
        assert main(["verify", "--suite", "jacobi", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "content,key",
        [
            ('{"samples": "many"}', "samples"),
            ('{"kappa": [1]}', "kappa"),
            ('{"kappa": ["a", 1]}', "kappa"),
            ('{"radius": null}', "radius"),
            ('{"seed": "7"}', "seed"),
            ('{"n": 2.7}', "n"),
            ('{"d": true}', "d"),
            ('{"sample": 3}', "sample"),
            ('{"tol_exact": 1e-3}', "tol_exact"),
            ('{"tol_fd": 1e-3}', "tol_fd"),
            ('{"fd_step": 1e-3}', "fd_step"),
            ('{"radius": 1' + "0" * 400 + "}", "radius"),
            ('{"kappa": 1' + "0" * 400 + "}", "kappa"),
            ('{"n": 1' + "0" * 400 + "}", "n"),
        ],
    )
    def test_invalid_config_key_or_value_exits_2(self, tmp_path, capsys, content, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        assert main(["verify", "--suite", "symplectic", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert key in err

    @pytest.mark.parametrize("kappa", ['"0,1"', "[0, 1]", "[0.0, 1.0]"])
    def test_config_kappa_spellings(self, tmp_path, kappa):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"kappa": {kappa}, "samples": 2, "radius": 1}}')
        _, text = _verify(tmp_path, "r.json", "--suite", "symplectic", "--config", str(cfg))
        report = json.loads(text)
        assert report["params"]["kappa"] == [0.0, 1.0]
        assert report["params"]["radius"] == 1.0 and isinstance(report["params"]["radius"], float)

    def test_negative_env_seed_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("PLIE_SEED", "-3")
        assert main(["verify", "--suite", "symplectic"]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,formula",
        [
            (["--n", "1000", "--d", "1000"], "2*n*d"),
            (["--n", "17", "--d", "1"], "n*n"),
            (["--n", "1", "--d", "17"], "d*d"),
            (["--ell", "12"], "2*ell*ell"),
        ],
    )
    def test_sizes_above_max_dim_exit_2(self, capsys, args, formula):
        assert main(["verify", "--suite", "jacobi", *args]) == 2
        assert f"{formula} must be <= MAX_DIM = {suites.MAX_DIM}" in capsys.readouterr().err

    def test_samples_above_max_samples_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"samples": 1000000000000}')
        for args in (["--samples", str(suites.MAX_SAMPLES + 1)], ["--config", str(cfg)]):
            assert main(["verify", "--suite", "symplectic", *args]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:")
            assert f"samples must be <= MAX_SAMPLES = {suites.MAX_SAMPLES}" in err

    @pytest.mark.parametrize(
        "flag,value", [("--kappa", "1e300"), ("--kappa", "1e-300"), ("--kappa", "0,1e51"), ("--epsilon", "1e300")]
    )
    def test_scale_outside_max_scale_exits_2(self, capsys, flag, value):
        assert main(["verify", "--suite", "all", flag, value]) == 2
        assert f"|{flag[2:]}| must lie in [1/MAX_SCALE, MAX_SCALE]" in capsys.readouterr().err

    def test_radius_above_max_radius_exits_2(self, capsys):
        assert main(["verify", "--suite", "actions", "--radius", "1e200"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "radius must lie in (0, MAX_RADIUS]" in err

    def test_largest_sizes_are_accepted(self):
        cfg = suites.RunConfig("jacobi", n=16, d=8, ell=11)
        assert 2 * cfg.n * cfg.d == suites.MAX_DIM

    def test_verify_flags_are_the_run_settings(self):
        parser = build_parser()
        verify = parser._subparsers._group_actions[0].choices["verify"]
        flags = {a.dest for a in verify._actions if a.dest != "help"}
        settings = {f.name for f in dataclasses.fields(suites.RunConfig)}
        assert flags == settings | {"config", "out"}


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda real=cli.build_parser: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for n in ("2", "3", "x"):
            main(["gen-point", "--space", "spin", "--n", n])
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert capsys.readouterr().out.count('"space": "spin"') == 2


def test_report_with_nan_residual_is_strict_json():
    failures = ((0, float("nan"), "seed=0 index=0 check=a"), (1, float("inf"), "seed=0 index=1 check=b"))
    report = VerificationReport("x", {"worst": float("nan")}, 0, 2, float("nan"), False, failures)
    payload = json.loads(report_to_json(report), parse_constant=_reject)
    assert payload["max_residual"] is None
    assert [f["residual"] for f in payload["failures"]] == [None, None]
    assert payload["params"]["worst"] is None
    assert payload["pass"] is False


def _reject(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestGenPoint:
    def test_spin_shape(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["gen-point", "--space", "spin", "--n", "4", "--seed", "7", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["space"] == "spin"
        assert len(payload["a"]) == 4 and len(payload["b"]) == 4
        assert all(len(entry) == 2 for entry in payload["a"])  # [re, im] pairs

    def test_radius_bound(self, tmp_path):
        out = tmp_path / "p.json"
        main(["gen-point", "--space", "spoint", "--n", "3", "--d", "2", "--radius", "0.3", "--out", str(out)])
        payload = json.loads(out.read_text())
        for row in payload["A"] + [list(c) for c in payload["B"]]:
            for re, im in row:
                assert (re * re + im * im) ** 0.5 <= 0.3 + 1e-12

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen-point", "--space", "dual", "--ell", "3", "--seed", "11", "--out", str(a)])
        main(["gen-point", "--space", "dual", "--ell", "3", "--seed", "11", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_invalid_sizes_exit_2(self, capsys):
        assert main(["gen-point", "--space", "spin", "--n", "0"]) == 2

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--space", "gl", "--ell", "100000"], "2*ell*ell must be <= MAX_DIM"),
            (["--space", "spoint", "--n", "1000", "--d", "1000"], "2*n*d must be <= MAX_DIM"),
            (["--space", "spin", "--seed", "-1"], "seed must be a nonnegative integer"),
            (["--space", "spin", "--index", "-1"], "index >= 0"),
            # a point takes a run's bounds: the radius, and n*n of the GL(n) action
            (["--space", "spin", "--radius", "2000"], "radius must lie in (0, MAX_RADIUS]"),
            (["--space", "spin", "--n", "20", "--d", "1"], "n*n must be <= MAX_DIM"),
        ],
    )
    def test_invalid_input_exits_2(self, capsys, args, message):
        assert main(["gen-point", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err

    def test_negative_env_seed_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("PLIE_SEED", "-3")
        assert main(["gen-point", "--space", "spin"]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_non_finite_radius_exits_2(self, radius):
        assert main(["gen-point", "--space", "spin", "--radius", radius]) == 2

    def test_flags_are_the_run_settings(self, tmp_path):
        sub = build_parser()._subparsers._group_actions[0].choices
        verify = {a.dest: a for a in sub["verify"]._actions}
        point = {a.dest: a for a in sub["gen-point"]._actions if a.dest != "help"}
        settings = {"n", "d", "ell", "seed", "radius"}
        assert set(point) == settings | {"space", "index", "out"}
        for name in settings:
            # no default of its own: an unset flag takes RunConfig's
            assert point[name].default is None, name
            assert (point[name].type, point[name].help) == (verify[name].type, verify[name].help), name
        out = tmp_path / "p.json"
        assert main(["gen-point", "--space", "spoint", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        run = suites.RunConfig("all")
        assert [payload[k] for k in ("n", "d", "seed", "radius")] == [run.n, run.d, run.seed, run.radius]

    def test_env_seed_zero_is_used(self, tmp_path, monkeypatch):
        env, flag, default = tmp_path / "env.json", tmp_path / "flag.json", tmp_path / "default.json"
        main(["gen-point", "--space", "spin", "--seed", "0", "--out", str(flag)])
        main(["gen-point", "--space", "spin", "--out", str(default)])
        monkeypatch.setenv("PLIE_SEED", "0")
        main(["gen-point", "--space", "spin", "--out", str(env)])
        assert json.loads(env.read_text())["seed"] == 0
        assert env.read_text() == flag.read_text() != default.read_text()
