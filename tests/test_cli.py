"""Command-line front end: exit codes, configs, determinism."""

import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import warpedsphere
from warpedsphere import ClassParams, SequenceSpec, cli, run_sequence
from warpedsphere import families as fam
from warpedsphere.cli import main


def _strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


class TestExitCodes:
    def test_verify_round_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--family", "round",
                     "--grid-size", "501", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(c["verdict"] != "fail" for c in doc["checks"])

    def test_unknown_suite_is_config_error(self):
        assert main(["verify", "--family", "round",
                     "--suites", "nonsense"]) == 2

    def test_unknown_suite_refused_before_the_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solver ran for an unknown suite")

        monkeypatch.setattr(cli, "solve_quadrature", no_solve)
        assert main(["verify", "--family", "round",
                     "--suites", "identity,nonsense"]) == 2

    def test_unknown_family_is_config_error(self):
        assert main(["analyze", "--family", "torus"]) == 2

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[metric]\nfamily = round\nbogus_key = 1\n")
        assert main(["analyze", str(cfg)]) == 2

    def test_unknown_section_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[plotting]\nstyle = fancy\n")
        assert main(["analyze", str(cfg)]) == 2

    def test_missing_config_file(self):
        assert main(["analyze", "/does/not/exist.ini"]) == 2

    def test_bad_param_value(self):
        assert main(["analyze", "--family", "scaled",
                     "--param", "c=0.5"]) == 2  # c < 1 rejected

    def test_non_numeric_param_is_config_error(self, capsys):
        assert main(["analyze", "--family", "bump",
                     "--param", "eta=abc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "eta" in err

    def test_missing_required_param_is_config_error(self, capsys):
        assert main(["analyze", "--family", "bump"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "eta" in err

    def test_optional_param_may_be_omitted(self, tmp_path):
        # tendril's theta0 defaults to 2.5 width, so it is not required
        out = tmp_path / "t.json"
        assert main(["analyze", "--family", "tendril",
                     "--param", "length=1", "--grid-size", "301",
                     "--output", str(out)]) == 0

    def test_unresolvable_tendril_length_is_config_error(self, capsys):
        assert main(["analyze", "--family", "tendril",
                     "--param", "length=1e-20", "--grid-size", "301"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "too small" in err

    def test_non_finite_tendril_length_named(self, capsys):
        assert main(["analyze", "--family", "tendril",
                     "--param", "length=nan", "--grid-size", "301"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err


class TestInputContract:
    """Bad input exits 2 with one `error:` line and no traceback, and a
    tolerance that would switch a certificate off counts as bad input."""

    @pytest.mark.parametrize("argv,ini", [
        (["analyze", "--family", "tendril", "--param", "length=1",
          "--param", "width=nan"], None),
        (["analyze", "--family", "tendril", "--param", "length=1",
          "--param", "theta0=nan"], None),
        (["verify", "--family", "bump", "--param", "eta=0.5"],
         "[class]\ncheeger_min = inf\n"),
        (["sequence", "--family", "bump", "--count", "0"], None),
        (["sequence", "--family", "bump", "--count", "-3"], None),
        (["verify", "--family", "scaled", "--param", "c=2.65",
          "--tolerance", "inf"], None),
        (["verify", "--family", "bubble", "--param", "area_radius=2",
          "--param", "neck_theta=0.05"], "[suites]\ntolerance = inf\n"),
        (["verify", "--family", "round"], "[suites]\ntolerance = -1\n"),
        (["verify", "--family", "round"], "[solver]\nresidual_tol = nan\n"),
        (["verify", "--family", "round"], "[solver]\nresidual_tol = inf\n"),
        (["verify", "--family", "round", "--grid-size", "-5"], None),
        (["analyze", "--grid-size", "301", "--family", "scaled",
          "--param", "c=inf"], None),
        (["analyze", "--grid-size", "301", "--family", "bump",
          "--param", "eta=inf"], None),
        (["analyze", "--grid-size", "301", "--family", "bubble",
          "--param", "area_radius=inf", "--param", "neck_theta=0.05"], None),
        (["analyze", "--grid-size", "301", "--family", "bubble",
          "--param", "area_radius=nan", "--param", "neck_theta=0.05"], None),
        (["analyze", "--grid-size", "301", "--family", "tendril",
          "--param", "length=nan"], None),
        (["analyze", "--family", "bump", "--param", "eta=1e300"], None),
        (["verify", "--family", "bump", "--param", "eta=1e300"], None),
        (["sequence", "--family", "bump", "--count", "1075"], None),
        (["analyze"], b"[metric]\nfamily = round\nfamily = bump\n"),
        (["analyze"], b"[metric]\nfamily = round\n[metric]\nfamily = bump\n"),
        (["analyze"], b"family = round\n"),
        (["analyze"], b"[metric]\nfamily round\n"),
        (["analyze"], b"\xff\xfe[metric]\nfamily = round\n"),
        (["analyze"], b"[grid]\nn = %(x)s\n"),
    ], ids=["tendril-width-nan", "tendril-theta0-nan", "cheeger-min-inf",
            "sequence-count-0", "sequence-count-neg", "tolerance-inf",
            "bubble-ini-tolerance-inf", "tolerance-negative",
            "residual-tol-nan", "residual-tol-inf", "grid-size-negative",
            "scaled-c-inf", "bump-eta-inf", "bubble-area-radius-inf",
            "bubble-area-radius-nan", "tendril-length-nan",
            "analyze-bump-eta-1e300", "verify-bump-eta-1e300",
            "sequence-count-1075", "ini-duplicate-key",
            "ini-duplicate-section", "ini-no-section-header",
            "ini-line-without-equals", "ini-not-utf8",
            "ini-interpolation-missing"])
    def test_bad_input_exits_2_in_one_line(self, argv, ini, tmp_path,
                                           capsys):
        if ini is not None:
            cfg = tmp_path / "scenario.ini"
            cfg.write_bytes(ini.encode() if isinstance(ini, str) else ini)
            argv = [argv[0], str(cfg), *argv[1:]]
        # a numpy RuntimeWarning would reach stderr ahead of the error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_sequence_count_refused_before_any_schedule(self, monkeypatch,
                                                        capsys):
        def no_schedule(*args):
            raise AssertionError("a schedule was built")

        monkeypatch.setattr(cli, "_schedule", no_schedule)
        assert main(["sequence", "--family", "tendril",
                     "--count", "1075"]) == 2
        assert capsys.readouterr().err == (
            "error: sequence count must be at most 1074, got 1075\n")
        assert cli.MAX_SEQUENCE_COUNT == 1074
        assert 2.0 ** -cli.MAX_SEQUENCE_COUNT > 0.0
        assert 2.0 ** -(cli.MAX_SEQUENCE_COUNT + 1) == 0.0

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_non_finite_summary_exits_2(self, command, capsys):
        # volume overflows to inf; m and the Cheeger surrogate are nan.
        # verify refuses the metric before the solve, whose residual
        # self-check would otherwise read nan and exit 3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([command, "--family", "bump",
                         "--param", "eta=1e300"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.splitlines()[-1].startswith("error: summary volume is inf")

    def test_sequence_reports_non_finite_member_in_place(self):
        """A member whose summary is not finite is invalid, with the
        summary gate's one-line error; the sequence goes on."""
        spec = SequenceSpec(family="bump", schedule=({"eta": 1e300},
                                                     {"eta": 0.5}),
                            name="bump-extreme")
        with np.errstate(all="ignore"):
            entries = run_sequence(spec, ClassParams(40.0, 10.0, 1.0,
                                                     1.0)).entries
        assert [e.index for e in entries] == [1, 2]
        bad = entries[0]
        assert not bad.valid and not bad.admitted and not bad.cheeger_fails
        assert bad.error.startswith(
            "DegenerateMetricError: summary volume is inf")
        assert "\n" not in bad.error and np.isnan(bad.volume)
        assert entries[1].valid and entries[1].error == ""
        assert np.isfinite(entries[1].volume) and entries[1].admitted

    def test_coarse_grid_verify_is_silent(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--family", "round",
                         "--grid-size", "40"]) == 0
        assert capsys.readouterr().err == ""


#: one verify input per family; bubble and scaled c=2.65 exit 1
VERIFY_PER_FAMILY = {
    "round": ([], 0),
    "scaled": (["--param", "c=2.65"], 1),
    "bump": (["--param", "eta=0.5"], 0),
    "tendril": (["--param", "length=1"], 0),
    "bubble": (["--param", "area_radius=2", "--param", "neck_theta=0.05"], 1),
}


class TestEachQuantityOnce:
    """A verify call computes the deficit m once, and the curvature once on
    the grid nodes and once on the refined nodes; every check reads that
    one m."""

    @pytest.mark.parametrize("family", sorted(VERIFY_PER_FAMILY))
    def test_one_deficit_two_curvatures(self, family, monkeypatch, capsys):
        calls = {"scalar_deficit": 0, "scalar_curvature": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((warpedsphere.metrics, "scalar_deficit"),
                             (warpedsphere.metrics, "scalar_curvature"),
                             (warpedsphere.functionals, "scalar_curvature")):
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        params, code = VERIFY_PER_FAMILY[family]
        assert main(["verify", "--family", family, *params]) == code
        assert calls == {"scalar_deficit": 1, "scalar_curvature": 2}
        doc = json.loads(capsys.readouterr().out)
        ms = [c["inputs"]["m"] for c in doc["checks"] if "m" in c["inputs"]]
        assert ms and all(m == doc["summary"]["mass"] for m in ms)


class TestBvpCoarseGrid:
    """The truncated-interval solver is second order, so on coarse grids
    or at tiny epsilon its potential fails the flux guard: that is solver
    trouble (exit 3), reported in one line, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["--grid-size", "501"],
        ["--grid-size", "1001", "--epsilon", "1e-5"],
    ], ids=["n501", "n1001-eps1e-5"])
    def test_guard_refusal_is_solver_error(self, argv, capsys):
        code = main(["verify", "--family", "round", "--solver", "bvp"]
                    + argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("solver error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_no_suites_needs_no_guard(self, capsys):
        assert main(["verify", "--family", "round", "--grid-size", "501",
                     "--solver", "bvp", "--suites", ""]) == 0
        assert capsys.readouterr().err == ""


class TestConfigDriven:
    def test_full_ini_scenario(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(
            "[metric]\nfamily = bump\neta = 0.1\n"
            "[grid]\nkind = uniform\nn = 501\n"
            "[solver]\nmethod = quadrature\n"
            "[class]\nvolume_max = 40\ndiameter_max = 10\n"
            "mass_max = 3\ncheeger_min = 0.1\n"
            "[suites]\nrun = identity,global\n"
            f"[output]\npath = {out}\nformat = json\nseed = 11\n")
        assert main(["verify", str(cfg)]) == 0
        doc = json.loads(out.read_text())
        labels = {c["label"] for c in doc["checks"]}
        assert "eq_2_2" in labels and "lemma_3_1" in labels
        assert not any(l.startswith("lemma_4") for l in labels)

    def test_cli_flags_override_config(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[metric]\nfamily = round\n[grid]\nn = 2001\n")
        assert main(["analyze", str(cfg), "--grid-size", "301",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metric"]["grid_n"] == 301

    def test_csv_output(self, tmp_path):
        out = tmp_path / "checks.csv"
        assert main(["verify", "--family", "round", "--grid-size", "501",
                     "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "label,lhs,rhs,margin,tolerance,verdict"
        assert len(lines) > 3


class TestSubcommands:
    def test_analyze_reports_membership(self, tmp_path):
        out = tmp_path / "a.json"
        assert main(["analyze", "--family", "bubble",
                     "--param", "area_radius=2", "--param", "neck_theta=0.05",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["membership"]["cheeger_fails"] is True
        assert doc["membership"]["admitted"] is False

    def test_sequence_csv(self, tmp_path):
        out = tmp_path / "seq.csv"
        assert main(["sequence", "--family", "bump", "--count", "3",
                     "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4  # header + 3 rows

    def test_pointpick(self, tmp_path):
        out = tmp_path / "pick.json"
        assert main(["pointpick", "--family", "round",
                     "--radius", "0.1", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pointpick"]["certificate_ok"] is True

    @pytest.mark.parametrize("argv,keys", [
        (["analyze", "--family", "bubble", "--param", "area_radius=2",
          "--param", "neck_theta=0.05"],
         ["summary.volume", "summary.diameter_lower",
          "summary.diameter_upper", "summary.mass",
          "summary.cheeger_surrogate", "summary.validation_ok",
          "membership.admitted", "membership.comparison_ok",
          "membership.volume_ok", "membership.diameter_ok",
          "membership.mass_ok", "membership.cheeger_fails",
          "membership.cheeger_provisional"]),
        (["pointpick", "--family", "round", "--grid-size", "501"],
         ["radius", "q_colat", "sum_ball_volumes", "certificate_rhs",
          "certificate_ok", "beyond_proof_range"]),
    ], ids=["analyze", "pointpick"])
    def test_csv_key_column(self, argv, keys, capsys):
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value"
        assert [line.split(",")[0] for line in lines[1:]] == keys

    def test_families_lists_all(self, capsys):
        assert main(["families"]) == 0
        text = capsys.readouterr().out
        for name in ("round", "scaled", "bump", "tendril", "bubble"):
            assert name in text
        # sorted listing
        order = [l for l in text.splitlines() if l and not l.startswith(" ")]
        assert order == sorted(order)

    def test_families_marks_required_by_constructor_default(self, capsys):
        assert main(["families"]) == 0
        shown = {}
        for line in capsys.readouterr().out.splitlines():
            if not line.startswith(" "):
                family = line
            elif ":" in line:
                pname = line.split(":", 1)[0].strip()
                shown[family, pname] = line.endswith("; required]")
        listed = set()
        for name, build in fam.FAMILIES.items():
            for pname, param in inspect.signature(build).parameters.items():
                if pname in fam.FAMILY_CATALOG[name]:
                    listed.add((name, pname))
                    no_default = param.default is param.empty
                    assert shown[name, pname] == no_default, (name, pname)
        assert set(shown) == listed
        assert not shown["tendril", "theta0"]


def _modules_after(*argvs):
    """Run each argv through `main` in a fresh interpreter; return the
    exit codes and the scipy modules loaded by then."""
    script = (
        "import contextlib, io, json, sys\n"
        "from warpedsphere.cli import main\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "    if m == 'scipy' or m.startswith('scipy.'))]))\n")
    src = os.path.dirname(os.path.dirname(warpedsphere.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(done.stdout)


class TestImportFootprint:
    def test_commands_load_no_scipy(self):
        codes, scipy_modules = _modules_after(
            ["verify", "--family", "tendril", "--param", "length=1"],
            ["sequence", "--family", "bubble", "--count", "1"],
            ["pointpick"],
            ["analyze", "--family", "bump", "--param", "eta=0.5"],
            ["families"])
        assert codes == [0, 0, 0, 0, 0]
        assert scipy_modules == []

    def test_bvp_solver_still_runs(self):
        codes, scipy_modules = _modules_after(
            ["verify", "--family", "round", "--solver", "bvp"])
        assert codes == [0]
        assert "scipy.linalg" in scipy_modules


class TestDeterminism:
    def test_byte_identical_modulo_timestamp(self, tmp_path):
        out = tmp_path / "report.json"
        texts = []
        for _ in range(2):  # identical scenario, identical output target
            assert main(["verify", "--family", "bump",
                         "--param", "eta=0.25", "--grid-size", "501",
                         "--seed", "42", "--output", str(out),
                         "--tolerance", "0.001"]) == 0
            texts.append(_strip_timestamp(out.read_text()))
        assert texts[0] == texts[1]

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()

    def test_no_state_leaks_between_calls(self, tmp_path, capsys):
        # one process, several calls: the cached parser must carry no
        # state from one call into the next
        verify = ["verify", "--family", "round", "--grid-size", "501",
                  "--suites", "identity,polar"]
        out = tmp_path / "verify.json"
        texts = []
        for _ in range(2):
            assert main(verify + ["--output", str(out)]) == 0
            texts.append(_strip_timestamp(out.read_text()))
            capsys.readouterr()
            assert main(["analyze", "--family", "bump"]) == 2
            assert "requires parameter(s): eta" in capsys.readouterr().err
        assert texts[0] == texts[1]
        plain = tmp_path / "plain.json"
        assert main(["verify", "--family", "round", "--grid-size", "501",
                     "--output", str(plain)]) == 0
        doc = json.loads(plain.read_text())
        assert "run" not in doc["config"].get("suites", {})
        assert len(doc["checks"]) > len(json.loads(texts[0])["checks"])

    def test_run_id_tracks_seed(self, tmp_path):
        ids = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.json"
            assert main(["analyze", "--family", "round",
                         "--grid-size", "301", "--seed", seed,
                         "--output", str(out)]) == 0
            ids.append(json.loads(out.read_text())["run_id"])
        assert ids[0] != ids[1]
