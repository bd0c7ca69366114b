"""Command-line front end: exit codes, configs, determinism."""

import argparse
import ctypes
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
from conftest import write_profile_table


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
        (["analyze", "--family", "round", "--grid-size", "99999999999"],
         None),
        (["analyze", "--family", "round"], "[grid]\nn = 1000002\n"),
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
        (["analyze", "--family", "tendril", "--param", "length=2.3",
          "--param", "width=1e-300"], None),
        (["verify", "--family", "bubble", "--param", "area_radius=0.3",
          "--param", "neck_theta=1e-300"], None),
        (["analyze", "--family", "bump", "--param", "eta=1",
          "--param", "width=1e-300", "--param", "theta0=1"], None),
        (["pointpick", "--family", "bump", "--param", "eta=1",
          "--param", "width=1e-300", "--param", "theta0=1"], None),
        (["pointpick", "--family", "bump", "--param", "eta=1e300"], None),
        (["pointpick", "--family", "bump", "--param", "eta=1e150"], None),
        (["pointpick", "--family", "bump", "--param", "eta=1e300",
          "--radius", "0.7"], None),
        (["sequence"], "[suites]\nsequence_family = bump\n"),
        (["verify", "--family", "round", "--solver", "bvp"],
         "[solver]\nmax_iterations = 5\n"),
        (["verify", "--family", "round", "--solver", "bvp"],
         "[solver]\ndamping = 0.5\n"),
        (["verify", "--family", "round", "--epsilon", "abc"], None),
        (["verify", "--family", "round"],
         "[solver]\nmethod = bvp\nresidual_tol = nan\n"),
        (["analyze", "--family", "round"], "[solver]\nmethod = nonsense\n"),
        (["analyze", "--family", "round"],
         "[suites]\npointpick_radius = abc\n"),
        (["pointpick", "--family", "round"], "[class]\nvolume_max = abc\n"),
        (["sequence", "--family", "bump", "--count", "1",
          "--grid-size", "3"], None),
        (["sequence", "--family", "bump", "--count", "1",
          "--param", "eta=0.3"], None),
        (["sequence", "--family", "bump", "--count", "1"],
         "[metric]\nprofile = profile.txt\n"),
        (["sequence", "--family", "bump", "--count", "1",
          "--grid-size", "501"], None),
        (["sequence", "--family", "bump", "--count", "1"],
         "[grid]\nkind = graded\n"),
        *[([command, "--family", "bump", "--param", "eta=0.5"],
           f"[class]\n{bound}\n")
          for bound in ("mass_max = 1e150", "mass_max = 1e200",
                        "volume_max = 1e306", "volume_max = 1e308",
                        "cheeger_min = 1e-300")
          for command in ("verify", "analyze")],
    ], ids=["tendril-width-nan", "tendril-theta0-nan", "cheeger-min-inf",
            "sequence-count-0", "sequence-count-neg", "tolerance-inf",
            "bubble-ini-tolerance-inf", "tolerance-negative",
            "residual-tol-nan", "residual-tol-inf", "grid-size-negative",
            "grid-size-huge", "ini-grid-n-above-cap",
            "scaled-c-inf", "bump-eta-inf", "bubble-area-radius-inf",
            "bubble-area-radius-nan", "tendril-length-nan",
            "analyze-bump-eta-1e300", "verify-bump-eta-1e300",
            "sequence-count-1075", "ini-duplicate-key",
            "ini-duplicate-section", "ini-no-section-header",
            "ini-line-without-equals", "ini-not-utf8",
            "ini-interpolation-missing", "tendril-width-1e-300",
            "bubble-neck-theta-1e-300", "analyze-bump-width-1e-300",
            "pointpick-bump-width-1e-300", "pointpick-bump-eta-1e300",
            "pointpick-bump-eta-1e150", "pointpick-bump-eta-1e300-radius",
            "ini-suites-sequence-family", "ini-solver-max-iterations",
            "ini-solver-damping", "quadrature-epsilon-abc",
            "bvp-residual-tol-nan", "analyze-solver-method-nonsense",
            "analyze-pointpick-radius-abc", "pointpick-volume-max-abc",
            "sequence-grid-size-3", "sequence-param-eta",
            "sequence-profile", "sequence-grid-size-501",
            "sequence-ini-grid-kind",
            *[f"{command}-ledger-{bound}"
              for bound in ("mass-max-1e150", "mass-max-1e200",
                            "volume-max-1e306", "volume-max-1e308",
                            "cheeger-min-1e-300")
              for command in ("verify", "analyze")]])
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

    @pytest.mark.parametrize("command", ["analyze", "verify", "pointpick"])
    @pytest.mark.parametrize("table", [
        b"0,1,0\n", b"\xff\xfe0 1 0\n", b"", b"# theta phi f\n",
        b"0 1 0\n1 1\n",
    ], ids=["commas", "not-utf8", "empty", "comment-only", "ragged"])
    def test_unreadable_profile_table_exits_2(self, command, table, tmp_path,
                                             capsys):
        """A profile table numpy cannot parse is bad input: one line that
        names the table, and no numpy warning ahead of it."""
        path = tmp_path / "profile.txt"
        path.write_bytes(table)
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(f"[metric]\nprofile = {path}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read profile table {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--family", "bump"],
        ["verify", "--param", "c=1.5"],
        ["pointpick", "--grid-size", "501"],
    ], ids=["family", "param", "grid"])
    def test_profile_takes_no_family(self, argv, tmp_path, capsys):
        """A profile table is the whole metric, on its own nodes: a
        family, a family parameter or a grid beside it is refused, not
        ignored."""
        path = tmp_path / "profile.txt"
        write_profile_table(fam.round_sphere(), path)
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(f"[metric]\nprofile = {path}\n")
        assert main([argv[0], str(cfg)]) == 0
        capsys.readouterr()
        assert main([argv[0], str(cfg), *argv[1:]]) == 2
        assert capsys.readouterr().err == (
            "error: profile tables take no family, parameters or grid\n")

    def test_pole_check_scales_with_f(self, tmp_path, capsys):
        """f must vanish at the poles relative to its own scale: a round
        sphere of radius 1000 (f(pi) = 1000 sin(pi)) is admitted, and a
        table on the unit scale with f(pi) = 1e-6 is refused."""
        assert main(["analyze", "--family", "scaled",
                     "--param", "c=1000"]) == 0
        capsys.readouterr()
        metric = fam.round_sphere()
        path = tmp_path / "profile.txt"
        np.savetxt(path, np.column_stack([
            metric.theta, metric.phi, np.append(metric.f[:-1], 1e-6)]))
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(f"[metric]\nprofile = {path}\n")
        assert main(["analyze", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: f must vanish at both poles\n")

    def test_output_error_names_the_requested_path(self, tmp_path, capsys):
        """A report that cannot be written exits 2 with one line naming the
        requested path, never the randomly named temp file, and leaves no
        temp file behind."""
        missing = tmp_path / "missing" / "x.json"
        taken = tmp_path / "taken"          # a directory: the rename fails
        taken.mkdir()
        for path in (missing, taken):
            errs = []
            for _ in range(2):
                assert main(["analyze", "--family", "round", "--grid-size",
                             "301", "--output", str(path)]) == 2
                errs.append(capsys.readouterr().err)
            assert errs[0] == errs[1]
            assert errs[0].startswith("error: [Errno ")
            assert errs[0].endswith(f": {str(path)!r}\n")
        assert os.listdir(tmp_path) == ["taken"]
        assert os.listdir(taken) == []

    @pytest.mark.parametrize("eta", ["0.5", "1e300"])
    def test_pointpick_radius_refused_before_the_summary(self, eta,
                                                        monkeypatch, capsys):
        """An out-of-range radius is refused by name before any summary
        is paid for, also when the metric's summary would overflow."""
        def no_summary(metric):
            raise AssertionError("summarized before the radius check")

        monkeypatch.setattr(cli, "summarize", no_summary)
        assert main(["pointpick", "--family", "bump", "--param",
                     f"eta={eta}", "--radius", "0.7"]) == 2
        err = capsys.readouterr().err
        assert err == "error: point-pick radius must lie in (0, 0.5]\n"

    def test_unresolvable_tendril_width_blames_the_width(self, capsys):
        assert main(["analyze", "--family", "tendril", "--param",
                     "length=2.3", "--param", "width=1e-300"]) == 2
        err = capsys.readouterr().err
        assert "width is too small" in err and "length = 0" not in err

    def test_longest_tendril_sequence_is_silent(self, capsys):
        """Widths down to 2**-1074 are reported invalid in place, each
        with its own error, and nothing reaches stderr."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sequence", "--family", "tendril",
                         "--count", "1074"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        entries = json.loads(out)["sequence"]["entries"]
        assert len(entries) == 1074
        assert not any("length = 0" in e["error"] for e in entries)
        assert all("width is too small" in e["error"]
                   for e in entries[513:1073])

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

    @pytest.mark.parametrize("command", ["analyze", "verify", "pointpick"])
    def test_non_finite_summary_exits_2(self, command, capsys):
        # volume overflows to inf; m and the Cheeger surrogate are nan.
        # verify refuses the metric before the solve, whose residual
        # self-check would otherwise read nan and exit 3, and pointpick
        # before the scan, whose ball volumes would overflow
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

    @pytest.mark.parametrize("argv,keys,cells", [
        (["analyze", "--family", "bubble", "--param", "area_radius=2",
          "--param", "neck_theta=0.05"],
         ["summary.volume", "summary.diameter_lower",
          "summary.diameter_upper", "summary.mass",
          "summary.cheeger_surrogate", "summary.validation_ok",
          "membership.admitted", "membership.comparison_ok",
          "membership.volume_ok", "membership.diameter_ok",
          "membership.mass_ok", "membership.cheeger_fails",
          "membership.cheeger_provisional"],
         {"summary.validation_ok": "true", "membership.admitted": "false",
          "membership.cheeger_fails": "true"}),
        (["pointpick", "--family", "round", "--grid-size", "501"],
         ["radius", "q_colat", "sum_ball_volumes", "certificate_rhs",
          "certificate_ok", "beyond_proof_range"],
         {"radius": "0.10000000000000001", "certificate_ok": "true"}),
    ], ids=["analyze", "pointpick"])
    def test_csv_key_column(self, argv, keys, cells, capsys):
        """Keys in report order; values as every CSV writes them: bools
        in lower case, floats with CSV_DIGITS = 17 significant digits."""
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value"
        table = dict(line.split(",") for line in lines[1:])
        assert list(table) == keys
        assert {key: table[key] for key in cells} == cells
        for value in table.values():
            assert value in ("true", "false") or \
                value == format(float(value), ".17g")

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


#: modules no command needs: OpenSSL's `_hashlib` (behind `hashlib`) and
#: `numpy.ma` (behind the first `np.unique`)
HEAVY_MODULES = ("_hashlib", "numpy.ma")


def _modules_after(*argvs, prelude=""):
    """Run `prelude`, then each argv through `main`, in a fresh
    interpreter; return the exit codes, the scipy modules loaded by then
    and those of HEAVY_MODULES loaded by then."""
    script = prelude + (
        "import contextlib, io, json, sys\n"
        "from warpedsphere.cli import main\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "    if m == 'scipy' or m.startswith('scipy.')),\n"
        f"    [m for m in {HEAVY_MODULES!r} if m in sys.modules]]))\n")
    src = os.path.dirname(os.path.dirname(warpedsphere.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(done.stdout)


#: one call of each command; the tendril calls reach its node merge
FOOTPRINT_ARGVS = (
    ["verify", "--family", "tendril", "--param", "length=1"],
    ["sequence", "--family", "bubble", "--count", "1"],
    ["sequence", "--family", "tendril", "--count", "2"],
    ["pointpick"],
    ["analyze", "--family", "bump", "--param", "eta=0.5"],
    ["families"])


class TestImportFootprint:
    """A command loads numpy alone: scipy only for `--solver bvp`, and
    neither OpenSSL, `numpy.ma` nor LAPACK."""

    def test_commands_load_no_scipy(self):
        codes, scipy_modules, heavy = _modules_after(*FOOTPRINT_ARGVS)
        assert codes == [0] * len(FOOTPRINT_ARGVS)
        assert scipy_modules == []
        assert heavy == []

    def test_commands_call_no_lapack(self):
        prelude = ("import numpy\n"
                   "def refuse(*args, **kwargs):\n"
                   "    raise RuntimeError('a LAPACK solve was called')\n"
                   "numpy.linalg.lstsq = numpy.polyfit = refuse\n")
        codes, _, _ = _modules_after(*FOOTPRINT_ARGVS, prelude=prelude)
        assert codes == [0] * len(FOOTPRINT_ARGVS)

    def test_bvp_solver_still_runs(self):
        codes, scipy_modules, _ = _modules_after(
            ["verify", "--family", "round", "--solver", "bvp"])
        assert codes == [0]
        assert "scipy.linalg" in scipy_modules


def _raising(exc):
    def refuse(*args):
        raise exc
    return refuse


class TestHeapKept:
    """On glibc, `main` keeps freed heap in the process, so repeated calls
    reuse the pages of earlier ones; elsewhere it leaves the allocator
    alone, silently."""

    def test_repeated_sequence_calls_fault_few_pages(self, capsys):
        if not cli._keep_freed_heap():
            pytest.skip("glibc's mallopt is not available here")
        import resource
        argv = ["sequence", "--family", "tendril", "--count", "2"]
        for _ in range(3):
            assert main(argv) == 0
        capsys.readouterr()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            assert main(argv) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        capsys.readouterr()
        assert faults / 5 < 100

    @pytest.mark.parametrize("module, name, replacement", [
        (os, "confstr", None),
        (os, "confstr", _raising(ValueError("unrecognized name"))),
        (os, "confstr", lambda name: None),
        (ctypes, "CDLL", _raising(OSError("no C library")))],
        ids=["no-confstr", "not-glibc", "confstr-undefined", "no-libc"])
    def test_failed_libc_lookup_is_silent(self, module, name, replacement,
                                          monkeypatch, capsys):
        argv = ["sequence", "--family", "bump", "--count", "1"]
        assert main(argv) == 0
        expected = _strip_timestamp(capsys.readouterr().out)
        if replacement is None:
            monkeypatch.delattr(module, name, raising=False)
        else:
            monkeypatch.setattr(module, name, replacement)
        cli._keep_freed_heap.cache_clear()
        try:
            assert main(argv) == 0
            assert cli._keep_freed_heap() is False
        finally:
            cli._keep_freed_heap.cache_clear()
        out, err = capsys.readouterr()
        assert err == "" and _strip_timestamp(out) == expected

    def test_import_leaves_the_allocator_alone(self):
        script = ("import warpedsphere\n"
                  "from warpedsphere import cli\n"
                  "print(cli._keep_freed_heap.cache_info().currsize)\n")
        src = os.path.dirname(os.path.dirname(warpedsphere.__file__))
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.stdout == "0\n"


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

    def test_every_flag_names_a_setting(self):
        """Each flag stores its value under a `section.key` of SETTINGS,
        so flags and scenario files share one table and one parse."""
        subparsers = next(a for a in cli._parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        dests = {action.dest for sub in subparsers.choices.values()
                 for action in sub._actions
                 if not isinstance(action, argparse._HelpAction)}
        dests -= {"config", "command", "param"}
        assert len(dests) == 11
        for dest in dests:
            section, key = dest.split(".")
            assert key in cli.SETTINGS[section], dest
        assert {section: len(keys) for section, keys in
                cli.SETTINGS.items()} == {"metric": 11, "grid": 2,
                                          "solver": 3, "class": 4,
                                          "suites": 4, "output": 3}

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
