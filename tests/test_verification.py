"""Check suites, discretization tolerance and sequence experiments."""

import warnings

import numpy as np
import pytest

from warpedsphere import (ClassParams, RadialGrid, SequenceSpec, bump_sphere,
                          build_report, constant_ledger, report_json,
                          round_sphere, run_all_checks, run_sequence,
                          solve_quadrature, tol_disc)
from warpedsphere import functionals, metrics, potential, verification
from warpedsphere.errors import ConfigError, ResidualGuardError
from warpedsphere.grids import PI
from warpedsphere.verification import SUITES

from conftest import REFERENCE_NAMES

WIDE_PARAMS = ClassParams(volume_max=40.0, diameter_max=10.0,
                          mass_max=3.0, cheeger_min=0.1)


def _suite(name, pot, ledger=None):
    """One suite alone, on its own evaluation."""
    return run_all_checks(pot, ledger, suites=(name,))


@pytest.fixture(scope="module")
def wide_ledger():
    return constant_ledger(WIDE_PARAMS)


class TestTolDisc:
    def test_floor(self):
        metric = round_sphere(grid=RadialGrid.uniform(100001))
        assert tol_disc(metric) == pytest.approx(1e-6)

    def test_quadratic_in_spacing(self):
        coarse = tol_disc(round_sphere(grid=RadialGrid.uniform(501)))
        fine = tol_disc(round_sphere(grid=RadialGrid.uniform(1001)))
        assert coarse == pytest.approx(4.0 * fine, rel=0.02)


class TestIdentitySuite:
    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_passes_on_references(self, reference_potentials, name):
        checks = _suite("identity", reference_potentials[name])
        assert {c.label for c in checks} == {"eq_2_2", "eq_2_3", "eq_2_4"}
        for c in checks:
            assert c.verdict == "pass", (name, c.label, c.margin)

    def test_margins_shrink_quadratically(self):
        # scaled sphere: smooth profiles, clean O(h^2) margin trend
        margins = {}
        for n in (501, 1001, 2001):
            from warpedsphere import scaled_sphere
            metric = scaled_sphere(1.1, grid=RadialGrid.uniform(n))
            pot = solve_quadrature(metric)
            for c in _suite("identity", pot):
                margins.setdefault(c.label, []).append(c.margin)
        for label, ms in margins.items():
            d1 = abs(ms[0] - ms[1])
            d2 = abs(ms[1] - ms[2])
            assert d2 < d1, label
            assert 2.0 <= d1 / d2 <= 8.0, label  # order 2 within band


class TestFullSuite:
    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_all_checks_pass(self, reference_potentials,
                             wide_ledger, name):
        checks = run_all_checks(reference_potentials[name], wide_ledger)
        failed = [(c.label, c.margin) for c in checks
                  if c.verdict == "fail"]
        assert not failed, (name, failed)

    def test_stable_order_and_labels(self, round_potential,
                                     wide_ledger):
        checks = run_all_checks(round_potential, wide_ledger)
        labels = [c.label for c in checks]
        assert labels[:3] == ["eq_2_2", "eq_2_3", "eq_2_4"]
        assert labels == [c.label for c in
                          run_all_checks(round_potential,
                                         wide_ledger)]
        assert len(labels) == len(set(labels))

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_shell_colatitudes_in_band(self, reference_potentials, wide_ledger,
                                       name):
        checks = _suite("polar", reference_potentials[name], wide_ledger)
        by_label = {c.label: c for c in checks}
        for tag in ("p", "mp"):
            sigma = by_label[f"lemma_4_1_{tag}"].inputs["sigma"]
            assert PI / 8 <= sigma <= PI / 4

    def test_witnesses_nonempty_when_bound_positive(self, reference_potentials,
                                                    wide_ledger):
        for name in REFERENCE_NAMES:
            checks = _suite("goodset", reference_potentials[name],
                            wide_ledger)
            for c in checks:
                if c.label.startswith("lemma_5_1_witness") \
                        and c.verdict != "skipped" \
                        and c.inputs.get("lower_bound", 0.0) > 0.0:
                    assert c.inputs["nonempty"], (name, c.label)


def _one_by_one(pot, ledger, names):
    """The named suites one at a time, each on its own evaluation, in
    SUITES order."""
    return [c for name in SUITES if name in names
            for c in _suite(name, pot, ledger)]


def _report(checks):
    return report_json(build_report({}, None, checks, timestamp="t"))


class TestSharedEvaluation:
    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    @pytest.mark.parametrize("subset", ["identity", "polar,global",
                                        "goodset", ",".join(SUITES)])
    def test_reports_byte_identical_to_suites_one_by_one(
            self, reference_potentials, wide_ledger, name, subset):
        pot = reference_potentials[name]
        names = subset.split(",")
        shared = run_all_checks(pot, wide_ledger, suites=names)
        assert shared
        assert _report(shared) == _report(
            _one_by_one(pot, wide_ledger, names))

    def test_suites_run_in_stable_order(self, round_potential,
                                        wide_ledger):
        a = run_all_checks(round_potential, wide_ledger,
                           suites=["goodset", "identity"])
        b = run_all_checks(round_potential, wide_ledger,
                           suites=["identity", "goodset"])
        assert [c.label for c in a] == [c.label for c in b]
        assert a[0].label == "eq_2_2"

    def test_guard_runs_once(self, reference_potentials,
                             wide_ledger, monkeypatch):
        count = []
        original = potential.flux_residual

        def counted(*args, **kwargs):
            count.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(potential, "flux_residual", counted)
        monkeypatch.setattr(functionals, "flux_residual", counted)
        run_all_checks(reference_potentials["tendril"], wide_ledger)
        assert len(count) == 1

    @pytest.mark.parametrize("suites", [SUITES, ("polar", "global"),
                                        *((name,) for name in SUITES)])
    def test_corrupted_potential_refused(self, corrupted_potential, wide_ledger,
                                         suites):
        with pytest.raises(ResidualGuardError):
            run_all_checks(corrupted_potential, wide_ledger,
                           suites=suites)

    def test_unknown_suite_refused(self, round_potential,
                                   wide_ledger):
        with pytest.raises(ConfigError):
            run_all_checks(round_potential, wide_ledger,
                           suites=["identity", "nonsense"])

    def test_no_suite_means_no_checks(self, corrupted_potential, wide_ledger):
        assert run_all_checks(corrupted_potential,
                              wide_ledger, suites=[]) == []


class TestGlobalSuite:
    def test_verdict_semantics(self):
        from warpedsphere.verification import _check
        assert _check("x", 1.0, 2.0, 1e-9).verdict == "pass"
        assert _check("x", 2.0, 1.0, 1e-9).verdict == "fail"
        # a violation inside the tolerance band still passes
        assert _check("x", 1.0 + 5e-10, 1.0, 1e-9).verdict == "pass"
        assert _check("x", 2.0, 1.0, 1e-9).margin == pytest.approx(-1.0)

    def test_every_check_reads_tol_disc(self, round_potential, wide_ledger):
        """No setting overrides a check's tolerance: each check that runs
        carries the tolerance of the metric's own grid, widened only for
        the witness checks by their set's boundary layer."""
        tol = tol_disc(round_potential.metric)
        checks = [c for c in run_all_checks(round_potential, wide_ledger)
                  if c.verdict != "skipped"]
        witness = [c for c in checks if "witness" in c.label]
        assert len(witness) == 2 and all(c.tolerance >= tol for c in witness)
        assert {c.tolerance for c in checks if c not in witness} == {tol}


class TestSequences:
    def test_bump_schedule_converges(self):
        spec = SequenceSpec(
            family="bump",
            schedule=tuple({"eta": 2.0 ** -i} for i in range(1, 6)))
        report = run_sequence(spec, ClassParams(40.0, 10.0, 1.0, 1.0))
        assert report.m_decreasing
        assert report.hypotheses_ok
        gaps = [e.volume_gap for e in report.entries]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert np.isfinite(report.fitted_k) and report.fitted_k > 0.0
        assert all(g <= report.fitted_k * e.m ** (1.0 / 24.0) + 1e-12
                   for g, e in zip(gaps, report.entries))

    def test_invalid_member_reported_in_place(self):
        spec = SequenceSpec(
            family="tendril",
            schedule=({"length": 1.0, "width": 0.1},
                      {"length": 1.0, "width": 0.1, "theta0": 0.01},
                      {"length": 1.0, "width": 0.2}))
        report = run_sequence(spec, WIDE_PARAMS)
        assert len(report.entries) == 3
        assert not report.entries[1].valid
        assert "ConstructionError" in report.entries[1].error
        assert report.entries[0].valid and report.entries[2].valid

    def test_unresolvable_widths_reported_without_warnings(self):
        """Widths too small to build a tendril from are invalid members
        whose errors blame the width, not the length, and computing
        them records no numpy RuntimeWarning."""
        spec = SequenceSpec(family="tendril", schedule=tuple(
            {"length": 1.0, "width": 2.0 ** -i} for i in (500, 514, 1074)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_sequence(spec, WIDE_PARAMS)
        assert [str(w.message) for w in caught] == []
        assert not any(e.valid for e in report.entries)
        assert "width is too small" in report.entries[1].error
        assert not any("length = 0" in e.error for e in report.entries)

    def test_programming_error_propagates(self, monkeypatch):
        """Only the package's own errors become `error` rows: a fault of
        the program, such as a TypeError, ends the sequence."""
        def broken(metric, params):
            raise TypeError("summarize got a bad argument")

        monkeypatch.setattr(verification, "summarize", broken)
        spec = SequenceSpec(family="bump", schedule=({"eta": 0.5},))
        with pytest.raises(TypeError, match="bad argument"):
            run_sequence(spec, WIDE_PARAMS)

    def test_each_member_validated_once(self, monkeypatch):
        calls = []
        original = metrics.validate

        def counted(metric, *args, **kwargs):
            calls.append(metric.params["eta"])
            return original(metric, *args, **kwargs)

        monkeypatch.setattr(metrics, "validate", counted)
        spec = SequenceSpec(family="bump",
                            schedule=({"eta": 0.5}, {"eta": 0.25}))
        report = run_sequence(spec, ClassParams(40.0, 10.0, 1.0, 1.0))
        assert calls == [0.5, 0.25]
        assert all(e.valid for e in report.entries)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            SequenceSpec(family="bump", schedule=())

    def test_bubble_schedule_membership_failure(self):
        spec = SequenceSpec(
            family="bubble",
            schedule=tuple({"area_radius": float(i), "neck_theta": 0.05}
                           for i in (1, 2, 3)))
        report = run_sequence(spec, ClassParams(40.0, 10.0, 1.0, 1.0))
        assert not report.hypotheses_ok
        assert all(e.cheeger_fails for e in report.entries)
